"""Golden digests of the text I/O paths: CSV ingestion and the ``augment``
command's output.

The file below is generated from a fixed seed and holds a categorical column,
missing tokens in several spellings, padded cells, unparseable numbers and
rows of the wrong width.  The digests were made with the three-pass parser
and the whole-set ``augment`` writer that the current code replaced, so any
change to a parsed value, a rule or an output byte fails here.  Neither path
runs a BLAS reduction, so the digests do not depend on the platform.
"""

import hashlib
import logging
import random

import pytest

from ablatereg.cli import main
from ablatereg.dataset import load_csv

MISSING = ["", "NA", "n/a", "NaN", "null", "None", "?"]
BAD = ["oops", "1.2.3", "inf", "--1"]


def golden_csv(path) -> None:
    rng = random.Random(20260)
    lines = ["x0,x1, grp ,x2,y,label"]
    for i in range(400):
        cells = [repr(rng.gauss(0.0, 1.0)), repr(round(rng.uniform(-5, 5), 3)),
                 rng.choice(["red", "green", "blue"]), str(rng.randint(-3, 3)),
                 repr(rng.gauss(2.0, 3.0)), rng.choice(["lo", "mid", "hi"])]
        kind = i % 23
        if kind == 1:
            cells[rng.randrange(6)] = rng.choice(MISSING)
        elif kind == 2:
            cells[rng.choice([0, 1, 3, 4])] = rng.choice(BAD)
        elif kind == 3:
            cells = cells[:-1] if i % 2 else cells + ["7"]
        elif kind == 4:
            cells = [f" {c}\t" for c in cells]
        elif kind == 5:
            lines.append("")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dataset_digest(d) -> str:
    h = hashlib.sha256()
    h.update(d.features.tobytes())
    h.update(d.response.tobytes())
    meta = (d.features.shape, d.column_names, d.column_kinds, sorted(d.categories.items()),
            d.task, d.n_dropped)
    h.update(repr(meta).encode())
    return h.hexdigest()


LOAD_DIGESTS = {
    ("y", "regression"): "4db827c78595d88bc8bd84ab33445bf8b57c52aefdad9f7f7eff58c43db08517",
    ("label", "classification"):
        "ddd797c043cc4735e1163c863adcf54265036eed71c6a5c40b314d65b69a830f",
}

AUGMENT_DIGESTS = {
    "mean": "1a02512126106d3c3915c4471ae3625c8fcd17102a46ae2cc322785031380e32",
    "iid": "309e692d047eb41421c4e9bc092dcea0e497975884844c6c84c3eb1d96e6cce4",
}


@pytest.fixture()
def golden_path(tmp_path):
    path = tmp_path / "golden.csv"
    golden_csv(path)
    return path


@pytest.mark.parametrize("response,task", sorted(LOAD_DIGESTS))
def test_load_csv_digest(golden_path, response, task):
    logging.disable(logging.WARNING)
    try:
        d = load_csv(golden_path, response, task)
    finally:
        logging.disable(logging.NOTSET)
    assert dataset_digest(d) == LOAD_DIGESTS[(response, task)]


@pytest.mark.parametrize("mode", sorted(AUGMENT_DIGESTS))
def test_augment_output_digest(golden_path, tmp_path, mode):
    out = tmp_path / f"augment_{mode}.csv"
    assert main(["augment", "--mode", mode, "--lambda", "0.35", "--n", "3000",
                 "--seed", "11", "--data", str(golden_path), "--response", "y",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == AUGMENT_DIGESTS[mode]
