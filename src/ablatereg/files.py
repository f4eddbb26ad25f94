"""Every file the package writes and reads: reports, synthetic sets,
attributions, and model and checkpoint files.

Every file goes out through :func:`write_text`, which writes atomically, as
the text of one rule per format, each float written as its ``repr``: CSV
headers and mixed-type rows by :func:`csv_text`, JSON by :func:`json_text`.
:func:`matrix_lines` formats a numeric CSV body cell by cell.  A synthetic
set, whose cells repeat a bounded set of values, comes from one text table
(:class:`_TextTable`) when :func:`augmented_lines` finds that set small: each
value is formatted once, and the cells are looked up by bit pattern, about a
thousand rows at a time.  The model file of ``fit`` and the checkpoint of
``train`` are read back by :func:`read_model` alone.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import secrets
import stat

import numpy as np

from .augment import BLOCK_ROWS, AugmentSpec, augmented_chunks, synthetic_values
from .dataset import Dataset, FeatureStats
from .linear import LinearModel
from .nn import MlpModel, TrainLog, linear_as_mlp


class ReportError(ValueError):
    """An input file that is not what it should be (a sweep report, model,
    checkpoint or baseline file), or inputs that do not fit together: two
    sweeps that cannot be compared, or a model and the data it is run on."""


def write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of string chunks, to ``path``
    as UTF-8, newlines as given.  Every report, model and checkpoint file the
    package writes goes through here.

    A regular file is written atomically: the chunks go to a new file in the
    target's directory, which then replaces ``path`` and takes over the old
    file's permission bits.  If anything fails on the way, the new file is
    removed and ``path`` is left as it was; an ``OSError`` on the new file
    names ``path`` instead.  Replacing makes a new inode, so the old file's
    owner is not kept and a hard link to it keeps the old contents.  A
    symbolic link is followed, so the file it names is replaced and the link
    kept.

    Two kinds of target are opened and written in place instead, as a plain
    ``open`` would: one that exists and is no regular file (a pipe, a socket
    or a terminal), and any path under ``/dev`` or ``/proc``, such as
    ``/dev/stdout``, which names a descriptor the caller already holds even
    when that is a regular file.
    """
    if isinstance(text, str):
        text = (text,)
    try:
        mode = os.stat(path).st_mode  # follows links, /proc's included
    except FileNotFoundError:
        mode = None
    in_place = os.path.abspath(path).startswith(("/dev/", "/proc/"))
    if in_place or (mode is not None and not stat.S_ISREG(mode)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(text)
        return
    real = os.path.realpath(path)
    directory, name = os.path.split(real)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.writelines(text)
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
        os.replace(tmp, real)
    except BaseException as err:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(err, OSError) and err.filename == tmp:
            raise type(err)(err.errno, err.strerror, os.fspath(path)) from None
        raise


_QUOTED = frozenset(',"\r\n')


def _field(value) -> str:
    """One CSV field: a float as its ``repr``, anything else as its ``str``,
    quoted with its double quotes doubled when it holds a comma, a double
    quote or a line break."""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    text = str(value)
    if _QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def csv_text(header, rows=()) -> str:
    """The CSV text of ``header`` and then ``rows``, one line each."""
    return "".join([",".join(map(_field, row)) + "\n" for row in (header, *rows)])


def json_text(value) -> str:
    """The JSON text of ``value``: sorted keys, two-space indent, a final
    newline."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def read_json(path, what: str):
    """The JSON value in ``path``; a file that is not JSON raises
    :class:`ReportError` naming it as no JSON ``what``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ReportError(f"{path} is not a JSON {what}: {err}") from None


def first_line(path) -> str:
    """The first line of ``path`` with its line end, bytes that are no UTF-8
    replaced."""
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        return fh.readline()


# Rows of CSV text made at a time, and table values formatted at a time.  A
# chunk's temporaries take about 8 bytes per byte of its text, so 1024 rows
# of a few dozen cells stay near a megabyte.
CHUNK_ROWS = 1024


class _TextTable:
    """The CSV text of a set of distinct float64 values, each formatted once
    as its ``repr``, looked up by bit pattern; keying on bits keeps ``0.0``
    and ``-0.0`` apart.

    The texts sit back to back in one byte buffer, each followed by a comma,
    so a table of many values is a few arrays, not a Python string each.  A
    chunk of rows is one gather from the buffer, with each row's last comma
    then turned into a newline."""

    def __init__(self, bits: np.ndarray):
        """``bits``: the values' sorted, distinct bit patterns, as int64."""
        self.bits = bits
        values = bits.view(np.float64)
        self.lengths = np.empty(bits.size, dtype=np.int64)
        parts = []
        for start in range(0, bits.size, CHUNK_ROWS):
            text = [repr(v) + "," for v in values[start:start + CHUNK_ROWS].tolist()]
            self.lengths[start:start + len(text)] = [len(t) for t in text]
            parts.append("".join(text))
        # a float's repr is ASCII
        self.text = np.frombuffer("".join(parts).encode("ascii"), dtype=np.uint8)
        self.starts = np.cumsum(self.lengths) - self.lengths

    def chunks(self, matrix: np.ndarray):
        """Yield the CSV body lines of the float64 matrix, one line per row,
        ``CHUNK_ROWS`` rows at a time.  A value missing from the table raises
        ``ValueError``; it is never formatted on the side."""
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        n = self.bits.size
        width = matrix.shape[1]
        for start in range(0, matrix.shape[0], CHUNK_ROWS):
            bits = matrix[start:start + CHUNK_ROWS].view(np.int64).ravel()
            # sorted keys search about twice as fast: each search starts near
            # the last, in memory still cached
            order = np.argsort(bits)
            bits = bits[order]
            found = np.searchsorted(self.bits, bits)
            if n == 0 or not np.array_equal(self.bits[np.minimum(found, n - 1)], bits):
                raise ValueError("matrix holds a value missing from its text table")
            index = np.empty_like(found)
            index[order] = found
            lengths = self.lengths[index]
            ends = np.cumsum(lengths)  # where each cell's text ends in the chunk
            # byte i of the chunk is byte i - (its cell's start in the chunk)
            # of its value's text in the buffer
            offsets = np.repeat(self.starts[index] - (ends - lengths), lengths)
            offsets += np.arange(offsets.size)
            chunk = self.text[offsets]
            chunk[ends[width - 1::width] - 1] = ord("\n")
            yield chunk.tobytes().decode("ascii")


def _distinct_bits(values) -> np.ndarray:
    """The sorted, distinct float64 bit patterns of ``values``, as int64.

    A sort, not ``np.unique``: from numpy 2.3 that finds distinct values
    with a hash table, which took 0.2-0.3 s where this takes 0.01 s on
    368,600 mostly distinct values."""
    bits = np.sort(np.ascontiguousarray(values, dtype=np.float64).view(np.int64), axis=None)
    first = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    return bits[first]


def matrix_lines(matrix: np.ndarray) -> str:
    """CSV body lines of a float matrix, one per row: the bytes
    :func:`csv_text` writes for ``matrix.tolist()``, without its header,
    formatted cell by cell, one row converted to Python floats at a time."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return "".join([",".join(map(repr, row.tolist())) + "\n" for row in matrix])


def augmented_lines(d: Dataset, spec: AugmentSpec):
    """The CSV body of the synthetic set of d, ``[X | y]`` row by row, as an
    iterator of text chunks; the draws are those of
    :func:`~ablatereg.augment.augmented_chunks`, one block in memory at a time.

    Every value a cell can hold (:func:`~ablatereg.augment.synthetic_values`)
    is formatted once for the whole run, into one :class:`_TextTable`, when
    there are at most half as many of them as the first block has cells.  A
    larger source is formatted block by block, cell by cell, by
    :func:`matrix_lines`, rather than into a table larger than a block.
    Both give the same bytes.
    """
    blocks = (np.column_stack(block) for block in augmented_chunks(d, spec))
    bits = _distinct_bits(synthetic_values(d, spec))
    if 2 * bits.size > min(BLOCK_ROWS, spec.n_synthetic) * (d.k + 1):
        return map(matrix_lines, blocks)
    return itertools.chain.from_iterable(map(_TextTable(bits).chunks, blocks))


def write_model(path, model: LinearModel, lam, penalty_kind, objective_value, columns,
                task: str) -> None:
    """The ``fit`` model file: the linear model, the fit that made it (its
    lambda, penalty kind and objective, each None for OLS) and the columns
    and task of its data."""
    write_text(path, json_text({
        "beta": model.beta.tolist(),
        "intercept": model.intercept,
        "lambda": lam,
        "penalty_kind": penalty_kind,
        "objective_value": objective_value,
        "columns": list(columns),
        "task": task,
    }))


def write_checkpoint(path, model: MlpModel, log: TrainLog, test_metrics: dict, mode: str,
                     lam, stats: FeatureStats, columns) -> None:
    """The ``train`` checkpoint: the network at its best epoch, its training
    log and test metrics, the augmentation it was trained under (``lam``
    None without one) and the standardization of its input ``columns``."""
    write_text(path, json_text({
        "dims": list(model.layer_dims),
        "weights": [w.tolist() for w in model.weights],   # row-major per layer
        "biases": [b.tolist() for b in model.biases],
        "task": model.task,
        "training_log": {
            "epochs": log.epochs,
            "best_epoch": log.best_epoch,
            "best_val_loss": log.best_val_loss,
            "stopped_early": log.stopped_early,
        },
        "test_metrics": test_metrics,
        "mode": mode,
        "lambda": lam,
        "standardization": {
            "means": stats.means.tolist(),
            "variances": stats.variances.tolist(),
            "response_mean": stats.response_mean,
            "columns": list(columns),
        },
    }))


def read_model(path):
    """A ``fit`` model or ``train`` checkpoint file as (network, linear model
    or None, standardization or None, recorded lambda, recorded column names
    or None).  A file that is not one raises :class:`ReportError` naming it."""
    payload = read_json(path, "model")
    try:
        linear = None
        if "beta" in payload:
            linear = LinearModel(beta=payload["beta"], intercept=payload["intercept"])
            model = linear_as_mlp(linear.beta, linear.intercept, payload.get("task", "regression"))
        else:
            weights, biases = ([np.asarray(a, dtype=np.float64) for a in payload[key]]
                               for key in ("weights", "biases"))
            model = MlpModel(weights=weights, biases=biases, task=payload["task"])
        block = payload.get("standardization")
        stats = None
        if block:
            stats = FeatureStats(means=block["means"], variances=block["variances"],
                                 response_mean=block.get("response_mean"))
        columns = (block or payload).get("columns")
        return (model, linear, stats, payload.get("lambda"),
                None if columns is None else list(columns))
    except KeyError as err:
        raise ReportError(f"model file {path} lacks the key {err}") from None
    except (TypeError, ValueError, AttributeError) as err:
        raise ReportError(f"{path} is not a model file: {err}") from None
