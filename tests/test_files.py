import ast
import csv
import io
from pathlib import Path

import pytest

from ablatereg.files import csv_text

SRC = Path(__file__).resolve().parents[1] / "src" / "ablatereg"


@pytest.mark.parametrize("row", [
    ["plain", "", "a b", 1, 2.5, -0.0, True],
    ["a,b", 'say "hi"', "line\nbreak", '"', ",", "x"],
    ["error: fit_ccp: (suspect columns: c=p, c=q, c=r)", "colour=red, dark"],
], ids=["plain", "quoted", "commas"])
def test_csv_text_quotes_as_the_csv_module(row):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([row, row])
    assert csv_text(row, [row]) == out.getvalue()


def test_a_carriage_return_is_quoted_and_reads_back():
    row = ["a\rb", "c\r\n", "d"]
    assert csv_text(row) == '"a\rb","c\r\n",d\n'
    assert list(csv.reader(io.StringIO(csv_text(row, [row]), newline=""))) == [row, row]


def module_tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def test_no_package_module_touches_a_private_name_of_another():
    """Each module reaches the others only through public names; ``_streams``
    is a private module whose names are public, so importing it or its names is fine."""
    names = sorted(path.stem for path in SRC.glob("*.py"))
    imported = set()
    private = []
    for name in names:
        tree = module_tree(name)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        private.append(f"{name}: from .{node.module} import {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")):
                private.append(f"{name}: {node.value.id}.{node.attr} at line {node.lineno}")
        imported |= modules
    assert {"_streams", "files", "harness"} <= imported
    assert private == []


def test_harness_does_no_file_io():
    """The file and text imports that ``files`` owns stay out of ``harness``."""
    imported = set()
    for node in ast.walk(module_tree("harness")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert imported.isdisjoint({"contextlib", "itertools", "json", "os", "secrets", "stat"})
