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


def test_cli_touches_no_private_name_of_another_package_module():
    """``cli`` reaches the package only through public names."""
    tree = module_tree("cli")
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_") or (node.module or "").startswith("_"):
                    private.append(f"from .{node.module or ''} import {alias.name}")
    assert {"files", "harness"} <= modules
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr} at line {node.lineno}")
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
