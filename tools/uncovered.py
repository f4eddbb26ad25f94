"""The statements of ``src/ablatereg`` that the tier-1 suite never executes.

    python3 tools/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on ``tests``, as tier-1 does) under
a ``sys.settrace`` line tracer, then prints, module by module, each
statement of the package that no test reached: its line number and its
first line of source.  Docstrings, imports and ``def``, ``class`` and ``try``
lines are left out, and a compound statement (``if``, ``for``, ``with``, ...)
counts as run when its header line is.  Only the standard library is used.

Only this process is traced: a test that runs the package in a subprocess
(the demos, the stdout-redirection tests) adds nothing, so a statement only
such a test reaches is listed too.  With one BLAS thread on 2 CPUs, a full
tier-1 run under the tracer took about 100-115 s, against 74 s untraced.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ablatereg"


class LineTracer:
    """A ``sys.settrace`` function that records the lines run in the given
    modules, by their real paths, and traces no other frame."""

    def __init__(self, paths):
        self.hit = {os.path.realpath(path): set() for path in paths}
        self._module = {}  # each code filename's real path, or None outside the modules

    def _line(self, frame, event, arg):
        if event == "line":
            self.hit[self._module[frame.f_code.co_filename]].add(frame.f_lineno)
        return self._line

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._module:
            real = os.path.realpath(filename)
            self._module[filename] = real if real in self.hit else None
        return self._line if self._module[filename] else None


def _header_lines(node: ast.stmt) -> range:
    """The lines whose execution runs ``node``: all of a simple statement,
    and the header of a compound one, up to its first nested statement."""
    nested = [child.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
              for child in getattr(node, field, None) or ()]
    end = min(nested) - 1 if nested else node.end_lineno
    return range(node.lineno, max(end, node.lineno) + 1)


def statements(path: Path) -> list[ast.stmt]:
    """The statements of the module at ``path`` that the tracer can see run."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            ast.Try)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, skip):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        found.append(node)
    return sorted(found, key=lambda n: n.lineno)


def main(argv: list[str]) -> int:
    import pytest

    modules = sorted(PACKAGE.glob("*.py"))
    tracer = LineTracer(modules)
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in modules:
        lines = path.read_text(encoding="utf-8").splitlines()
        hit = tracer.hit[os.path.realpath(path)]
        missed = [node for node in statements(path)
                  if not hit.intersection(_header_lines(node))]
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} statement(s) never run")
        for node in missed:
            print(f"  {node.lineno:5d}  {lines[node.lineno - 1].strip()}")
    print(f"total: {total} statement(s) never run; pytest exit status {int(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
