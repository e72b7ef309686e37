"""Print every statement line of ``src/servergame`` that the test suite never runs.

Run from the root of a checkout; no coverage tool is needed:

    PYTHONPATH=src python tests/untraced_lines.py [pytest arguments]

The suite runs in this process under ``sys.settrace`` and
``threading.settrace``, which record the lines run in the package's files
only.  Then every line that starts a statement (by the ``ast``) and never
ran is printed as ``path:line: source``, in file and line order.  The exit
status is pytest's.  A full run takes about 90 s on a 2-vCPU VM.

Lines run only in another process are not seen, so two entries are
expected in the output: the child's branch of ``cli._forked`` (a forked
worker) and the ``main()`` call under ``if __name__ == "__main__":``.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "servergame"
RAN = defaultdict(set)  # absolute file name -> line numbers run
_in_package = {}  # co_filename -> its absolute name if in the package, else None


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _in_package:
        path = os.path.abspath(name)
        _in_package[name] = path if path.startswith(f"{PACKAGE}{os.sep}") else None
    return _line if _in_package[name] else None


def _line(frame, event, arg):
    if event == "line":
        RAN[_in_package[frame.f_code.co_filename]].add(frame.f_lineno)
    return _line


def statement_headers(tree):
    """Each statement's line and the lines of its header: its decorators and
    the lines before its body, or all of a simple statement.  Docstrings,
    ``global`` and ``nonlocal`` run no code and are left out."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(first, max(first, last) + 1)


def untraced(path: Path):
    """(line, source) of each statement in ``path`` whose header never ran."""
    ran, text = RAN.get(str(path), set()), path.read_text()
    lines = text.splitlines()
    for lineno, header in sorted(statement_headers(ast.parse(text))):
        if ran.isdisjoint(header):
            yield lineno, lines[lineno - 1].strip()


def main(args) -> int:
    sys.settrace(_call)
    threading.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, source in untraced(path):
            print(f"{path.relative_to(ROOT)}:{lineno}: {source}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
