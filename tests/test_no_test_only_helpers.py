"""Every public module-level function of the package is used by the package.

A helper that only tests call is dead weight: it has to be kept correct and
read, yet no job ever runs it.  A name counts as used when it appears as a
whole word on some line of `src/stabkit` other than its own `def` line, an
import statement or an `__init__.py`.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stabkit"

ALLOWED = {"point_in_hull": "benchmark/tests wraps pairs.point_in_hull"}


def _usable_lines() -> list[tuple[Path, int, str]]:
    """(file, line number, text) of every line that may count as a use."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        skipped = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skipped.update(range(node.lineno, node.end_lineno + 1))
        for number, text in enumerate(source.splitlines(), 1):
            if number not in skipped:
                out.append((path, number, text))
    return out


def _public_functions() -> list[tuple[Path, int, str]]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((path, node.lineno, node.name))
    return out


def test_every_public_function_has_a_caller_in_the_package():
    lines = _usable_lines()
    unused = []
    for path, def_line, name in _public_functions():
        if name in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(text) and (p, n) != (path, def_line) for p, n, text in lines
        ):
            unused.append(f"{path.relative_to(SRC)}:{def_line} {name}")
    assert unused == []


def test_allowlist_names_existing_functions():
    names = {name for _, _, name in _public_functions()}
    assert set(ALLOWED) <= names
