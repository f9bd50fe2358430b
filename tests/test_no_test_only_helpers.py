"""Every module-level function and class and every public method of the
package is used by the package.

A helper that only tests call is dead weight: it has to be kept correct and
read, yet no job ever runs it.  A module-level function or class counts as
used when its name appears as a whole word on some line of `src/stabkit`
other than its own `def` or `class` line, an import statement or an
`__init__.py`.  A public non-dunder method of a class
counts as used when `.name` appears on such a line.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stabkit"

# Public functions kept although the package does not call them, each with
# the reason.  An entry whose function gains a caller in the package must go.
ALLOWED: dict[str, str] = {}


def _modules() -> list[tuple[Path, ast.Module]]:
    return [
        (path, ast.parse(path.read_text()))
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
    ]


def _usable_lines() -> list[tuple[Path, int, str]]:
    """(file, line number, text) of every line that may count as a use."""
    out = []
    for path, tree in _modules():
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skipped.update(range(node.lineno, node.end_lineno + 1))
        for number, text in enumerate(path.read_text().splitlines(), 1):
            if number not in skipped:
                out.append((path, number, text))
    return out


def _module_names(kinds, private: bool) -> list[tuple[Path, int, str]]:
    """(file, def line, name) of every module-level definition of the given
    ast kinds whose name does, or does not, start with an underscore."""
    out = []
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, kinds) and node.name.startswith("_") == private:
                out.append((path, node.lineno, node.name))
    return out


def _public_functions() -> list[tuple[Path, int, str]]:
    return _module_names(ast.FunctionDef, private=False)


def _public_methods() -> list[tuple[Path, int, str, str]]:
    """(file, def line, class name, method name) of every public non-dunder
    method of every class in the package."""
    out = []
    for path, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    out.append((path, node.lineno, cls.name, node.name))
    return out


def _unused(defs, pattern) -> list[str]:
    """Entries of defs, (file, def line, label, name), whose name matches
    `pattern` on no usable line but their own def line."""
    lines = _usable_lines()
    unused = []
    for path, def_line, label, name in defs:
        word = re.compile(pattern(re.escape(name)))
        if not any(
            word.search(text) and (p, n) != (path, def_line) for p, n, text in lines
        ):
            unused.append(f"{path.relative_to(SRC)}:{def_line} {label}")
    return unused


def test_every_public_function_has_a_caller_in_the_package():
    defs = [(p, n, name, name) for p, n, name in _public_functions() if name not in ALLOWED]
    assert _unused(defs, lambda name: rf"\b{name}\b") == []


def test_every_public_class_has_a_caller_in_the_package():
    defs = [(p, n, name, name) for p, n, name in _module_names(ast.ClassDef, private=False)]
    assert _unused(defs, lambda name: rf"\b{name}\b") == []


def test_every_private_function_and_class_is_used_in_the_package():
    private = _module_names((ast.FunctionDef, ast.ClassDef), private=True)
    defs = [(p, n, name, name) for p, n, name in private]
    assert _unused(defs, lambda name: rf"\b{name}\b") == []


def test_every_public_method_has_a_caller_in_the_package():
    defs = [(p, n, f"{cls}.{name}", name) for p, n, cls, name in _public_methods()]
    assert _unused(defs, lambda name: rf"\.{name}\b") == []


def test_allowlist_names_existing_functions():
    names = {name for _, _, name in _public_functions()}
    assert set(ALLOWED) <= names


def _stale(allowed) -> list[str]:
    """Allowlisted names that have a caller in the package after all."""
    defs = [(p, n, name, name) for p, n, name in _public_functions() if name in allowed]
    unused = set(_unused(defs, lambda name: rf"\b{name}\b"))
    return sorted(
        name for p, n, name, _ in defs if f"{p.relative_to(SRC)}:{n} {name}" not in unused
    )


def test_allowlist_names_only_functions_without_callers():
    assert _stale(ALLOWED) == []


def test_stale_allowlist_entry_is_caught():
    # pairs.supports_semistable and locus.point_degenerates call it
    assert _stale({"point_in_hull": "no caller"}) == ["point_in_hull"]
