"""Every module-level function and class and every public method of the
package is used by the package.

A helper that only tests call is dead weight: it has to be kept correct and
read, yet no job ever runs it.  Uses are read from the syntax trees of the
modules of `src/stabkit` other than `__init__.py`, so a comment, a docstring
or an import statement is no use.  A module-level function or class counts
as used when its name is a name or an attribute in that code.  A public
non-dunder method of a class counts as used when it is an attribute there.
"""

import ast
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


def _uses(trees) -> tuple[set[str], set[str]]:
    """The ids of every `ast.Name` and the attrs of every `ast.Attribute` in
    the trees.  Imports bind `ast.alias` nodes, and comments and docstrings
    are no such nodes, so none of them is a use."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


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


def _package_uses(methods: bool) -> set[str]:
    """What counts as a use in the package: names and attributes for a
    module-level function or class, attributes alone for a method."""
    names, attrs = _uses(tree for _, tree in _modules())
    return attrs if methods else names | attrs


def _unused(defs, used: set[str]) -> list[str]:
    """Entries of defs, (file, def line, label, name), whose name is not in
    `used`."""
    return [
        f"{path.relative_to(SRC)}:{def_line} {label}"
        for path, def_line, label, name in defs
        if name not in used
    ]


def test_every_public_function_has_a_caller_in_the_package():
    defs = [(p, n, name, name) for p, n, name in _public_functions() if name not in ALLOWED]
    assert _unused(defs, _package_uses(methods=False)) == []


def test_every_public_class_has_a_caller_in_the_package():
    defs = [(p, n, name, name) for p, n, name in _module_names(ast.ClassDef, private=False)]
    assert _unused(defs, _package_uses(methods=False)) == []


def test_every_private_function_and_class_is_used_in_the_package():
    private = _module_names((ast.FunctionDef, ast.ClassDef), private=True)
    defs = [(p, n, name, name) for p, n, name in private]
    assert _unused(defs, _package_uses(methods=False)) == []


def test_every_public_method_has_a_caller_in_the_package():
    defs = [(p, n, f"{cls}.{name}", name) for p, n, cls, name in _public_methods()]
    assert _unused(defs, _package_uses(methods=True)) == []


def test_allowlist_names_existing_functions():
    names = {name for _, _, name in _public_functions()}
    assert set(ALLOWED) <= names


def _stale(allowed) -> list[str]:
    """Allowlisted names that have a caller in the package after all."""
    defs = [(p, n, name, name) for p, n, name in _public_functions() if name in allowed]
    unused = set(_unused(defs, _package_uses(methods=False)))
    return sorted(
        name for p, n, name, _ in defs if f"{p.relative_to(SRC)}:{n} {name}" not in unused
    )


def test_allowlist_names_only_functions_without_callers():
    assert _stale(ALLOWED) == []


def test_stale_allowlist_entry_is_caught():
    # pairs.supports_semistable and locus.point_degenerates call it
    assert _stale({"point_in_hull": "no caller"}) == ["point_in_hull"]


def test_a_name_only_in_a_docstring_or_a_comment_is_unused():
    source = (
        "import helper\n"
        "def helper():\n"
        "    pass\n"
        "def caller():\n"
        '    """Would call helper() or obj.helper()."""\n'
        "    # helper() and obj.helper() are not called here\n"
        "    return helper_count, obj.helper_count\n"
    )
    names, attrs = _uses([ast.parse(source)])
    defs = [(SRC / "module.py", 2, "helper", "helper")]
    assert _unused(defs, names | attrs) == ["module.py:2 helper"]
    assert _unused(defs, _uses([ast.parse("helper()")])[0]) == []
    assert _unused(defs, _uses([ast.parse("obj.helper()")])[1]) == []
