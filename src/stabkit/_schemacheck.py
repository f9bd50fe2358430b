"""A JSON Schema compiled to plain Python checks that only decide validity.

`compile_schema(schema)` turns a draft 2020-12 schema into one function
`instance -> bool`.  It gives no message and no path: a caller that needs to
explain a rejection asks jsonschema.  It knows the keywords the shipped job
and corpus schemas use and raises `ValueError` on any other keyword, on a
`$ref` that is not `#/$defs/<name>` and on a reference cycle, so an edit of a
schema cannot weaken the check unnoticed.

Each keyword is decided as jsonschema decides it: `integer` takes `2.0` but
not `True`; `const`, `enum` and `uniqueItems` tell booleans from numbers and
take `1 == 1.0`; `minimum` and `maximum` skip what is not a number; `pattern`
is `re.search`.  `unevaluatedProperties` sees the keys evaluated by the
adjacent `properties` and through `$ref` and `allOf`; where jsonschema would
see more, the check only rejects more.
"""

from __future__ import annotations

import numbers
import re
from collections.abc import Callable, Mapping, Sequence

Check = Callable[[object], bool]

DIALECT = "https://json-schema.org/draft/2020-12/schema"
ROOT_ONLY = ("$schema", "$id", "$defs")
ANNOTATIONS = frozenset({"title", "description", "$comment"})
# `then` is read by `if`; every other keyword by the method _k_<keyword>
KEYWORDS = frozenset(
    {
        "$ref", "type", "properties", "additionalProperties", "unevaluatedProperties",
        "required", "const", "enum", "items", "minItems", "maxItems", "uniqueItems",
        "minLength", "pattern", "minimum", "maximum", "allOf", "oneOf", "if",
    }
)
REF = re.compile(r"#/\$defs/([A-Za-z_][A-Za-z0-9_]*)")


def _is_integer(x) -> bool:
    if isinstance(x, int):
        return not isinstance(x, bool)
    return isinstance(x, float) and x.is_integer()


def _is_number(x) -> bool:
    if isinstance(x, (int, float)):
        return not isinstance(x, bool)
    return isinstance(x, numbers.Number)


TYPES: dict[str, Check] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "integer": _is_integer,
    "number": _is_number,
}


def _equal(a, b) -> bool:
    """jsonschema's equality: a boolean equals only itself, `1 == 1.0`, and
    arrays and objects compare item by item."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


def _unique(items: list) -> bool:
    """No two items are `_equal`.  jsonschema compares neighbours after
    sorting, which never rejects more than this."""
    if all(isinstance(x, str) for x in items):
        return len(set(items)) == len(items)
    return not any(_equal(a, b) for i, a in enumerate(items) for b in items[i + 1 :])


def _accept(x) -> bool:
    return True


def _reject(x) -> bool:
    return False


def _all_of(checks: list[Check]) -> Check:
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]
    checks = tuple(checks)

    def check(x) -> bool:
        for c in checks:
            if not c(x):
                return False
        return True

    return check


def _other_keys(known: frozenset, sub: Check) -> Check:
    """Every value of an object under a key outside `known` satisfies `sub`."""
    if sub is _reject:
        return lambda x: not isinstance(x, dict) or x.keys() <= known
    return lambda x: not isinstance(x, dict) or all(
        sub(v) for k, v in x.items() if k not in known
    )


class _Compiler:
    def __init__(self, defs: dict):
        self.defs = defs
        self.done: dict[int, Check] = {}
        self.open: set[int] = set()

    def target(self, ref) -> dict:
        found = REF.fullmatch(ref) if isinstance(ref, str) else None
        if found is None or found[1] not in self.defs:
            raise ValueError(f"unsupported $ref {ref!r}")
        return self.defs[found[1]]

    def compile(self, node) -> Check:
        if node is True:
            return _accept
        if node is False:
            return _reject
        if not isinstance(node, dict):
            raise ValueError(f"not a schema: {node!r}")
        key = id(node)
        if key in self.done:
            return self.done[key]
        if key in self.open:
            raise ValueError("reference cycle in the schema")
        self.open.add(key)
        checks = []
        # unevaluatedProperties last: the subschemas it looks into are then
        # compiled, and so checked for reference cycles
        for word, value in sorted(node.items(), key=lambda kv: kv[0] == "unevaluatedProperties"):
            if word in ANNOTATIONS or word == "then":
                continue
            if word not in KEYWORDS:
                raise ValueError(f"unsupported schema keyword {word!r}")
            check = getattr(self, "_k_" + word.lstrip("$"))(value, node)
            if check is not None:
                checks.append(check)
        self.open.discard(key)
        self.done[key] = _all_of(checks)
        return self.done[key]

    def evaluated(self, node) -> frozenset:
        """The property names that `properties`, `$ref` and `allOf` evaluate
        in `node`, for `unevaluatedProperties`.  jsonschema counts only the
        `allOf` subschemas that hold, but where one fails so does `node`.
        It also counts keys that other applicators evaluate; leaving those
        out can only reject more, never accept more."""
        if not isinstance(node, dict):
            return frozenset()
        names = set(node.get("properties", ()))
        if "$ref" in node:
            names |= self.evaluated(self.target(node["$ref"]))
        for sub in node.get("allOf", ()):
            names |= self.evaluated(sub)
        return frozenset(names)

    # One method per keyword: _k_<keyword>(value, schema) -> Check | None.

    def _k_ref(self, ref, schema) -> Check:
        return self.compile(self.target(ref))

    def _k_type(self, names, schema) -> Check:
        names = [names] if isinstance(names, str) else names
        unknown = [n for n in names if n not in TYPES]
        if unknown:
            raise ValueError(f"unsupported type {unknown[0]!r}")
        tests = tuple(TYPES[n] for n in names)
        if len(tests) == 1:
            return tests[0]
        return lambda x: any(t(x) for t in tests)

    def _k_properties(self, properties, schema) -> Check:
        subs = tuple((name, self.compile(sub)) for name, sub in properties.items())

        def check(x) -> bool:
            if isinstance(x, dict):
                for name, sub in subs:
                    if name in x and not sub(x[name]):
                        return False
            return True

        return check

    def _k_additionalProperties(self, extra, schema) -> Check:
        return _other_keys(frozenset(schema.get("properties", ())), self.compile(extra))

    def _k_unevaluatedProperties(self, extra, schema) -> Check:
        return _other_keys(self.evaluated(schema), self.compile(extra))

    def _k_required(self, names, schema) -> Check:
        names = tuple(names)
        return lambda x: not isinstance(x, dict) or all(n in x for n in names)

    def _k_const(self, value, schema) -> Check:
        return lambda x: _equal(x, value)

    def _k_enum(self, values, schema) -> Check:
        if all(isinstance(v, str) for v in values):
            strings = frozenset(values)
            return lambda x: isinstance(x, str) and x in strings
        values = tuple(values)
        return lambda x: any(_equal(x, v) for v in values)

    def _k_items(self, items, schema) -> Check:
        sub = self.compile(items)
        return lambda x: not isinstance(x, list) or all(map(sub, x))

    def _k_minItems(self, low, schema) -> Check:
        return lambda x: not isinstance(x, list) or len(x) >= low

    def _k_maxItems(self, high, schema) -> Check:
        return lambda x: not isinstance(x, list) or len(x) <= high

    def _k_uniqueItems(self, unique, schema) -> Check | None:
        if not unique:
            return None
        return lambda x: not isinstance(x, list) or _unique(x)

    def _k_minLength(self, low, schema) -> Check:
        return lambda x: not isinstance(x, str) or len(x) >= low

    def _k_pattern(self, pattern, schema) -> Check:
        search = re.compile(pattern).search
        return lambda x: not isinstance(x, str) or search(x) is not None

    def _k_minimum(self, low, schema) -> Check:
        return lambda x: not _is_number(x) or not x < low

    def _k_maximum(self, high, schema) -> Check:
        return lambda x: not _is_number(x) or not x > high

    def _k_allOf(self, subs, schema) -> Check:
        return _all_of([self.compile(sub) for sub in subs])

    def _k_oneOf(self, subs, schema) -> Check:
        checks = tuple(self.compile(sub) for sub in subs)
        return lambda x: sum(1 for c in checks if c(x)) == 1

    def _k_if(self, test, schema) -> Check:
        test, then = self.compile(test), self.compile(schema.get("then", True))
        return lambda x: not test(x) or then(x)


def compile_schema(schema: dict) -> Check:
    """The validity check of a whole draft 2020-12 schema document."""
    if schema.get("$schema", DIALECT) != DIALECT:
        raise ValueError(f"unsupported dialect {schema['$schema']!r}")
    body = {k: v for k, v in schema.items() if k not in ROOT_ONLY}
    return _Compiler(schema.get("$defs", {})).compile(body)
