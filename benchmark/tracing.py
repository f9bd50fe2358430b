"""Outside-in tracing of stabkit for the benchmark's traced pass.

Every public function of the traced modules is replaced, in every stabkit
module namespace that binds it, by a wrapper that records a span: name,
start, end, parent span and job. Spans stay in memory and are written out
when the run ends. Polynomial and Laurent arithmetic get call counters on
their classes instead of spans, because a span per operation would swamp
the run.

The phase-1/phase-2 split of the simplex and per-reduction timing happen
inside private functions of `linprog` and `algebra.ideals`; they are left to
tracing inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import Counter
from pathlib import Path

# Home module of each traced layer. Functions of `algebra.multipoly` and
# `algebra.laurent` are counted through their classes instead.
SPAN_LAYERS = {
    "stabkit.linprog": "linprog",
    "stabkit.pairs": "pairs",
    "stabkit.algebra.ideals": "ideals",
    "stabkit.algebra.parser": "parser",
    "stabkit.groups": "groups",
    "stabkit.locus": "locus",
    "stabkit.kstab": "kstab",
    "stabkit.geometry": "geometry",
    "stabkit.cli": "cli",
}

# (module, class, counter, methods): one counter per group of methods.
COUNTED_METHODS = [
    ("stabkit.algebra.multipoly", "MultiPoly", "multipoly.new", ["__init__"]),
    ("stabkit.algebra.multipoly", "MultiPoly", "multipoly.add", ["__add__", "__radd__"]),
    ("stabkit.algebra.multipoly", "MultiPoly", "multipoly.mul", ["__mul__", "__rmul__"]),
    ("stabkit.algebra.multipoly", "MultiPoly", "multipoly.subs", ["subs"]),
    ("stabkit.algebra.laurent", "LaurentPoly", "laurent.new", ["__init__"]),
    ("stabkit.algebra.laurent", "LaurentPoly", "laurent.add", ["__add__", "__radd__"]),
    ("stabkit.algebra.laurent", "LaurentPoly", "laurent.mul", ["__mul__", "__rmul__"]),
    (
        "stabkit.algebra.laurent",
        "LaurentFrac",
        "laurent.frac_ops",
        ["__add__", "__radd__", "__mul__", "__rmul__", "scale", "__eq__"],
    ),
]

ACTION_BUILDERS = ("groups.sym_action", "groups.MatrixAction", "groups.diagonal_action")


class Recorder:
    """In-memory spans of one traced pass plus the counters the hooks feed.

    A span is [name, start_ns, end_ns, parent_index, job_index]; the parent
    index is -1 for a root span.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.reset()

    def reset(self):
        """Start a new pass; counters are cleared in place because the
        counting wrappers hold a reference to them."""
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts.clear()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()



def write_spans(spans: list[list], path: Path):
    """One JSON array per line: name, start_ns, end_ns, parent, job."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# ------------------------------------------------------------------- hooks
# A hook sees the call's bound arguments and result and feeds counters that
# a bare span cannot give.


def _lp_hook(rec: Recorder, args: inspect.BoundArguments, result):
    a = args.arguments
    a_ub, a_eq = a.get("a_ub", ()), a.get("a_eq", ())
    nonneg = a.get("nonneg")
    n = len(a["c"])
    free = 0 if nonneg is None else sum(1 for flag in nonneg if not flag)
    rows = len(a_ub) + len(a_eq)
    rec.counts["linprog.pivots"] += result.pivots
    rec.counts["linprog.tableau_cells"] += rows * (n + free + len(a_ub))
    if not a_eq and all(b >= 0 for b in a.get("b_ub", ())):
        rec.counts["linprog.slack_start"] += 1
    if result.status == "infeasible":
        rec.counts["linprog.infeasible"] += 1


def _assoc_hook(rec, args, result):
    rec.counts["pairs.assoc_v_points"] += result.rep_v.dim


def _falsifier_hook(rec, args, result):
    if result is not None:
        rec.counts["pairs.falsifier.hits"] += 1


def _reduce_hook(rec, args, result):
    if result.is_zero():
        rec.counts["ideals.reduce_zero"] += 1


HOOKS = {
    "linprog.solve_lp": _lp_hook,
    "pairs.associated_pair": _assoc_hook,
    "pairs.sample_falsifier": _falsifier_hook,
    "ideals.reduce_poly": _reduce_hook,
}


def _span_wrapper(fn, name: str, rec: Recorder):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            hook(rec, bound, result)
        return result

    wrapper.__traced__ = fn
    return wrapper


def _count_wrapper(fn, counter: str, rec: Recorder):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)

    wrapper.__traced__ = fn
    return wrapper


class _TracedValidator:
    """Job-validator stand-in whose validate() is a cli span."""

    def __init__(self, validator, rec: Recorder):
        self.validator = validator
        self.rec = rec

    def validate(self, instance):
        idx = self.rec.open("cli.validate")
        try:
            self.validator.validate(instance)
        finally:
            self.rec.close(idx)


def stabkit_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "stabkit" and m]


def _is_target(obj) -> bool:
    """A public function of a traced layer that is not a wrapper."""
    return (
        isinstance(obj, types.FunctionType)
        and obj.__module__ in SPAN_LAYERS
        and not obj.__name__.startswith("_")
        and not hasattr(obj, "__traced__")
    )


def public_functions() -> dict:
    """Original function -> span name, for every public function defined in
    a traced layer."""
    targets = {}
    for modname, layer in SPAN_LAYERS.items():
        for name, obj in vars(sys.modules[modname]).items():
            if _is_target(obj) and obj.__module__ == modname and name == obj.__name__:
                targets[obj] = f"{layer}.{name}"
    return targets


class Tracer:
    """Installs the wrappers around one Recorder and removes them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, name: str, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        rec = self.rec
        wrappers = {fn: _span_wrapper(fn, name, rec) for fn, name in public_functions().items()}
        for module in stabkit_modules():
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._set(module, name, wrappers[obj])
        cli = sys.modules["stabkit.cli"]
        build = cli._job_validator

        def job_validator():
            idx = rec.open("cli.validator_build")
            try:
                validator = build()
            finally:
                rec.close(idx)
            return _TracedValidator(validator, rec)

        self._set(cli, "_job_validator", job_validator)
        action = sys.modules["stabkit.groups"].MatrixAction
        self._set(action, "__init__", _span_wrapper(action.__init__, "groups.MatrixAction", rec))
        pairs = sys.modules["stabkit.pairs"]
        self._set(pairs, "_draw_arc", _count_wrapper(pairs._draw_arc, "pairs.falsifier.draws", rec))
        for modname, clsname, counter, methods in COUNTED_METHODS:
            cls = getattr(sys.modules[modname], clsname)
            for method in methods:
                self._set(cls, method, _count_wrapper(vars(cls)[method], counter, rec))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def unwrapped_bindings() -> list[str]:
    """Names in stabkit namespaces still bound to an untraced public function
    of a traced layer.

    Checks module attributes and the values of module-level dicts, lists and
    tuples (such as dispatch tables).
    """
    missing = []
    for module in stabkit_modules():
        for name, obj in vars(module).items():
            values = [obj]
            if isinstance(obj, dict):
                values = list(obj.values())
            elif isinstance(obj, (list, tuple)):
                values = list(obj)
            missing += [f"{module.__name__}.{name}" for value in values if _is_target(value)]
    return missing


# Per-layer metrics: (name, unit, better). Counts repeat exactly between
# passes over the same jobs; times are in reference-speed milliseconds.
LAYER_METRICS = [
    ("linprog.solves", "count", "lower"),
    ("linprog.self_ms", "ms", "lower"),
    ("linprog.pivots", "count", "lower"),
    ("linprog.pivots_per_solve", "1", "lower"),
    ("linprog.tableau_cells", "count", "lower"),
    ("linprog.slack_start_share", "1", "higher"),
    ("linprog.infeasible_share", "1", "lower"),
    ("pairs.self_ms", "ms", "lower"),
    ("pairs.assoc_v_points", "count", "lower"),
    ("pairs.hull_queries", "count", "lower"),
    ("pairs.lp_per_hull_query", "1", "lower"),
    ("pairs.falsifier.draws", "count", "lower"),
    ("pairs.falsifier.hit_ratio", "1", "higher"),
    ("ideals.self_ms", "ms", "lower"),
    ("ideals.groebner.calls", "count", "lower"),
    ("ideals.spairs", "count", "lower"),
    ("ideals.reduce.calls", "count", "lower"),
    ("ideals.reduce_zero_ratio", "1", "lower"),
    ("multipoly.new", "count", "lower"),
    ("multipoly.mul", "count", "lower"),
    ("multipoly.add", "count", "lower"),
    ("multipoly.subs", "count", "lower"),
    ("laurent.new", "count", "lower"),
    ("laurent.mul", "count", "lower"),
    ("laurent.add", "count", "lower"),
    ("laurent.frac_ops", "count", "lower"),
    ("groups.self_ms", "ms", "lower"),
    ("groups.mu_weight.calls", "count", "lower"),
    ("groups.act.calls", "count", "lower"),
    ("groups.action_build_ms", "ms", "lower"),
    ("locus.self_ms", "ms", "lower"),
    ("locus.strata", "count", "lower"),
    ("kstab.self_ms", "ms", "lower"),
    ("kstab.uniform.lps", "count", "lower"),
    ("geometry.calls", "count", "lower"),
    ("geometry.self_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.validate_ms", "ms", "lower"),
    ("parser.calls", "count", "lower"),
    ("parser.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_counts(spans: list[list], counts: Counter, spairs: int) -> dict:
    """The count metrics of one traced pass; they must repeat exactly."""
    calls = Counter(span[0] for span in spans)
    names = [span[0] for span in spans]

    def under(idx: int, ancestor: str) -> bool:
        parent = spans[idx][3]
        while parent >= 0:
            if names[parent] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    def parent_is(idx: int, name: str) -> bool:
        return spans[idx][3] >= 0 and names[spans[idx][3]] == name

    lps = [i for i, n in enumerate(names) if n == "linprog.solve_lp"]
    hull = sum(1 for i, n in enumerate(names) if n == "groups.point_in_hull" and parent_is(i, "pairs.supports_semistable"))
    hull_lps = sum(1 for i in lps if under(i, "pairs.supports_semistable"))
    solves = len(lps)
    draws = counts["pairs.falsifier.draws"]
    reductions = calls["ideals.reduce_poly"]
    out = {
        "linprog.solves": solves,
        "linprog.pivots": counts["linprog.pivots"],
        "linprog.pivots_per_solve": _ratio(counts["linprog.pivots"], solves),
        "linprog.tableau_cells": counts["linprog.tableau_cells"],
        "linprog.slack_start_share": _ratio(counts["linprog.slack_start"], solves),
        "linprog.infeasible_share": _ratio(counts["linprog.infeasible"], solves),
        "pairs.assoc_v_points": counts["pairs.assoc_v_points"],
        "pairs.hull_queries": hull,
        "pairs.lp_per_hull_query": _ratio(hull_lps, hull),
        "pairs.falsifier.draws": draws,
        "pairs.falsifier.hit_ratio": _ratio(counts["pairs.falsifier.hits"], draws),
        "ideals.groebner.calls": calls["ideals.buchberger"],
        "ideals.spairs": spairs,
        "ideals.reduce.calls": reductions,
        "ideals.reduce_zero_ratio": _ratio(counts["ideals.reduce_zero"], reductions),
        "groups.mu_weight.calls": calls["groups.mu_weight"],
        "groups.act.calls": calls["groups.act"],
        "locus.strata": sum(
            1 for i, n in enumerate(names)
            if n == "pairs.supports_semistable" and parent_is(i, "locus.family_unstable_locus")
        ),
        "kstab.uniform.lps": sum(1 for i in lps if under(i, "kstab.toric_uniform_search")),
        "geometry.calls": sum(v for k, v in calls.items() if k.startswith("geometry.")),
        "parser.calls": sum(v for k, v in calls.items() if k.startswith("parser.")),
    }
    for key in ("multipoly.new", "multipoly.mul", "multipoly.add", "multipoly.subs",
                "laurent.new", "laurent.mul", "laurent.add", "laurent.frac_ops"):
        out[key] = counts[key]
    return out


def layer_times(spans: list[list], scale: list[float]) -> dict:
    """Self time per layer, and the cli validation and action-building times,
    in reference-speed milliseconds; scale[job] converts that job's ns."""
    child = [0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms = Counter()
    validate = build = 0.0
    for idx, (name, start, end, parent, job) in enumerate(spans):
        factor = scale[job]
        self_ms[name.split(".")[0]] += (end - start - child[idx]) * factor
        if name in ("cli.validate", "cli.validator_build"):
            validate += (end - start) * factor
        if name in ACTION_BUILDERS and (parent < 0 or spans[parent][0] not in ACTION_BUILDERS):
            build += (end - start) * factor
    out = {f"{layer}.self_ms": self_ms[layer] for layer in
           ("linprog", "pairs", "ideals", "groups", "locus", "kstab", "geometry", "cli", "parser")}
    out["cli.validate_ms"] = validate
    out["groups.action_build_ms"] = build
    return out
