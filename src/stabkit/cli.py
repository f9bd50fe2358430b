"""Batch front-end: JSON job documents in, JSON reports out.

One document describes one job; `stabkit run job.json` validates it against
the shipped schema, dispatches to the library, and emits a report whose
numbers are exact rational strings.  Job and corpus files are read as UTF-8
whatever the locale.  Each shipped schema is compiled into plain checks that
accept a valid document without jsonschema; jsonschema is imported only when
they reject a document, and its first error is the message and its verdict
final.  A float literal with an integral value, such as `2.0`, is read as the
integer the schema takes it for.  `stabkit corpus` executes the bundled
acceptance corpus and prints one pass/fail line per criterion.

Exit codes: 0 success, 2 input or validation error (an unreadable, undecodable
or invalid file, or an `--out` path that cannot be written), 3 budget
exhaustion.
Reports are byte-identical for identical (document, seed); the optional
timing block is off by default for that reason.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from ._schemacheck import compile_schema
from .algebra import (
    GREVLEX,
    LEX,
    Budget,
    BudgetError,
    Ideal,
    ParseError,
    eliminate,
    format_multi,
    format_laurent,
    format_rational,
    groebner,
    parse_laurent,
    parse_multi,
    parse_rational,
    saturate,
)
from .groups import (
    Arc,
    GroupPresentation,
    MatrixAction,
    TorusWeights,
    arcs_equivalent,
    check_action,
    check_arc,
    deg_of_rep,
    diagonal_action,
    image_order,
    mu_from_order,
    norm_from_order,
    sym_action,
)
from .kstab import (
    Crease,
    PLFunction,
    Polytope,
    active_cells,
    df_invariant,
    model_norm,
    toric_df_data,
    toric_hilb,
    toric_minnorm,
    toric_uniform_search,
)
from .locus import ActionProblem, FamilyPair, degeneration_locus, family_unstable_locus
from .locus import orbit_map_closure, point_degenerates
from .pairs import (
    Pair,
    associated_pair,
    sample_falsifier,
    stability_interval,
    torus_semistable,
)

SCHEMA_VERSION = 1
ORDERS = {"grevlex": GREVLEX, "lex": LEX}

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _load_schema(name: str) -> dict:
    text = resources.files("stabkit").joinpath("schemas", name).read_text(encoding="utf-8")
    return json.loads(text)


class _SchemaValidator:
    """A shipped schema twice: compiled to plain checks (`accepts`), which
    decide validity, and as jsonschema's validator (`explainer`), which
    explains a rejection.  The explainer, and with it jsonschema, is imported
    and built on the first document `accepts` rejects, so a process that only
    sees valid documents never imports jsonschema."""

    def __init__(self, schema: dict):
        self.schema = schema
        self.accepts = compile_schema(schema)

    @functools.cached_property
    def explainer(self):
        import jsonschema

        return jsonschema.Draft202012Validator(self.schema)

    def validate(self, document):
        """Return when `document` is valid, else raise jsonschema's first
        `ValidationError`.  A document the compiled check rejects and
        jsonschema accepts is valid: a false rejection costs time, never a
        verdict."""
        if not self.accepts(document):
            self.explainer.validate(document)


class _NeverRaised(Exception):
    """Nothing raises this; see `_rejection`."""


def _rejection() -> type[Exception]:
    """The class `_SchemaValidator.validate` raises, for an `except` clause:
    jsonschema's `ValidationError`, or, while jsonschema has not been
    imported and so no document can have been rejected, a class nothing
    raises."""
    jsonschema = sys.modules.get("jsonschema")
    return _NeverRaised if jsonschema is None else jsonschema.ValidationError


@functools.cache
def _job_validator() -> _SchemaValidator:
    return _SchemaValidator(_load_schema("job-v1.schema.json"))


def _integral_float(literal: str):
    """`parse_float` hook for job and corpus files: a float literal with an
    integral value, such as `2.0` or `1e2`, is the integer JSON Schema takes
    it for; any other stays a float, which the schema rejects."""
    value = float(literal)
    return int(value) if value.is_integer() else value


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"), parse_float=_integral_float)


def _rat(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"expected a rational, got {type(value).__name__}")


def _rats(values) -> list[Fraction]:
    return [_rat(v) for v in values]


def _jsonable(obj):
    """Report-ready copy: exact rationals as strings, tuples as lists."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if obj is math.inf:
        return "infinity"
    if isinstance(obj, float):
        raise TypeError("floating point values never enter reports")
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _build_group(desc: dict, *reps: dict) -> GroupPresentation:
    """The job's group.  A `sym` representation among `reps` needs size 2;
    that is checked first, so its message wins over an error from building
    the other representation."""
    if desc["size"] != 2 and any(rep["kind"] == "sym" for rep in reps):
        raise ValueError("symmetric-power helper is for 2x2 groups")
    return GroupPresentation(desc["size"], desc["kind"])


def _build_rep(desc: dict, group: GroupPresentation):
    kind = desc["kind"]
    if kind == "torus-weights":
        return TorusWeights(desc["weights"])
    if kind == "sym":
        return sym_action(group, desc["degree"])
    if kind == "matrix":
        ring = group.variables
        rows = [[parse_multi(s, ring) for s in row] for row in desc["entries"]]
        action = MatrixAction(group, rows)
        if not check_action(action):
            raise ValueError("action matrix is not compatible with group multiplication")
        return action
    if group.is_torus:
        return TorusWeights([(0,) * group.rank])
    return MatrixAction(group, [[parse_multi("1", group.variables)]])


def _build_action(desc: dict, group: GroupPresentation) -> MatrixAction:
    rep = _build_rep(desc, group)
    if isinstance(rep, TorusWeights):
        return diagonal_action(group, rep.weights)
    return rep


def _build_arc(rows) -> Arc:
    return Arc([[parse_laurent(s) for s in row] for row in rows])


def _arc_json(arc: Arc) -> list[list[str]]:
    return [[format_laurent(e) for e in row] for row in arc.matrix]


def _build_polytope(desc: dict) -> Polytope:
    vertices = [_rats(v) for v in desc["vertices"]]
    dims = {len(v) for v in vertices}
    if len(dims) != 1:
        raise ValueError("polytope vertices must share one dimension")
    return Polytope(dims.pop(), vertices)


def _build_pl(desc, dim: int) -> PLFunction:
    pieces = [(tuple(_rats(p["gradient"])), _rat(p["constant"])) for p in desc]
    return PLFunction(dim, pieces)


def _pl_json(f: PLFunction) -> dict:
    return {
        "pieces": [
            {"gradient": [format_rational(g) for g in grad], "constant": format_rational(c)}
            for grad, c in f.pieces
        ]
    }


def _ideal_json(ideal: Ideal) -> dict:
    return {
        "variables": list(ideal.variables),
        "generators": [format_multi(g) for g in ideal.generators],
    }


# ---------------------------------------------------------------- handlers


def _run_algebra_groebner(payload: dict, budget: Budget, seed):
    names = list(payload["variables"])
    gens = [parse_multi(s, names) for s in payload["generators"]]
    ideal = Ideal(names, gens)
    sat = payload.get("saturate")
    if sat is not None:
        ideal = saturate(ideal, parse_multi(sat, names), budget)
    drop = payload.get("eliminate", [])
    if drop:
        ideal = eliminate(ideal, drop, budget)
    order = ORDERS[payload.get("order", "grevlex")]
    basis = groebner(ideal, order, budget)
    values = {
        "variables": list(basis.variables),
        "basis": [format_multi(g, order) for g in basis.generators],
    }
    return "ok", values, None


def _pair_from_payload(payload: dict) -> Pair:
    group = GroupPresentation(payload["rank"], "torus")
    return Pair(
        TorusWeights(payload["weights_v"]),
        TorusWeights(payload["weights_w"]),
        _rats(payload["v"]),
        _rats(payload["w"]),
        group,
    )


def _run_pairs_check(payload: dict, budget: Budget, seed):
    verdict = torus_semistable(_pair_from_payload(payload))
    return verdict.status, {}, _jsonable(verdict.certificate)


def _run_pairs_stable(payload: dict, budget: Budget, seed):
    pair = _pair_from_payload(payload)
    top = payload.get("max_level", 5)
    interval = stability_interval(pair)

    def status(c: Fraction) -> str:
        held = interval is not None and interval[0] <= c <= interval[1]
        return "stable-at-l" if held else "not-stable-at-l"

    levels = {}
    least_assoc = None
    least_dr = None
    for level in range(1, top + 1):
        assoc = status(Fraction(-1, level + 1))
        dr = status(Fraction(1, level + 1))
        levels[str(level)] = {"associated": assoc, "dr": dr}
        if assoc == "stable-at-l" and least_assoc is None:
            least_assoc = level
        if dr == "stable-at-l" and least_dr is None:
            least_dr = level
    values = {
        "levels": levels,
        "least_stable_level": least_assoc,
        "least_dr_level": least_dr,
        "max_level": top,
    }
    if least_assoc is None:
        return "not-stable-at-l", values, None
    verdict = torus_semistable(associated_pair(pair, least_assoc))
    if verdict.status != "semistable":
        raise AssertionError("hull test disagrees with the stability interval")
    return "stable-at-l", values, _jsonable(verdict.certificate)


def _run_pairs_falsify(payload: dict, budget: Budget, seed):
    group = _build_group(payload["group"], payload["rep_v"], payload["rep_w"])
    pair = Pair(
        _build_rep(payload["rep_v"], group),
        _build_rep(payload["rep_w"], group),
        _rats(payload["v"]),
        _rats(payload["w"]),
        group,
    )
    draws = payload.get("draws", 200)
    found = sample_falsifier(pair, draws=draws, seed=seed)
    if found is None:
        return "none-found", {"draws": draws}, None
    arc, mu = found
    cert = {"arc": _arc_json(arc), "mu": format_rational(mu)}
    return "destabilized", {"mu": format_rational(mu)}, cert


def _run_arcs_weight(payload: dict, budget: Budget, seed):
    group = _build_group(payload["group"], payload["rep_v"], payload["rep_w"])
    rep_v = _build_rep(payload["rep_v"], group)
    rep_w = _build_rep(payload["rep_w"], group)
    arc = _build_arc(payload["arc"])
    if not check_arc(group, arc):
        raise ValueError("arc does not satisfy the group relations")
    # the arc weight and norm, acting on v once; the norm is left out where
    # it raises ValueError
    ord_v = image_order(rep_v, arc, _rats(payload["v"]))
    mu = mu_from_order(ord_v, rep_w, _rats(payload["w"]), arc)
    values = {"mu": "infinity" if mu is math.inf else format_rational(mu)}
    try:
        values["norm"] = format_rational(norm_from_order(ord_v, deg_of_rep(rep_v, arc.size), arc))
    except ValueError:
        pass
    return "ok", values, None


def _run_arcs_equiv(payload: dict, budget: Budget, seed):
    a = _build_arc(payload["arc_a"])
    b = _build_arc(payload["arc_b"])
    desc = payload.get("group")
    if desc is not None:
        group = _build_group(desc)
        for label, arc in (("arc_a", a), ("arc_b", b)):
            if not check_arc(group, arc):
                raise ValueError(f"{label} does not satisfy the group relations")
    same = arcs_equivalent(a, b)
    return ("equivalent" if same else "not-equivalent"), {"equivalent": same}, None


def _problem_from_payload(payload: dict) -> ActionProblem:
    group = _build_group(payload["group"], payload["action"])
    action = _build_action(payload["action"], group)
    space = list(payload["space"])
    limit = list(payload["limit"])
    ideal_y = Ideal(space, [parse_multi(s, space) for s in payload.get("variety", [])])
    target = payload.get("target")
    if target is None:
        ideal_w = ideal_y
    else:
        ideal_w = Ideal(space, [parse_multi(s, space) for s in target])
    return ActionProblem(
        space,
        limit,
        ideal_y,
        ideal_w,
        group,
        action,
        projective=payload.get("projective", False),
    )


def _run_locus_map(payload: dict, budget: Budget, seed):
    prob = _problem_from_payload(payload)
    return "ok", _ideal_json(orbit_map_closure(prob, budget)), None


def _run_locus_degeneration(payload: dict, budget: Budget, seed):
    prob = _problem_from_payload(payload)
    probes = [_rats(p) for p in payload.get("probes", [])]
    report = degeneration_locus(prob, probes, budget)
    values = _ideal_json(report.ideal)
    values["overapproximation"] = report.overapproximation
    values["oracle"] = [
        {
            "point": [format_rational(c) for c in row.point],
            "degenerates": row.degenerates,
            "in_locus": row.in_locus,
        }
        for row in report.oracle_table
    ]
    return "ok", values, None


def _run_locus_oracle(payload: dict, budget: Budget, seed):
    prob = _problem_from_payload(payload)
    hits = point_degenerates(prob, _rats(payload["point"]), budget)
    status = "degenerates" if hits else "does-not-degenerate"
    return status, {"degenerates": hits}, None


def _run_locus_family(payload: dict, budget: Budget, seed):
    group = GroupPresentation(payload["rank"], "torus")
    base = list(payload["base"])
    fam = FamilyPair(
        base,
        TorusWeights(payload["weights_v"]),
        TorusWeights(payload["weights_w"]),
        [parse_multi(s, base) for s in payload["v"]],
        [parse_multi(s, base) for s in payload["w"]],
        group,
    )
    pieces = family_unstable_locus(fam, budget)
    values = {
        "base": base,
        "components": [[format_multi(g) for g in p.generators] for p in pieces],
    }
    return "ok", values, None


def _run_toric_hilb(payload: dict, budget: Budget, seed):
    a0, a1 = toric_hilb(_build_polytope(payload["polytope"]))
    return "ok", {"a0": format_rational(a0), "a1": format_rational(a1)}, None


def _run_toric_df(payload: dict, budget: Budget, seed):
    P = _build_polytope(payload["polytope"])
    data = toric_df_data(P, active_cells(P, _build_pl(payload["pieces"], P.dim)))
    values = {
        "df": format_rational(data.df),
        "a0": format_rational(data.a0),
        "a1": format_rational(data.a1),
        "b0": format_rational(data.b0),
        "b1": format_rational(data.b1),
        "integral": format_rational(data.integral_f),
        "boundary_integral": format_rational(data.boundary_integral_f),
    }
    return "ok", values, None


def _run_toric_norm(payload: dict, budget: Budget, seed):
    P = _build_polytope(payload["polytope"])
    norm = toric_minnorm(P, active_cells(P, _build_pl(payload["pieces"], P.dim)))
    return "ok", {"minnorm": format_rational(norm)}, None


def _run_toric_uniform(payload: dict, budget: Budget, seed):
    P = _build_polytope(payload["polytope"])
    creases = [Crease(_rats(c["normal"]), _rat(c["offset"])) for c in payload["creases"]]
    res = toric_uniform_search(P, creases, _rat(payload["epsilon"]), budget)
    values = {
        "minimum": format_rational(res.minimum),
        "df": format_rational(res.df),
        "minnorm": format_rational(res.minnorm),
        "alpha": [format_rational(x) for x in res.alpha],
        "beta": [format_rational(x) for x in res.beta],
    }
    return res.status, values, _pl_json(res.certificate)


def _run_model_df(payload: dict, budget: Budget, seed):
    a0, a1, b0, b1 = (_rat(payload[key]) for key in ("a0", "a1", "b0", "b1"))
    return "ok", {"df": format_rational(df_invariant(a0, a1, b0, b1))}, None


def _run_model_norm(payload: dict, budget: Budget, seed):
    norm = model_norm(
        _rat(payload["r"]),
        payload["n"],
        _rat(payload["l_mix"]),
        _rat(payload["l_top"]),
        _rat(payload["vol"]),
    )
    return "ok", {"norm": format_rational(norm)}, None


_HANDLERS = {
    "algebra.groebner": _run_algebra_groebner,
    "arcs.weight": _run_arcs_weight,
    "arcs.equiv": _run_arcs_equiv,
    "pairs.check": _run_pairs_check,
    "pairs.stable": _run_pairs_stable,
    "pairs.falsify": _run_pairs_falsify,
    "locus.map": _run_locus_map,
    "locus.degeneration": _run_locus_degeneration,
    "locus.oracle": _run_locus_oracle,
    "locus.family": _run_locus_family,
    "toric.hilb": _run_toric_hilb,
    "toric.df": _run_toric_df,
    "toric.norm": _run_toric_norm,
    "toric.uniform": _run_toric_uniform,
    "model.df": _run_model_df,
    "model.norm": _run_model_norm,
}


def execute_job(
    document: dict,
    budget_override: int | None = None,
    seed_override: int | None = None,
    timing: bool = False,
) -> dict:
    """Validate and run one job document, returning the report dict."""
    _job_validator().validate(document)
    kind = document["kind"]
    limit = budget_override if budget_override is not None else document.get("budget")
    budget = Budget() if limit is None else Budget(limit)
    seed = seed_override if seed_override is not None else document.get("seed")
    if kind == "pairs.falsify" and seed is None:
        seed = 0
    started = time.perf_counter_ns()
    verdict, values, certificate = _HANDLERS[kind](document["payload"], budget, seed)
    elapsed_ms = (time.perf_counter_ns() - started) // 1_000_000
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "verdict": verdict,
        "values": values,
        "certificate": certificate,
        "budget": {"limit": budget.limit, "used": budget.used},
        "seed": seed,
        "modules": {"stabkit": __version__},
        "timing": {"milliseconds": elapsed_ms} if timing else None,
    }


def _render(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write(out: str, text: str, what: str) -> bool:
    """Write `text` to the file `out`; on failure print a one-line message
    naming `what` and return False."""
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args) -> int:
    try:
        document = _read_json(Path(args.job))
    except OSError as exc:
        print(f"cannot read job document: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UnicodeDecodeError as exc:
        print(f"job document is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        print(f"job document is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        report = execute_job(
            document,
            budget_override=args.budget,
            seed_override=args.seed,
            timing=args.timing,
        )
    except _rejection() as exc:
        print(f"invalid job document: {exc.message} (at {exc.json_path})", file=sys.stderr)
        return EXIT_INVALID
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, ValueError, TypeError, KeyError) as exc:
        print(f"invalid job input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.out is None:
        sys.stdout.write(_render(report))
    elif not _write(args.out, _render(report), "report"):
        return EXIT_INVALID
    return EXIT_OK


def _criterion_sort_key(cid: str):
    return (cid[0], int(cid[1:])) if cid[1:].isdigit() else (cid, 0)


def _mismatch(expected, actual, path: str = "") -> str | None:
    """Deep subset comparison: None on a match, else where the first
    mismatch is.  Dict expectations may omit keys."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for k, v in expected.items():
            if k not in actual:
                return f"{path}.{k} missing"
            found = _mismatch(v, actual[k], f"{path}.{k}")
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path} length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _mismatch(e, a, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    if expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def _load_corpus(directory: Path) -> list[dict]:
    files = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    validator = _SchemaValidator(_load_schema("corpus-v1.schema.json"))
    entries: list[dict] = []
    for path in files:
        batch = _read_json(path)
        validator.validate(batch)
        entries.extend(batch)
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate corpus entry ids")
    entries.sort(key=lambda e: e["id"])
    return entries


def _run_entry(entry: dict, budget_override) -> tuple[bool, str]:
    try:
        report = execute_job(entry["job"], budget_override=budget_override)
    except _rejection() as exc:
        return False, f"ValidationError: {exc.message} (at {exc.json_path})"
    except Exception as exc:  # noqa: BLE001 - a crashing entry is a failing entry
        return False, f"{type(exc).__name__}: {exc}"
    found = _mismatch(entry["expect"], report)
    return (True, "ok") if found is None else (False, found)


def _cmd_corpus(args) -> int:
    if args.corpus is not None:
        directory = Path(args.corpus)
    else:
        directory = Path(str(resources.files("stabkit").joinpath("corpus")))
    if not directory.is_dir():
        print(f"corpus directory not found: {directory}", file=sys.stderr)
        return EXIT_INVALID
    try:
        entries = _load_corpus(directory)
    except _rejection() as exc:
        print(f"invalid corpus: {exc.message} (at {exc.json_path})", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError) as exc:
        print(f"invalid corpus: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not entries:
        print("empty corpus directory", file=sys.stderr)
        return EXIT_INVALID
    outcomes = [_run_entry(e, args.budget) for e in entries]
    by_criterion: dict[str, list[tuple[dict, bool, str]]] = {}
    for entry, (passed, detail) in zip(entries, outcomes):
        by_criterion.setdefault(entry["criterion"], []).append((entry, passed, detail))
    lines = []
    for entry, (passed, detail) in zip(entries, outcomes):
        mark = "ok" if passed else f"FAIL: {detail}"
        lines.append(f"[{entry['id']}] {mark}")
    all_pass = True
    for cid in sorted(by_criterion, key=_criterion_sort_key):
        rows = by_criterion[cid]
        good = sum(1 for _, passed, _ in rows if passed)
        if good == len(rows):
            lines.append(f"{cid} PASS ({good}/{len(rows)})")
        else:
            all_pass = False
            lines.append(f"{cid} FAIL ({good}/{len(rows)})")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        summary = {
            "criteria": {
                cid: all(passed for _, passed, _ in rows)
                for cid, rows in by_criterion.items()
            },
            "entries": [
                {"id": entry["id"], "passed": passed, "detail": detail}
                for entry, (passed, detail) in zip(entries, outcomes)
            ],
        }
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        if not _write(args.out, text, "summary"):
            return EXIT_INVALID
    return EXIT_OK if all_pass else 1


def _int_at_least(low: int):
    """argparse type of an override: an integer no less than the job schema's
    minimum for the same field."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than the minimum of {low}")
        return value

    parse.__name__ = "int"  # argparse's message for a non-integer: "invalid int value"
    return parse


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabkit",
        description="Exact stability certificates over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one JSON job document")
    run_p.add_argument("job", help="path to the job document")
    run_p.add_argument(
        "--budget", type=_int_at_least(1), default=None, help="step budget override"
    )
    run_p.add_argument("--seed", type=_int_at_least(0), default=None, help="seed override")
    run_p.add_argument("--out", default=None, help="write the report to this path")
    run_p.add_argument(
        "--timing", action="store_true", help="include wall-clock timing in the report"
    )
    run_p.set_defaults(func=_cmd_run)

    corpus_p = sub.add_parser("corpus", help="run the bundled acceptance corpus")
    corpus_p.add_argument("--corpus", default=None, help="corpus directory override")
    corpus_p.add_argument(
        "--budget", type=_int_at_least(1), default=None, help="step budget override"
    )
    corpus_p.add_argument("--out", default=None, help="write a JSON summary to this path")
    corpus_p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
