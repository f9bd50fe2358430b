"""Seeded job mixes for the stabkit benchmark.

Each workload is a list of job documents built only from the seed, plus the
bundled corpus entries of the workload's kinds, which carry known answers.
The program never sees the seed: it receives the generated documents.

Within a workload the number of jobs per class (kind and size) is fixed and
only the details inside a class are drawn from the seed. The per-job cost is
set mostly by the class, so percentiles and throughput stay comparable across
seeds while the inputs themselves differ.

Classes named "other-*" are a few cheap jobs of kinds outside the
workload's focus, so that every traced layer does some work in every
workload and a change that leaks into an unrelated layer still shows.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("pairs-levels", "elimination", "arcs-toric")

CORPUS_KINDS = {
    "pairs-levels": {"pairs.check", "pairs.stable"},
    "elimination": {"algebra.groebner", "locus.degeneration", "locus.oracle", "locus.family"},
    "arcs-toric": {
        "arcs.weight",
        "arcs.equiv",
        "pairs.falsify",
        "toric.df",
        "toric.norm",
        "toric.uniform",
    },
}


@dataclass
class Job:
    """One job document with the class it was drawn from.

    `expect` is the corpus expectation for corpus entries and None for
    generated jobs.
    """

    job_id: str
    cls: str
    document: dict
    expect: dict | None = None

    @property
    def kind(self) -> str:
        return self.document["kind"]


@dataclass
class Mix:
    workload: str
    seed: int
    jobs: list[Job] = field(default_factory=list)

    def summary(self) -> dict:
        """Kind mix, class mix and the share of jobs that reuse an earlier
        job's group and representation."""
        kinds: dict[str, int] = {}
        classes: dict[str, int] = {}
        seen = set()
        reused = 0
        for job in self.jobs:
            kinds[job.kind] = kinds.get(job.kind, 0) + 1
            classes[job.cls] = classes.get(job.cls, 0) + 1
            key = representation_key(job.document)
            if key is not None:
                if key in seen:
                    reused += 1
                seen.add(key)
        return {
            "jobs": len(self.jobs),
            "kinds": dict(sorted(kinds.items())),
            "classes": dict(sorted(classes.items())),
            "reuse_share": reused / len(self.jobs),
        }


def representation_key(document: dict) -> str | None:
    """The group and representations a job acts through, as a canonical string.

    Two jobs with equal keys could share a built action or weight data.
    """
    p = document["payload"]
    kind = document["kind"]
    if kind in ("pairs.check", "pairs.stable", "locus.family"):
        parts = {"torus": p["rank"], "v": p["weights_v"], "w": p["weights_w"]}
    elif kind in ("arcs.weight", "pairs.falsify"):
        parts = {"group": p["group"], "v": p["rep_v"], "w": p["rep_w"]}
    elif kind.startswith("locus."):
        parts = {"group": p["group"], "action": p["action"]}
    elif kind == "arcs.equiv":
        parts = {"group": p.get("group")}
    else:
        return None
    return json.dumps(parts, sort_keys=True)


def load_corpus(src: Path, kinds: set[str]) -> list[Job]:
    """Bundled corpus entries of the given kinds, read straight from the files."""
    jobs = []
    for path in sorted((src / "stabkit" / "corpus").glob("*.json")):
        for entry in json.loads(path.read_text()):
            if entry["job"]["kind"] in kinds:
                jobs.append(Job(f"corpus-{entry['id']}", "corpus", entry["job"], entry["expect"]))
    return jobs


def generate(workload: str, seed: int, src: Path) -> Mix:
    """The job mix of one workload, deterministic in (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    classes_of = {
        "pairs-levels": _pairs_levels,
        "elimination": _elimination,
        "arcs-toric": _arcs_toric,
    }[workload]
    jobs = []
    for cls, count, make in classes_of():
        for i in range(count):
            jobs.append(Job("", cls, make(rng, i)))
    jobs += load_corpus(src, CORPUS_KINDS[workload])
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        if not job.job_id.startswith("corpus-"):
            job.job_id = f"{i:03d}-{job.cls}"
    return Mix(workload, seed, jobs)


def _doc(kind: str, payload: dict, **extra) -> dict:
    return {"schema_version": 1, "kind": kind, "payload": payload, **extra}


def _rational(rng: random.Random) -> int | str:
    """A nonzero rational in job-document form."""
    num = rng.choice([-3, -2, -1, 1, 2, 3, 4, 5])
    den = rng.choice([1, 1, 1, 2, 3])
    return num if den == 1 else f"{num}/{den}"


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))


# ------------------------------------------------------------- pairs-levels

# Shapes are (v-support, w-support). Rank-2 weights have coordinate sum 4 and
# are written by their first coordinate a, standing for (a, 4 - a); rank-3
# weights have coordinate sum 3 (checks) or 2 (level stability).
CHECK_R2_IN = [({1, 3}, {2}), ({0, 4}, {1, 3}), ({0, 2, 3}, {2}), ({1, 2, 4}, {3}), ({0, 1, 3, 4}, {2, 4})]
CHECK_R2_OUT = [({1, 3}, {4}), ({1, 2}, {4})]
CHECK_R3_IN = [
    ({(3, 0, 0), (0, 3, 0), (0, 0, 3)}, {(1, 1, 1)}),
    ({(2, 1, 0), (0, 2, 1), (1, 0, 2)}, {(1, 1, 1)}),
    ({(3, 0, 0), (0, 3, 0), (1, 1, 1)}, {(2, 1, 0)}),
]
CHECK_R3_OUT = [
    ({(2, 1, 0), (0, 2, 1), (1, 0, 2)}, {(3, 0, 0)}),
    ({(1, 1, 1), (0, 3, 0)}, {(0, 0, 3)}),
    ({(2, 1, 0), (1, 2, 0), (1, 1, 1)}, {(0, 0, 3), (1, 1, 1)}),
]
STABLE_LOW = [({1, 3}, {2}), ({0, 2}, {1}), ({2, 3}, {1}), ({0, 1}, {3}), ({1, 3}, {4})]
STABLE_IN = [({1, 3}, {2}), ({0, 2}, {1})]
STABLE_R3 = [({(2, 0, 0), (0, 2, 0), (0, 0, 2)}, {(1, 1, 0)}), ({(1, 1, 0), (0, 1, 1)}, {(2, 0, 0)})]


def _lattice_sum_points(rank: int, total: int) -> list[tuple[int, ...]]:
    """Nonnegative integer vectors of length `rank` with coordinate sum `total`."""
    if rank == 1:
        return [(total,)]
    return [
        (a, *rest)
        for a in range(total, -1, -1)
        for rest in _lattice_sum_points(rank - 1, total - a)
    ]


def _pair_payload(rng: random.Random, shape, rank: int, total: int) -> dict:
    """A torus pair of the given support shape under a seeded coordinate
    permutation, with seeded nonzero coordinates.

    Half the time v lists the whole weight basis with zeros off the support,
    as the binary-form corpus entries do.
    """
    supp_v, supp_w = shape
    if rank == 2:
        supp_v = {(a, total - a) for a in supp_v}
        supp_w = {(a, total - a) for a in supp_w}
    perm = list(range(rank))
    rng.shuffle(perm)
    supp_v = sorted(tuple(q[i] for i in perm) for q in supp_v)
    supp_w = sorted(tuple(q[i] for i in perm) for q in supp_w)
    weights_v = _lattice_sum_points(rank, total) if rng.random() < 0.5 else supp_v
    return {
        "rank": rank,
        "weights_v": [list(q) for q in weights_v],
        "weights_w": [list(q) for q in supp_w],
        "v": [_rational(rng) if q in supp_v else 0 for q in weights_v],
        "w": [_rational(rng) for _ in supp_w],
    }


def _check(shapes, rank, total):
    def make(rng, i):
        return _doc("pairs.check", _pair_payload(rng, shapes[i % len(shapes)], rank, total))

    return make


def _stable(shapes, rank, total, level):
    def make(rng, i):
        payload = _pair_payload(rng, shapes[i % len(shapes)], rank, total)
        payload["max_level"] = level
        return _doc("pairs.stable", payload)

    return make


def _pairs_levels():
    # Sorted by cost the mix has two plateaus: unstable rank-2 checks hold
    # the median and level-3 stable pairs hold the 90th percentile, so both
    # percentiles fall inside a class of near-equal jobs.
    return [
        ("check-r2-in", 20, _check(CHECK_R2_IN, 2, 4)),
        ("check-r3-in", 12, _check(CHECK_R3_IN, 3, 3)),
        ("check-r2-out", 30, _check(CHECK_R2_OUT, 2, 4)),
        ("check-r3-out", 9, _check(CHECK_R3_OUT, 3, 3)),
        ("stable-r2-l1", 5, _stable(STABLE_LOW, 2, 4, 1)),
        ("stable-r2-l2", 6, _stable(STABLE_IN, 2, 4, 2)),
        ("stable-r2-l3-in", 14, _stable(STABLE_IN, 2, 4, 3)),
        ("stable-r2-l4", 2, _stable(STABLE_IN, 2, 4, 4)),
        ("stable-r3-l1", 2, _stable(STABLE_R3, 3, 2, 1)),
        ("other-oracle", 1, _oracle(False)),
        ("other-family", 1, _family(1)),
        ("other-toric", 2, _toric_pl("toric.df")),
    ]


# -------------------------------------------------------------- elimination


def _format_poly(terms, names) -> str:
    """Job-document string of sum(c * prod(names[i]^e_i)) over (c, exps) terms."""
    out = []
    for coeff, exps in terms:
        if coeff == 0:
            continue
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        mag = abs(coeff)
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if out:
            out.append(f" - {body}" if coeff < 0 else f" + {body}")
        else:
            out.append(f"-{body}" if coeff < 0 else body)
    return "".join(out) if out else "0"


def _cyclic4():
    a, b, c, d = [tuple(int(i == k) for i in range(4)) for k in range(4)]

    def mono(*vs):
        return tuple(map(sum, zip(*vs)))

    one = Fraction(1)
    return [
        [(one, a), (one, b), (one, c), (one, d)],
        [(one, mono(a, b)), (one, mono(b, c)), (one, mono(c, d)), (one, mono(d, a))],
        [(one, mono(a, b, c)), (one, mono(b, c, d)), (one, mono(c, d, a)), (one, mono(d, a, b))],
        [(one, mono(a, b, c, d)), (-one, (0, 0, 0, 0))],
    ]


def _katsura(size: int):
    """The Katsura system in `size` variables u0..u(size-1), u_-i = u_i."""
    n = size - 1

    def mono(*idx):
        e = [0] * size
        for i in idx:
            e[abs(i)] += 1
        return tuple(e)

    one = Fraction(1)
    system = [[(one if i == 0 else 2 * one, mono(i)) for i in range(size)] + [(-one, mono())]]
    for m in range(n):
        acc: dict = {mono(m): -one}
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                key = mono(l, m - l)
                acc[key] = acc.get(key, 0) + one
        system.append([(c, e) for e, c in acc.items() if c != 0])
    return system


def _groebner_system(names, system, orders):
    """A fixed system under each of the given variable orders in turn, with
    generators rescaled by seeded rationals."""

    def make(rng, i):
        payload = _rescaled(rng, names, system)
        payload["variables"] = [names[k] for k in orders[i % len(orders)]]
        return _doc("algebra.groebner", payload)

    return make


def _rescaled(rng, names, system) -> dict:
    gens = []
    for terms in system:
        scale = _coeff(rng)
        gens.append(_format_poly([(c * scale, e) for c, e in terms], names))
    return {"variables": list(names), "generators": gens}


# Variable orders that map cyclic-4 onto itself (rotations and reflections of
# a, b, c, d), so every order costs the same.
CYCLIC4_ORDERS = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2), (3, 2, 1, 0), (0, 3, 2, 1)]
CURVES = [(2, 3), (3, 4), (2, 5), (3, 5)]


def _curve(order_kind: str):
    """x^a - c y, x^b - c' z: a monomial space curve, eliminated or in lex."""

    def make(rng, i):
        a, b = CURVES[i % len(CURVES)]
        names = ["x", "y", "z"]
        gens = [
            _format_poly([(Fraction(1), (a, 0, 0)), (-_coeff(rng), (0, 1, 0))], names),
            _format_poly([(Fraction(1), (b, 0, 0)), (-_coeff(rng), (0, 0, 1))], names),
        ]
        payload = {"variables": names, "generators": gens}
        if order_kind == "eliminate":
            payload["eliminate"] = ["x"]
        else:
            payload["order"] = "lex"
        return _doc("algebra.groebner", payload)

    return make


# Saturation by x of x^k times a fixed pattern, with seeded coefficients.
SATURATIONS = [
    [[(1, (1, 1, 0)), (1, (0, 0, 1))], [(1, (0, 2, 0)), (1, (2, 0, 0))]],
    [[(1, (2, 0, 0)), (1, (0, 1, 1))], [(1, (1, 1, 0)), (1, (0, 0, 0))]],
]


def _saturation(rng, i):
    names = ["x", "y", "z"]
    gens = []
    for k, pattern in enumerate(SATURATIONS[i % len(SATURATIONS)]):
        gens.append(
            _format_poly([(_coeff(rng), (e[0] + k + 1, e[1], e[2])) for _, e in pattern], names)
        )
    return _doc("algebra.groebner", {"variables": names, "generators": gens, "saturate": "x"})


TORUS_WEIGHTS = [(1, 1), (1, 2), (2, 1), (2, 3)]


def _torus_problem(weights, projective: bool) -> dict:
    p, q = weights
    problem = {
        "group": {"kind": "torus", "size": 1},
        "action": {"kind": "torus-weights", "weights": [[p], [-q]]},
        "space": ["x1", "y1"],
        "limit": ["x2", "y2"],
        "variety": [],
    }
    if projective:
        problem["target"] = ["x1"]
        problem["projective"] = True
    else:
        problem["target"] = ["x1", "y1"]
    return problem


def _point(rng, zero_at: int | None) -> list:
    """A rational point, zero in the given coordinate and nonzero elsewhere."""
    return [0 if k == zero_at else _rational(rng) for k in range(2)]


def _degeneration(projective: bool):
    def make(rng, i):
        payload = _torus_problem(TORUS_WEIGHTS[i % len(TORUS_WEIGHTS)], projective)
        payload["probes"] = [_point(rng, None), _point(rng, 0), _point(rng, 1)]
        return _doc("locus.degeneration", payload)

    return make


def _oracle(projective: bool):
    def make(rng, i):
        payload = _torus_problem(TORUS_WEIGHTS[i % len(TORUS_WEIGHTS)], projective)
        payload["point"] = _point(rng, [None, 0, 1][i % 3])
        return _doc("locus.oracle", payload)

    return make


def _family(base_size: int):
    """Rank-1 family with one w coordinate; v coordinates are affine in the base."""

    def make(rng, i):
        base = ["a", "b"][:base_size]
        weights_v = [[0], [2], [-1]][: base_size + 1]
        units = [tuple(int(k == j) for k in range(base_size)) for j in range(base_size)]

        def affine(unit):
            return _format_poly([(_coeff(rng), unit), (_coeff(rng), (0,) * base_size)], base)

        v = [affine(units[0]), _format_poly([(_coeff(rng), (0,) * base_size)], base)]
        v += [affine(u) for u in units[1:]]
        return _doc(
            "locus.family",
            {
                "rank": 1,
                "base": base,
                "weights_v": weights_v,
                "weights_w": [[1]],
                "v": v,
                "w": [affine(units[-1])],
            },
        )

    return make


def _elimination():
    # Sorted by cost the mix has two plateaus: cyclic-4 holds the median and
    # katsura-4 the 90th percentile.
    return [
        ("curve-eliminate", 8, _curve("eliminate")),
        ("curve-lex", 6, _curve("lex")),
        ("katsura3", 8, _groebner_system(["u0", "u1", "u2"], _katsura(3), [(0, 1, 2), (2, 1, 0)])),
        ("family-1", 4, _family(1)),
        ("family-2", 6, _family(2)),
        ("oracle-affine", 6, _oracle(False)),
        ("saturate", 10, _saturation),
        ("oracle-projective", 8, _oracle(True)),
        ("cyclic4", 24, _groebner_system(["a", "b", "c", "d"], _cyclic4(), CYCLIC4_ORDERS)),
        ("degeneration-affine", 12, _degeneration(False)),
        ("katsura4", 16, _groebner_system(["u0", "u1", "u2", "u3"], _katsura(4), [(0, 1, 2, 3), (3, 2, 1, 0)])),
        ("degeneration-projective", 4, _degeneration(True)),
        ("other-toric", 2, _toric_pl("toric.df")),
    ]


# --------------------------------------------------------------- arcs-toric

SL2 = {"kind": "special-linear", "size": 2}
ARC_SHAPES = ("diagonal", "unipotent", "product")

# Lattice symmetries of the plane; seeded images of fixed polygons keep the
# toric invariants and the cost of a job while changing its coordinates.
D4 = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((0, -1), (1, 0)),
      ((1, 0), (0, -1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (-1, 0))]

# toric.uniform inputs: polygon vertices and creases (normal, offset).
UNIFORM = [
    ([(0, 0), (2, 0), (0, 2)], [((1, 0), 1), ((0, 1), 1)]),
    ([(0, 0), (2, 0), (2, 2), (0, 2)], [((1, 0), 1), ((1, 1), 2)]),
    ([(0, 0), (3, 0), (0, 2)], [((1, 0), 1), ((0, 1), 1)]),
]


def _format_laurent(terms: dict[int, Fraction]) -> str:
    """Job-document string of a Laurent polynomial in t."""
    return _format_poly([(c, (e,)) for e, c in sorted(terms.items())], ["t"])


def _sl2_arc(rng, shape: str) -> list[list[str]]:
    """A diagonal, unipotent or product arc of SL2, with determinant 1.

    The exponent pattern is fixed; the seed picks the coefficients and the
    direction of the one-parameter subgroup.
    """
    k = rng.choice([-1, 1])
    off = {-1: _coeff(rng), 1: _coeff(rng)}
    if shape == "diagonal":
        return [[_format_laurent({k: Fraction(1)}), "0"], ["0", _format_laurent({-k: Fraction(1)})]]
    if shape == "unipotent":
        return [["1", _format_laurent(off)], ["0", "1"]]
    # diag(t^k, t^-k) times the unipotent [[1, off], [0, 1]]
    return [
        [_format_laurent({k: Fraction(1)}), _format_laurent({e + k: c for e, c in off.items()})],
        ["0", _format_laurent({-k: Fraction(1)})],
    ]


def _sym_vector(rng, degree: int) -> list:
    """A binary form of the given degree whose even-position coefficients are
    seeded nonzero rationals and whose odd-position ones are zero."""
    return [0 if k % 2 else _rational(rng) for k in range(degree + 1)]


def _arc_weight(degrees, shapes=ARC_SHAPES):
    menu = [(d, shape) for d in degrees for shape in shapes]

    def make(rng, i):
        d, shape = menu[i % len(menu)]
        return _doc(
            "arcs.weight",
            {
                "group": SL2,
                "rep_v": {"kind": "sym", "degree": d},
                "rep_w": {"kind": "trivial"},
                "v": _sym_vector(rng, d),
                "w": [1],
                "arc": _sl2_arc(rng, shape),
            },
        )

    return make


def _arc_equiv(rng, i):
    a = _sl2_arc(rng, ARC_SHAPES[i % 3])
    b = a if i % 2 else _sl2_arc(rng, ARC_SHAPES[(i + 1) % 3])
    return _doc("arcs.equiv", {"arc_a": a, "arc_b": b, "group": SL2})


# Binary quartics: the first two have a root of multiplicity at least three
# (unstable), the others do not, so the falsifier spends every draw on them.
QUARTICS = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 1), (0, 1, 0, 1, 0), (1, 0, 1, 0, 1)]


def _falsify(forms, draws):
    def make(rng, i):
        form = forms[i % len(forms)]
        return _doc(
            "pairs.falsify",
            {
                "group": SL2,
                "rep_v": {"kind": "sym", "degree": 4},
                "rep_w": {"kind": "trivial"},
                "v": [_rational(rng) if c else 0 for c in form],
                "w": [1],
                "draws": draws,
            },
            seed=rng.randint(0, 10_000),
        )

    return make


def _hull(points):
    """Counter-clockwise convex hull of integer points (monotone chain)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _pl_pieces(rng, dim: int) -> list[dict]:
    pieces = [{"gradient": [0] * dim, "constant": 0}]
    for _ in range(rng.randint(1, 2)):
        pieces.append(
            {"gradient": [rng.randint(-2, 2) for _ in range(dim)], "constant": rng.randint(-3, 1)}
        )
    return pieces


def _toric_pl(kind: str):
    """A seeded lattice polygon (or, one time in four, an interval) with a
    seeded convex piecewise-linear function."""

    def make(rng, i):
        if i % 4 == 3:
            lo = rng.randint(-2, 1)
            verts, dim = [[lo], [lo + rng.randint(1, 3)]], 1
        else:
            hull = []
            while len(hull) < 3:
                hull = _hull([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)])
            verts, dim = [list(p) for p in hull], 2
        return _doc(kind, {"polytope": {"vertices": verts}, "pieces": _pl_pieces(rng, dim)})

    return make


def _rational_json(q: Fraction) -> int | str:
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _uniform(rng, i):
    """A fixed polygon with its creases, moved by a seeded lattice symmetry
    and translation; creases move with it, so each still crosses the interior."""
    verts, creases = UNIFORM[i % len(UNIFORM)]
    m = rng.choice(D4)
    shift = (rng.randint(-2, 2), rng.randint(-2, 2))

    def rotate(p):
        return [m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1]]

    def move(p):
        q = rotate(p)
        return [q[0] + shift[0], q[1] + shift[1]]

    moved = []
    for normal, offset in creases:
        n = rotate(normal)
        moved.append({"normal": n, "offset": offset + n[0] * shift[0] + n[1] * shift[1]})
    return _doc(
        "toric.uniform",
        {
            "polytope": {"vertices": [move(p) for p in verts]},
            "creases": moved,
            "epsilon": _rational_json(Fraction(i % 2, 10)),
        },
    )


def _arcs_toric():
    # Sorted by cost the mix has two plateaus: degree-5 and degree-8 symmetric
    # powers under non-diagonal arcs (which cost the same) hold the median and
    # the 90th percentile.
    return [
        ("toric-df", 12, _toric_pl("toric.df")),
        ("toric-norm", 10, _toric_pl("toric.norm")),
        ("arcs-equiv", 10, _arc_equiv),
        ("falsify-unstable", 2, _falsify(QUARTICS[:2], 30)),
        ("sym-4", 10, _arc_weight([4])),
        ("sym-5", 24, _arc_weight([5], ("unipotent", "product"))),
        ("sym-6", 8, _arc_weight([6])),
        ("falsify", 8, _falsify(QUARTICS[2:], 24)),
        ("uniform", 6, _uniform),
        ("sym-7", 8, _arc_weight([7])),
        ("sym-8", 15, _arc_weight([8], ("unipotent", "product"))),
        ("sym-10", 2, _arc_weight([10])),
        ("sym-14", 1, _arc_weight([14])),
        ("other-oracle", 1, _oracle(False)),
    ]
