"""Acceptance sweep: one timed end-to-end check per shipped criterion.

Every expected answer here is rebuilt from first principles inside the test
(classical characterizations, closed forms, exhaustive probes) rather than
copied from library output, and each criterion asserts its own wall-clock
bound so the suite doubles as a smoke benchmark.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from arc_helpers import arc_norm, arc_product, elementary_arc, identity_arc

from stabkit.algebra import (
    GREVLEX,
    LEX,
    Ideal,
    LaurentPoly,
    MultiPoly,
    eliminate,
    format_multi,
    groebner,
    parse_multi,
    saturate,
)
from stabkit.algebra.ideals import reduce_poly
from stabkit.algebra.multipoly import mono_div
from stabkit.cli import main
from stabkit.groups import (
    Arc,
    GroupPresentation,
    TorusWeights,
    arcs_equivalent,
    diagonal_action,
    mu_weight,
    sym_action,
)
from stabkit.kstab import (
    PLFunction,
    Polytope,
    active_cells,
    toric_df_data,
    toric_minnorm,
    toric_uniform_search,
)
from stabkit.locus import (
    ActionProblem,
    FamilyPair,
    degeneration_locus,
    family_unstable_locus,
)
from stabkit.pairs import Pair, stability_interval, torus_semistable

T1 = GroupPresentation(1, "torus")
GL2 = GroupPresentation(2, "general-linear")


@contextmanager
def deadline(seconds):
    start = time.monotonic()
    yield
    assert time.monotonic() - start < seconds


# -- binary quartics ---------------------------------------------------------
#
# Coefficient lists are low-to-high in x: index i holds the x^i y^(4-i)
# coefficient.  A root of multiplicity >= 3 of a rational quartic is itself
# rational (its conjugates would share the multiplicity), so rational-root
# enumeration plus synthetic division is a complete multiplicity oracle.


def form_product(*factors):
    out = [Fraction(1)]
    for fac in factors:
        new = [Fraction(0)] * (len(out) + len(fac) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(fac):
                new[i + j] += a * b
        out = new
    return out


def line(root):
    # x - root*y
    return [Fraction(-root), Fraction(1)]


Y_FACTOR = [Fraction(1), Fraction(0)]


def eval_poly(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def divide_out(poly, root):
    """Quotient and remainder of poly by (x - root)."""
    acc = Fraction(0)
    quo = []
    for c in reversed(poly[1:]):
        acc = acc * root + c
        quo.append(acc)
    return list(reversed(quo)), acc * root + poly[0]


def root_multiplicity(poly, root):
    count = 0
    cur = poly
    while len(cur) > 1:
        quo, rem = divide_out(cur, root)
        if rem:
            break
        count += 1
        cur = quo
    return count


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def rational_roots(poly):
    scale = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    low = 0
    while ints[low] == 0:
        low += 1
    roots = set()
    if low:
        roots.add(Fraction(0))
    if len(ints) - 1 > low:
        for p in divisors(abs(ints[low])):
            for q in divisors(abs(ints[-1])):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if eval_poly(poly, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def finite_roots(coeffs):
    top = max(i for i, c in enumerate(coeffs) if c)
    if top == 0:
        return []
    return rational_roots(list(coeffs[: top + 1]))


def max_multiplicity(coeffs):
    """Largest root multiplicity of the binary form, infinity included."""
    top = max(i for i, c in enumerate(coeffs) if c)
    best = len(coeffs) - 1 - top
    poly = list(coeffs[: top + 1])
    for root in rational_roots(poly):
        best = max(best, root_multiplicity(poly, root))
    return best


def translate(coeffs, shift):
    """Coefficients of F(x + shift*y, y)."""
    out = [Fraction(0)] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c:
            for j in range(i + 1):
                out[j] += c * math.comb(i, j) * shift ** (i - j)
    return out


def quartic_torus_verdict(coeffs):
    rep_v = TorusWeights([(2 * i - 4,) for i in range(5)])
    rep_w = TorusWeights([(0,)])
    pair = Pair(rep_v, rep_w, [Fraction(c) for c in coeffs], [Fraction(1)], T1)
    return torus_semistable(pair)


def quartic_unstable(coeffs):
    """Diagonal-torus verdicts after moving each candidate root to zero.

    Translations and the coordinate swap are conjugations, so instability of
    any probe certifies instability of the form itself.
    """
    for form in (list(coeffs), list(coeffs)[::-1]):
        views = [form] + [translate(form, r) for r in finite_roots(form)]
        if any(quartic_torus_verdict(f).status == "unstable" for f in views):
            return True
    return False


FIXED_QUARTICS = [
    (form_product(line(1), line(1), line(1), line(-1)), 3),
    (form_product(line(1), line(1), line(-1), line(-1)), 2),
    (form_product(line(0), line(1), line(-1), line(2)), 1),
    (form_product(line(-3), line(-3), line(-3), line(-3)), 4),
    (form_product(Y_FACTOR, Y_FACTOR, Y_FACTOR, line(1)), 3),
]


def test_a01_quartic_verdicts_match_multiplicity():
    with deadline(1.0):
        for i in range(5):
            mono = [Fraction(int(j == i)) for j in range(5)]
            assert quartic_unstable(mono) == (max(i, 4 - i) > 2)
        for coeffs, mult in FIXED_QUARTICS:
            assert max_multiplicity(coeffs) == mult
            assert quartic_unstable(coeffs) == (mult > 2)


# -- degeneration loci -------------------------------------------------------

PLANE1 = ("x1", "y1")
PLANE2 = ("x2", "y2")


def plane_problem(target, projective=False):
    action = diagonal_action(T1, [(1,), (-1,)])
    ideal_y = Ideal(PLANE1, ())
    ideal_w = Ideal(PLANE1, tuple(parse_multi(s, PLANE1) for s in target))
    return ActionProblem(PLANE1, PLANE2, ideal_y, ideal_w, T1, action, projective)


def test_a02_nullcone_of_the_hyperbolic_plane():
    with deadline(5.0):
        prob = plane_problem(["x1", "y1"])
        grid = [(Fraction(a), Fraction(b)) for a in (-1, 0, 1) for b in (-1, 0, 1)]
        report = degeneration_locus(prob, probes=grid)
        assert [format_multi(g) for g in report.ideal.generators] == ["x1*y1"]
        assert not report.overapproximation
        for row in report.oracle_table:
            expected = row.point[0] * row.point[1] == 0
            assert row.degenerates == expected
            assert row.in_locus == expected


def test_a03_projective_line_strictness():
    with deadline(5.0):
        prob = plane_problem(["x1"], projective=True)
        probes = [(1, 0), (0, 1), (1, 1)]
        report = degeneration_locus(prob, probes=probes)
        assert list(report.ideal.generators) == []
        rows = {row.point: row for row in report.oracle_table}
        for row in rows.values():
            assert row.in_locus or not row.degenerates
        assert not rows[(1, 0)].degenerates and rows[(1, 0)].in_locus
        assert rows[(0, 1)].degenerates
        assert rows[(1, 1)].degenerates
        assert report.overapproximation


# -- toric invariants --------------------------------------------------------

INTERVAL = Polytope(1, [(0,), (1,)])
SIMPLEX = Polytope(2, [(0, 0), (1, 0), (0, 1)])
WIDE_TRIANGLE = Polytope(2, [(0, 0), (2, 0), (0, 1)])


def pl(dim, *pieces):
    return PLFunction(dim, pieces)


def df(P, f):
    return toric_df_data(P, active_cells(P, f)).df


def minnorm(P, f):
    return toric_minnorm(P, active_cells(P, f))


def test_a04_df_golden_values():
    hinge = pl(1, ((Fraction(0),), Fraction(0)), ((Fraction(2),), Fraction(-1)))
    with deadline(1.0):
        assert df(INTERVAL, hinge) == Fraction(1, 4)
    with deadline(1.0):
        assert df(INTERVAL, pl(1, ((Fraction(0),), Fraction(7)))) == 0
    with deadline(1.0):
        coord = pl(2, ((Fraction(1), Fraction(0)), Fraction(0)))
        assert df(SIMPLEX, coord) == 0
    with deadline(1.0):
        coord = pl(2, ((Fraction(1), Fraction(0)), Fraction(0)))
        data = toric_df_data(WIDE_TRIANGLE, active_cells(WIDE_TRIANGLE, coord))
        assert data.df == Fraction(1, 6)
        assert (data.a0, data.a1) == (1, 2)
        assert data.integral_f == Fraction(2, 3)
        assert data.boundary_integral_f == 3


def test_a05_wide_triangle_destabilized():
    with deadline(5.0):
        verdict = toric_uniform_search(WIDE_TRIANGLE, [], Fraction(0))
        assert verdict.status == "fails-at-epsilon"
        assert verdict.alpha == (Fraction(0), Fraction(1))
        assert verdict.df == Fraction(-1, 6)
        assert verdict.minimum == Fraction(-1, 2)
        assert verdict.minnorm == Fraction(1, 3)
        cert = verdict.certificate
        assert cert.pieces == (((Fraction(0), Fraction(1)), Fraction(0)),)
        assert df(WIDE_TRIANGLE, cert) == Fraction(-1, 6)
        assert minnorm(WIDE_TRIANGLE, cert) == Fraction(1, 3)


def test_a06_interval_fails_at_every_positive_epsilon():
    with deadline(5.0):
        for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1)):
            verdict = toric_uniform_search(INTERVAL, [], eps)
            assert verdict.status == "fails-at-epsilon"
            assert verdict.df == 0
            assert verdict.minnorm == Fraction(1, 2)
            assert verdict.alpha in ((Fraction(1),), (Fraction(-1),))
            cert = verdict.certificate
            assert len(cert.pieces) == 1
            assert df(INTERVAL, cert) == 0
            assert minnorm(INTERVAL, cert) == Fraction(1, 2)
        assert toric_uniform_search(INTERVAL, [], Fraction(1, 10)).alpha == (Fraction(1),)
        held = toric_uniform_search(INTERVAL, [], Fraction(0))
        assert held.status == "holds-on-family"
        assert held.minimum == 0


# -- arc weights and norms ---------------------------------------------------

A7_PAIRS = [
    ([(1, 0), (0, 1)], [1, 1], [(0, 0)], [1]),
    ([(2, -1)], [1], [(1, 1)], [1]),
    ([(3, 1), (1, 3)], [1, 1], [(2, 2)], [1]),
    ([(-1, -1), (2, 0)], [1, 2], [(0, 0)], [1]),
    ([(0, 2), (2, 0), (1, 1)], [1, 1, 1], [(1, 0)], [1]),
    ([(-2, 3)], [5], [(3, -2)], [1]),
    ([(1, 1), (-1, 2)], [2, 3], [(0, 1)], [1]),
    ([(0, 0), (1, -1)], [1, 1], [(2, -2)], [1]),
    ([(2, 2), (0, -3)], [1, 4], [(-1, -1)], [1]),
    ([(1, -3), (3, -1)], [7, 1], [(1, 1)], [1]),
]


def perturbed_diagonal(exps, rng):
    """diag(t^e * unit) with random unit perturbations 1 + c1 t + c2 t^2."""
    entries = []
    for e in exps:
        terms = {e: Fraction(1)}
        for off in (1, 2):
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            if c:
                terms[e + off] = c
        entries.append(LaurentPoly(terms))
    return Arc.diagonal_arc(entries)


def test_a07_unit_perturbations_keep_arc_weights():
    with deadline(10.0):
        rng = random.Random(977)
        for weights_v, v, weights_w, w in A7_PAIRS:
            rep_v = TorusWeights(weights_v)
            rep_w = TorusWeights(weights_w)
            vv = [Fraction(c) for c in v]
            ww = [Fraction(c) for c in w]
            for _ in range(20):
                exps = (rng.randint(-3, 3), rng.randint(-3, 3))
                arc = perturbed_diagonal(exps, rng)
                clean = Arc.one_ps(exps)
                got = mu_weight(rep_v, rep_w, vv, ww, arc)
                assert got == mu_weight(rep_v, rep_w, vv, ww, clean)


def small_laurent(rng, floor):
    terms = {}
    for e in range(floor, floor + 3):
        c = rng.randint(-2, 2)
        if c:
            terms[e] = Fraction(c)
    return LaurentPoly(terms)


def random_arc(rng):
    arc = identity_arc(2)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            arc = arc_product(arc, Arc.one_ps((rng.randint(-2, 2), rng.randint(-2, 2))))
        else:
            off = small_laurent(rng, rng.randint(-2, 1))
            if off.is_zero():
                off = LaurentPoly.t_power(rng.randint(-2, 2))
            i = rng.randint(0, 1)
            arc = arc_product(arc, elementary_arc(2, i, 1 - i, off))
    return arc


def integral_unit_arc(rng):
    """Product of unit diagonals and nonnegative elementary factors."""
    d1 = LaurentPoly({0: Fraction(1), 1: Fraction(rng.randint(-2, 2))})
    d2 = LaurentPoly({0: Fraction(1), 2: Fraction(rng.randint(-2, 2))})
    arc = Arc.diagonal_arc([d1, d2])
    off = small_laurent(rng, rng.randint(0, 2))
    if not off.is_zero():
        i = rng.randint(0, 1)
        arc = arc_product(arc, elementary_arc(2, i, 1 - i, off))
    return arc


def test_a08_arc_norms_nonnegative_and_equivalence_invariant():
    with deadline(10.0):
        rng = random.Random(978)
        reps = {d: sym_action(GL2, d) for d in (1, 2, 3, 4)}
        identity = identity_arc(2)
        trivial_count = 0
        for k in range(200):
            d = 1 + k % 4
            arc = integral_unit_arc(rng) if k % 5 == 0 else random_arc(rng)
            v = [Fraction(rng.randint(-3, 3)) for _ in range(d + 1)]
            if all(c == 0 for c in v):
                v[0] = Fraction(1)
            norm = arc_norm(reps[d], v, arc)
            assert norm >= 0
            if arcs_equivalent(arc, identity):
                trivial_count += 1
                assert norm == 0
        assert trivial_count >= 40


# -- stability across levels -------------------------------------------------


def rank2_pair(weights_v, v, weights_w, w):
    return Pair(
        TorusWeights(weights_v),
        TorusWeights(weights_w),
        [Fraction(c) for c in v],
        [Fraction(c) for c in w],
        GroupPresentation(2, "torus"),
    )


def stable_at(interval, level):
    """(associated, norm-gap) stability at a level, read off the interval."""
    return tuple(
        interval is not None and interval[0] <= c <= interval[1]
        for c in (Fraction(-1, level + 1), Fraction(1, level + 1))
    )


def test_a09_level_stability_on_worked_pairs():
    with deadline(5.0):
        stable = rank2_pair([(3, 1), (1, 3)], [1, 1], [(2, 2)], [1])
        unstable = rank2_pair([(3, 1), (1, 3)], [1, 1], [(4, 0)], [1])
        norm_gap = rank2_pair([(2, 2)], [1], [(2, 2)], [1])
        intervals = {p: stability_interval(p) for p in (stable, unstable, norm_gap)}
        for level in range(1, 6):
            for interval in intervals.values():
                assoc, dr = stable_at(interval, level)
                assert not dr or assoc
            assert stable_at(intervals[unstable], level) == (False, False)
            assert stable_at(intervals[norm_gap], level) == (True, False)
        assert stable_at(intervals[stable], 1) == (True, True)


def test_a09_level_stability_scales_to_level_20(tmp_path, capsys):
    # four rank-3 weights against (4,0,0): the per-level Minkowski sums of
    # the associated pairs grow with the level, the one interval does not
    job = tmp_path / "job.json"
    payload = {
        "rank": 3,
        "weights_v": [[3, 1, 0], [1, 3, 0], [0, 1, 3], [2, 0, 2]],
        "weights_w": [[4, 0, 0]],
        "v": [1, 1, 1, 1],
        "w": [1],
        "max_level": 20,
    }
    job.write_text(json.dumps({"schema_version": 1, "kind": "pairs.stable", "payload": payload}))
    with deadline(1.0):
        assert main(["run", str(job)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "not-stable-at-l"
    assert len(report["values"]["levels"]) == 20


# -- family loci -------------------------------------------------------------


def test_a10_line_family_unstable_exactly_at_origin():
    with deadline(5.0):
        base = ("b",)
        fam = FamilyPair(
            base,
            TorusWeights([(0,), (2,)]),
            TorusWeights([(1,)]),
            (parse_multi("b", base), parse_multi("1", base)),
            (parse_multi("1", base),),
            T1,
        )
        components = family_unstable_locus(fam)
        assert [[format_multi(g) for g in c.generators] for c in components] == [["b"]]
        rng = random.Random(979)
        samples = [Fraction(0)]
        while len(samples) < 21:
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            samples.append(b)
        rep_v = TorusWeights([(0,), (2,)])
        rep_w = TorusWeights([(1,)])
        for b in samples:
            fiber = Pair(rep_v, rep_w, [b, Fraction(1)], [Fraction(1)], T1)
            unstable = torus_semistable(fiber).status == "unstable"
            assert unstable == (b == 0)


# -- Groebner gate -----------------------------------------------------------


def s_poly(f, g, order):
    """S-polynomial, built from `lead` and ring arithmetic."""
    (fm, fc), (gm, gc) = f.lead(order), g.lead(order)
    lcm = tuple(map(max, fm, gm))
    left = f * MultiPoly(f.variables, {mono_div(lcm, fm): Fraction(1) / fc})
    return left - g * MultiPoly(g.variables, {mono_div(lcm, gm): Fraction(1) / gc})


def buchberger_holds(basis, order):
    gens = list(basis.generators)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_poly(gens[i], gens[j], order)
            if not reduce_poly(s, gens, order).is_zero():
                return False
    return True


def test_a11_groebner_engine_goldens():
    with deadline(10.0):
        ring = ("x", "y", "z")
        cubic = Ideal(ring, (parse_multi("x^2 - y", ring), parse_multi("x^3 - z", ring)))
        lex_basis = groebner(cubic, order=LEX)
        assert buchberger_holds(lex_basis, LEX)
        assert sorted(format_multi(g, LEX) for g in lex_basis.generators) == [
            "x*y - z",
            "x*z - y^2",
            "x^2 - y",
            "y^3 - z^2",
        ]

        eliminated = eliminate(cubic, ["x"])
        assert [format_multi(g) for g in eliminated.generators] == ["y^3 - z^2"]
        assert buchberger_holds(groebner(eliminated, order=LEX), LEX)

        kat_ring = ("u0", "u1", "u2")
        katsura = Ideal(
            kat_ring,
            tuple(
                parse_multi(s, kat_ring)
                for s in (
                    "u0 + 2*u1 + 2*u2 - 1",
                    "u0^2 + 2*u1^2 + 2*u2^2 - u0",
                    "2*u0*u1 + 2*u1*u2 - u1",
                )
            ),
        )
        assert buchberger_holds(groebner(katsura), GREVLEX)

        sat_ring = ("x", "y")
        tube = Ideal(sat_ring, (parse_multi("x^2*y", sat_ring),))
        x = parse_multi("x", sat_ring)
        once = saturate(tube, x)
        assert [format_multi(g) for g in once.generators] == ["y"]
        assert saturate(once, x) == once


# -- CLI corpus gate ---------------------------------------------------------


def test_corpus_cli_gate(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for cid in range(1, 12):
        assert f"A{cid} PASS" in out
