"""Degeneration loci, per-point orbit oracles, and family stratification."""

import contextlib
import itertools
import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabkit import linprog, locus
from stabkit.algebra import Ideal, MultiPoly, format_multi, ideals, parse_multi
from stabkit.algebra.ideals import Budget, groebner, saturate
from stabkit.cli import execute_job
from stabkit.groups import (
    INV_VAR,
    GroupPresentation,
    MatrixAction,
    TorusWeights,
    diagonal_action,
    rep_weights,
    sym_action,
)
from stabkit.locus import (
    ActionProblem,
    FamilyPair,
    _eliminated_degenerates,
    degeneration_locus,
    family_unstable_locus,
    graph_ideal,
    locus_contains,
    orbit_map_closure,
    point_degenerates,
    saturate_by_all,
)
from stabkit.pairs import Pair, torus_semistable

T1 = GroupPresentation(1, "torus")
Y1 = ("x1", "y1")
Y2 = ("x2", "y2")


def plane_problem(target, variety=(), projective=False):
    action = diagonal_action(T1, [(1,), (-1,)])
    ideal_y = Ideal(Y1, [parse_multi(s, Y1) for s in variety])
    ideal_w = Ideal(
        Y1, list(ideal_y.generators) + [parse_multi(s, Y1) for s in target]
    )
    return ActionProblem(Y1, Y2, ideal_y, ideal_w, T1, action, projective)


def gens_of(ideal):
    return sorted(format_multi(g) for g in ideal.generators)


class TestActionProblem:
    def test_name_collisions_rejected(self):
        action = diagonal_action(T1, [(1,), (-1,)])
        zero = Ideal(Y1, ())
        with pytest.raises(ValueError):
            ActionProblem(Y1, Y1, zero, zero, T1, action)

    def test_ideals_must_live_in_first_copy(self):
        action = diagonal_action(T1, [(1,), (-1,)])
        wrong = Ideal(Y2, ())
        with pytest.raises(ValueError):
            ActionProblem(Y1, Y2, wrong, wrong, T1, action)

    def test_target_must_contain_variety(self):
        action = diagonal_action(T1, [(1,), (-1,)])
        hyper = Ideal(Y1, [parse_multi("x1*y1 - 1", Y1)])
        axis = Ideal(Y1, [parse_multi("x1", Y1)])
        with pytest.raises(ValueError):
            ActionProblem(Y1, Y2, hyper, axis, T1, action)

    def test_projective_needs_homogeneous_ideals(self):
        with pytest.raises(ValueError):
            plane_problem(["x1 - 1"], projective=True)

    def test_dimension_mismatch(self):
        action = diagonal_action(T1, [(1,)])
        zero = Ideal(Y1, ())
        with pytest.raises(ValueError):
            ActionProblem(Y1, Y2, zero, zero, T1, action)

    def test_equal_groups_are_one_group(self):
        # a shared Sym^d action keeps the group of the job that built it,
        # which equals a later job's group without being the same object
        acting = GroupPresentation(2, "special-linear")
        posed = GroupPresentation(2, "special-linear")
        assert acting == posed and acting is not posed
        action = MatrixAction(acting, sym_action(acting, 2).matrix)
        y1, y2 = ("a", "b", "c"), ("a2", "b2", "c2")
        zero = Ideal(y1, ())
        assert ActionProblem(y1, y2, zero, zero, posed, action).group is posed
        with pytest.raises(ValueError, match="representation of the given group"):
            ActionProblem(y1, y2, zero, zero, GroupPresentation(2, "general-linear"), action)


class TestOrbitClosure:
    def test_graph_pins_second_copy(self):
        prob = plane_problem(["x1", "y1"])
        graph = graph_ideal(prob)
        assert graph.variables == T1.variables + Y1 + Y2
        pinned = parse_multi("x2 - g11*x1", graph.variables)
        assert any(g == pinned for g in graph.generators)

    def test_hyperbola_stays_closed(self):
        prob = plane_problem(["x1", "y1"], variety=["x1*y1 - 1"])
        closure = orbit_map_closure(prob)
        assert gens_of(closure) == ["x1*y1 - 1", "x2*y2 - 1"]

    def test_full_plane_orbit_map(self):
        # pairs (p, q) with p in an orbit whose closure contains q: the
        # valuative condition is x2*y2 = x1*y1
        prob = plane_problem(["x1", "y1"])
        closure = orbit_map_closure(prob)
        assert gens_of(closure) == ["x1*y1 - x2*y2"]

    def test_saturate_by_all_intersects(self):
        ring = ("x", "y")
        ideal = Ideal(ring, [parse_multi("x*y", ring)])
        polys = [parse_multi("x", ring), parse_multi("y", ring)]
        out = saturate_by_all(ideal, polys)
        assert gens_of(out) == ["x*y"]
        assert saturate_by_all(ideal, []) == ideal


class TestDegenerationLocus:
    def test_nullcone_of_the_scaling_action(self):
        grid = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
        report = degeneration_locus(plane_problem(["x1", "y1"]), probes=grid)
        assert gens_of(report.ideal) == ["x1*y1"]
        assert not report.overapproximation
        for row in report.oracle_table:
            expected = row.point[0] * row.point[1] == 0
            assert row.degenerates == expected
            assert row.in_locus == expected

    def test_point_oracles(self):
        prob = plane_problem(["x1", "y1"])
        assert point_degenerates(prob, (Fraction(1), Fraction(0)))
        assert point_degenerates(prob, (Fraction(0), Fraction(0)))
        assert not point_degenerates(prob, (Fraction(2), Fraction(1, 2)))

    def test_probe_must_lie_on_variety(self):
        prob = plane_problem(["x1", "y1"], variety=["x1*y1 - 1"])
        with pytest.raises(ValueError):
            point_degenerates(prob, (Fraction(0), Fraction(0)))

    def test_locus_contains(self):
        prob = plane_problem(["x1", "y1"])
        locus = degeneration_locus(prob).ideal
        assert locus_contains(locus, (Fraction(0), Fraction(7)))
        assert not locus_contains(locus, (Fraction(1), Fraction(1)))

    def test_projective_closure_is_strict_overapproximation(self):
        # the fixed point [1:0] never reaches {x = 0}, but the closed image
        # of the orbit map cannot separate it from the degenerating orbits
        prob = plane_problem(["x1"], projective=True)
        report = degeneration_locus(
            prob, probes=[(1, 0), (0, 1), (1, 1)]
        )
        assert gens_of(report.ideal) == []
        assert report.overapproximation
        rows = {row.point: (row.degenerates, row.in_locus) for row in report.oracle_table}
        assert rows[(Fraction(1), Fraction(0))] == (False, True)
        assert rows[(Fraction(0), Fraction(1))] == (True, True)
        assert rows[(Fraction(1), Fraction(1))] == (True, True)

    def test_projective_zero_point_rejected(self):
        prob = plane_problem(["x1"], projective=True)
        with pytest.raises(ValueError):
            point_degenerates(prob, (Fraction(0), Fraction(0)))


@contextlib.contextmanager
def groebner_runs():
    """Count the Groebner bases computed inside the block: `groebner` and
    `eliminate` both run `buchberger`."""
    runs = []
    real = ideals.buchberger

    def counting(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    ideals.buchberger = counting
    try:
        yield runs
    finally:
        ideals.buchberger = real


def torus_problem(weights, target, projective=False):
    group = GroupPresentation(len(weights[0]), "torus")
    y1 = tuple(f"x{i}" for i in range(len(weights)))
    y2 = tuple(f"z{i}" for i in range(len(weights)))
    ideal_w = Ideal(y1, [parse_multi(s, y1) for s in target])
    action = diagonal_action(group, weights)
    return ActionProblem(y1, y2, Ideal(y1, ()), ideal_w, group, action, projective)


@st.composite
def torus_oracles(draw):
    """Rank <= 2, <= 4 coordinates with repeated weights, monomial targets
    (the constant 1 and the empty target included), points with zeros; half
    of them projective."""
    rank = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    pool = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=1, max_size=4)
    )
    weights = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    names = [f"x{i}" for i in range(n)]
    monomial = st.lists(st.sampled_from(names), max_size=2).map(lambda vs: "*".join(vs) or "1")
    target = draw(st.lists(monomial, max_size=2))
    projective = draw(st.booleans())
    entries = st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])
    point = draw(st.lists(entries, min_size=n, max_size=n))
    assume(not projective or any(point))
    return torus_problem(weights, target, projective), tuple(map(Fraction, point))


class TestFaceRoute:
    @given(torus_oracles())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_elimination(self, case):
        prob, point = case
        with groebner_runs() as runs:
            hits = point_degenerates(prob, point)
        assert runs == []
        assert hits == _eliminated_degenerates(prob, point, Budget())

    @pytest.mark.parametrize(
        "target, projective, point, expected",
        [
            (["1"], False, (0, 0, 0), False),
            (["1"], True, (1, 0, 2), False),
            ([], False, (1, 1, 1), True),
            ([], True, (1, 1, 1), True),
            (["x0", "x1*x2"], False, (0, 0, 0), True),
            (["x0", "x1*x2"], False, (1, 1, 1), False),
            (["x0", "x1*x2"], False, (1, 0, 1), True),
            (["x0*x2"], True, (1, 1, 1), True),
            (["x0", "x1"], True, (1, 1, 0), False),
        ],
        ids=[
            "unit-affine",
            "unit-projective",
            "empty-affine",
            "empty-projective",
            "zero-point",
            "lineality-space",
            "cone-face",
            "vertex",
            "no-vertex",
        ],
    )
    def test_edge_cases(self, target, projective, point, expected):
        prob = torus_problem([(1,), (-1,), (1,)], target, projective)
        point = tuple(map(Fraction, point))
        with groebner_runs() as runs:
            assert point_degenerates(prob, point) is expected
        assert runs == []
        assert _eliminated_degenerates(prob, point, Budget()) is expected

    def test_interior_weight_names_no_limit(self):
        # [t : 1 : 1/t] tends to [1 : 0 : 0] and [0 : 0 : 1], the vertices;
        # the interior weight's coordinate alone is no limit point
        prob = torus_problem([(1,), (0,), (-1,)], ["x0", "x2"], projective=True)
        point = (Fraction(1), Fraction(1), Fraction(1))
        assert not point_degenerates(prob, point)
        assert not _eliminated_degenerates(prob, point, Budget())

    def test_sl2_sym_oracle_eliminates(self):
        sl2 = GroupPresentation(2, "special-linear")
        y1, y2 = ("a", "b", "c"), ("a2", "b2", "c2")
        nullcone = Ideal(y1, [parse_multi(v, y1) for v in y1])
        prob = ActionProblem(y1, y2, Ideal(y1, ()), nullcone, sl2, sym_action(sl2, 2))
        with groebner_runs() as runs:
            # x^2 has a double root, x*y does not
            assert point_degenerates(prob, (Fraction(1), Fraction(0), Fraction(0)))
        assert runs
        assert not point_degenerates(prob, (Fraction(0), Fraction(1), Fraction(0)))

    def test_hyperbola_eliminates(self):
        prob = plane_problem(["x1", "y1"], variety=["x1*y1 - 1"])
        with groebner_runs() as runs:
            assert not point_degenerates(prob, (Fraction(2), Fraction(1, 2)))
        assert runs

    def test_non_diagonal_torus_matrix_eliminates(self):
        # diag(t, 1/t) conjugated by [[1, 1], [0, 1]]: the nullcone is the
        # image of the two axes, y1 = 0 or x1 = y1
        ring = T1.variables
        rows = [["g11", "ginv - g11"], ["0", "ginv"]]
        action = MatrixAction(T1, [[parse_multi(s, ring) for s in row] for row in rows])
        zero = Ideal(Y1, ())
        origin = Ideal(Y1, [parse_multi(v, Y1) for v in Y1])
        prob = ActionProblem(Y1, Y2, zero, origin, T1, action)
        with groebner_runs() as runs:
            assert point_degenerates(prob, (Fraction(3), Fraction(3)))
        assert runs
        assert not point_degenerates(prob, (Fraction(2), Fraction(1)))


def ref_diagonal_weights(prob):
    """The reader of torus weights the face route had before it read them
    through `rep_weights`: the weight of each coordinate when a torus acts
    diagonally, each diagonal entry one term in the g_ii and ginv: its g_ii
    exponents less its ginv exponent.  None for any other action."""
    if not prob.group.is_torus:
        return None
    variables = prob.group.variables
    diag = [variables.index(f"g{i}{i}") for i in range(1, prob.group.size + 1)]
    inv = variables.index(INV_VAR)
    weights = []
    for r, row in enumerate(prob.action.matrix):
        if any(not entry.is_zero() for c, entry in enumerate(row) if c != r):
            return None
        if len(row[r].terms) != 1:
            return None
        (mono,) = row[r].terms
        if any(e for j, e in enumerate(mono) if j != inv and j not in diag):
            return None
        weights.append(tuple(mono[j] - mono[inv] for j in diag))
    return weights


@st.composite
def written_torus_oracles(draw):
    """Rank <= 2, <= 3 coordinates, monomial targets, points with zeros, half
    of them projective.  Half the actions are written as the reference reads
    them: a one-term diagonal entry per weight, zero elsewhere.  In the
    others a diagonal entry writes its weight with one or two terms that
    agree modulo ginv*g11*...*gkk = 1 (their coefficients may cancel), at
    times plus a term in an off-diagonal variable, or is zero; an entry off
    the diagonal is zero or a term in an off-diagonal variable."""
    written = draw(st.booleans())
    rank = draw(st.integers(1, 2))
    group = GroupPresentation(rank, "torus")
    ring = group.variables
    diag = [ring.index(f"g{i}{i}") for i in range(1, rank + 1)]
    inv = ring.index(INV_VAR)
    off = [j for j in range(len(ring)) if j != inv and j not in diag]  # none on rank 1
    coeffs = st.sampled_from([1, -1, 2, Fraction(1, 2)])

    def term(exponents):
        mono = [0] * len(ring)
        for j, e in exponents:
            mono[j] = e
        return tuple(mono)

    def off_term():
        return term([(draw(st.sampled_from(off)), 1), (inv, draw(st.integers(0, 1)))])

    def diagonal_entry():
        if written and draw(st.integers(0, 5)) == 0:
            return MultiPoly.zero(ring)
        chi = draw(st.tuples(*[st.integers(-2, 2)] * rank))
        lo = max(0, -min(chi))
        most = 2 if written else 1
        shifts = draw(st.lists(st.integers(lo, lo + 2), min_size=1, max_size=most, unique=True))
        terms = {term([*zip(diag, (e + s for e in chi)), (inv, s)]): draw(coeffs) for s in shifts}
        if written and off and draw(st.booleans()):
            terms[off_term()] = draw(coeffs)
        return MultiPoly(ring, terms)

    def off_entry():
        if written and off and draw(st.booleans()):
            return MultiPoly(ring, {off_term(): draw(coeffs)})
        return MultiPoly.zero(ring)

    n = draw(st.integers(1, 3))
    matrix = [[diagonal_entry() if i == j else off_entry() for j in range(n)] for i in range(n)]
    names = [f"x{i}" for i in range(n)]
    monomial = st.lists(st.sampled_from(names), max_size=2).map(lambda vs: "*".join(vs) or "1")
    y1 = tuple(names)
    y2 = tuple(f"z{i}" for i in range(n))
    ideal_w = Ideal(y1, [parse_multi(t, y1) for t in draw(st.lists(monomial, max_size=2))])
    projective = draw(st.booleans())
    action = MatrixAction(group, matrix)
    prob = ActionProblem(y1, y2, Ideal(y1, ()), ideal_w, group, action, projective)
    point = draw(st.lists(st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]), min_size=n, max_size=n))
    assume(not projective or any(point))
    return prob, tuple(map(Fraction, point))


class TestWeightReader:
    """The face route reads torus weights through `rep_weights`, which also
    accepts entries that equal a monomial only modulo the torus relation."""

    @given(written_torus_oracles())
    @settings(max_examples=200, deadline=None)
    def test_oracle_agrees_with_the_reference_reader_and_elimination(self, case):
        prob, point = case
        ref = ref_diagonal_weights(prob)
        try:
            weights = rep_weights(prob.action, prob.group.size)
        except ValueError:
            weights = None
        if ref is not None:
            assert weights == ref
        with groebner_runs() as runs:
            hits = point_degenerates(prob, point)
        # the face route runs no Groebner basis, elimination always one
        assert (runs == []) == (weights is not None)
        assert hits == _eliminated_degenerates(prob, point, Budget())

    def test_two_terms_equal_to_one_weight_take_the_face_route(self):
        ring = T1.variables
        rows = [["2*g11 - g11^2*ginv", "0"], ["0", "ginv"]]
        action = MatrixAction(T1, [[parse_multi(s, ring) for s in row] for row in rows])
        origin = Ideal(Y1, [parse_multi(v, Y1) for v in Y1])
        prob = ActionProblem(Y1, Y2, Ideal(Y1, ()), origin, T1, action)
        assert ref_diagonal_weights(prob) is None
        assert rep_weights(action, 1) == [(1,), (-1,)]
        for point, expected in [((1, 0), True), ((1, 1), False)]:
            point = tuple(map(Fraction, point))
            with groebner_runs() as runs:
                assert point_degenerates(prob, point) is expected
            assert runs == []
            assert _eliminated_degenerates(prob, point, Budget()) is expected


class TestFaceRouteBudget:
    """The face route's only metered work is its LPs: budget.used is the
    sum of the pivots of every `Tableau.minimize` of the job."""

    @pytest.fixture
    def pivots(self, monkeypatch):
        seen = []
        real = linprog.Tableau.minimize

        def counting(self, c):
            res = real(self, c)
            seen.append(res.pivots)
            return res

        monkeypatch.setattr(linprog.Tableau, "minimize", counting)
        return seen

    def test_projective_oracle_base(self, pivots):
        for path in resources.files("stabkit").joinpath("corpus").iterdir():
            if path.name.endswith(".json"):
                for entry in json.loads(path.read_text()):
                    if entry["id"] == "a3-projective-oracle-base":
                        document = entry["job"]
        report = execute_job(document)
        assert report["verdict"] == "does-not-degenerate"
        assert report["budget"]["used"] == sum(pivots)

    def test_rank_two_affine_oracle(self, pivots):
        document = {
            "schema_version": 1,
            "kind": "locus.oracle",
            "payload": {
                "group": {"kind": "torus", "size": 2},
                "action": {
                    "kind": "torus-weights",
                    "weights": [[1, 0], [0, 1], [-1, -1], [1, 1]],
                },
                "space": ["x1", "x2", "x3", "x4"],
                "limit": ["y1", "y2", "y3", "y4"],
                "variety": [],
                "target": ["x1", "x4"],
                "point": [1, 1, 0, 1],
            },
        }
        report = execute_job(document)
        assert report["verdict"] == "degenerates"
        assert sum(pivots) > 0
        assert report["budget"]["used"] == sum(pivots)


class TestFamilies:
    BASE = ("b",)

    def affine_line_family(self):
        return FamilyPair(
            self.BASE,
            TorusWeights([(0,), (2,)]),
            TorusWeights([(1,)]),
            (parse_multi("b", self.BASE), parse_multi("1", self.BASE)),
            (parse_multi("1", self.BASE),),
            T1,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyPair(
                self.BASE,
                TorusWeights([(1,)]),
                TorusWeights([(1,)]),
                (parse_multi("x", ("x",)),),
                (parse_multi("1", self.BASE),),
                T1,
            )
        with pytest.raises(ValueError):
            FamilyPair(
                self.BASE,
                TorusWeights([(1,)]),
                TorusWeights([(1,)]),
                (parse_multi("b", self.BASE),),
                (parse_multi("1", self.BASE),),
                GroupPresentation(2, "special-linear"),
            )

    def test_unstable_locus_is_the_origin(self):
        fam = self.affine_line_family()
        pieces = family_unstable_locus(fam)
        assert [gens_of(p) for p in pieces] == [["b"]]

    def test_everywhere_unstable_family_collapses_to_one_piece(self):
        fam = FamilyPair(
            self.BASE,
            TorusWeights([(4,), (4,)]),
            TorusWeights([(1,)]),
            (parse_multi("b", self.BASE), parse_multi("b", self.BASE)),
            (parse_multi("1", self.BASE),),
            T1,
        )
        pieces = family_unstable_locus(fam)
        assert [gens_of(p) for p in pieces] == [[]]

    def test_split_unstable_strata(self):
        fam = FamilyPair(
            ("b", "c"),
            TorusWeights([(4,), (0,)]),
            TorusWeights([(1,)]),
            (parse_multi("b", ("b", "c")), parse_multi("c", ("b", "c"))),
            (parse_multi("1", ("b", "c")),),
            T1,
        )
        pieces = family_unstable_locus(fam)
        assert sorted(gens_of(p) for p in pieces) == [["b"], ["c"]]

    def test_w_zero_strata_are_semistable(self):
        fam = FamilyPair(
            self.BASE,
            TorusWeights([(4,)]),
            TorusWeights([(1,)]),
            (parse_multi("1", self.BASE),),
            (parse_multi("b", self.BASE),),
            T1,
        )
        pieces = family_unstable_locus(fam)
        # unstable only where w survives: b != 0, whose closure is everything
        assert [gens_of(p) for p in pieces] == [[]]

    def test_fibers_agree_with_pointwise_verdicts(self):
        fam = self.affine_line_family()
        pieces = family_unstable_locus(fam)
        for b in (Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(5)):
            point = (b,)
            values = {"b": b}
            coords_v = [p.subs(values) for p in fam.v]
            coords_w = [p.subs(values) for p in fam.w]
            pair = Pair(fam.rep_v, fam.rep_w, coords_v, coords_w, fam.group)
            verdict = torus_semistable(pair)
            in_locus = any(locus_contains(p, point) for p in pieces)
            assert (verdict.status == "unstable") == in_locus


def ref_family_unstable_locus(fam, budget=None):
    """The strata loop `family_unstable_locus` had when it tagged each
    coordinate "zero", "unit" or "varies"; it calls
    `locus.supports_semistable` through the module, so a wrapper there sees
    its calls."""
    budget = Budget.coerce(budget)

    def classify(poly):
        if poly.is_zero():
            return "zero"
        if poly.is_constant():
            return "unit"
        return "varies"

    kinds_v = [classify(p) for p in fam.v]
    kinds_w = [classify(p) for p in fam.w]
    free_v = [i for i, k in enumerate(kinds_v) if k == "varies"]
    free_w = [j for j, k in enumerate(kinds_w) if k == "varies"]
    pieces = []
    for pattern in itertools.product((False, True), repeat=len(free_v) + len(free_w)):
        vanish_v = {i for i, flag in zip(free_v, pattern[: len(free_v)]) if flag}
        vanish_w = {j for j, flag in zip(free_w, pattern[len(free_v) :]) if flag}
        supp_v = sorted(
            {fam.rep_v.weights[i] for i, k in enumerate(kinds_v) if k != "zero" and i not in vanish_v}
        )
        if not supp_v:
            continue
        supp_w = sorted(
            {fam.rep_w.weights[j] for j, k in enumerate(kinds_w) if k != "zero" and j not in vanish_w}
        )
        ok, _ = locus.supports_semistable(supp_v, supp_w)
        if ok:
            continue
        stratum = Ideal(
            fam.base_vars,
            [fam.v[i] for i in sorted(vanish_v)] + [fam.w[j] for j in sorted(vanish_w)],
        )
        alive = [fam.v[i] for i in free_v if i not in vanish_v]
        alive += [fam.w[j] for j in free_w if j not in vanish_w]
        closure = stratum
        for f in alive:
            closure = saturate(closure, f, budget)
        closure = groebner(closure, budget=budget)
        if closure.is_trivial():
            continue
        pieces.append(closure)
    return locus._absorb(pieces, budget)


@contextlib.contextmanager
def strata_calls():
    """Record the (supp_v, supp_w) of every `supports_semistable` call that
    `locus` makes inside the block."""
    calls = []
    real = locus.supports_semistable

    def recording(supp_v, supp_w, *args, **kwargs):
        calls.append((list(supp_v), list(supp_w)))
        return real(supp_v, supp_w, *args, **kwargs)

    locus.supports_semistable = recording
    try:
        yield calls
    finally:
        locus.supports_semistable = real


@st.composite
def stratified_families(draw):
    """Rank <= 2 families over one or two base variables whose coordinates
    are zero, constant or varying, at most four of them varying."""
    rank = draw(st.integers(1, 2))
    base = draw(st.sampled_from([("b",), ("b", "c")]))
    polys = ["0", "1", "-2", "1/2", "b", "b - 1", "b^2 + 1"]
    if len(base) == 2:
        polys += ["c", "b*c", "b + c"]
    weight = st.tuples(*[st.integers(-2, 2)] * rank)
    n_v = draw(st.integers(1, 3))
    n_w = draw(st.integers(1, 2))
    v = [parse_multi(draw(st.sampled_from(polys)), base) for _ in range(n_v)]
    w = [parse_multi(draw(st.sampled_from(polys)), base) for _ in range(n_w)]
    assume(sum(not (p.is_zero() or p.is_constant()) for p in v + w) <= 4)
    return FamilyPair(
        base,
        TorusWeights(draw(st.lists(weight, min_size=n_v, max_size=n_v))),
        TorusWeights(draw(st.lists(weight, min_size=n_w, max_size=n_w))),
        tuple(v),
        tuple(w),
        GroupPresentation(rank, "torus"),
    )


class TestStrataLoop:
    """`family_unstable_locus` walks the strata of the tagged loop it
    replaced: the same components and the same support queries in order."""

    @given(stratified_families())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_tagged_loop(self, fam):
        with strata_calls() as ref_calls:
            ref = ref_family_unstable_locus(fam)
        with strata_calls() as calls:
            pieces = family_unstable_locus(fam)
        assert [gens_of(p) for p in pieces] == [gens_of(p) for p in ref]
        assert calls == ref_calls
