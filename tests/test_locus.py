"""Degeneration loci, per-point orbit oracles, and family stratification."""

import contextlib
import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabkit import linprog
from stabkit.algebra import Ideal, format_multi, ideals, parse_multi
from stabkit.algebra.ideals import Budget
from stabkit.cli import execute_job
from stabkit.groups import (
    GroupPresentation,
    MatrixAction,
    TorusWeights,
    diagonal_action,
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
