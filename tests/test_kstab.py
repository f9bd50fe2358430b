"""Invariant arithmetic, polytope integrals, and the uniform family search."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import geometry, kstab
from stabkit.cli import execute_job
from stabkit.kstab import (
    Crease,
    PLFunction,
    Polytope,
    active_cells,
    boundary_integral_pl,
    df_invariant,
    integrate_pl,
    minimum_pl,
    model_norm,
    toric_df_data,
    toric_hilb,
    toric_minnorm,
    toric_uniform_search,
)

INTERVAL = Polytope(1, [(0,), (1,)])
SQUARE = Polytope(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
WIDE_TRIANGLE = Polytope(2, [(0, 0), (2, 0), (0, 1)])

rat = st.fractions(min_value=-12, max_value=12, max_denominator=5)


def pl(dim, *pieces):
    return PLFunction(dim, pieces)


def df(P, f):
    return toric_df_data(P, active_cells(P, f)).df


def minnorm(P, f):
    return toric_minnorm(P, active_cells(P, f))


class TestInvariantNumbers:
    def test_df_golden(self):
        assert df_invariant(1, 2, Fraction(-2, 3), Fraction(-3, 2)) == Fraction(1, 6)

    def test_hilb_validation(self):
        with pytest.raises(ValueError, match="leading Hilbert coefficient must be positive"):
            df_invariant(0, 1, 0, 0)
        with pytest.raises(ValueError, match="leading Hilbert coefficient must be positive"):
            df_invariant(-1, 1, 0, 0)

    def test_model_norm_golden(self):
        assert model_norm(1, 1, 3, 1, 1) == 1

    def test_model_norm_needs_a_nonzero_volume(self):
        with pytest.raises(ValueError, match="polarization volume must be nonzero"):
            model_norm(1, 1, 1, 1, 0)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="the exponent r must be positive"):
            model_norm(0, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            model_norm(1, 0, 1, 1, 1)

    def test_norm_scales_with_r(self):
        assert model_norm(2, 2, 9, 3, 1) == Fraction(9, 3) - Fraction(3, 3 * 4)

    @given(rat, rat, rat)
    @settings(max_examples=40, deadline=None)
    def test_df_vanishes_on_proportional_data(self, a1, b0, scale):
        # b proportional to a gives a zero invariant
        a0 = Fraction(1)
        assert df_invariant(a0, a1, scale * a0, scale * a1) == 0


class TestPolytope:
    def test_interval_normalization(self):
        p = Polytope(1, [(Fraction(3),), (Fraction(-1),), (Fraction(1),)])
        assert p.interval == (-1, 3)
        assert p.volume() == 4
        assert p.boundary_measure() == 2

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Polytope(1, [(1,), (1,)])

    def test_polygon_hull(self):
        p = Polytope(2, [(0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
        assert p.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
        assert p.volume() == 1
        assert p.boundary_measure() == 4

    def test_flat_polygon_rejected(self):
        with pytest.raises(ValueError):
            Polytope(2, [(0, 0), (1, 1), (2, 2)])

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_lattice_boundary_measure(self):
        assert WIDE_TRIANGLE.boundary_measure() == 4
        assert len(WIDE_TRIANGLE.edges()) == 3
        with pytest.raises(ValueError):
            INTERVAL.edges()


class TestPLFunction:
    def test_duplicates_dropped(self):
        f = pl(1, ((1,), 0), ((1,), 0), ((0,), 0))
        assert len(f.pieces) == 2

    def test_needs_a_piece(self):
        with pytest.raises(ValueError):
            PLFunction(1, [])

    def test_value_is_max(self):
        f = pl(1, ((1,), 0), ((-1,), 0))
        assert f.value((Fraction(-3),)) == 3
        assert f.value((Fraction(2),)) == 2

    def test_gradient_dimension_checked(self):
        with pytest.raises(ValueError):
            pl(2, ((1,), 0))

    def test_active_cells_skip_pieces_active_nowhere(self):
        f = pl(1, ((1,), 0), ((1,), -5))
        assert active_cells(INTERVAL, f) == [(((Fraction(1),), Fraction(0)), [(0,), (1,)])]
        # a piece that ties only at a point keeps its measure-zero cell
        f = pl(1, ((1,), 0), ((2,), -1))
        assert [cell for _, cell in active_cells(INTERVAL, f)] == [[(0,), (1,)], [(1,)]]


class TestIntegrals:
    def test_absolute_value_on_symmetric_interval(self):
        box = Polytope(1, [(-1,), (1,)])
        f = pl(1, ((1,), 0), ((-1,), 0))
        assert integrate_pl(active_cells(box, f)) == 1
        assert boundary_integral_pl(box, f) == 2
        assert minimum_pl(active_cells(box, f)) == 0

    def test_hinge_on_interval(self):
        f = pl(1, ((0,), 0), ((2,), -1))
        assert integrate_pl(active_cells(INTERVAL, f)) == Fraction(1, 4)
        assert boundary_integral_pl(INTERVAL, f) == 1
        assert minimum_pl(active_cells(INTERVAL, f)) == 0
        assert df(INTERVAL, f) == Fraction(1, 4)

    def test_coordinate_on_square(self):
        f = pl(2, ((1, 0), 0))
        assert integrate_pl(active_cells(SQUARE, f)) == Fraction(1, 2)
        assert boundary_integral_pl(SQUARE, f) == 2
        assert minimum_pl(active_cells(SQUARE, f)) == 0

    def test_wide_triangle_data(self):
        f = pl(2, ((1, 0), 0))
        data = toric_df_data(WIDE_TRIANGLE, active_cells(WIDE_TRIANGLE, f))
        assert data.a0 == 1
        assert data.a1 == 2
        assert data.integral_f == Fraction(2, 3)
        assert data.boundary_integral_f == 3
        assert data.df == Fraction(1, 6)

    def test_simplex_coordinate_is_neutral(self):
        simplex = Polytope(2, [(0, 0), (1, 0), (0, 1)])
        assert df(simplex, pl(2, ((1, 0), 0))) == 0

    def test_dimension_mismatch_rejected(self):
        message = "function dimension does not match the polytope"
        with pytest.raises(ValueError, match=message):
            active_cells(SQUARE, pl(1, ((1,), 0)))
        with pytest.raises(ValueError, match=message):
            active_cells(INTERVAL, pl(2, ((1, 0), 0)))

    def test_hilb_of_square(self):
        assert toric_hilb(SQUARE) == (1, 2)

    @given(rat)
    @settings(max_examples=30, deadline=None)
    def test_constants_are_invisible(self, c):
        f = pl(2, ((0, 0), c))
        assert df(SQUARE, f) == 0
        assert minnorm(SQUARE, f) == 0

    @given(rat, rat, st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_df_scales_linearly(self, g, c, k):
        f = pl(1, ((g,), c))
        scaled = pl(1, ((k * g,), k * c))
        assert df(INTERVAL, scaled) == k * df(INTERVAL, f)

    @given(rat, rat)
    @settings(max_examples=40, deadline=None)
    def test_minnorm_separates_constants(self, g, c):
        f = pl(1, ((g,), c))
        norm = minnorm(INTERVAL, f)
        assert norm >= 0
        assert (norm == 0) == (g == 0)

    @given(rat, rat, rat, rat)
    @settings(max_examples=40, deadline=None)
    def test_integral_bounds(self, g1, c1, g2, c2):
        f = pl(1, ((g1,), c1), ((g2,), c2))
        total = integrate_pl(active_cells(INTERVAL, f))
        lo = minimum_pl(active_cells(INTERVAL, f))
        hi = max(f.value((Fraction(0),)), f.value((Fraction(1),)))
        assert lo <= total <= hi


class TestCreases:
    def test_validation(self):
        with pytest.raises(ValueError):
            Crease((0, 0), 1)
        c = Crease((1, -1), Fraction(1, 2))
        assert c.gap((Fraction(1), Fraction(0))) == Fraction(1, 2)

    def test_kink_pieces_build_the_hinge(self):
        c = Crease((2,), 1)
        f = PLFunction(1, c.kink_pieces())
        assert f.value((Fraction(0),)) == 0
        assert f.value((Fraction(1),)) == 1


class TestUniformSearch:
    def test_interval_fails_at_positive_epsilon(self):
        verdict = toric_uniform_search(INTERVAL, [], Fraction(1, 10))
        assert verdict.status == "fails-at-epsilon"
        assert verdict.alpha == (1,)
        assert verdict.df == 0
        assert verdict.minnorm == Fraction(1, 2)
        assert verdict.df < Fraction(1, 10) * verdict.minnorm

    def test_interval_holds_at_zero(self):
        verdict = toric_uniform_search(INTERVAL, [], Fraction(0))
        assert verdict.status == "holds-on-family"
        assert verdict.minimum == 0

    def test_wide_triangle_destabilized(self):
        verdict = toric_uniform_search(WIDE_TRIANGLE, [], Fraction(0))
        assert verdict.status == "fails-at-epsilon"
        assert verdict.minimum == Fraction(-1, 2)
        assert verdict.alpha == (0, 1)
        assert verdict.df == Fraction(-1, 6)
        assert verdict.minnorm == Fraction(1, 3)
        assert verdict.certificate.pieces == (((Fraction(0), Fraction(1)), Fraction(0)),)

    def test_certificates_reverify(self):
        verdict = toric_uniform_search(WIDE_TRIANGLE, [], Fraction(0))
        cert = verdict.certificate
        assert df(WIDE_TRIANGLE, cert) == verdict.df
        assert minnorm(WIDE_TRIANGLE, cert) == verdict.minnorm
        assert verdict.df < 0

    def test_crease_must_cross_interior(self):
        with pytest.raises(ValueError):
            toric_uniform_search(INTERVAL, [Crease((1,), 5)], Fraction(0))
        with pytest.raises(ValueError):
            toric_uniform_search(INTERVAL, [Crease((1, 0), Fraction(1, 2))], Fraction(0))

    def test_crease_family_on_interval(self):
        # adding the midpoint kink keeps the interval's verdict at zero
        verdict = toric_uniform_search(INTERVAL, [Crease((1,), Fraction(1, 2))], Fraction(0))
        assert verdict.status == "holds-on-family"
        assert verdict.minimum == 0

    def test_simplex_holds(self):
        simplex = Polytope(2, [(0, 0), (1, 0), (0, 1)])
        verdict = toric_uniform_search(simplex, [], Fraction(0))
        assert verdict.status == "holds-on-family"
        assert verdict.minimum == 0


@pytest.fixture
def clip_calls(monkeypatch):
    """kstab's calls to geometry.clip, counted by the dimension of the cell."""
    calls = Counter()

    def counting(cell, normal, offset):
        calls[len(cell[0])] += 1
        return geometry.clip(cell, normal, offset)

    monkeypatch.setattr(kstab, "clip", counting)
    return calls


def clips_of(calls, fn, *args):
    calls.clear()
    fn(*args)
    return dict(calls)


class TestOneClipPass:
    def test_minnorm_job_clips_as_often_as_the_integral(self, clip_calls):
        # max(x, y, 1/2 - x - y) on the square: three pieces, all active
        f = pl(2, ((1, 0), 0), ((0, 1), 0), ((-1, -1), Fraction(1, 2)))
        document = {
            "schema_version": 1,
            "kind": "toric.norm",
            "payload": {
                "polytope": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                "pieces": [
                    {"gradient": [1, 0], "constant": 0},
                    {"gradient": [0, 1], "constant": 0},
                    {"gradient": [-1, -1], "constant": "1/2"},
                ],
            },
        }
        integral = clips_of(clip_calls, lambda: integrate_pl(active_cells(SQUARE, f)))
        assert integral == {2: 6}
        assert clips_of(clip_calls, execute_job, document) == integral

    def test_uniform_search_clips_each_certificate_cell_once(self, clip_calls):
        # a crease through the triangle whose kink the search keeps
        triangle = Polytope(2, [(-2, -2), (2, -3), (2, 2)])
        creases = [Crease((-1, -1), -3), Crease((-1, -1), -2)]
        verdict = toric_uniform_search(triangle, creases, Fraction(0))
        assert verdict.beta == (0, 1)
        cert = verdict.certificate
        assert len(cert.pieces) == 2
        # two-dimensional cells are clipped by the arrangement, by the basis
        # functions of the LP objective and by the certificate's own cells
        arrangement = clips_of(clip_calls, kstab._arrangement_vertices, triangle, creases)
        kinks = [PLFunction(2, c.kink_pieces()) for c in creases]
        basis = [clips_of(clip_calls, active_cells, triangle, k) for k in kinks]
        cells = clips_of(clip_calls, active_cells, triangle, cert)
        assert cells == {2: 2}
        search = clips_of(clip_calls, toric_uniform_search, triangle, creases, Fraction(0))
        assert search[2] == arrangement[2] + sum(b[2] for b in basis) + cells[2]

    def test_uniform_search_measures_the_polytope_once(self, monkeypatch):
        # the invariant of each basis function and of the certificate reads
        # the volume and the boundary measure, the average and the norm the
        # volume again
        triangle = Polytope(2, [(-2, -2), (2, -3), (2, 2)])
        creases = [Crease((-1, -1), -3), Crease((-1, -1), -2)]
        volumes, edges = [], []

        def moments(cell):
            volumes.append(cell is triangle.vertices)
            return geometry.cell_moments(cell)

        def edge_length(p, q):
            edges.append((p, q))
            return geometry.lattice_edge_length(p, q)

        monkeypatch.setattr(kstab, "cell_moments", moments)
        monkeypatch.setattr(kstab, "lattice_edge_length", edge_length)
        first = toric_uniform_search(triangle, creases, Fraction(0))
        assert volumes.count(True) == 1
        first_edges = len(edges)
        volumes.clear()
        edges.clear()
        assert toric_uniform_search(triangle, creases, Fraction(0)) == first
        assert True not in volumes
        # what the first search measured beyond the second is one pass over
        # the boundary, and the boundary integrals of both are the same
        assert first_edges - len(edges) == len(triangle.vertices)
