import cmath
import math

import numpy as np
import pytest

from conftest import make_rng, random_normal_matrix
from polycrit import fov, geom, matricial, numlin, poly
from polycrit.config import TOL
from polycrit.generate import generate_zeros
from polycrit.rng import random_matrix, random_zeros

NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)


class TestSupportPoint:
    def test_hermitian_rightmost(self):
        value, point = fov.support_point(np.diag([1.0, 2.0]), 0.0)
        assert abs(value - 2) <= 1e-12
        assert abs(point - 2) <= 1e-12

    def test_nilpotent_disk(self):
        # F is the disk of radius 1/2: support 1/2 and boundary point
        # exp(i theta)/2 in every direction
        for theta in (0.0, 0.4, 1.9, 3.6, 5.5):
            value, point = fov.support_point(NILPOTENT, theta)
            assert abs(value - 0.5) <= 1e-12
            assert abs(point - cmath.exp(1j * theta) / 2) <= 1e-12

    def test_topmost_point(self):
        value, point = fov.support_point(np.diag([1j, -1j]), math.pi / 2)
        assert abs(value - 1) <= 1e-12
        assert abs(point - 1j) <= 1e-12


class TestBoundaryPolyline:
    def test_hermitian_segment(self):
        pl = fov.boundary_polyline(np.diag([1.0, 2.0]), 360)
        assert np.max(np.abs(pl.boundary_points.imag)) <= 1e-9
        assert np.all(pl.boundary_points.real >= 1 - 1e-9)
        assert np.all(pl.boundary_points.real <= 2 + 1e-9)

    def test_nilpotent_circle_radial_error(self):
        pl = fov.boundary_polyline(NILPOTENT, 360)
        assert np.max(np.abs(np.abs(pl.boundary_points) - 0.5)) <= 1e-9

    def test_normal_matrix_approaches_spectrum_hull(self):
        # normal => field of values is the convex hull of the eigenvalues
        omega = np.exp(2j * np.pi / 3)
        zeros = np.array([1, omega, omega**2])
        a = matricial.build_construction(zeros)
        pl = fov.boundary_polyline(a, 360)
        hull_support = np.max(
            np.real(np.exp(-1j * pl.thetas)[:, None] * zeros[None, :]), axis=1
        )
        np.testing.assert_allclose(pl.support_values, hull_support, atol=1e-10)
        # every vertex is approached by the sweep
        for v in zeros:
            assert np.min(np.abs(pl.boundary_points - v)) <= 1e-6

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            fov.boundary_polyline(NILPOTENT, 7)

    @pytest.mark.parametrize("k", [-600, -60, -34, 0, 60, 500])
    def test_power_of_two_scaling(self, k):
        # the flat rule is relative to the matrix's power of two: an absolute
        # gap flags samples of small matrices as flat and moves their points
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        base = fov.boundary_polyline(a, 720)
        pl = fov.boundary_polyline(numlin.ldexp(a, k), 720)
        assert not base.flat_flags.any()
        np.testing.assert_array_equal(pl.flat_flags, base.flat_flags)
        singles = np.array([fov.support_point(numlin.ldexp(a, k), t) for t in base.thetas[::45]])
        pairs = [
            (pl.support_values, base.support_values),
            (pl.boundary_points, base.boundary_points),
            (singles[:, 0].real, base.support_values[::45]),
            (singles[:, 1], base.boundary_points[::45]),
        ]
        for values, expected in pairs:
            scaled = numlin.ldexp(expected, k)
            if abs(k) <= 60:
                np.testing.assert_array_equal(values, scaled)
            else:
                assert np.max(np.abs(values - scaled)) <= 1e-13 * np.max(np.abs(scaled))

    def test_one_eigensolve_per_angle(self, monkeypatch):
        # one batched solve of H(theta), plus one small solve in each of the
        # three flat samples' top eigenspaces; no sample is solved again
        omega = np.exp(2j * np.pi / 3)
        a = matricial.build_construction([1, omega, omega**2])
        shapes = []
        eigh = np.linalg.eigh

        def counted(m):
            shapes.append(np.shape(m))
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        pl = fov.boundary_polyline(a, 360)
        assert int(np.count_nonzero(pl.flat_flags)) == 3
        assert shapes[0] == (360, 3, 3)
        assert len(shapes) == 4 and all(len(s) == 2 and s[0] < 3 for s in shapes[1:])


def sweep_margin(a, z):
    """Outer membership margin of z in F(a) over the 720-angle grid."""
    thetas = 2 * np.pi * np.arange(720) / 720
    return fov.point_margin(thetas, fov.sweep_supports(a, thetas), z)


class TestContainsPoint:
    def test_normalized_trace_always_inside(self):
        rng = make_rng(81)
        a = random_matrix(rng, 5)
        assert sweep_margin(a, np.trace(a) / a.shape[0]) <= TOL.membership_slack

    def test_far_point_outside(self):
        assert sweep_margin(np.diag([1.0, 2.0]), 10.0) > TOL.membership_slack

    def test_eigenvalues_inside(self):
        rng = make_rng(82)
        a = random_matrix(rng, 6)
        for lam in numlin.general_eigvals(a):
            assert sweep_margin(a, lam) <= 1e-8


class TestKippenhahn:
    def test_diagonal_product_formula(self):
        rng = make_rng(83)
        lam = random_zeros(rng, 4)
        u, v, w = 0.3, -1.1, 0.7
        oracle = np.prod([lr.real * u + lr.imag * v + w for lr in lam])
        value = fov.kippenhahn_eval(np.diag(lam), u, v, w)
        assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_nilpotent_closed_form(self):
        for u, v, w in [(1.0, 0.0, 0.3), (0.2, -0.4, 1.5), (0.0, 1.0, -0.5)]:
            value = fov.kippenhahn_eval(NILPOTENT, u, v, w)
            oracle = w**2 - (u**2 + v**2) / 4
            assert abs(value - oracle) <= 1e-12

    def test_vanishes_on_support_lines(self):
        rng = make_rng(84)
        for n in (2, 4, 6):
            a = random_matrix(rng, n)
            scale = (1 + numlin.frobenius(a)) ** n
            for theta in 2 * np.pi * np.arange(12) / 12:
                support, _ = fov.support_point(a, float(theta))
                value = fov.kippenhahn_eval(a, math.cos(theta), math.sin(theta), -support)
                assert abs(value) <= 1e-8 * scale
                assert abs(value.imag) <= 1e-9 * scale


class TestEllipticalRange:
    def test_normal_degenerates_to_segment(self):
        e = fov.elliptical_range(np.diag([1.0, 2.0]))
        assert {e.focus1, e.focus2} == {1 + 0j, 2 + 0j}
        assert e.minor_semi_axis <= 1e-12

    def test_nilpotent_circle(self):
        e = fov.elliptical_range(NILPOTENT)
        assert e.focus1 == 0 and e.focus2 == 0
        assert abs(e.minor_semi_axis - 0.5) <= 1e-12
        assert abs(e.major_semi_axis - 0.5) <= 1e-12

    def test_jordan_like_block(self):
        e = fov.elliptical_range(np.array([[1, 1], [0, -1]], dtype=complex))
        assert poly.multiset_match([e.focus1, e.focus2], [1, -1], 1e-12).matched
        assert abs(e.minor_semi_axis - 0.5) <= 1e-12
        assert abs(e.major_semi_axis - math.sqrt(5) / 2) <= 1e-12

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            fov.elliptical_range(np.eye(3))


class TestEllipseParams:
    def test_from_foci_orders_lexicographically(self):
        e = fov.ellipse_from_foci(2 + 0j, -1 + 0j, 0.5)
        assert e.focus1 == -1 and e.focus2 == 2
        assert abs(e.rotation) <= 1e-15
        assert abs(e.center - 0.5) <= 1e-15

    def test_rotation_of_vertical_pair(self):
        e = fov.ellipse_from_foci(1j, -1j, 0.25)
        assert abs(e.rotation - math.pi / 2) <= 1e-15

    def test_axes_and_center_follow_the_foci(self):
        rng = np.random.default_rng(5)
        for f1, f2, minor in zip(*rng.normal(size=(2, 20, 2)) @ [1, 1j], rng.uniform(0, 2, 20)):
            e = fov.ellipse_from_foci(f1, f2, minor)
            half_focal_sq = abs(e.focus2 - e.focus1) ** 2 / 4
            assert e.major_semi_axis**2 == pytest.approx(e.minor_semi_axis**2 + half_focal_sq, rel=1e-14)
            assert e.center == (e.focus1 + e.focus2) / 2
            assert {e.focus1, e.focus2} == {f1, f2} and e.minor_semi_axis == minor

    def test_negative_minor_axis_rejected(self):
        with pytest.raises(ValueError):
            fov.EllipseParams(0j, 2 + 0j, -1.0)

    def test_support_of_circle(self):
        e = fov.ellipse_from_foci(0.3 + 0.2j, 0.3 + 0.2j, 0.5)
        thetas = 2 * np.pi * np.arange(16) / 16
        expected = np.real(np.exp(-1j * thetas) * (0.3 + 0.2j)) + 0.5
        np.testing.assert_allclose(fov.ellipse_support(e, thetas), expected, atol=1e-14)


class TestSweepInvariants:
    def test_convexity_cross_products(self):
        rng = make_rng(85)
        for n in (2, 3, 5):
            a = random_matrix(rng, n)
            pts = fov.boundary_polyline(a, 128).boundary_points
            d = np.roll(pts, -1) - pts
            cross = (d.real * np.roll(d, -1).imag - d.imag * np.roll(d, -1).real)
            assert np.min(cross) >= -1e-9

    def test_submatrix_support_dominance(self):
        rng = make_rng(86)
        a = random_matrix(rng, 5)
        thetas = 2 * np.pi * np.arange(720) / 720
        full = fov.sweep_supports(a, thetas)
        for i in range(1, 6):
            sub = fov.sweep_supports(numlin.principal_submatrix(a, i), thetas)
            assert np.max(sub - full) <= 1e-9

    def test_normal_support_formula(self):
        rng = make_rng(87)
        a = random_normal_matrix(rng, 5)
        lam = numlin.general_eigvals(a)
        thetas = 2 * np.pi * np.arange(256) / 256
        supports = fov.sweep_supports(a, thetas)
        oracle = np.max(np.real(np.exp(-1j * thetas)[:, None] * lam[None, :]), axis=1)
        assert np.max(np.abs(supports - oracle)) <= 1e-8

    def test_boundedness(self):
        rng = make_rng(88)
        a = random_matrix(rng, 4)
        pl = fov.boundary_polyline(a, 64)
        assert np.max(np.abs(pl.boundary_points)) <= numlin.frobenius(a) + 1e-9

    def test_sweep_vs_ellipse_support_two_by_two(self):
        rng = make_rng(89)
        for _ in range(10):
            a = random_matrix(rng, 2)
            e = fov.elliptical_range(a)
            pl = fov.boundary_polyline(a, 720)
            he = fov.ellipse_support(e, pl.thetas)
            scale = 1 + numlin.frobenius(a)
            assert np.max(np.abs(pl.support_values - he)) <= 1e-6 * scale

    def test_flat_flags_on_normal_matrix(self):
        # ties of the top eigenvalue happen exactly at the 3 edge normals
        omega = np.exp(2j * np.pi / 3)
        a = matricial.build_construction([1, omega, omega**2])
        pl = fov.boundary_polyline(a, 360)
        assert int(np.count_nonzero(pl.flat_flags)) == 3


def _edge_fans(zeros, offsets):
    """Angles at and around every hull edge normal of the zeros."""
    fan = np.concatenate([-offsets[::-1], [0.0], offsets])
    edges = geom.polygon_edges(geom.convex_hull(zeros))
    return np.concatenate([math.atan2(normal.imag, normal.real) + fan for _, _, normal in edges])


# the unit square, a regular pentagon, and the square with a repeated
# interior zero: at each edge normal the top projection is attained twice
# (exactly at angle 0 for the square)
TIE_INSTANCES = {
    "square": np.array([0, 1, 1 + 1j, 1j]),
    "pentagon": np.exp(2j * np.pi * np.arange(5) / 5),
    "square-repeated-interior": np.array([0, 1, 1 + 1j, 1j, 0.6 + 0.3j, 0.6 + 0.3j]),
}


def row_major_secular_supports(zeros, thetas):
    """Reference for ``fov.secular_supports``: the same Newton iteration
    with one row per angle, summing each row with numpy's own reductions."""
    z = np.asarray(zeros, dtype=complex)
    th = np.asarray(thetas, dtype=float)
    x = np.real(np.exp(-1j * th)[:, None] * z[None, :])
    rows = np.arange(th.size)
    top = np.argmax(x, axis=1)
    x_top = x[rows, top]
    d = x - x_top[:, None]
    d[rows, top] = -np.inf
    lo = np.max(d, axis=1)
    tol = 4.0 * np.finfo(float).eps * (x_top - np.min(x, axis=1))
    s = np.zeros(th.size)
    idx = np.flatnonzero(lo < 0.0)
    d, lo, hi, tol, sa = d[idx], lo[idx], np.zeros(idx.size), tol[idx], np.zeros(idx.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while idx.size:
            inv = np.reciprocal(sa[:, None] - d)
            psi = inv.sum(axis=1)
            f = sa + 1.0 / psi
            below = f < 0.0
            lo, hi = np.where(below, sa, lo), np.where(below, hi, sa)
            new = sa - f / (1.0 + np.einsum("ij,ij->i", inv, inv) / (psi * psi))
            new = np.where((new > lo) & (new <= hi), new, 0.5 * (lo + hi))
            s[idx] = new
            moving = (np.abs(new - sa) > tol) & (hi - lo > tol)
            idx, d, lo, hi, tol, sa = idx[moving], d[moving], lo[moving], hi[moving], tol[moving], new[moving]
    return x_top + s


class TestSecularSupports:
    """The secular route against a dense eigensolve of A_(1)."""

    @staticmethod
    def assert_routes_agree(zeros, thetas):
        sub = numlin.principal_submatrix(matricial.build_construction(zeros), 1)
        chunks = np.array_split(thetas, -(-thetas.size // 32))  # bounded memory at n=200
        dense = np.concatenate([fov.sweep_supports(sub, chunk) for chunk in chunks])
        gap = np.max(np.abs(fov.secular_supports(zeros, thetas) - dense))
        assert gap <= 1e-14 * geom.point_spread(zeros), gap

    @pytest.mark.parametrize("constraint", ["siebeck-ok", "none"])
    @pytest.mark.parametrize("n", [3, 5, 16, 64, 200])
    def test_agrees_with_dense_on_grid_and_fans(self, n, constraint):
        zeros = generate_zeros(make_rng(400 + n), n, constraint)
        grid = 2 * np.pi * np.arange(720) / 720
        offsets = np.geomspace(1e-6, 0.7, 48)
        if n == 200:  # a dense 199x199 eigensolve per angle: thin both sets
            grid, offsets = grid[::24], offsets[::12]
        self.assert_routes_agree(zeros, np.concatenate([grid, _edge_fans(zeros, offsets)]))

    @pytest.mark.parametrize("name", sorted(TIE_INSTANCES))
    def test_agrees_with_dense_on_exact_ties(self, name):
        zeros = TIE_INSTANCES[name]
        grid = 2 * np.pi * np.arange(720) / 720
        self.assert_routes_agree(zeros, np.concatenate([grid, _edge_fans(zeros, np.geomspace(1e-6, 0.7, 48))]))

    @pytest.mark.parametrize("zeros", [TIE_INSTANCES["square"], [1, 1, -1, 1j], [1, 1, 1]])
    def test_a_top_attained_twice_is_the_support(self, zeros):
        # the top eigenvalue of diag(x) survives the compression exactly
        assert fov.secular_supports(zeros, [0.0]).tolist() == [1.0]
        self.assert_routes_agree(np.asarray(zeros, dtype=complex), np.array([0.0]))

    def test_two_zeros_give_the_midpoint(self):
        thetas = np.linspace(0.0, 6.0, 13)
        supports = fov.secular_supports([0, 2 + 2j], thetas)
        np.testing.assert_allclose(supports, np.real(np.exp(-1j * thetas) * (1 + 1j)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 9, 33])
    def test_each_angle_is_solved_on_its_own(self, n):
        # a support does not depend on the other angles of the call; the
        # degrees span numpy's 8-term pairwise block
        zeros = generate_zeros(make_rng(401), n, "siebeck-ok")
        thetas = 2 * np.pi * np.arange(97) / 97
        together = fov.secular_supports(zeros, thetas)
        alone = np.concatenate([fov.secular_supports(zeros, [t]) for t in thetas])
        np.testing.assert_array_equal(together, alone)

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 31, 33, 129, 200, 257])
    def test_sums_follow_numpy_row_order(self, n):
        # the pole-major sums repeat numpy's sums of one row per angle bit
        # for bit, so the supports do not depend on the layout
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((40, n)) * 10.0 ** rng.integers(-8, 8, (40, n))
        stored = rows.T[fov._pole_order(n)].copy()
        assert np.array_equal(fov._pairwise_rows(stored), rows.sum(axis=1))
        assert np.array_equal(fov._lane_rows(stored * stored), np.einsum("ij,ij->i", rows, rows))

    @pytest.mark.parametrize("n", [3, 4, 9, 16, 33, 130])
    @pytest.mark.parametrize("family", ["siebeck-ok", "wide"])
    def test_bit_for_bit_the_row_major_solve(self, n, family):
        if family == "wide":  # zeros over sixteen decades, as in K14
            rng = np.random.default_rng(n)
            zeros = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            zeros = zeros + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        else:
            zeros = generate_zeros(make_rng(405 + n), n, "siebeck-ok" if n < 100 else "none")
        thetas = np.concatenate([2 * np.pi * np.arange(720) / 720, _edge_fans(zeros, np.geomspace(1e-6, 0.7, 48))])
        assert np.array_equal(fov.secular_supports(zeros, thetas), row_major_secular_supports(zeros, thetas))

    def test_needs_two_zeros(self):
        with pytest.raises(ValueError):
            fov.secular_supports([1.0], [0.0])


class TestPointMargin:
    def test_array_of_points_matches_one_at_a_time(self):
        thetas = 2 * np.pi * np.arange(64) / 64
        supports = fov.sweep_supports(random_matrix(make_rng(402), 4), thetas)
        points = random_zeros(make_rng(403), 9) * 3
        margins = fov.point_margin(thetas, supports, points)
        assert margins.shape == (9,)
        for z, margin in zip(points, margins):
            single = fov.point_margin(thetas, supports, z)
            assert isinstance(single, float) and single == margin
