import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_normals_reference, hull_vertices_reference, make_rng, polygon_edges_reference
from polycrit import geom, poly, theorems
from polycrit.config import TOL
from polycrit.generate import generate_zeros
from polycrit.rng import Xoshiro256StarStar, random_zeros


def brute_force_hull_vertices(points):
    """Oracle: a directed pair (a, b) is a hull edge iff every other
    point lies strictly left of it; vertices are the edge endpoints."""
    verts = set()
    for i, j in itertools.permutations(range(len(points)), 2):
        a, b = points[i], points[j]
        if all(
            ((b - a).real * (p - a).imag - (b - a).imag * (p - a).real) > 0
            for k, p in enumerate(points)
            if k not in (i, j)
        ):
            verts.add(i)
            verts.add(j)
    return {complex(points[k]) for k in verts}


class TestConvexHull:
    def test_square_with_interior_point(self):
        hull = geom.convex_hull([0, 1, 1j, 1 + 1j, 0.5 + 0.5j])
        assert set(hull.vertices) == {0, 1, 1 + 1j, 1j}
        assert hull.vertices.size == 4

    def test_collinear_collapses_to_segment(self):
        hull = geom.convex_hull([0, 1, 2])
        assert hull.vertices.size == 2
        assert set(hull.vertices) == {0, 2}

    def test_sliver_keeps_its_extreme_vertices(self):
        # nearly collinear: each extreme vertex is within tol of the line
        # through its neighbours, but far from the segment between them
        pts = np.array([0.0, 0.3 + 1e-14j, 0.7 - 1e-14j, 1.0]) * (1 + 2j)
        hull = geom.convex_hull(pts)
        assert set(hull.vertices) == {pts[0], pts[-1]}

    def test_single_and_coincident_points(self):
        assert geom.convex_hull([0.5j]).vertices.size == 1
        assert geom.convex_hull([1.0, 1.0, 1.0]).vertices.size == 1

    def test_counterclockwise_orientation(self):
        hull = geom.convex_hull([0, 1, 1 + 1j, 1j])
        v = hull.vertices
        area = 0.0
        for k in range(v.size):
            a, b = v[k], v[(k + 1) % v.size]
            area += a.real * b.imag - a.imag * b.real
        assert area > 0

    def test_clockwise_input_reversed_on_ingestion(self):
        cw = np.array([0, 1j, 1 + 1j, 1], dtype=complex)
        polygon = geom.ConvexPolygon(cw)
        v = polygon.vertices
        area = sum(
            (v[k].real * v[(k + 1) % 4].imag - v[k].imag * v[(k + 1) % 4].real)
            for k in range(4)
        )
        assert area > 0

    def test_repeated_vertex_rejected(self):
        # within the merge radius of its neighbour, not equal to it
        with pytest.raises(ValueError, match="vertices must be distinct"):
            geom.ConvexPolygon([0, 1, 1 + 1e-12, 1j])

    def test_reflex_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertices must turn counterclockwise"):
            geom.ConvexPolygon([0, 2, 0.5 + 0.5j, 2j])

    def test_clockwise_reflex_vertex_rejected_after_reversal(self):
        # positive area once reversed, and its vertex 0.5 + 0.5j still reflex
        with pytest.raises(ValueError, match="vertices must turn counterclockwise"):
            geom.ConvexPolygon([0, 2j, 0.5 + 0.5j, 2])

    def test_random_vs_brute_force_oracle(self):
        rng = make_rng(91)
        pts = random_zeros(rng, 50)
        hull = geom.convex_hull(pts)
        assert set(hull.vertices) == brute_force_hull_vertices(pts)

    def test_permutation_invariance(self):
        rng = make_rng(92)
        pts = random_zeros(rng, 12)
        base = geom.convex_hull(pts).vertices
        perm = np.array(pts)[::-1]
        np.testing.assert_array_equal(geom.convex_hull(perm).vertices, base)

    def test_merge_matches_loop_reference(self):
        def loop_merge(pts):
            scale = geom.point_spread(pts)
            kept = []
            for idx in np.lexsort((pts.imag, pts.real)):
                z = complex(pts[idx])
                if all(abs(z - w) > geom._DEDUP * scale for w in kept):
                    kept.append(z)
            return np.array(kept), scale

        rng = make_rng(94)
        cases = [random_zeros(rng, n) for n in (2, 3, 7, 50, 200)]
        for trial in range(40):
            base = random_zeros(rng, 4 + trial % 9)
            radius = geom._DEDUP * 2.0  # the spread of unit-disk points is about 2
            # clusters around each point whose members sit near the merge
            # radius of each other, and chains where only the greedy order
            # decides which members stay
            jitter = np.array([rng.uniform() - 0.5 + 1j * (rng.uniform() - 0.5) for _ in range(base.size * 3)])
            cluster = np.repeat(base, 3) + 2.0 * radius * jitter
            chain = base[0] + radius * np.array([0.0, 0.6, 1.2, 1.8, 2.4]) * np.exp(1j * trial)
            cases.append(np.concatenate([base, cluster, chain]))
        cases.append(np.array([1.0, 1.0, 1.0 + 1e-12, 2.0, 2.0]))
        for pts in cases:
            pts = np.asarray(pts, dtype=complex)
            merged, scale = geom._merge_coincident(pts)
            ref, ref_scale = loop_merge(pts)
            assert scale == ref_scale
            np.testing.assert_array_equal(merged, ref)

    def test_inputs_inside_own_hull(self):
        rng = make_rng(93)
        pts = random_zeros(rng, 20)
        hull = geom.convex_hull(pts)
        for p in pts:
            assert geom.hull_violation(hull, p) <= 1e-9


def filter_corners(pts):
    """The extreme points in the directions k pi / 4, counterclockwise."""
    proj = np.stack([pts.real, pts.real + pts.imag, pts.imag, pts.imag - pts.real])
    return pts[np.concatenate([proj.argmax(axis=1), proj.argmin(axis=1)])]


def near_hull_families():
    """Point sets of at least ``geom._FILTER_FROM`` points, by name."""
    n0, rng = geom._FILTER_FROM, np.random.default_rng(17)
    cases = {f"disk n={n}": generate_zeros(make_rng(141), n) for n in (n0 - 1, n0, 100, 200)}
    cases["real n=200"] = generate_zeros(make_rng(142), 200, "real")
    for n in (n0, 100, 200):  # K8: nearly collinear
        cases[f"slanted n={n}"] = (1 + 2j) * rng.uniform(-1, 1, n) + 0.5j
    inner = rng.uniform(0.1, 0.9, 100) + 1j * rng.uniform(0.1, 0.9, 100)
    cases["square with interior points"] = np.concatenate([[0, 1, 1 + 1j, 1j], inner])
    disk = generate_zeros(make_rng(143), 200)
    vertices = geom.convex_hull(disk).vertices
    turns = np.exp(2j * np.pi * rng.uniform(0, 1, vertices.size))
    cases["hull vertices doubled"] = np.concatenate([disk, vertices + 1e-11 * geom.point_spread(disk) * turns])
    corners = filter_corners(disk)
    t = rng.uniform(0, 1, (8, 12))
    on_sides = (t * corners[:, None] + (1 - t) * np.roll(corners, -1)[:, None]).ravel()
    cases["points on the filter's sides"] = np.concatenate([disk, on_sides])
    sides = rng.uniform(-1, 1, 96)
    square = np.concatenate([sides + 1j, sides - 1j, 1 + 1j * sides, -1 + 1j * sides])  # corners are on sides
    cases["points on the square's sides"] = np.concatenate([square, 0.9 * (inner - 0.5 - 0.5j)])
    return cases


class TestHullCandidates:
    """From ``geom._FILTER_FROM`` points on, the spread and the hull see
    only the points near the hull; both must be bit for bit what all the
    points give."""

    @pytest.mark.parametrize("name, pts", sorted(near_hull_families().items()))
    def test_spread_and_hull_are_bit_identical(self, name, pts, monkeypatch):
        pts = np.asarray(pts, dtype=complex)
        assert geom.point_spread(pts) == float(np.max(np.abs(pts[:, None] - pts[None, :])))
        hulls = {}
        for sliver in (geom._SLIVER, TOL.geometry):
            monkeypatch.setattr(geom, "_SLIVER", sliver)
            hulls[sliver] = geom.convex_hull(pts).vertices
        monkeypatch.setattr(geom, "_FILTER_FROM", pts.size + 1)
        for sliver, vertices in hulls.items():
            monkeypatch.setattr(geom, "_SLIVER", sliver)
            assert geom.convex_hull(pts).vertices.tobytes() == vertices.tobytes(), sliver

    def test_filter_drops_the_interior(self):
        disk = generate_zeros(make_rng(141), 200)
        assert geom._hull_candidates(disk).size < 50
        real = generate_zeros(make_rng(142), 200, "real")
        assert sorted(geom._hull_candidates(real)) == [min(real), max(real)]
        corners = set(filter_corners(disk).tolist())
        assert corners <= set(geom._hull_candidates(disk).tolist())

    def test_points_below_the_crossover_are_not_filtered(self):
        pts = generate_zeros(make_rng(144), geom._FILTER_FROM - 1)
        assert geom._hull_candidates(pts) is pts


def scalar_arithmetic_draws():
    """About 2000 point sets on which the geometry's scalar loops must give
    the bits of their numpy-scalar forms: K14-type draws (each part scaled
    over 16 decades), nearly collinear draws and disk draws scaled by
    2**500 and 2**-500."""
    rng = np.random.default_rng(2024)
    draws = []
    for _ in range(700):
        n = int(rng.integers(3, 33))
        draws.append(rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
                     + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n))
    for _ in range(700):
        n = int(rng.integers(3, 80))
        jitter = 10.0 ** rng.uniform(-15, -9) * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        draws.append((1 + 2j) * rng.uniform(-1, 1, n) + 0.5j + jitter)
    for k in range(600):
        n = int(rng.integers(3, 33))
        disk = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        draws.append(disk * 2.0 ** (500 if k % 2 else -500))
    return draws


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


class TestScalarArithmetic:
    """The hull, the edges and the edge lines loop over Python scalars; a
    numpy scalar rounds +, -, * and / as Python does, so the conftest's
    numpy-scalar forms give the same bits."""

    def test_hull_edges_and_lines_bit_identical(self):
        for k, pts in enumerate(scalar_arithmetic_draws()):
            hull = geom.convex_hull(pts)
            np.testing.assert_array_equal(bits(hull.vertices), bits(hull_vertices_reference(pts)), err_msg=str(k))
            if hull.vertices.size < 3:
                continue
            edges = geom.polygon_edges(hull)
            np.testing.assert_array_equal(bits(np.array(edges)), bits(np.array(polygon_edges_reference(hull))))
            for got, want in zip(theorems._edge_normals(edges), edge_normals_reference(edges)):
                np.testing.assert_array_equal(bits(got), bits(want), err_msg=str(k))


class TestEdgeMidpoints:
    def test_triangle(self):
        hull = geom.convex_hull([0, 2, 2j])
        mids = geom.edge_midpoints(hull)
        assert poly.multiset_match(mids, [1, 1 + 1j, 1j], 1e-12).matched

    def test_segment_has_one_midpoint(self):
        hull = geom.convex_hull([0, 2])
        np.testing.assert_array_equal(geom.edge_midpoints(hull), [1.0])

    def test_square(self):
        hull = geom.convex_hull([0, 1, 1 + 1j, 1j])
        mids = geom.edge_midpoints(hull)
        assert poly.multiset_match(mids, [0.5, 1 + 0.5j, 0.5 + 1j, 0.5j], 1e-12).matched

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            geom.edge_midpoints(geom.convex_hull([1.0]))


class TestPointInHull:
    def test_centroid_inside(self):
        hull = geom.convex_hull([0, 2, 2j])
        assert geom.hull_violation(hull, (2 + 2j) / 3) <= TOL.geometry

    def test_far_point_outside(self):
        hull = geom.convex_hull([0, 2, 2j])
        assert geom.hull_violation(hull, 5.0) > TOL.geometry

    def test_vertex_on_boundary(self):
        hull = geom.convex_hull([0, 2, 2j])
        assert geom.hull_violation(hull, 2j) <= 1e-12

    def test_violation_sign(self):
        hull = geom.convex_hull([0, 2, 2j])
        assert geom.hull_violation(hull, 1 + 10j) > 0
        assert geom.hull_violation(hull, 0.5 + 0.5j) < 0

    def test_array_matches_loop_reference(self):
        def reference(hull, z):
            v = [complex(x) for x in hull.vertices]
            if len(v) == 1:
                return abs(z - v[0])
            if len(v) == 2:
                a, d = v[0], v[1] - v[0]
                t = min(max(((z - a).real * d.real + (z - a).imag * d.imag) / abs(d) ** 2, 0.0), 1.0)
                return abs(z - (a + t * d))
            return max((normal.conjugate() * (z - a)).real for a, _, normal in geom.polygon_edges(hull))

        rng = make_rng(120)
        points = 2.0 * random_zeros(rng, 40)
        for zeros in ([0, 2, 2j, 1 + 0.3j], [0, 1, 2], [0.5j, 0.5j]):
            hull = geom.convex_hull(zeros)
            worst = geom.hull_violation(hull, points)
            assert worst.shape == points.shape
            for k, z in enumerate(points):
                single = geom.hull_violation(hull, z)
                assert isinstance(single, float) and single == worst[k]
                assert abs(single - reference(hull, complex(z))) <= 1e-15


class TestSteinerInellipse:
    def test_equilateral_gives_incircle(self):
        w = np.exp(2j * np.pi / 3)
        e = geom.steiner_inellipse(1, w, w**2)
        assert abs(e.center) <= 1e-12
        assert abs(e.major_semi_axis - 0.5) <= 1e-12
        assert abs(e.minor_semi_axis - 0.5) <= 1e-12

    def test_foci_match_critical_points_oracle(self):
        # critical points of t(t-2)(t-2i) from its derivative's roots
        crit = poly.roots(poly.derivative(poly.from_roots([0, 2, 2j])))
        e = geom.steiner_inellipse(0, 2, 2j)
        assert abs(e.center - (2 + 2j) / 3) <= 1e-12
        assert poly.multiset_match([e.focus1, e.focus2], crit, 1e-9).matched

    def test_closed_form_right_triangle(self):
        e = geom.steiner_inellipse(0, 1, 1j)
        expected = [
            ((1 + 1j) - (1 - 1j) / math.sqrt(2)) / 3,
            ((1 + 1j) + (1 - 1j) / math.sqrt(2)) / 3,
        ]
        assert poly.multiset_match([e.focus1, e.focus2], expected, 1e-10).matched

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            geom.steiner_inellipse(0, 1, 2)

    @settings(max_examples=25)
    @given(
        st.integers(0, 2**32),
        st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0),
        st.complex_numbers(max_magnitude=3.0),
    )
    def test_affine_equivariance(self, seed, alpha, beta):
        rng = Xoshiro256StarStar(seed)
        v = random_zeros(rng, 3)
        area2 = abs(((v[1] - v[0]) * np.conj(v[2] - v[0])).imag)
        if area2 <= 1e-3:
            return  # nearly collinear draws are not informative here
        base = geom.steiner_inellipse(v[0], v[1], v[2])
        mapped = geom.steiner_inellipse(*(alpha * v + beta))
        want = sorted(
            (alpha * f + beta for f in (base.focus1, base.focus2)),
            key=lambda z: (z.real, z.imag),
        )
        got = sorted((mapped.focus1, mapped.focus2), key=lambda z: (z.real, z.imag))
        scale = 1 + max(abs(w) for w in want)
        assert abs(want[0] - got[0]) <= 1e-9 * scale
        assert abs(want[1] - got[1]) <= 1e-9 * scale
        assert abs(mapped.center - (alpha * base.center + beta)) <= 1e-9 * scale

