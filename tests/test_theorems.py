import dataclasses
import inspect
import math

import numpy as np
import pytest

from conftest import make_rng, moved_first_face, row_major_secular_supports, scipy_bottleneck
from polycrit import figures, fov, geom, matricial, numlin, poly, theorems
from polycrit.config import TOL
from polycrit.errors import NumericalError, PreconditionsUnmet
from polycrit.generate import generate_zeros
from polycrit.rng import random_zeros

OMEGA = np.exp(2j * np.pi / 3)
CUBE_ROOTS = np.array([1, OMEGA, OMEGA**2])

# siebeck-ok instances of the fov-siebeck benchmark workload, drawn from
# Xoshiro256StarStar(3), (6) and (21)
FOV_SEED_3 = [
    (-0.7122243673178021-0.49858076487251135j), (-0.06455860586895912+0.5429114190864255j),
    (0.35501374537504726-0.4542146204438813j), (-0.30975570012722686-0.8345698431408515j),
    (-0.06225297050481671+0.3408272528871765j), (-0.20479856394482643-0.16573723581804511j),
    (0.5926651377031447-0.12567859378662738j), (0.2317524701902145-0.6247941229947782j),
    (-0.6674734067376142-0.2929061429762623j), (-0.027676175121000846+0.8328250804180604j),
    (-0.09191131748030545-0.18750405676290693j), (-0.11735198044050588+0.7605955732798495j),
    (-0.4452026322610745-0.07866031156588615j), (0.5405415340186914+0.11425986246550979j),
    (4.682965351943125e-05+0.10780967405471698j), (0.26399911173451285+0.20322222696039183j),
]
FOV_SEED_6 = [
    (0.8764060850398245+0.42404056993040085j), (0.26675288144281795+0.04494356649302844j),
    (-0.5525433393713335+0.4727223296578553j), (-0.8271801414432995+0.15360390701006388j),
    (-0.43632540902404715+0.2569421201436475j), (0.22768746895172964+0.4869828330213044j),
    (-0.6375534569078207-0.3613075291211294j), (-0.3762089801055206-0.8979662517208391j),
    (-0.07688000388126137-0.610284153693579j), (-0.10382659938441541+0.07135806978142112j),
    (-0.668835605264799+0.6621415619978603j), (-0.10793980151501592-0.9406498115868265j),
    (0.26854553272129245-0.1936529497324626j), (-0.5475548963018879-0.5614722557909759j),
    (-0.35383630202016336+0.33682788903570327j), (-0.5738310056783991-0.46900763992902395j),
    (-0.37684710895374596-0.49141790313173495j), (-0.6443457027797375+0.04948367620239269j),
    (0.46611025265886363-0.04306964797768842j), (0.4081209033442337-0.8533058026218288j),
    (-0.8302231695595874-0.42199224707496197j), (0.21116817097200724-0.541328825064656j),
    (-0.011027966894635588-0.5204951446087915j), (-0.11220852928227232-0.9591612486065877j),
    (0.25818067010847545-0.25443094157646895j), (-0.4730415926544256+0.503787119731042j),
    (0.4709794075698168-0.8801242315000288j), (-0.8893262399498616+0.42903900810994067j),
    (0.6935213246655161+0.02357746848095954j), (-0.7593665884701319+0.566425926937673j),
    (-0.22174698731191134-0.34519728842260156j), (0.5367156019336894+0.37059668717270866j),
]
FOV_SEED_21 = [
    (0.1716451924254856+0.8181632676345083j), (-0.4529397341174388-0.017352373611999594j),
    (-0.36438565271739476-0.1319484271332374j), (-0.10644056086449183+0.03778728099002615j),
    (-0.2771886662607599+0.6123897044528672j), (0.09835712718247058+0.6470180929558174j),
    (-0.02699218300622741+0.8332072479700221j), (0.5198699863699185+0.1471970051777156j),
    (-0.15059111327240493+0.7241417543525055j), (-0.31416240634939707-0.16935642463262646j),
    (0.2337733951807035+0.7486492669927074j), (0.4396362588894325+0.6760535990130085j),
]


def k11_zeros() -> np.ndarray:
    """The ROADMAP's K11 instance: 12 disk zeros, the first three within
    4e-15 of each other."""
    rng = np.random.default_rng(3)
    zeros = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
    zeros[1] = zeros[0] + 3.3e-15
    zeros[2] = zeros[0] + 3.7e-15j
    return zeros


def three_close_real_zeros(seed: int, n: int) -> np.ndarray:
    """Uniform real zeros, the first three within 4e-15 of each other."""
    zeros = np.random.default_rng(seed).uniform(-1, 1, n)
    zeros[1] = zeros[0] + 3.3e-15
    zeros[2] = zeros[0] + 3.7e-15
    return zeros


def k14_zeros(s: int, n: int) -> np.ndarray:
    """The ROADMAP's K14 draw: zeros whose parts span 16 decades."""
    rng = np.random.default_rng(1000 * s + n + 7)
    re = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    return re + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)


def quadratic_roots(c0, c1, c2):
    """Oracle: stable quadratic formula for c2 t^2 + c1 t + c0."""
    import cmath

    sq = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
    if abs(-c1 + sq) >= abs(-c1 - sq):
        r1 = (-c1 + sq) / (2 * c2)
    else:
        r1 = (-c1 - sq) / (2 * c2)
    r2 = (c0 / c2) / r1 if r1 != 0 else (-c1 - sq) / (2 * c2)
    return np.array([r1, r2])


def triangles_from(seed, count):
    """``count`` drawn triangles, none of them nearly collinear."""
    rng, out = make_rng(seed), []
    while len(out) < count:
        v = random_zeros(rng, 3)
        if abs(((v[1] - v[0]) * np.conj(v[2] - v[0])).imag) > 1e-8:
            out.append(v)
    return out


class TestMainTheorem:
    def test_symmetric_pair(self):
        report = theorems.check_main_theorem([1, -1])
        assert report.verdict == theorems.PASS

    def test_quadratic_formula_oracle(self):
        report = theorems.check_main_theorem([0, 1, 2])
        assert report.verdict == theorems.PASS
        # derivative of t(t-1)(t-2) is 3t^2 - 6t + 2
        oracle = quadratic_roots(2, -6, 3)
        assert poly.multiset_match(theorems.critical_points_oracle([0, 1, 2]), oracle, 1e-10)

    def test_eight_random_zeros(self):
        rng = make_rng(111)
        report = theorems.check_main_theorem(random_zeros(rng, 8), tol=1e-6)
        assert report.verdict == theorems.PASS

    def test_fail_on_absurd_tolerance(self):
        rng = make_rng(112)
        report = theorems.check_main_theorem(random_zeros(rng, 6), tol=1e-18)
        assert report.verdict == theorems.FAIL

    def test_single_zero_precondition(self):
        report = theorems.check_main_theorem([1.0])
        assert report.verdict == theorems.PRECONDITIONS_UNMET

    @pytest.mark.parametrize("n", [8, 64])
    def test_one_build_one_eigensolve_one_match(self, n, monkeypatch):
        # A is circulant, so one submatrix decides all n of them
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(matricial, "build_construction")
        counted(numlin, "general_eigvals")
        counted(poly, "multiset_match")
        report = theorems.check_main_theorem(generate_zeros(make_rng(126), n))
        assert report.verdict == theorems.PASS
        assert dict(report.details)["submatrices_checked"] == n
        assert calls == {"build_construction": 1, "general_eigvals": 1, "multiset_match": 1}

    def test_reports_the_bottleneck_distance(self, monkeypatch):
        # on K11 the routes' points need the fallback, and the pairing of
        # least total distance reaches 0.632, above the bottleneck value
        routes = []
        match = poly.multiset_match
        monkeypatch.setattr(poly, "multiset_match", lambda a, b, tol: routes.append((a, b)) or match(a, b, tol))
        zeros = k11_zeros()
        report = theorems.check_main_theorem(zeros)
        [(eigvals, crit)] = routes
        bottleneck = theorems._frame(zeros, 2).length(scipy_bottleneck(np.abs(eigvals[:, None] - crit[None, :])))
        assert report.verdict == theorems.FAIL
        assert dict(report.details)["max_matched_distance"] == report.max_violation == bottleneck
        assert bottleneck == pytest.approx(0.458, abs=5e-4)


def roots_of_unity(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


# (z^3 - 1)(z^3 - 8): p' = 3 z^2 (2 z^3 - 9), a double critical point at 0
# next to three simple ones, the cube roots of 4.5
TWO_CUBES = np.concatenate([CUBE_ROOTS, 2.0 * CUBE_ROOTS])


class TestClusters:
    """A multiple critical point is a cluster on both routes: each side is
    compared by the cluster's mean, the oracle's refined on p^(m)."""

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize(
        "scale", [1.0, np.exp(0.37j) * 2.0**40, np.exp(0.37j) * 2.0**-40], ids=["unit", "turned-2^40", "turned-2^-40"]
    )
    def test_roots_of_unity_pass_main(self, n, scale):
        zeros = scale * roots_of_unity(n)
        report = theorems.check_main_theorem(zeros)
        assert report.verdict == theorems.PASS
        crit = theorems.critical_points_oracle(zeros)
        assert crit.size == n - 1
        assert np.max(np.abs(crit)) <= 1e-15 * abs(scale)

    def test_one_cluster_of_n_minus_one_on_both_routes(self):
        for n in (4, 8, 16, 32):
            u = theorems._frame(roots_of_unity(n), 2).u
            eigvals = numlin.general_eigvals(numlin.principal_submatrix(matricial.build_construction(u), 1))
            [cluster] = theorems._clusters(u, np.ones(n), eigvals)
            assert cluster.tolist() == list(range(n - 1))

    @pytest.mark.parametrize("n", [8, 50, 200])
    def test_drawn_zeros_have_no_cluster(self, n):
        frame = theorems._frame(generate_zeros(make_rng(131), n), 2)
        eigvals = matricial.critical_points_matricial(frame.u, 1)
        for points in (eigvals, theorems._framed_critical_points(frame)):
            assert theorems._clusters(frame.u, np.ones(n), points) == []

    def test_cluster_that_is_not_the_whole_set(self):
        crit = theorems.critical_points_oracle(TWO_CUBES)
        near = crit[np.abs(crit) < 0.5]
        assert near.size == 2
        assert np.max(np.abs(near)) <= 1e-15
        assert poly.multiset_match(crit[np.abs(crit) >= 0.5], 4.5 ** (1 / 3) * CUBE_ROOTS, 1e-14).matched
        assert theorems.check_main_theorem(TWO_CUBES).verdict == theorems.PASS

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_the_step_cap_is_not_what_stops_a_cluster(self, n, monkeypatch):
        zeros = np.exp(0.37j) * roots_of_unity(n)
        crit = theorems.critical_points_oracle(zeros).tobytes()
        report = theorems.check_main_theorem(zeros)
        monkeypatch.setattr(theorems, "_ABERTH_MAX_STEPS", 60)
        assert theorems.critical_points_oracle(zeros).tobytes() == crit
        assert theorems.check_main_theorem(zeros) == report

    @pytest.mark.parametrize("zeros", [roots_of_unity(8), generate_zeros(make_rng(132), 16)], ids=["K3", "disk"])
    def test_a_moved_eigenvalue_still_fails(self, zeros, monkeypatch):
        solve = numlin.general_eigvals

        def moved(a):
            eigvals = solve(a)
            eigvals[0] += 1e-3 * theorems._frame(zeros, 2).spread
            return eigvals

        monkeypatch.setattr(numlin, "general_eigvals", moved)
        report = theorems.check_main_theorem(zeros)
        assert report.verdict == theorems.FAIL
        assert report.max_violation > 1e-4 * geom.point_spread(zeros)

    @pytest.mark.parametrize("n", [16, 48, 100])
    def test_drawn_zeros_stay_on_the_nearest_pairing(self, n, monkeypatch):
        calls = []
        bottleneck = poly._bottleneck_pairing
        monkeypatch.setattr(poly, "_bottleneck_pairing", lambda cost: calls.append(cost) or bottleneck(cost))
        for seed in range(3):
            assert theorems.check_main_theorem(generate_zeros(make_rng(133 + seed), n)).verdict == theorems.PASS
        assert calls == []

    @pytest.mark.parametrize("seed, n", [(11, 40), (5, 80)])
    def test_real_zeros_three_within_4e_15(self, seed, n):
        zeros = three_close_real_zeros(seed, n)
        crit = theorems.critical_points_oracle(zeros)
        assert crit.size == n - 1
        assert not crit.imag.any()
        for check in (theorems.check_interlacing, theorems.check_gauss_lucas, theorems.check_main_theorem):
            assert check(zeros).verdict == theorems.PASS, check.__name__
        # each point starts inside its gap of a few ulps and converges there,
        # so the interlacing is strict and no slack is needed
        assert theorems.check_interlacing(zeros, tol=0.0).verdict == theorems.PASS

    @pytest.mark.parametrize("eps", [1e-12, 1e-24, 1e-36])
    def test_cluster_next_to_a_repeated_zero(self, eps):
        # p = z^2 (z^3 - a): p' = z (5 z^3 - 2 a) has 0 and the cube roots of
        # 2a/5, a cluster of critical points about the double zero 0
        a = eps * np.exp(0.6j)
        turns = np.exp(2j * np.pi * np.arange(3) / 3)
        zeros = np.concatenate([[0, 0], a ** (1 / 3) * turns])
        crit = theorems.critical_points_oracle(zeros)
        expected = np.concatenate([[0], (0.4 * a) ** (1 / 3) * turns])
        assert poly.multiset_match(crit, expected, 1e-14 * eps ** (1 / 3)).matched
        for more in ([], [1, 1j, -1.3]):
            z = np.concatenate([zeros, more])
            for check in (theorems.check_main_theorem, theorems.check_gauss_lucas):
                assert check(z).verdict == theorems.PASS, (check.__name__, more)
            near = np.abs(theorems.critical_points_oracle(z)) <= 2 * eps ** (1 / 3)
            assert np.count_nonzero(near) == 4

    def test_real_cluster_is_refined_in_real_arithmetic(self):
        frame = theorems._frame(three_close_real_zeros(11, 40), 2)
        u = frame.u.real
        weights = np.ones(u.size)
        crit = theorems._framed_critical_points(frame).real
        [pair] = theorems._clusters(u, weights, crit)
        mean = theorems._cluster_mean(u, weights, crit[pair].mean(), pair.size)
        assert isinstance(mean, float)
        assert u[0] < mean < u[2]


class TestCriticalPointsOracle:
    @pytest.mark.parametrize(
        "zeros, expected",
        [
            ([1, 1], [1]),
            ([2, 2, 2], [2, 2]),
            ([0, 0, 0, 1], [0, 0, 0.75]),
            # p = t^2 (t - 1)(t - i): 0 once, and the roots of 4t^2 - 3(1 + i)t + 2i
            ([0, 0, 1, 1j], [0, *quadratic_roots(2j, -3 - 3j, 4)]),
        ],
    )
    def test_repeated_zeros(self, zeros, expected):
        crit = theorems.critical_points_oracle(zeros)
        assert crit.size == len(zeros) - 1
        assert np.all(np.isfinite(crit))
        assert poly.multiset_match(crit, expected, 1e-14).matched

    def test_forms_no_coefficients_and_calls_no_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not expand coefficients or solve an eigenproblem")

        zeros = generate_zeros(make_rng(121), 30)
        expected = matricial.critical_points_matricial(zeros, 1)
        monkeypatch.setattr(poly, "from_roots", forbidden)
        monkeypatch.setattr(poly, "roots", forbidden)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        crit = theorems.critical_points_oracle(zeros)
        assert poly.multiset_match(crit, expected, 1e-12 * geom.point_spread(zeros)).matched

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("constraint", ["none", "real"])
    def test_agrees_with_matricial_route(self, n, constraint):
        zeros = generate_zeros(make_rng(122), n, constraint)
        crit = theorems.critical_points_oracle(zeros)
        pts = matricial.critical_points_matricial(zeros, 1)
        assert poly.multiset_match(crit, pts, 1e-12 * geom.point_spread(zeros)).matched

    def test_frame_leaves_the_oracle_bit_for_bit_as_before(self):
        # the reference centres the zeros as given and scales them by the
        # power of two nearest their spread; the exact pre-scale of the frame
        # must change no bit of that
        def centred_as_given(z):
            scale = 2.0 ** round(math.log2(geom.point_spread(z)))
            center = z.mean()
            u, mult = np.unique((z - center) / scale, return_counts=True)
            weights = mult.astype(float)
            v = u if u.imag.any() else u.real  # the oracle's arithmetic
            free = theorems._aberth(v, weights, theorems._aberth_start(v, weights))
            return center + scale * np.concatenate([free, np.repeat(u, mult - 1)])

        for n, constraint in ((2, "none"), (5, "none"), (12, "real"), (40, "none"), (200, "none")):
            base = generate_zeros(make_rng(127), n, constraint)
            for z in (base, 1e-8 * base + 3.0, 1e10 * base - 2e10j, 0.7 * base + 1e3):
                expected = centred_as_given(z)
                assert theorems.critical_points_oracle(z).tobytes() == expected.tobytes(), (n, z[0])

    @pytest.mark.parametrize(
        "u, starts",
        [
            ([-0.5, 0.1j, 0.5], ([0.1j, 0.3 + 0.2j], [0.2j, 0.2j])),
            ([-0.5, 0.1, 0.5], ([0.1, 0.3], [0.2, 0.2])),
        ],
        ids=["complex", "real"],
    )
    def test_start_on_a_zero_or_another_point_is_nudged(self, u, starts):
        u = np.array(u)
        weights = np.ones(3)
        expected = theorems.critical_points_oracle(u)
        for start in map(np.array, starts):
            crit = theorems._aberth(u, weights, start)
            assert crit.dtype == u.dtype
            assert np.all(np.isfinite(crit))
            assert poly.multiset_match(crit, expected, 1e-14).matched

    def test_start_next_to_a_zero_that_lands_on_another_is_nudged(self):
        # on 0, 1, 2, 3 the start next to 1 lands exactly on 2
        crit = theorems.critical_points_oracle(np.arange(4.0))
        expected = [1.5, (3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
        assert poly.multiset_match(crit, expected, 1e-14).matched

    @pytest.mark.filterwarnings("error")
    def test_real_zeros_a_subnormal_distance_apart(self):
        # in the frame the tiny zeros are 0, 5e-324 and 1e-323: the half-width
        # of the first gap rounds to 0, and the term of 1e-323 in r overflows
        zeros = [-1, 0, 5e-324, 1e-323, 1.5e-323, 1]
        crit = theorems.critical_points_oracle(zeros)
        assert crit.size == 5 and np.all(np.isfinite(crit))
        assert theorems.check_interlacing(zeros).verdict == theorems.PASS

    @pytest.mark.parametrize("n", [12, 50, 100, 150, 200])
    def test_real_and_complex_arithmetic_agree(self, n):
        # from different starts: one point per gap in real arithmetic
        u, mult = np.unique(theorems._frame(generate_zeros(make_rng(128), n, "real"), 2).u, return_counts=True)
        weights = mult.astype(float)
        real = theorems._aberth(u.real, weights, theorems._aberth_start(u.real, weights))
        cplx = theorems._aberth(u, weights, theorems._aberth_start(u, weights))
        assert real.dtype == float
        assert np.max(np.abs(np.sort(real) - np.sort_complex(cplx))) <= 4 * np.finfo(float).eps


class TestGaussLucas:
    def test_cube_roots_of_unity(self):
        report = theorems.check_gauss_lucas(CUBE_ROOTS)
        assert report.verdict == theorems.PASS

    def test_double_root_point_hull(self):
        c = 0.3 + 0.4j
        report = theorems.check_gauss_lucas([c, c])
        assert report.verdict == theorems.PASS

    def test_ten_random_zeros(self):
        rng = make_rng(113)
        report = theorems.check_gauss_lucas(random_zeros(rng, 10), tol=1e-7)
        assert report.verdict == theorems.PASS

    def test_nearly_collinear_zeros(self):
        # slanted segments: the hull is a sliver whose extreme vertices lie
        # on the line through their neighbours, beyond them
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 80))
            zeros = (1 + 2j) * rng.uniform(-1, 1, n) + 0.5j
            assert theorems.check_gauss_lucas(zeros).verdict == theorems.PASS, n


class TestInterlacing:
    def test_zero_one_two(self):
        report = theorems.check_interlacing([0.0, 1.0, 2.0])
        assert report.verdict == theorems.PASS
        # 2 >= 1.577 >= 1 >= 0.423 >= 0 by the quadratic formula
        mu = np.sort(theorems.critical_points_oracle([0, 1, 2]).real)
        assert 0 <= mu[0] <= 1 <= mu[1] <= 2

    def test_all_coincident(self):
        report = theorems.check_interlacing([0.7, 0.7, 0.7])
        assert report.verdict == theorems.PASS

    def test_nine_random_real(self):
        rng = make_rng(114)
        report = theorems.check_interlacing(random_zeros(rng, 9, real=True), tol=1e-8)
        assert report.verdict == theorems.PASS

    def test_complex_input_is_precondition(self):
        report = theorems.check_interlacing([0.0, 1.0, 1j])
        assert report.verdict == theorems.PRECONDITIONS_UNMET

    def test_realness_is_relative_to_the_spread(self):
        zeros = np.array([0, 1, 0.5 + 0.5j, 2])
        for scale in (1e-13, 1.0, 1e10):
            report = theorems.check_interlacing(scale * zeros)
            assert report.verdict == theorems.PRECONDITIONS_UNMET, scale
            assert dict(report.details)["unmet_hypothesis"] == "zeros are not real"

    def test_worst_gap_shows_the_strict_margin(self):
        # for 0, 1, 2 the critical points 1 -+ 1/sqrt(3) sit 1 - 1/sqrt(3)
        # from the nearest zero
        report = theorems.check_interlacing([0.0, 1.0, 2.0])
        expected = -(1.0 - 1.0 / math.sqrt(3.0))
        assert abs(dict(report.details)["worst_gap"] - expected) <= 1e-15
        assert report.max_violation == dict(report.details)["worst_gap"]
        # a negative tolerance asks for that margin, in units of the spread 2
        margin = expected / 2.0
        assert theorems.check_interlacing([0.0, 1.0, 2.0], tol=0.5 * margin).verdict == theorems.PASS
        assert theorems.check_interlacing([0.0, 1.0, 2.0], tol=2.0 * margin).verdict == theorems.FAIL
        # a double zero is a critical point, so the margin there is 0
        assert dict(theorems.check_interlacing([0.0, 0.0, 1.0]).details)["worst_gap"] == 0.0


class TestSiebeckHypotheses:
    def test_distinct_triangle(self):
        hyp = theorems.check_siebeck_hypotheses(CUBE_ROOTS)
        assert hyp.simple_vertex_eigenvalues
        assert hyp.strict_half_plane
        assert len(hyp.vertex_indices) == 3

    def test_repeated_vertex(self):
        hyp = theorems.check_siebeck_hypotheses([0, 0, 1, 1j])
        assert not hyp.simple_vertex_eigenvalues

    def test_zero_on_hull_edge(self):
        hyp = theorems.check_siebeck_hypotheses([0, 1, 2, 1j])
        assert hyp.simple_vertex_eigenvalues
        assert not hyp.strict_half_plane

    def test_collinear_raises(self):
        with pytest.raises(ValueError):
            theorems.check_siebeck_hypotheses([0, 1, 2])

    def test_matches_loop_reference(self):
        rng = make_rng(119)
        instances = [[0, 0, 1, 1j], [0, 1, 2, 1j], [0, 2, 2j, 1 + 1j], [0, 1, 1j, 1e-9]]
        instances += [random_zeros(rng, n) for n in (3, 4, 5, 8, 12) for _ in range(4)]
        for zeros in instances:
            z = np.asarray(zeros, dtype=complex)
            hyp = theorems.check_siebeck_hypotheses(z)
            radius = TOL.geometry * geom.point_spread(z)
            verts = geom.convex_hull(z).vertices
            simple, strict, pairs = True, True, []
            for k in range(verts.size):
                a, b = verts[k], verts[(k + 1) % verts.size]
                if np.count_nonzero(np.abs(z - a) <= radius) != 1:
                    simple = False
                i, j = int(np.argmin(np.abs(z - a))) + 1, int(np.argmin(np.abs(z - b))) + 1
                pairs.append((i, j))
                normal = -1j * (b - a) / abs(b - a)
                for idx in range(z.size):
                    if idx + 1 not in (i, j) and (np.conj(normal) * (z[idx] - a)).real > -radius:
                        strict = False
            assert (hyp.simple_vertex_eigenvalues, hyp.strict_half_plane) == (simple, strict)
            assert hyp.vertex_indices == tuple(pairs)

    def test_vertex_indices_name_hull_edges(self):
        zeros = np.array([0.0, 2.0, 2j, 0.5 + 0.5j])  # last point interior
        hyp = theorems.check_siebeck_hypotheses(zeros)
        for i, j in hyp.vertex_indices:
            assert 1 <= i <= 4 and 1 <= j <= 4
            assert i != 4 and j != 4  # interior point is never an endpoint


class TestPoorMansSiebeck:
    def test_equilateral(self):
        report = theorems.check_poor_mans_siebeck(CUBE_ROOTS)
        assert report.verdict == theorems.PASS

    def test_right_triangle_tangency_points(self):
        report = theorems.check_poor_mans_siebeck([0, 2, 2j])
        assert report.verdict == theorems.PASS
        details = dict(report.details)
        assert details["tangency_gap"] <= 1e-9

    def test_repeated_vertex_precondition(self):
        report = theorems.check_poor_mans_siebeck([0, 0, 1, 1j])
        assert report.verdict == theorems.PRECONDITIONS_UNMET

    def test_collinear_precondition(self):
        report = theorems.check_poor_mans_siebeck([0, 1, 2])
        assert report.verdict == theorems.PRECONDITIONS_UNMET

    def test_flat_boundary_off_the_midpoint_is_not_a_touch(self):
        # F(A_(1)) runs within 1e-7 of the spread of one edge outside the 5%
        # neighborhood of its midpoint; that used to read as a second touch.
        # The face at each edge normal is one point, within the certified
        # radius of the midpoint
        report = theorems.check_poor_mans_siebeck(np.array(FOV_SEED_6))
        assert report.verdict == theorems.PASS, report.details
        details, spread = dict(report.details), geom.point_spread(FOV_SEED_6)
        assert details["face_radius"] <= TOL.geometry * spread
        assert details["face_min_gap"] > 0.0

    def test_random_instances(self):
        rng = make_rng(115)
        for n in (3, 4, 5, 6):
            zeros = generate_zeros(rng, n, "siebeck-ok")
            report = theorems.check_poor_mans_siebeck(zeros)
            assert report.verdict == theorems.PASS, report

    @pytest.mark.parametrize("tol", [0.0, -1e-9, -0.5])
    def test_bound_of_at_most_zero_fails(self, tol):
        # no face radius is at most a bound of 0 or less
        zeros = generate_zeros(make_rng(115), 5, "siebeck-ok")
        report = theorems.check_poor_mans_siebeck(zeros, tol=tol)
        details, spread = dict(report.details), geom.point_spread(zeros)
        assert report.verdict == theorems.FAIL
        assert 0.0 < details["face_radius"] <= TOL.geometry * spread
        assert report.max_violation == max(details["containment_excess"], details["tangency_gap"], details["face_radius"])

    def test_a_bound_below_the_certified_radius_fails(self):
        # the certificate does not depend on the bound: the report is the
        # same at every bound, and a bound below its largest violation,
        # however tight or tiny, is a fail and not a numerical failure
        zeros = generate_zeros(make_rng(115), 5, "siebeck-ok")
        spread = geom.point_spread(zeros)
        reference = theorems.check_poor_mans_siebeck(zeros)
        units = reference.max_violation / spread
        for tol, verdict in ((2 * units, theorems.PASS), (units / 2, theorems.FAIL), (1e-18, theorems.FAIL)):
            report = theorems.check_poor_mans_siebeck(zeros, tol=tol)
            assert report.verdict == verdict and report.details == reference.details
            assert report.max_violation == reference.max_violation

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 1e-1])
    def test_loose_bounds_pass(self, tol):
        rng = make_rng(9)
        for n in (3, 4, 8, 16, 32):
            for _ in range(4):
                report = theorems.check_poor_mans_siebeck(generate_zeros(rng, n, "siebeck-ok"), tol=tol)
                assert report.verdict == theorems.PASS, (n, report.details)

    def test_containment_and_tangency_come_from_the_dense_route(self, monkeypatch):
        # H(theta) of the constructed A_(1) moved by 5e-13 of the spread
        # times I, inside the certificate's delta of 1e-12, moves the
        # Rayleigh quotients and so both fields by that much; the secular
        # route holds both by construction and cannot show it
        zeros = generate_zeros(make_rng(115), 6, "siebeck-ok")
        before = dict(theorems.check_poor_mans_siebeck(zeros).details)
        frame = theorems._frame(zeros, 3)
        original = fov._toeplitz_stack
        shift = 5e-13 * frame.spread

        def shifted(u):
            stack = original(u)
            return lambda thetas: stack(thetas) + shift * np.eye(u.size - 1)

        monkeypatch.setattr(fov, "_toeplitz_stack", shifted)
        report = theorems.check_poor_mans_siebeck(zeros)
        assert report.verdict == theorems.PASS
        after, spread = dict(report.details), geom.point_spread(zeros)
        for key in ("containment_excess", "tangency_gap"):
            assert abs(before[key]) <= 1e-15 * spread
            assert abs(after[key] - before[key] - frame.length(5e-13 * frame.spread)) <= 2e-15 * spread, key


class TestBgm:
    def test_equilateral_focus_is_origin(self):
        report = theorems.check_bgm(CUBE_ROOTS)
        assert report.verdict == theorems.PASS
        # p' = 3 t^2: a double root at 0, located to ~sqrt(eps)
        crit = theorems.critical_points_oracle(CUBE_ROOTS)
        assert np.max(np.abs(crit)) <= 1e-7

    def test_right_triangle_closed_form(self):
        report = theorems.check_bgm([0, 1, 1j])
        assert report.verdict == theorems.PASS
        expected = [
            ((1 + 1j) - (1 - 1j) / math.sqrt(2)) / 3,
            ((1 + 1j) + (1 - 1j) / math.sqrt(2)) / 3,
        ]
        crit = theorems.critical_points_oracle([0, 1, 1j])
        assert poly.multiset_match(crit, expected, 1e-10).matched

    def test_collinear_precondition(self):
        report = theorems.check_bgm([0, 1, 2])
        assert report.verdict == theorems.PRECONDITIONS_UNMET

    def test_wrong_arity_precondition(self):
        report = theorems.check_bgm([0, 1, 1j, -1])
        assert report.verdict == theorems.PRECONDITIONS_UNMET

    def test_random_triples(self):
        rng = make_rng(116)
        done = 0
        while done < 20:
            zeros = random_zeros(rng, 3)
            report = theorems.check_bgm(zeros, tol=1e-7)
            if report.verdict == theorems.PRECONDITIONS_UNMET:
                continue
            assert report.verdict == theorems.PASS, report
            done += 1

    @pytest.mark.parametrize("zeros", [CUBE_ROOTS, [0, 2, 2j], *triangles_from(94, 25)])
    def test_inellipse_touches_every_side_at_its_midpoint(self, zeros):
        report = theorems.check_bgm(zeros)
        assert report.verdict == theorems.PASS, report.details
        assert dict(report.details)["tangent_all_sides"] is True

    @pytest.mark.parametrize("wrong", ["incircle", "moved"])
    @pytest.mark.parametrize("zeros", [[0, 1, 1j], [0, 2, 0.5 + 1j]])
    def test_wrong_ellipse_is_not_tangent(self, wrong, zeros, monkeypatch):
        inellipse = geom.steiner_inellipse

        def incircle(a, b, c):
            la, lb, lc = abs(b - c), abs(c - a), abs(a - b)
            center = (la * a + lb * b + lc * c) / (la + lb + lc)
            radius = abs(((b - a) * np.conj(c - a)).imag) / (la + lb + lc)
            return fov.ellipse_from_foci(center, center, radius)

        def moved(a, b, c):
            e, shift = inellipse(a, b, c), 1e-6 * geom.point_spread([a, b, c])
            return fov.ellipse_from_foci(e.focus1 + shift, e.focus2 + shift, e.minor_semi_axis)

        monkeypatch.setattr(geom, "steiner_inellipse", incircle if wrong == "incircle" else moved)
        report = theorems.check_bgm(zeros)
        assert dict(report.details)["tangent_all_sides"] is False
        assert report.verdict == theorems.FAIL
        assert report.max_violation >= 0.9e-6 * geom.point_spread(zeros)

    @staticmethod
    def assert_steiner_range(zeros):
        """F(A_(1)) of a triangle is its Steiner inellipse (the paper's
        matricial Bocher-Grace-Marden): in the frame, the secular
        (``row_major_secular_supports``) and the dense supports of A_(1)
        both meet the inellipse's within 16 eps times the spread on the
        720-angle grid."""
        frame = theorems._frame(zeros, 3, exact=True)
        thetas = 2 * np.pi * np.arange(720) / 720
        expected = fov.ellipse_support(geom.steiner_inellipse(*frame.u), thetas)
        sub = numlin.principal_submatrix(matricial.build_construction(frame.u), 1)
        for supports in (row_major_secular_supports(frame.u, thetas), fov.sweep_supports(sub, thetas)):
            assert np.max(np.abs(supports - expected)) <= 16 * np.finfo(float).eps * frame.spread

    def test_field_of_values_is_the_steiner_inellipse(self):
        rng = np.random.default_rng(0)
        for zeros in rng.uniform(-1, 1, (200, 3)) + 1j * rng.uniform(-1, 1, (200, 3)):
            self.assert_steiner_range(zeros)

    def test_field_of_values_is_the_steiner_inellipse_on_k14_triangles(self):
        accepted = 0
        for s in range(100):
            try:
                self.assert_steiner_range(k14_zeros(s, 3))
            except PreconditionsUnmet:  # collinear to the inellipse's test
                continue
            accepted += 1
        assert accepted == 95

    def test_midpoints_lie_on_the_inellipse(self):
        # in closed form from the ellipse's foci and axes, thin triangles
        # included: the contact point itself would move along the long side
        # by up to 2e-7 of the spread there (K9 draws from default_rng(11))
        rng = np.random.default_rng(11)
        thin = []
        for _ in range(100):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            thin.append([z[0], z[1], z[0] + 1e-7 * complex(rng.standard_normal(), rng.standard_normal())])
        for zeros in [*triangles_from(94, 25), *thin, *(k14_zeros(s, 3) for s in range(20))]:
            try:
                frame = theorems._frame(zeros, 3, exact=True)
                ellipse = geom.steiner_inellipse(*frame.u)
            except PreconditionsUnmet:
                continue
            midpoints = geom.edge_midpoints(geom.convex_hull(frame.u))
            assert np.max(np.abs(fov.ellipse_offset(ellipse, midpoints))) <= 1e-14 * frame.spread, zeros

    def test_k9_thin_triangles(self):
        # the third vertex lies 1e-7 (times a complex normal draw) from the
        # first; the normalised ellipse equation gave 97 preconditions_unmet
        # ("inellipse degenerate") and 3 false fails here
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            zeros = [z[0], z[1], z[0] + 1e-7 * complex(rng.standard_normal(), rng.standard_normal())]
            report = theorems.check_bgm(zeros)
            if report.verdict == theorems.PRECONDITIONS_UNMET:
                assert dict(report.details)["unmet_hypothesis"] == "vertices are collinear"
                continue
            assert report.verdict == theorems.PASS, (zeros, report.details)
            assert report.max_violation <= 1e-14 * geom.point_spread(zeros)


class TestEllipticalRange:
    def test_nilpotent_circle(self):
        report = theorems.check_elliptical_range(np.array([[0, 1], [0, 0]]), m=720)
        assert report.verdict == theorems.PASS

    def test_normal_segment(self):
        report = theorems.check_elliptical_range(np.diag([1.0, 2.0]))
        assert report.verdict == theorems.PASS

    def test_jordan_like(self):
        report = theorems.check_elliptical_range(np.array([[1, 1], [0, -1]]))
        assert report.verdict == theorems.PASS

    def test_same_report_on_every_power_of_two(self):
        # unscaled, 2**510 overflows the Gram sum (a NaN fail), 2**-540
        # underflows the minor axis to 0, and from 2**-40 down every sample
        # falls under the absolute flat-segment gap
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        base = theorems.check_elliptical_range(a)
        assert base.verdict == theorems.PASS
        for k in (-600, -540, -40, 510):
            report = theorems.check_elliptical_range(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k))
            assert report.verdict == theorems.PASS, k
            assert report.max_violation == np.ldexp(base.max_violation, k), k
            assert [v for _, v in report.details] == [np.ldexp(v, k) for _, v in base.details], k

    def test_wrong_order_precondition(self):
        report = theorems.check_elliptical_range(np.eye(3))
        assert report.verdict == theorems.PRECONDITIONS_UNMET

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_fewer_than_eight_samples_refused(self, m):
        # the grid of boundary_polyline and the CLI: a short grid is refused,
        # not decided from a few samples (and m = 0 sweeps no angle at all)
        with pytest.raises(ValueError, match="at least 8 samples required"):
            theorems.check_elliptical_range(np.array([[1, 1], [0, -1]]), m=m)


class TestEdgePreimage:
    def test_equilateral_midpoint_only(self):
        hyp = theorems.check_siebeck_hypotheses(CUBE_ROOTS)
        fields = [name for name, _ in theorems.check_poor_mans_siebeck(CUBE_ROOTS).details]
        for edge in hyp.vertex_indices:
            report = theorems.check_edge_preimage(CUBE_ROOTS, edge)
            assert report.verdict == theorems.PASS
            assert [name for name, _ in report.details] == fields

    def test_right_triangle_edge(self):
        hyp = theorems.check_siebeck_hypotheses([0, 2, 2j])
        report = theorems.check_edge_preimage([0, 2, 2j], hyp.vertex_indices[0])
        assert report.verdict == theorems.PASS

    def test_index_and_pair_in_either_order_agree(self):
        # a reversed pair was once probed with the fan on the inward normal,
        # a false fail on edge (5, 3) here
        zeros = np.array([-0.52 - 0.55j, -0.41 + 0.98j, -2.44 - 0.31j, 1.8 - 0.33j,
                          1.14 - 0.79j, -0.33 + 0.45j, 0.77 - 0.1j, 0.28 + 0.55j])
        pairs = theorems.check_siebeck_hypotheses(zeros).vertex_indices
        for k, (i, j) in enumerate(pairs, start=1):
            reports = [theorems.check_edge_preimage(zeros, e) for e in (k, (i, j), (j, i))]
            assert reports[0] == reports[1] == reports[2]
            assert reports[0].verdict == theorems.PASS
        out_of_range = theorems.check_edge_preimage(zeros, len(pairs) + 1)
        assert out_of_range.verdict == theorems.PRECONDITIONS_UNMET
        assert "out of range" in dict(out_of_range.details)["unmet_hypothesis"]

    @pytest.mark.parametrize("edge", [(3, 2), np.int64(2), [2, 3], np.array([3, 2])], ids=["pair", "int64", "list", "array"])
    def test_edge_forms(self, edge):
        # the right triangle's hull edges are (1, 2), (2, 3), (3, 1)
        pairs = theorems.check_siebeck_hypotheses([0, 2, 2j]).vertex_indices
        assert theorems._edge_position(pairs, edge) == 1
        assert theorems.check_edge_preimage([0, 2, 2j], edge) == theorems.check_edge_preimage([0, 2, 2j], 2)

    @pytest.mark.parametrize("edge", [(1, 2, 3), (1.7, 2), True, 2.0], ids=["triple", "float-pair", "bool", "float"])
    def test_malformed_edge_raises(self, edge):
        # once taken as (1, 2), as (1, 2), as edge 1, and a TypeError
        pairs = theorems.check_siebeck_hypotheses(CUBE_ROOTS).vertex_indices
        with pytest.raises(ValueError, match="an edge is a 1-based index or a pair of 1-based zero indices"):
            theorems._edge_position(pairs, edge)
        with pytest.raises(ValueError, match="an edge is a 1-based index or a pair of 1-based zero indices"):
            theorems.check_edge_preimage(CUBE_ROOTS, edge)

    @pytest.mark.parametrize("zeros, edge", [(FOV_SEED_3, (8, 7)), (FOV_SEED_6, (11, 28)), (FOV_SEED_21, (9, 5))])
    def test_benchmark_draws_pass(self, zeros, edge):
        # drawn fov-siebeck instances (benchmark seeds 3, 6, 21) whose
        # points next to the midpoint once carried margins of about 5e-9 of
        # the spread, which a slack of 1e-8 of the spread counted as members
        report = theorems.check_edge_preimage(np.array(zeros), edge)
        assert report.verdict == theorems.PASS, report.details
        assert dict(report.details)["face_radius"] <= TOL.geometry * geom.point_spread(np.array(zeros))

    def test_each_edge_reports_siebecks_measures_of_that_edge(self):
        # every edge of every draw passes, and the largest of each measure
        # over the edges (the least certified gap) is siebeck's, bit for bit
        for zeros in [*TestFaceCertificate.siebeck_ok(), *k14_accepted(range(40))]:
            siebeck = theorems.check_poor_mans_siebeck(zeros)
            reports = [theorems.check_edge_preimage(zeros, k) for k in range(1, dict(siebeck.details)["hull_vertices"] + 1)]
            assert all(report.verdict == theorems.PASS for report in reports), (zeros, reports)
            measured = [dict(report.details) for report in reports]
            expected = dict(siebeck.details)
            for name in ("containment_excess", "tangency_gap", "face_radius", "hull_vertices"):
                assert max(details[name] for details in measured) == expected[name], (zeros, name)
            assert min(details["face_min_gap"] for details in measured) == expected["face_min_gap"], zeros
            assert max(report.max_violation for report in reports) == siebeck.max_violation, zeros

    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 1e-1])
    def test_k16_loose_bounds_pass(self, tol):
        # a bound of at least the probe spacing once asked every probe
        # within it to be a member (K16: all 100 of these failed at 0.01 and
        # 0.1); a looser bound only passes more
        rng = make_rng(9)
        for n in (3, 4, 8, 16, 32):
            for k in range(20):
                zeros = generate_zeros(rng, n, "siebeck-ok")
                edges = len(theorems.check_siebeck_hypotheses(zeros).vertex_indices)
                report = theorems.check_edge_preimage(zeros, 1 + k % edges, tol=tol)
                assert report.verdict == theorems.PASS, (n, k, report.details)

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_bound_of_at_most_zero_fails(self, tol):
        # the certified face radius is positive, as siebeck's is
        report = theorems.check_edge_preimage(CUBE_ROOTS, 1, tol=tol)
        assert report.verdict == theorems.check_poor_mans_siebeck(CUBE_ROOTS, tol=tol).verdict == theorems.FAIL
        assert report.max_violation == dict(report.details)["face_radius"] > 0

    @pytest.mark.parametrize("tol, verdict", [(0.02, theorems.FAIL), (0.03, theorems.PASS)])
    def test_the_face_radius_is_bounded_by_the_spread(self, tol, verdict, monkeypatch):
        # a face radius of 0.025 edge lengths (the certificate's own is at
        # roundoff here), and the equilateral edge is the spread
        original = fov.certify_faces

        def wide(zeros, thetas, pairs):
            faces = original(zeros, thetas, pairs)
            a, b = np.asarray(zeros)[np.asarray(pairs).ravel()]
            return dataclasses.replace(faces, radius=np.array([0.025 * abs(b - a)]))

        monkeypatch.setattr(fov, "certify_faces", wide)
        report = theorems.check_edge_preimage(CUBE_ROOTS, 1, tol=tol)
        assert report.verdict == verdict
        assert dict(report.details)["face_radius"] == pytest.approx(0.025 * math.sqrt(3), rel=1e-14)

    def test_repeated_vertex_precondition(self):
        report = theorems.check_edge_preimage([0, 0, 1, 1j], (1, 3))
        assert report.verdict == theorems.PRECONDITIONS_UNMET

    def test_non_edge_precondition(self):
        zeros = np.array([0.0, 2.0, 2j, 0.4 + 0.4j])
        report = theorems.check_edge_preimage(zeros, (1, 4))
        assert report.verdict == theorems.PRECONDITIONS_UNMET


# a triangle, a square and a heptagon: at every edge normal the top
# projection is attained twice in floating point too
TIE_INSTANCES = {
    "triangle": np.array([0, 2, 2j]),
    "square": np.array([0, 1, 1 + 1j, 1j]),
    "heptagon": np.exp(2j * np.pi * np.arange(7) / 7),
}


class TestTangencyRoute:
    """The tangency checkers decide each edge on its face: one certificate
    of H(theta) of the constructed A_(1) at the edge normals
    (``fov.certify_faces``). ``siebeck`` decides containment on the same
    certificates: the hull is the intersection of its edge half-planes."""

    @staticmethod
    def count(monkeypatch, name, calls):
        original = getattr(fov, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fov, name, wrapper)

    @pytest.mark.parametrize("n", [8, 32])
    def test_one_face_certificate(self, n, monkeypatch):
        # every public function of fov and its dense kernel are counted
        zeros = generate_zeros(make_rng(127), n, "siebeck-ok")
        hyp = theorems.check_siebeck_hypotheses(zeros)
        edges = len(hyp.vertex_indices)
        calls = {}
        for name, value in list(vars(fov).items()):
            if inspect.isfunction(value) and value.__module__ == fov.__name__ and (name[0] != "_" or name == "_boundary"):
                self.count(monkeypatch, name, calls)
        monkeypatch.setattr(matricial, "build_construction", None)  # the certificates form no A
        assert theorems.check_poor_mans_siebeck(zeros).verdict == theorems.PASS
        assert {name: len(args) for name, args in calls.items()} == {"certify_faces": 1}
        [(_, normals, pairs)] = calls["certify_faces"]
        assert np.size(normals) == edges
        assert np.array_equal(pairs, np.array(hyp.vertex_indices) - 1)
        calls.clear()
        assert theorems.check_edge_preimage(zeros, 2).verdict == theorems.PASS
        assert {name: len(args) for name, args in calls.items()} == {"certify_faces": 1}
        [(_, normals, pairs)] = calls["certify_faces"]
        assert np.size(normals) == 1 and np.array_equal(np.ravel(pairs), np.array(hyp.vertex_indices[1]) - 1)

    def test_a_face_above_its_line_fails(self, monkeypatch):
        # a face quotient moved 2 tol times the spread above its line: rho
        # is at most lambda_max, so F(A_(1)) leaves the hull by at least that
        zeros = generate_zeros(make_rng(127), 8, "siebeck-ok")
        assert theorems.check_poor_mans_siebeck(zeros).verdict == theorems.PASS
        monkeypatch.setattr(fov, "certify_faces", moved_first_face(2.0))
        report = theorems.check_poor_mans_siebeck(zeros)
        spread = geom.point_spread(zeros)
        assert report.verdict == theorems.FAIL
        assert dict(report.details)["containment_excess"] >= 1.9 * TOL.geometry * spread
        assert report.max_violation >= 1.9 * TOL.geometry * spread

    def test_a_face_below_its_line_fails(self, monkeypatch):
        # a face quotient moved 2 tol times the spread below its line: the
        # face misses the line, a tangency gap, and the hull still holds it
        zeros = generate_zeros(make_rng(127), 8, "siebeck-ok")
        monkeypatch.setattr(fov, "certify_faces", moved_first_face(-2.0))
        report = theorems.check_poor_mans_siebeck(zeros)
        spread = geom.point_spread(zeros)
        assert report.verdict == theorems.FAIL
        assert dict(report.details)["tangency_gap"] >= 1.9 * TOL.geometry * spread
        assert dict(report.details)["containment_excess"] <= 8 * np.finfo(float).eps * spread
        assert report.max_violation >= 1.9 * TOL.geometry * spread

    @pytest.mark.parametrize("factor", [2.0, -2.0])
    def test_edge_preimage_fails_on_a_moved_face(self, factor, monkeypatch):
        # the face of its one edge moved 2 tol times the spread above or
        # below the line: both are siebeck's fails, on that edge alone
        zeros = generate_zeros(make_rng(127), 8, "siebeck-ok")
        assert theorems.check_edge_preimage(zeros, 1).verdict == theorems.PASS
        monkeypatch.setattr(fov, "certify_faces", moved_first_face(factor))
        report = theorems.check_edge_preimage(zeros, 1)
        bound = 1.9 * TOL.geometry * geom.point_spread(zeros)
        assert report.verdict == theorems.FAIL
        assert dict(report.details)["containment_excess" if factor > 0 else "tangency_gap"] >= bound
        assert report.max_violation >= bound


def edge_faces(zeros):
    """The frame, the hypotheses and the face certificate of every hull
    edge, as ``siebeck`` takes them."""
    frame, hyp = theorems._tangency_setup(zeros)
    normals, _ = theorems._edge_normals(hyp.edges)
    return frame, hyp, fov.certify_faces(frame.u, normals, np.array(hyp.vertex_indices) - 1)


def secular_poles(frame, hyp):
    """For each hull edge, the distances delta_k > 0 below the edge's line
    of the projections of the other zeros on its outward normal: the poles
    of the secular equation 2 / t = sum 1 / (delta_k - t) whose smallest
    root t is the gap below the top eigenvalue of H(theta) there."""
    normals, _ = theorems._edge_normals(hyp.edges)
    poles = []
    for theta, (a, b) in zip(normals, np.array(hyp.vertex_indices) - 1):
        x = np.real(np.exp(-1j * theta) * frame.u)
        poles.append(x[a] - np.delete(x, [a, b]))
    return poles


def secular_root(delta):
    """The root in (0, min delta) of sum 1 / (delta_k - t) - 2 / t, which
    increases there, by bisection to the last bit."""
    lo, hi = 0.0, float(np.min(delta))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        lo, hi = (mid, hi) if np.sum(1.0 / (delta - mid)) < 2.0 / mid else (lo, mid)


def k14_accepted(seeds=range(200)):
    """The K14 draws the tangency hypotheses accept (669 of 1000)."""
    for s in seeds:
        for n in (3, 4, 6, 10, 20):
            zeros = k14_zeros(s, n)
            try:
                theorems._tangency_setup(zeros)
            except PreconditionsUnmet:
                continue
            yield zeros


class TestFaceCertificate:
    """At each edge normal y = fft(e_a - e_b)[1:] / sqrt(2n) is an eigenvector
    of H(theta) of A_(1) up to roundoff, and one Cholesky factorisation
    certifies that the face of F(A_(1)) there is one point near the midpoint."""

    @staticmethod
    def siebeck_ok(count=4):
        rng = make_rng(11)
        return [generate_zeros(rng, n, "siebeck-ok") for n in (3, 4, 8, 12, 16, 24, 32, 64) for _ in range(count)]

    def test_residual_is_roundoff(self):
        # including the unit of roundoff the certificate adds
        worst = 0.0
        for zeros in [*self.siebeck_ok(), *k14_accepted(range(40))]:
            frame, _, faces = edge_faces(zeros)
            worst = max(worst, float(np.max(faces.residual)) / (np.finfo(float).eps * frame.spread))
        assert worst <= 8.0, worst

    def test_dense_face_is_within_the_certified_radius(self):
        # the dense top eigenpair of H(theta) at every edge normal: the
        # certified gap is at most half its gap and at least that over
        # 1 + 2 / (delta S), delta the least and S the sum of the inverse
        # secular poles, and its face point lies within the certified
        # radius (at most the default bound) of the midpoint, up to the
        # dense solve's own roundoff
        roundoff = 8 * np.finfo(float).eps
        for zeros in [*self.siebeck_ok(2), *k14_accepted(range(10))]:
            frame, hyp, faces = edge_faces(zeros)
            assert np.all(faces.radius <= TOL.geometry * frame.spread)
            sub = numlin.principal_submatrix(matricial.build_construction(frame.u), 1)
            normals, lines = theorems._edge_normals(hyp.edges)
            for k, ((a, b, _), delta) in enumerate(zip(hyp.edges, secular_poles(frame, hyp))):
                phase = np.exp(-1j * normals[k])
                w, v = np.linalg.eigh((phase * sub + np.conj(phase) * sub.conj().T) / 2)
                half_gap = (w[-1] - w[-2]) / 2
                assert half_gap / (1 + 2 / (np.min(delta) * np.sum(1 / delta))) <= faces.gap[k] <= (1 + 1e-6) * half_gap
                offset = abs(v[:, -1].conj() @ sub @ v[:, -1] - (a + b) / 2)
                assert offset <= faces.radius[k] + roundoff * frame.spread
                assert faces.rayleigh[k] - 8 * np.finfo(float).eps * frame.spread <= w[-1]
                assert abs(faces.rayleigh[k] - lines[k]) <= 8 * np.finfo(float).eps * frame.spread

    def test_triangle_gap_is_half_the_dense_gap(self):
        # with one other zero the secular equation is linear and its lower
        # bound is its root: the gap is half the dense one to roundoff
        rng = make_rng(29)
        for _ in range(20):
            frame, hyp, faces = edge_faces(generate_zeros(rng, 3, "siebeck-ok"))
            sub = numlin.principal_submatrix(matricial.build_construction(frame.u), 1)
            normals, _ = theorems._edge_normals(hyp.edges)
            for k, theta in enumerate(normals):
                phase = np.exp(-1j * theta)
                w = np.linalg.eigvalsh((phase * sub + np.conj(phase) * sub.conj().T) / 2)
                assert faces.gap[k] == pytest.approx((w[-1] - w[-2]) / 2, rel=1e-12, abs=0)

    def test_k14_gap_is_within_the_secular_bracket(self):
        # zeros over sixteen decades: against the secular root t found to
        # the last bit, t / (2 + 4 / (delta S)) <= gap <= t / 2
        for zeros in k14_accepted(range(40)):
            frame, hyp, faces = edge_faces(zeros)
            for gap, delta in zip(faces.gap, secular_poles(frame, hyp)):
                half_root = secular_root(delta) / 2
                assert half_root / (1 + 2 / (np.min(delta) * np.sum(1 / delta))) <= gap * (1 + 1e-12)
                assert gap <= half_root * (1 + 1e-12)

    @pytest.mark.parametrize("name", sorted(TIE_INSTANCES))
    def test_exact_ties(self, name):
        frame, _, faces = edge_faces(TIE_INSTANCES[name])
        assert np.all((faces.radius > 0) & (faces.radius <= TOL.geometry * frame.spread))

    def test_degree_200(self):
        frame, _, faces = edge_faces(generate_zeros(make_rng(133), 200, "siebeck-ok"))
        assert np.all(faces.radius <= TOL.geometry * frame.spread)

    @pytest.mark.parametrize("n", [3, 9, 33])
    def test_each_face_is_certified_on_its_own(self, n):
        # a face's certificate does not depend on the other edges of the
        # call; the degrees span numpy's 8-term pairwise block
        frame, hyp = theorems._tangency_setup(generate_zeros(make_rng(401), n, "siebeck-ok"))
        normals, _ = theorems._edge_normals(hyp.edges)
        pairs = np.array(hyp.vertex_indices) - 1
        assert normals.size >= 3
        together = fov.certify_faces(frame.u, normals, pairs)
        alone = [fov.certify_faces(frame.u, normals[k : k + 1], pairs[k : k + 1]) for k in range(normals.size)]
        for field in dataclasses.fields(together):
            np.testing.assert_array_equal(getattr(together, field.name),
                                          np.concatenate([getattr(face, field.name) for face in alone]))

    @pytest.mark.parametrize("check", [theorems.check_poor_mans_siebeck, lambda z: theorems.check_edge_preimage(z, 2)],
                             ids=["siebeck", "edge-preimage"])
    def test_an_unresolved_gap_raises_naming_the_edge(self, check, monkeypatch):
        # the gap floor raised past the whole spectrum: no factor exists
        zeros = generate_zeros(make_rng(127), 8, "siebeck-ok")
        monkeypatch.setattr(fov, "_FACE_GAP_ULPS", 1e16)
        with pytest.raises(NumericalError, match=r"face certificate: at the edge of zeros \d+ and \d+ .* by the gap "):
            check(zeros)
        assert holds_verdict_contract(check, zeros)

    def test_a_second_top_eigenvalue_is_not_certified(self, monkeypatch):
        # H(theta) with its top eigenvalue doubled at the edge normals (a
        # rank-one term on a second top vector): the face is a segment, and
        # no gap holds the second eigenvalue below the quotient
        zeros = generate_zeros(make_rng(127), 8, "siebeck-ok")
        frame, hyp = theorems._tangency_setup(zeros)
        normals, _ = theorems._edge_normals(hyp.edges)
        original = fov._toeplitz_stack

        def doubled(u):
            stack = original(u)

            def gather(thetas):
                out = stack(thetas)
                for k, th in enumerate(thetas):
                    w, v = np.linalg.eigh(out[k])
                    out[k] += (w[-1] - w[-2]) * np.outer(v[:, -2], v[:, -2].conj())
                return out

            return gather

        monkeypatch.setattr(fov, "_toeplitz_stack", doubled)
        with pytest.raises(NumericalError, match="face certificate"):
            fov.certify_faces(frame.u, normals, np.array(hyp.vertex_indices) - 1)


class TestCertificateBracket:
    """At each edge normal the dense top eigenvalue of H(theta) of A_(1)
    (``fov.sweep_supports``: the dense kernel, which only
    ``check_elliptical_range`` runs, and not the tangency checkers) lies in
    the face certificate's [rho, upper], up to the roundoff n eps ||H||
    that a quotient in floating point and the dense solve carry (||H|| <=
    spread here)."""

    @staticmethod
    def assert_bracketed(zeros):
        frame, hyp, faces = edge_faces(zeros)
        normals, _ = theorems._edge_normals(hyp.edges)
        sub = numlin.principal_submatrix(matricial.build_construction(frame.u), 1)
        dense = fov.sweep_supports(sub, normals)
        roundoff = frame.u.size * np.finfo(float).eps * frame.spread
        assert np.all(faces.rayleigh - roundoff <= dense), (faces.rayleigh - dense) / frame.spread
        assert np.all(dense <= faces.upper + roundoff), (dense - faces.upper) / frame.spread
        return frame, normals

    @pytest.mark.parametrize("n", [3, 8, 32, 64])
    def test_siebeck_ok_draws(self, n):
        for seed in range(3):
            self.assert_bracketed(generate_zeros(make_rng(130 + seed), n, "siebeck-ok"))

    @pytest.mark.parametrize("name", sorted(TIE_INSTANCES))
    def test_exact_ties(self, name):
        frame, normals = self.assert_bracketed(TIE_INSTANCES[name])
        x = np.sort(np.real(np.exp(-1j * normals)[:, None] * frame.u), axis=1)
        assert np.all(x[:, -1] - x[:, -2] <= 4 * np.finfo(float).eps)  # the ties this instance is here for

    def test_degree_200(self):
        self.assert_bracketed(generate_zeros(make_rng(133), 200, "siebeck-ok"))

    @pytest.mark.parametrize("n", [3, 4, 6, 10, 20])
    def test_k14_draws(self, n):
        # zeros over sixteen decades: the bracket is relative to the spread
        draws = [zeros for zeros in k14_accepted(range(10)) if zeros.size == n]
        assert draws
        for zeros in draws:
            self.assert_bracketed(zeros)


class TestContainment:
    """Where ``siebeck`` passes, F(A_(1)) lies in the hull at every angle:
    the dense 720-angle sweep of A_(1) stays within the hull's support, up
    to the dense solve's roundoff n eps times the spread."""

    @staticmethod
    def assert_sweep_within_the_hull(zeros):
        assert theorems.check_poor_mans_siebeck(zeros).verdict == theorems.PASS
        thetas = 2 * np.pi * np.arange(720) / 720
        frame = theorems._frame(zeros, 3)
        sub = numlin.principal_submatrix(matricial.build_construction(frame.u), 1)
        hull = np.max(np.real(np.exp(-1j * thetas)[:, None] * frame.u), axis=1)
        excess = np.max(fov.sweep_supports(sub, thetas) - hull)
        assert excess <= frame.u.size * np.finfo(float).eps * frame.spread, excess / frame.spread

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 32])
    def test_dense_sweep_within_the_hull_where_siebeck_passes(self, n):
        rng = make_rng(140 + n)
        for _ in range(4):
            self.assert_sweep_within_the_hull(generate_zeros(rng, n, "siebeck-ok"))

    @pytest.mark.parametrize("n", [3, 4, 6, 10, 20])
    def test_dense_sweep_within_the_hull_on_k14_draws(self, n):
        # zeros over sixteen decades, four draws the tangency hypotheses accept
        draws = [zeros for zeros in k14_accepted(range(40)) if zeros.size == n][:4]
        assert len(draws) == 4
        for zeros in draws:
            self.assert_sweep_within_the_hull(zeros)


FLAGS_UNMET = (("unmet_hypothesis", "hypothesis flags not satisfied"),
               ("simple_vertex_eigenvalues", False), ("strict_half_plane", False))


class TestPreconditionsUnmet:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: theorems.critical_points_oracle([1.0]),
            lambda: theorems.check_siebeck_hypotheses([0, 1, 2]),
            lambda: geom.steiner_inellipse(0, 1, 2),
            lambda: figures.figure_layers([0, 1, 1j, 2], "bgm"),
        ],
        ids=["oracle-one-zero", "hypotheses-collinear", "inellipse-collinear", "bgm-figure-four-zeros"],
    )
    def test_raised_where_the_hypothesis_is_tested(self, call):
        with pytest.raises(PreconditionsUnmet):
            call()

    @pytest.mark.parametrize(
        "checker, args, details",
        [
            (theorems.check_main_theorem, ([1.0],), (("unmet_hypothesis", "need at least 2 zeros"),)),
            (theorems.check_gauss_lucas, ([1.0],), (("unmet_hypothesis", "need at least 2 zeros"),)),
            (theorems.check_interlacing, ([1.0],), (("unmet_hypothesis", "need at least 2 zeros"),)),
            (theorems.check_poor_mans_siebeck, ([0, 1],), (("unmet_hypothesis", "need at least 3 zeros"),)),
            (theorems.check_edge_preimage, ([0, 1], 1), (("unmet_hypothesis", "need at least 3 zeros"),)),
            (theorems.check_bgm, ([0, 1, 1j, 2],), (("unmet_hypothesis", "exactly 3 zeros required"),)),
            (theorems.check_poor_mans_siebeck, ([0, 1, 2],), (("unmet_hypothesis", "fewer than 3 hull vertices"),)),
            (theorems.check_edge_preimage, ([0, 1, 2], 1), (("unmet_hypothesis", "fewer than 3 hull vertices"),)),
            (theorems.check_poor_mans_siebeck, ([0, 0, 1, 1j],), FLAGS_UNMET),
            (theorems.check_edge_preimage, ([0, 0, 1, 1j], 1), FLAGS_UNMET),
            (theorems.check_edge_preimage, (roots_of_unity(4), (1, 3)), (("unmet_hypothesis", "(1, 3) is not a hull edge"),)),
        ],
        ids=["main", "gauss-lucas", "interlacing", "siebeck-two", "edge-preimage-two", "bgm-four",
             "siebeck-segment", "edge-preimage-segment", "siebeck-flags", "edge-preimage-flags", "edge-preimage-pair"],
    )
    def test_each_checker_reports_it_once(self, checker, args, details):
        report = checker(*args)
        assert report.verdict == theorems.PRECONDITIONS_UNMET
        assert report.details == details
        assert math.isnan(report.max_violation)


def test_tolerances_used_are_the_verification_bounds():
    # every TOL field is a bound some checker applies and echoes, and every
    # echoed bound but the hypotheses' radius is a TOL field
    triangle = [0, 2, 2j]
    reports = [
        theorems.check_main_theorem(triangle),
        theorems.check_gauss_lucas(triangle),
        theorems.check_interlacing([0, 1, 3]),
        theorems.check_poor_mans_siebeck(triangle),
        theorems.check_bgm(triangle),
        theorems.check_elliptical_range(np.array([[0, 1], [0, 0]])),
        theorems.check_edge_preimage(triangle, 1),
    ]
    assert all(report.verdict == theorems.PASS for report in reports)
    used = set().union(*(report.tolerances_used for report in reports))
    assert used - {"hypotheses"} == {field.name for field in dataclasses.fields(TOL)}


class TestVerdictInvariants:
    def test_unmet_hypotheses_never_fail(self):
        degenerate = [
            theorems.check_main_theorem([1.0]),
            theorems.check_gauss_lucas([1.0]),
            theorems.check_interlacing([1j, 0]),
            theorems.check_poor_mans_siebeck([0, 1]),
            theorems.check_bgm([0, 1]),
            theorems.check_edge_preimage([0, 1, 2], (1, 2)),
        ]
        for report in degenerate:
            assert report.verdict == theorems.PRECONDITIONS_UNMET
            assert dict(report.details).get("unmet_hypothesis")

    def test_translation_scaling_equivariance(self):
        rng = make_rng(117)
        zeros = generate_zeros(rng, 5, "siebeck-ok")
        quadrilateral = np.array([0, 1, 1j, -1 + 0.5j])  # K4 at scale 1e-8
        alpha, beta = 0.8 - 0.3j, 1.5 + 0.25j
        for base in (zeros, quadrilateral):
            for mapped in (alpha * base + beta, 1e6 + base, 1e-8 * base, 1e8 * base, 1e10 * base):
                for checker in (
                    theorems.check_main_theorem,
                    theorems.check_gauss_lucas,
                    theorems.check_poor_mans_siebeck,
                ):
                    assert checker(base).verdict == checker(mapped).verdict == theorems.PASS
                edges = len(theorems.check_siebeck_hypotheses(mapped).vertex_indices)
                assert edges == len(theorems.check_siebeck_hypotheses(base).vertex_indices)
                for k in range(1, edges + 1):
                    report = theorems.check_edge_preimage(mapped, k)
                    assert report.verdict == theorems.PASS, (k, report.details)
        # bgm on a triangle, and interlacing on real zeros under real maps
        triangle, real = zeros[:3], zeros.real
        for mapped in (alpha * triangle + beta, 1e6 + triangle, 1e-8 * triangle, 1e10 * triangle):
            assert theorems.check_bgm(triangle).verdict == theorems.check_bgm(mapped).verdict == theorems.PASS
        for mapped in (2.5 * real - 0.3, 1e6 + real, 1e-8 * real, 1e10 * real):
            report = theorems.check_interlacing(mapped)
            assert theorems.check_interlacing(real).verdict == report.verdict == theorems.PASS, report.details

    @pytest.mark.parametrize("k", [-560, -60, 0, 60, 532])
    def test_power_of_two_equivariance(self, k):
        # scaling by 2**k moves only the exact pre-scale of the frame, so each
        # verdict is the same and each reported length exactly 2**k as large;
        # at 2**-560 and 2**532 squared lengths leave the float range
        zeros = generate_zeros(make_rng(117), 5, "siebeck-ok")
        assert len(theorems.check_siebeck_hypotheses(zeros).vertex_indices) == 5

        def reports(z, edges):
            out = [
                checker(z)
                for checker in (
                    theorems.check_main_theorem,
                    theorems.check_gauss_lucas,
                    theorems.check_interlacing,
                    theorems.check_poor_mans_siebeck,
                    theorems.check_bgm,
                )
            ]
            return out + [theorems.check_edge_preimage(z, e) for e in range(1, edges + 1)]

        # every hull edge of the pentagon and the triangle; the real zeros have
        # a collinear hull, so edge-preimage reports that once
        for base, edges in ((zeros, 5), (zeros[:3], 3), (zeros.real.astype(complex), 1)):
            scaled = np.ldexp(base.real, k) + 1j * np.ldexp(base.imag, k)
            for before, after in zip(reports(base, edges), reports(scaled, edges), strict=True):
                assert before.verdict == after.verdict, (before.theorem, after.details)
                assert before.tolerances_used == after.tolerances_used
                if math.isnan(before.max_violation):
                    assert math.isnan(after.max_violation), before.theorem
                else:
                    assert after.max_violation == np.ldexp(before.max_violation, k), before.theorem

    def test_interlacing_scale_invariant(self):
        zeros = random_zeros(make_rng(123), 7, real=True)
        for scale in (1e-8, 1.0, 1e10):
            report = theorems.check_interlacing(scale * zeros)
            assert report.verdict == theorems.PASS, (scale, report.details)

    def test_gauss_lucas_margin_scale_invariant(self):
        # a negative tolerance asks for a margin inside the hull; with a
        # bound relative to the spread the verdict cannot depend on the scale
        zeros = generate_zeros(make_rng(125), 7)
        margin = theorems.check_gauss_lucas(zeros).max_violation / geom.point_spread(zeros)
        assert margin < 0
        for scale in (1e-8, 1.0, 1e10):
            assert theorems.check_gauss_lucas(scale * zeros, tol=0.5 * margin).verdict == theorems.PASS
            assert theorems.check_gauss_lucas(scale * zeros, tol=2.0 * margin).verdict == theorems.FAIL

    def test_real_scaling_preserves_interlacing(self):
        rng = make_rng(118)
        zeros = random_zeros(rng, 6, real=True)
        report = theorems.check_interlacing(2.5 * zeros - 0.3)
        assert report.verdict == theorems.PASS


class TestKnownDefectRegressions:
    """Instances on which the companion-matrix oracle gave a false fail."""

    def test_k1_degree_100(self):
        zeros = generate_zeros(make_rng(1), 100)  # the ROADMAP's instance
        for checker in (theorems.check_main_theorem, theorems.check_gauss_lucas):
            report = checker(zeros)
            assert report.verdict == theorems.PASS, report.details

    def test_k2_translated_quadrilateral(self):
        zeros = 1e6 + np.array([0, 1, 1j, -1 + 0.5j])
        for checker in (theorems.check_main_theorem, theorems.check_gauss_lucas):
            report = checker(zeros)
            assert report.verdict == theorems.PASS, report.details

    def test_k7_bgm_bounds_are_relative_to_the_spread(self):
        # with absolute bounds these were all preconditions_unmet ("inellipse
        # degenerate") at 1e-8 and all fail at 1e10
        rng = make_rng(3)
        triangles = [random_zeros(rng, 3) for _ in range(20)]
        for scale in (1e-8, 1.0, 1e10):
            for triangle in triangles:
                report = theorems.check_bgm(scale * triangle)
                assert report.verdict == theorems.PASS, (scale, report.details)

    def test_sum_of_the_zeros_past_the_float_range(self):
        # every zero is finite, but their sum and their spread are not
        zeros = np.array([1e308, 1e308, -1e308])
        crit = theorems.critical_points_oracle(zeros)
        assert crit.tolist() == [-1e308 / 3, 1e308]
        for checker in (theorems.check_main_theorem, theorems.check_gauss_lucas, theorems.check_interlacing):
            report = checker(zeros)
            assert report.verdict == theorems.PASS, report.details
        report = theorems.check_poor_mans_siebeck(zeros)
        assert dict(report.details)["unmet_hypothesis"] == "fewer than 3 hull vertices"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [12, 40])
    def test_k11_three_real_zeros_within_4e_15(self, n):
        # one start per gap gives the cluster of three zeros its two critical
        # points; one start next to each zero gave it three
        for seed in range(40):
            zeros = three_close_real_zeros(seed, n)
            for checker in (theorems.check_interlacing, theorems.check_main_theorem):
                report = checker(zeros)
                assert report.verdict == theorems.PASS, (seed, checker.__name__, report.details)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [100, 200])
    def test_k11_real_zeros_over_sixteen_decades(self, n):
        rng = np.random.default_rng(0)
        zeros = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        for checker in (theorems.check_interlacing, theorems.check_main_theorem):
            report = checker(zeros)
            assert report.verdict == theorems.PASS, (checker.__name__, report.details)

    def test_k14_siebeck(self):
        assert holds_verdict_contract(theorems.check_poor_mans_siebeck, k14_zeros(1, 4))

    def test_k14_edge_preimage(self):
        assert holds_verdict_contract(theorems.check_edge_preimage, k14_zeros(1, 4), 1)

    def test_k14_every_accepted_draw_passes(self):
        # zeros whose sizes span 16 decades: F(A_(1)) is nearly a segment
        # next to the contact, so probes along the edge had margins at
        # roundoff and counted as members (119 false fails here); the face
        # at each edge normal is one point, certified on all 669 draws
        accepted = 0
        for zeros in k14_accepted():
            accepted += 1
            for report in (theorems.check_poor_mans_siebeck(zeros), theorems.check_edge_preimage(zeros, 1)):
                assert report.verdict == theorems.PASS, (report.theorem, zeros, report.details)
        assert accepted == 669

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_k6_interlacing_real_zeros(self, n):
        zeros = generate_zeros(make_rng(124), n, "real")
        report = theorems.check_interlacing(zeros)
        assert report.verdict == theorems.PASS, report.details


def _square(rng, n):
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


# Zeros the CLI accepts, each family a function of a numpy generator and n.
CONTRACT_FAMILIES = {
    "square": _square,
    "real": lambda rng, n: rng.uniform(-1, 1, n) + 0j,
    "equal-pairs": lambda rng, n: np.repeat(_square(rng, (n + 1) // 2), 2)[:n],
    "slanted-collinear": lambda rng, n: (0.3 + 0.4j) + (1 + 2j) * rng.uniform(-1, 1, n),
    "offset-1e8": lambda rng, n: 1e8 + _square(rng, n),
    "scaled-1e-200": lambda rng, n: 1e-200 * _square(rng, n),
    "scaled-1e200": lambda rng, n: 1e200 * _square(rng, n),
    "all-equal": lambda rng, n: np.full(n, _square(rng, 1)[0]),
    "axes": lambda rng, n: rng.permutation(np.concatenate([[1, -1, 1j, -1j], np.zeros(max(n - 4, 0))])[:n]),
}
CONTRACT_CHECKS = {
    "main": theorems.check_main_theorem,
    "gauss-lucas": theorems.check_gauss_lucas,
    "interlacing": theorems.check_interlacing,
    "siebeck": theorems.check_poor_mans_siebeck,
    "edge-preimage": lambda zeros: theorems.check_edge_preimage(zeros, 1),
    "bgm": theorems.check_bgm,
}


def test_verdict_contract_sweep():
    # three draws of every family at every degree, through six checkers:
    # each gives a report that passes or names an unmet hypothesis, never a
    # fail or an exception (the open K-numbers are in TestOpenDefects)
    rng = np.random.default_rng(5)
    broken = []
    for n in (2, 3, 4, 5, 8, 13):
        for family, draw in CONTRACT_FAMILIES.items():
            for _ in range(3):
                zeros = draw(rng, n)
                for name, check in CONTRACT_CHECKS.items():
                    try:
                        report = check(zeros)
                    except Exception as exc:  # the contract admits none
                        broken.append((n, family, name, repr(exc)))
                        continue
                    if not (isinstance(report, theorems.CheckReport) and report.verdict in (theorems.PASS, theorems.PRECONDITIONS_UNMET)):
                        broken.append((n, family, name, report))
    assert not broken, broken


def holds_verdict_contract(checker, zeros, *args) -> bool:
    """The verdict is never fail; a NumericalError is exit 4, which the
    contract allows when neither route resolves the answer."""
    try:
        return checker(zeros, *args).verdict != theorems.FAIL
    except NumericalError:
        return True


class TestOpenDefects:
    """The ROADMAP's open defects, each on its instance. They fail today; a
    fix makes its test pass, and the strict xfail then fails the suite until
    the marker goes."""

    @pytest.mark.xfail(strict=True, reason="K11: a tight cluster of complex zeros takes a critical point from elsewhere")
    def test_k11_disk_cluster_of_three(self):
        assert holds_verdict_contract(theorems.check_main_theorem, k11_zeros())

    @pytest.mark.xfail(strict=True, reason="K13: three points start at the 1e-6 circle, which holds two critical points")
    def test_k13_two_circles(self):
        n, outer = 6, 3
        inner = 1e-6 * np.exp(2j * np.pi * (np.arange(n - outer) + 0.3) / (n - outer))
        zeros = np.concatenate([roots_of_unity(outer), inner])
        assert holds_verdict_contract(theorems.check_main_theorem, zeros)

    @pytest.mark.xfail(strict=True, reason="K15: neither route resolves critical points split by roundoff")
    def test_k15_perturbed_roots_of_unity(self):
        rng = np.random.default_rng(0)
        zeros = roots_of_unity(20) + 1e-12 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
        assert holds_verdict_contract(theorems.check_main_theorem, zeros)
