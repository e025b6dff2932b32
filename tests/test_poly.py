import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_box, evaluate, scipy_bottleneck
from polycrit import poly
from polycrit.errors import NumericalError
from polycrit.rng import Xoshiro256StarStar, random_zeros


def elementary_symmetric(roots):
    """Oracle: coefficients of the monic polynomial via elementary
    symmetric sums, independent of convolution order."""
    n = len(roots)
    coeffs = []
    for k in range(n + 1):
        total = sum(np.prod(c) for c in itertools.combinations(roots, n - k))
        coeffs.append(((-1) ** (n - k)) * total)
    return np.array(coeffs, dtype=complex)


class TestFromRoots:
    def test_difference_of_squares(self):
        p = poly.from_roots([1, -1])
        np.testing.assert_allclose(p.coeffs, [-1, 0, 1], atol=1e-15)

    def test_triple_zero_root(self):
        p = poly.from_roots([0, 0, 0])
        np.testing.assert_allclose(p.coeffs, [0, 0, 0, 1], atol=0)

    def test_one_two_three_vs_symmetric_sum_oracle(self):
        p = poly.from_roots([1, 2, 3])
        np.testing.assert_allclose(p.coeffs, [-6, 11, -6, 1], atol=1e-13)
        np.testing.assert_allclose(p.coeffs, elementary_symmetric([1, 2, 3]), atol=1e-13)

    def test_random_vs_symmetric_sum_oracle(self):
        rng = Xoshiro256StarStar(101)
        roots = random_zeros(rng, 5)
        p = poly.from_roots(roots)
        np.testing.assert_allclose(p.coeffs, elementary_symmetric(roots), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            poly.from_roots([])


class TestDerivative:
    def test_power_rule(self):
        p = poly.derivative(poly.Polynomial([-1, 0, 1]))
        np.testing.assert_allclose(p.coeffs, [0, 2], atol=0)

    def test_monomial(self):
        p = poly.derivative(poly.Polynomial([0, 0, 0, 1]))
        np.testing.assert_allclose(p.coeffs, [0, 0, 3], atol=0)

    def test_linearity(self):
        p = poly.derivative(poly.Polynomial([-6, 11, -6, 1]))
        np.testing.assert_allclose(p.coeffs, [11, -12, 3], atol=0)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            poly.derivative(poly.Polynomial([5.0]))


class TestEvaluate:
    def test_root(self):
        assert evaluate(poly.Polynomial([-1, 0, 1]), 1.0) == 0

    def test_monomial(self):
        assert evaluate(poly.Polynomial([0, 0, 0, 1]), 2.0) == 8

    def test_random_vs_power_sum_oracle(self):
        rng = Xoshiro256StarStar(77)
        coeffs = np.array([complex_box(rng) for _ in range(7)])
        coeffs[-1] += 2.0  # keep the leading coefficient away from zero
        p = poly.Polynomial(coeffs)
        z = complex_box(rng)
        oracle = sum(c * z**k for k, c in enumerate(coeffs))
        assert abs(evaluate(p, z) - oracle) <= 1e-12 * (1 + abs(oracle))

    def test_array_argument(self):
        p = poly.Polynomial([-1, 0, 1])
        np.testing.assert_allclose(evaluate(p, np.array([1.0, -1.0])), [0, 0], atol=1e-15)


class TestRoots:
    def test_known_quadratic(self):
        r = poly.roots(poly.Polynomial([1, 0, 1]))  # t^2 + 1
        assert poly.multiset_match(r, [1j, -1j], 1e-12)

    def test_quadratic_formula_oracle(self):
        # 3t^2 - 6t + 2: roots 1 -/+ 1/sqrt(3) by the quadratic formula
        r = poly.roots(poly.Polynomial([2, -6, 3]))
        expected = [1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)]
        assert poly.multiset_match(r, expected, 1e-12)

    def test_round_trip_six_random_points(self):
        rng = Xoshiro256StarStar(31)
        roots = random_zeros(rng, 6)
        recovered = poly.roots(poly.from_roots(roots))
        report = poly.multiset_match(recovered, roots, 1e-7)
        assert report.matched, report

    def test_residual_bound(self):
        rng = Xoshiro256StarStar(33)
        for _ in range(10):
            roots = random_zeros(rng, 8)
            p = poly.from_roots(roots)
            lead = abs(p.coeffs[-1])
            for lam in poly.roots(p):
                bound = 1e-8 * (1 + abs(lam)) ** p.degree * lead
                assert abs(evaluate(p, lam)) <= bound

    def test_linear(self):
        np.testing.assert_allclose(poly.roots(poly.Polynomial([-3, 1])), [3.0], atol=1e-15)

    def test_tiny_leading_coefficient_rejected(self):
        with pytest.raises(NumericalError):
            poly.roots(poly.Polynomial([1.0, 1e-305]))

    # The derivative of (t - lam)**m has lam with multiplicity m - 1; a
    # multiplicity-mu root is determined by the coefficients only up to
    # ~eps**(1/mu) in double precision, so the tolerance must widen with m.
    @pytest.mark.parametrize("m,tol", [(2, 1e-12), (3, 1e-7), (4, 1e-4)])
    def test_derivative_of_repeated_root(self, m, tol):
        rng = Xoshiro256StarStar(400 + m)
        lam = rng.unit_disk()
        p = poly.from_roots([lam] * m)
        crit = poly.roots(poly.derivative(p))
        assert np.max(np.abs(crit - lam)) <= tol


class TestMultisetMatch:
    def test_permutation(self):
        assert poly.multiset_match([1, 2], [2, 1], 1e-9).matched

    def test_cardinality_mismatch(self):
        report = poly.multiset_match([0], [0, 0], 1e-9)
        assert not report.matched
        assert report.max_distance == math.inf

    def test_exact_pairing_of_near_coincident(self):
        report = poly.multiset_match([0, 1e-10], [1e-10, 0], 1e-9)
        assert report.matched
        assert report.max_distance == 0.0

    def test_greedy_trap(self):
        # optimal pairing is (0->0.9, 1->1.1); nearest-first pairing of 1
        # to 0.9 would leave 0 at distance 1.1
        report = poly.multiset_match([0.0, 1.0], [1.1, 0.9], 1.0)
        assert report.matched
        assert abs(report.max_distance - 0.9) <= 1e-12

    @given(st.integers(0, 2**32), st.integers(1, 8))
    def test_symmetry(self, seed, n):
        rng = Xoshiro256StarStar(seed)
        a = random_zeros(rng, n)
        b = random_zeros(rng, n)
        t = 0.5
        forth, back = poly.multiset_match(a, b, t), poly.multiset_match(b, a, t)
        assert forth.matched == back.matched
        assert forth.max_distance == back.max_distance

    def test_empty(self):
        assert poly.multiset_match([], [], 0.0) == poly.MatchReport(True, 0.0, ())


def brute_force_bottleneck(cost):
    """The least largest cost over all pairings, by enumeration."""
    perms = np.array(list(itertools.permutations(range(cost.shape[0]))))
    return cost[np.arange(cost.shape[0]), perms].max(axis=1).min()


# points on a coarse grid, so that equal points and equal distances occur
grid_points = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=7)


class TestMatchOptimality:
    @settings(max_examples=200, derandomize=True)
    @given(grid_points, st.randoms(use_true_random=False), st.booleans())
    def test_max_distance_is_the_brute_force_bottleneck(self, points, shuffle, fast_path):
        a = np.array([complex(x, y) for x, y in points])
        b = a.copy()
        shuffle.shuffle(b)
        b = b + np.array([complex(shuffle.uniform(-0.6, 0.6), shuffle.uniform(-0.6, 0.6)) for _ in b])
        b[: shuffle.randint(0, b.size)] = b[0]  # duplicates on one side
        with pytest.MonkeyPatch.context() as mp:
            if not fast_path:
                mp.setattr(poly, "_nearest_pairing", lambda cost: None)
            match = poly.multiset_match(a, b, math.inf)
        rows, cols = np.array(match.pairs).T
        assert sorted(cols) == list(range(a.size))
        cost = np.abs(a[:, None] - b[None, :])
        assert match.max_distance == brute_force_bottleneck(cost)
        assert match.max_distance == np.max(cost[rows, cols])

    @pytest.mark.parametrize("n", [10, 50, 200])
    @pytest.mark.parametrize("ties", [False, True])
    def test_max_distance_matches_scipy(self, n, ties):
        rng = np.random.default_rng(58 + n)
        cost = rng.integers(0, 4, (n, n)).astype(float) if ties else rng.uniform(0, 1, (n, n))
        assign = poly._bottleneck_pairing(cost)
        assert sorted(assign) == list(range(n))
        assert np.max(cost[np.arange(n), assign]) == scipy_bottleneck(cost)

    def test_random_pairs_match_at_their_bottleneck(self):
        # 2,000 sets of 3-5 points and their displaced copies: on 347 of
        # them the pairing of least total distance exceeds the bottleneck
        # value
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(3, 6))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = a + 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            bound = brute_force_bottleneck(np.abs(a[:, None] - b[None, :]))
            assert poly.multiset_match(a, b, bound).matched

    def test_copies_of_a_mean_pair_with_copies(self):
        # copies of a cluster's mean share one nearest point on the other side
        match = poly.multiset_match([1, 0, 1, 0j], [0, 1, 0, 1 + 0j], 0.0)
        assert match.matched and match.max_distance == 0.0
        assert not poly.multiset_match([0, 0j], [1e-9, 1 + 0j], 0.5).matched

    def test_a_long_augmenting_path_needs_no_recursion(self):
        # row i reaches columns i and i + 1 and the last row only column 0:
        # the last row's augmenting path runs through every other row
        n = 1200
        cost = np.full((n, n), 2.0)
        cost[np.arange(n - 1), np.arange(n - 1)] = cost[np.arange(n - 1), np.arange(1, n)] = 1.0
        cost[n - 1, 0] = 1.0
        assert poly._nearest_pairing(cost) is None
        assign = poly._bottleneck_pairing(cost)
        assert assign.tolist() == [*range(1, n), 0]

    def test_no_perfect_matching(self):
        # two rows that reach only column 0 cannot both be matched; a row that
        # also reaches column 1 moves there to free column 0
        assert poly._perfect_matching(np.array([[True, False], [True, False]]), np.array([0, 0])) is None
        adj = np.array([[True, True, False], [True, False, False], [True, False, False]])
        assert poly._perfect_matching(adj, np.array([0, 0, 0])) is None
        assert poly._perfect_matching(adj[:2, :2], np.array([0, 0])).tolist() == [1, 0]


def assert_bottleneck_pairing(cost, value):
    """``poly._bottleneck_pairing`` pairs every row with its own column
    and its largest cost is ``value``."""
    n = cost.shape[0]
    assign = poly._bottleneck_pairing(cost)
    assert sorted(assign.tolist()) == list(range(n))
    assert np.max(cost[np.arange(n), assign]) == value


class TestBottleneckPairing:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40, 99])
    def test_same_bottleneck_as_scipy(self, n):
        rng = np.random.default_rng(59 + n)
        points = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        near = points[rng.permutation(n)] + 1e-15 * rng.standard_normal(n)
        for cost in (
            rng.uniform(0, 1, (n, n)),
            rng.integers(0, 3, (n, n)).astype(float),  # ties
            np.abs(points[:, None] - near[None, :]),
        ):
            assert_bottleneck_pairing(cost, scipy_bottleneck(cost))

    def test_matches_brute_force(self):
        rng = Xoshiro256StarStar(55)
        for n in range(1, 8):
            cost = np.array([[rng.uniform() for _ in range(n)] for _ in range(n)])
            assert_bottleneck_pairing(cost, brute_force_bottleneck(cost))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_ties_match_brute_force(self, n):
        rng = np.random.default_rng(57 + n)
        for _ in range(5):
            cost = rng.integers(0, 3, (n, n)).astype(float)  # many bottleneck pairings
            assert_bottleneck_pairing(cost, brute_force_bottleneck(cost))


class TestInvariants:
    def test_round_trip_sizes_up_to_ten(self):
        rng = Xoshiro256StarStar(808)
        for n in range(1, 11):
            roots = random_zeros(rng, n)
            rec = poly.roots(poly.from_roots(roots))
            assert poly.multiset_match(rec, roots, 1e-7).matched

    def test_evaluate_at_roots_bound(self):
        rng = Xoshiro256StarStar(909)
        roots = random_zeros(rng, 9)
        p = poly.from_roots(roots)
        for s in roots:
            bound = 1e-9 * np.prod([1 + abs(s - lam) for lam in roots])
            assert abs(evaluate(p, s)) <= bound

    def test_invalid_polynomials_rejected(self):
        with pytest.raises(ValueError):
            poly.Polynomial([])
        with pytest.raises(ValueError):
            poly.Polynomial([1.0, 0.0])
        with pytest.raises(ValueError):
            poly.Polynomial([np.nan, 1.0])
