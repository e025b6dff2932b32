import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert poly.evaluate(poly.Polynomial([-1, 0, 1]), 1.0) == 0

    def test_monomial(self):
        assert poly.evaluate(poly.Polynomial([0, 0, 0, 1]), 2.0) == 8

    def test_random_vs_power_sum_oracle(self):
        rng = Xoshiro256StarStar(77)
        coeffs = np.array([rng.complex_box() for _ in range(7)])
        coeffs[-1] += 2.0  # keep the leading coefficient away from zero
        p = poly.Polynomial(coeffs)
        z = rng.complex_box()
        oracle = sum(c * z**k for k, c in enumerate(coeffs))
        assert abs(poly.evaluate(p, z) - oracle) <= 1e-12 * (1 + abs(oracle))

    def test_array_argument(self):
        p = poly.Polynomial([-1, 0, 1])
        np.testing.assert_allclose(poly.evaluate(p, np.array([1.0, -1.0])), [0, 0], atol=1e-15)


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
                assert abs(poly.evaluate(p, lam)) <= bound

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


def brute_force_min_total(cost):
    n = cost.shape[0]
    return min(
        sum(cost[i, pi[i]] for i in range(n)) for pi in itertools.permutations(range(n))
    )


def scalar_assignment(cost):
    """Reference for ``poly.min_cost_assignment``: the same potentials
    method with a column scan in Python."""
    n = cost.shape[0]
    u, v = [0.0] * (n + 1), [0.0] * (n + 1)
    match, way = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        match[0], j0 = i, 0
        minv, used = [math.inf] * (n + 1), [False] * (n + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = match[j0], math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    assign = [0] * n
    for j in range(1, n + 1):
        assign[match[j] - 1] = j - 1
    return assign


class TestAssignment:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40, 99])
    def test_same_assignment_as_the_scalar_scan(self, n):
        rng = np.random.default_rng(59 + n)
        points = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        near = points[rng.permutation(n)] + 1e-15 * rng.standard_normal(n)
        for cost in (
            rng.uniform(0, 1, (n, n)),
            rng.integers(0, 3, (n, n)).astype(float),  # ties
            np.abs(points[:, None] - near[None, :]),
        ):
            assert poly.min_cost_assignment(cost) == scalar_assignment(cost)

    def test_matches_brute_force_totals(self):
        rng = Xoshiro256StarStar(55)
        for n in range(1, 8):
            cost = np.array([[rng.uniform() for _ in range(n)] for _ in range(n)])
            assign = poly.min_cost_assignment(cost)
            assert sorted(assign) == list(range(n))
            total = sum(cost[i, assign[i]] for i in range(n))
            assert abs(total - brute_force_min_total(cost)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 8))
    def test_ties_match_brute_force_totals(self, n):
        rng = np.random.default_rng(57 + n)
        for _ in range(5):
            cost = rng.integers(0, 3, (n, n)).astype(float)  # many optimal assignments
            assign = poly.min_cost_assignment(cost)
            assert sorted(assign) == list(range(n))
            assert cost[np.arange(n), assign].sum() == brute_force_min_total(cost)

    @pytest.mark.parametrize("n", [10, 50, 200])
    @pytest.mark.parametrize("ties", [False, True])
    def test_total_matches_scipy(self, n, ties):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(58 + n)
        cost = rng.integers(0, 4, (n, n)).astype(float) if ties else rng.uniform(0, 1, (n, n))
        assign = poly.min_cost_assignment(cost)
        assert sorted(assign) == list(range(n))
        rows, cols = optimize.linear_sum_assignment(cost)
        assert cost[np.arange(n), assign].sum() == pytest.approx(cost[rows, cols].sum(), rel=1e-12, abs=0.0)

    def test_empty(self):
        assert poly.min_cost_assignment(np.zeros((0, 0))) == []


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
        assert poly.multiset_match(a, b, t).matched == poly.multiset_match(b, a, t).matched


def brute_force_min_totals(cost):
    perms = np.array(list(itertools.permutations(range(cost.shape[0]))))
    return cost[np.arange(cost.shape[0]), perms].sum(axis=1).min()


# points on a coarse grid, so that equal points and equal distances occur
grid_points = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=7)


class TestMatchOptimality:
    @settings(max_examples=200, derandomize=True)
    @given(grid_points, st.randoms(use_true_random=False), st.booleans())
    def test_total_is_the_brute_force_minimum(self, points, shuffle, fast_path):
        a = np.array([complex(x, y) for x, y in points])
        b = a.copy()
        shuffle.shuffle(b)
        b = b + np.array([complex(shuffle.uniform(-0.6, 0.6), shuffle.uniform(-0.6, 0.6)) for _ in b])
        b[: shuffle.randint(0, b.size)] = b[0]  # duplicates on one side
        with pytest.MonkeyPatch.context() as mp:
            if not fast_path:
                mp.setattr(poly, "_nearest_pairing", lambda a, b: None)
            match = poly.multiset_match(a, b, math.inf)
        rows, cols = np.array(match.pairs).T
        assert sorted(cols) == list(range(a.size))
        cost = np.abs(a[:, None] - b[None, :])
        assert cost[rows, cols].sum() == pytest.approx(brute_force_min_totals(cost), rel=1e-12, abs=1e-12)
        assert match.max_distance == np.max(cost[rows, cols])

    def test_nearest_pairing_is_the_hungarian_pairing(self):
        rng = Xoshiro256StarStar(56)
        for n in (1, 2, 5, 30):
            a = random_zeros(rng, n)
            b = a + 1e-3 * random_zeros(rng, n)
            cost = np.abs(a[:, None] - b[None, :])
            assert poly._nearest_pairing(a, b).tolist() == poly.min_cost_assignment(cost)

    def test_groups_of_equal_points_pair_in_index_order(self):
        assert poly._nearest_pairing(np.array([1, 0, 1, 0j]), np.array([0, 1, 0, 1 + 0j])).tolist() == [1, 0, 3, 2]
        # two copies cannot both take the single nearest point
        assert poly._nearest_pairing(np.array([0, 0j]), np.array([1e-9, 1 + 0j])) is None


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
            assert abs(poly.evaluate(p, s)) <= bound

    def test_invalid_polynomials_rejected(self):
        with pytest.raises(ValueError):
            poly.Polynomial([])
        with pytest.raises(ValueError):
            poly.Polynomial([1.0, 0.0])
        with pytest.raises(ValueError):
            poly.Polynomial([np.nan, 1.0])
