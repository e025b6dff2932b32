import numpy as np
import pytest

from conftest import evaluate, make_rng, random_hermitian, random_matrix
from polycrit import numlin, poly


def faddeev_leverrier(a):
    """Oracle: characteristic coefficients by the trace recursion.
    Returns ascending-degree coefficients of the monic polynomial."""
    n = a.shape[0]
    descending = [1.0 + 0.0j]  # t^n coefficient
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + descending[-1] * np.eye(n)
        descending.append(-np.trace(a @ m) / k)
    return np.array(descending[::-1])


class TestAdjoint:
    def test_scalar_conjugation(self):
        np.testing.assert_array_equal(numlin.adjoint([[1j]]), [[-1j]])

    def test_real_symmetric_fixed(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_array_equal(numlin.adjoint(m), m)

    def test_transpose(self):
        np.testing.assert_array_equal(
            numlin.adjoint([[0, 1], [0, 0]]), [[0, 0], [1, 0]]
        )

    def test_involutive_exactly(self):
        rng = make_rng(22)
        m = random_matrix(rng, 4)
        np.testing.assert_array_equal(numlin.adjoint(numlin.adjoint(m)), m)


class TestGeneralEigvals:
    def test_diagonal(self):
        vals = numlin.general_eigvals(np.diag([1 + 1j, 2.0]))
        assert poly.multiset_match(vals, [1 + 1j, 2], 1e-12).matched

    def test_nilpotent(self):
        vals = numlin.general_eigvals(np.array([[0, 1], [0, 0]], dtype=complex))
        np.testing.assert_allclose(vals, [0, 0], atol=1e-12)

    def test_companion_against_polynomial_residual(self):
        # companion of t^2 - 3t + 2, eigenvalues must be near-roots
        comp = poly.companion_matrix(poly.Polynomial([2, -3, 1]))
        vals = numlin.general_eigvals(comp)
        p = poly.Polynomial([2, -3, 1])
        for lam in vals:
            assert abs(evaluate(p, lam)) <= 1e-9
        assert poly.multiset_match(vals, [1, 2], 1e-9).matched

    def test_smallest_singular_value_bound(self):
        rng = make_rng(24)
        a = random_matrix(rng, 6)
        nf = numlin.frobenius(a)
        for lam in numlin.general_eigvals(a):
            sigma = np.linalg.svd(a - lam * np.eye(6), compute_uv=False)[-1]
            assert sigma <= 1e-8 * nf


class TestCharPoly:
    def test_diagonal(self):
        p = numlin.char_poly(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(p.coeffs, [-1, 0, 1], atol=1e-14)

    def test_zero_matrix(self):
        p = numlin.char_poly(np.zeros((3, 3)))
        np.testing.assert_allclose(p.coeffs, [0, 0, 0, 1], atol=1e-14)

    def test_random_vs_faddeev_leverrier_oracle(self):
        rng = make_rng(25)
        a = random_matrix(rng, 4)
        p = numlin.char_poly(a)
        oracle = faddeev_leverrier(a)
        scale = np.max(np.abs(oracle))
        np.testing.assert_allclose(p.coeffs, oracle, atol=1e-8 * scale)

    def test_char_poly_vanishes_on_spectrum(self):
        rng = make_rng(26)
        a = random_matrix(rng, 5)
        p = numlin.char_poly(a)
        bound = 1e-7 * (1 + numlin.frobenius(a)) ** 5
        for lam in numlin.general_eigvals(a):
            assert abs(evaluate(p, lam)) <= bound


class TestPrincipalSubmatrix:
    def test_diagonal_deletion(self):
        np.testing.assert_array_equal(
            numlin.principal_submatrix(np.diag([1.0, 2.0, 3.0]), 2), np.diag([1.0, 3.0])
        )

    def test_identity(self):
        np.testing.assert_array_equal(numlin.principal_submatrix(np.eye(2), 1), [[1.0]])

    def test_block_selection(self):
        m = np.arange(9, dtype=complex).reshape(3, 3)
        np.testing.assert_array_equal(
            numlin.principal_submatrix(m, 1), np.array([[4, 5], [7, 8]], dtype=complex)
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            numlin.principal_submatrix(np.eye(3), 0)
        with pytest.raises(ValueError):
            numlin.principal_submatrix(np.eye(3), 4)
        with pytest.raises(ValueError):
            numlin.principal_submatrix(np.eye(1), 1)

    def test_commutes_with_adjoint_exactly(self):
        rng = make_rng(27)
        a = random_matrix(rng, 5)
        for i in range(1, 6):
            np.testing.assert_array_equal(
                numlin.principal_submatrix(numlin.adjoint(a), i),
                numlin.adjoint(numlin.principal_submatrix(a, i)),
            )


class TestInvariants:
    def test_general_matches_hermitian_values(self):
        rng = make_rng(28)
        h = random_hermitian(rng, 7)
        hermitian = np.linalg.eigvalsh(h)
        general = np.sort(numlin.general_eigvals(h).real)
        np.testing.assert_allclose(general, hermitian, atol=1e-8)

    def test_trace_equals_eigenvalue_sum(self):
        rng = make_rng(29)
        a = random_matrix(rng, 6)
        total = np.sum(numlin.general_eigvals(a))
        tr = np.trace(a)
        assert abs(total - tr) <= 1e-9 * max(abs(tr), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numlin.as_matrix([[np.inf, 0], [0, 1]])
