import numpy as np
import pytest

from conftest import dft_matrix, make_rng, random_matrix
from polycrit import geom, matricial, numlin, poly
from polycrit.config import TOL
from polycrit.errors import NumericalError
from polycrit.rng import random_zeros


class TestDftMatrix:
    def test_order_two(self):
        np.testing.assert_allclose(
            dft_matrix(2), np.array([[1, 1], [1, -1]]), atol=1e-12
        )

    def test_order_four_entry(self):
        f = dft_matrix(4)
        assert abs(f[1, 1] - (-1j)) <= 1e-12

    def test_first_row_and_column_are_ones(self):
        f = dft_matrix(7)
        np.testing.assert_allclose(f[0, :], np.ones(7), atol=1e-15)
        np.testing.assert_allclose(f[:, 0], np.ones(7), atol=1e-15)

    def test_hadamard_identity_order_three(self):
        f = dft_matrix(3)
        np.testing.assert_allclose(f @ numlin.adjoint(f), 3 * np.eye(3), atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestBuildConstruction:
    def test_two_point_swap(self):
        a = matricial.build_construction([1, -1])
        np.testing.assert_allclose(a, [[0, 1], [1, 0]], atol=1e-12)

    def test_scalar_spectrum_gives_scalar_matrix(self):
        c = 0.3 - 0.7j
        a = matricial.build_construction([c, c])
        np.testing.assert_allclose(a, c * np.eye(2), atol=1e-12)

    def test_normality_residual(self):
        rng = make_rng(61)
        zeros = random_zeros(rng, 5)
        a = matricial.build_construction(zeros)
        comm = numlin.frobenius(a @ numlin.adjoint(a) - numlin.adjoint(a) @ a)
        assert comm <= 1e-8 * numlin.frobenius(a) ** 2
        # U and D are not returned; rebuild them as the construction defines them
        u = dft_matrix(5) / np.sqrt(5)
        d = np.diag(zeros)
        assert numlin.frobenius(u @ numlin.adjoint(u) - np.eye(5)) <= 1e-10
        np.testing.assert_array_equal(np.diag(d), zeros)

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_dft_path_is_exactly_circulant(self, n):
        a = matricial.build_construction(random_zeros(make_rng(71), n))
        assert np.array_equal(a, np.roll(a, (1, 1), axis=(0, 1)))

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_fft_build_matches_dense_product(self, n):
        zeros = random_zeros(make_rng(72), n)
        a = matricial.build_construction(zeros)
        u = dft_matrix(n) / np.sqrt(n)
        bound = 1e-14 * np.max(np.abs(zeros))
        np.testing.assert_allclose(a, (u * zeros) @ numlin.adjoint(u), rtol=0, atol=bound)

    def test_failed_round_trip_is_numerical_error(self):
        # the FFT of zeros this large overflows
        with pytest.raises(NumericalError):
            matricial.build_construction([1e308, 1e308, -1e308])

    def test_rejects_single_zero(self):
        with pytest.raises(ValueError):
            matricial.build_construction([1.0])


class TestIsTraceVector:
    def test_identity_any_basis_vector(self):
        report = matricial.is_trace_vector(np.eye(3), [1, 0, 0])
        assert report.is_trace_vector
        assert report.k_tested == 3

    def test_flat_vector_for_diagonal(self):
        report = matricial.is_trace_vector(np.diag([1.0, 2.0]), np.array([1, 1]) / np.sqrt(2))
        assert report.is_trace_vector

    def test_basis_vector_fails_for_diagonal(self):
        report = matricial.is_trace_vector(np.diag([1.0, 2.0]), [1, 0])
        assert not report.is_trace_vector
        assert abs(report.max_defect - 0.5) <= 1e-14

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            matricial.is_trace_vector(np.eye(2), [1, 1])


class TestCompression:
    def test_basis_vector_gives_principal_submatrix_exactly(self):
        rng = make_rng(62)
        a = random_matrix(rng, 4)
        for i in range(4):
            z = np.zeros(4)
            z[i] = 1.0
            np.testing.assert_array_equal(
                matricial.compression(a, z), numlin.principal_submatrix(a, i + 1)
            )

    def test_identity_compresses_to_identity(self):
        rng = make_rng(63)
        z = random_zeros(rng, 3)
        z = z / np.linalg.norm(z)
        np.testing.assert_allclose(matricial.compression(np.eye(3), z), np.eye(2), atol=1e-12)

    def test_two_by_two_deletion(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_array_equal(matricial.compression(swap, [0, 1]), [[0.0]])

    def test_spectrum_is_basis_independent(self):
        # compression along z and along exp(i phi) z are unitarily similar
        rng = make_rng(64)
        a = random_matrix(rng, 5)
        z = random_zeros(rng, 5)
        z = z / np.linalg.norm(z)
        s1 = numlin.general_eigvals(matricial.compression(a, z))
        s2 = numlin.general_eigvals(matricial.compression(a, np.exp(0.4j) * z))
        assert poly.multiset_match(s1, s2, 1e-9).matched


class TestIsDifferentiator:
    def test_construction_with_basis_vector(self):
        a = matricial.build_construction([1, -1])
        assert matricial.is_differentiator(a, [1, 0])

    def test_diagonal_with_basis_vector_is_not(self):
        assert not matricial.is_differentiator(np.diag([1.0, 2.0]), [1, 0])

    def test_scalar_matrix_any_unit_vector(self):
        rng = make_rng(65)
        z = random_zeros(rng, 3)
        z = z / np.linalg.norm(z)
        assert matricial.is_differentiator(0.5j * np.eye(3), z)


class TestCriticalPointsMatricial:
    def test_two_points(self):
        pts = matricial.critical_points_matricial([1, -1], 1)
        np.testing.assert_allclose(pts, [0], atol=1e-12)

    def test_quadratic_formula_oracle(self):
        expected = [1 - 1 / np.sqrt(3), 1 + 1 / np.sqrt(3)]
        for i in (1, 2, 3):
            pts = matricial.critical_points_matricial([0, 1, 2], i)
            assert poly.multiset_match(pts, expected, 1e-9).matched

    def test_repeated_zero(self):
        c = 0.2 + 0.9j
        pts = matricial.critical_points_matricial([c] * 4, 1)
        np.testing.assert_allclose(pts, [c] * 3, atol=1e-7)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            matricial.critical_points_matricial([1, -1], 3)


class TestInvariants:
    def test_basis_vectors_are_trace_vectors_of_construction(self):
        rng = make_rng(66)
        for n in range(2, 13):
            zeros = random_zeros(rng, n)
            a = matricial.build_construction(zeros)
            for i in range(n):
                z = np.zeros(n)
                z[i] = 1.0
                report = matricial.is_trace_vector(a, z)
                assert report.max_defect <= 1e-8

    def test_main_identity_against_companion_oracle(self):
        rng = make_rng(67)
        for n in (2, 4, 7):
            zeros = random_zeros(rng, n)
            oracle = poly.roots(poly.derivative(poly.from_roots(zeros)))
            for i in range(1, n + 1):
                pts = matricial.critical_points_matricial(zeros, i)
                assert poly.multiset_match(pts, oracle, 1e-6).matched

    @pytest.mark.parametrize(
        "zeros",
        [
            random_zeros(make_rng(73), 5),
            random_zeros(make_rng(74), 16),
            1e6 + np.array([0, 1, 1j, -1 + 0.5j]),  # the translated quadrilateral (K2)
        ],
    )
    def test_every_dense_submatrix_has_the_single_spectrum(self, zeros):
        # cross-check of the circulant shortcut: eigensolve every A_(i) of
        # the densely built U D U* and match each to the spectrum of A_(1)
        n = zeros.size
        single = matricial.critical_points_matricial(zeros, 1)
        u = dft_matrix(n) / np.sqrt(n)
        dense = (u * zeros) @ numlin.adjoint(u)
        bound = TOL.match * geom.point_spread(zeros)
        for i in range(1, n + 1):
            spectrum = numlin.general_eigvals(numlin.principal_submatrix(dense, i))
            assert poly.multiset_match(spectrum, single, bound).matched, i

    def test_submatrix_spectra_agree_across_indices(self):
        rng = make_rng(68)
        zeros = random_zeros(rng, 6)
        base = matricial.critical_points_matricial(zeros, 1)
        for i in range(2, 7):
            other = matricial.critical_points_matricial(zeros, i)
            assert poly.multiset_match(base, other, 1e-7).matched

    def test_unimodular_profile_is_trace_vector_for_any_diagonal(self):
        rng = make_rng(69)
        for n in (2, 5, 9):
            d = np.diag(random_zeros(rng, n))
            phases = np.exp(2j * np.pi * np.array([rng.uniform() for _ in range(n)]))
            z = phases / np.sqrt(n)
            report = matricial.is_trace_vector(d, z)
            assert report.is_trace_vector, report

    def test_differentiator_iff_trace_vector(self):
        rng = make_rng(70)
        agreements = 0
        for trial in range(200):
            n = 2 + trial % 7  # n in 2..8
            if trial % 3 == 0:
                # constructed pairs: both predicates true
                a = matricial.build_construction(random_zeros(rng, n))
                z = np.zeros(n)
                z[trial % n] = 1.0
            else:
                # generic pairs: both predicates false almost surely
                a = random_matrix(rng, n)
                z = random_zeros(rng, n)
                z = z / np.linalg.norm(z)
            tv = matricial.is_trace_vector(a, z, 1e-8).is_trace_vector
            df = matricial.is_differentiator(a, z, 1e-8)
            assert tv == df
            agreements += 1
        assert agreements == 200


def _gaussian(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _scaled(a, k):
    return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)


class TestK10:
    """Both predicates are decided on the centred matrix scaled to norm
    near 1, so they hold at every degree and scale (ROADMAP K10)."""

    @pytest.mark.parametrize("n", [12, 20, 30])
    @pytest.mark.parametrize("seed", range(5))
    def test_basis_vectors_pass_and_a_random_vector_fails(self, n, seed):
        rng = np.random.default_rng(seed)
        a = matricial.build_construction(_gaussian(rng, n))
        for e in np.eye(n):
            assert matricial.is_trace_vector(a, e).is_trace_vector
            assert matricial.is_differentiator(a, e)
        v = _gaussian(rng, n)
        v /= np.linalg.norm(v)
        assert not matricial.is_trace_vector(a, v).is_trace_vector
        assert not matricial.is_differentiator(a, v)
        for w in (np.eye(n)[0], v):
            report, verdict = matricial.is_trace_vector(a, w), matricial.is_differentiator(a, w)
            for k in (-500, 500):
                assert matricial.is_trace_vector(_scaled(a, k), w) == report
                assert matricial.is_differentiator(_scaled(a, k), w) == verdict

    def test_jordan_block_differentiator(self):
        # the eigenvalues of the conjugated nilpotent Jordan block come out
        # about 8.5e-5 off 0: a spectral comparison would reject U e_1
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(_gaussian(rng, 16).reshape(4, 4))
        a = u @ np.diag(np.ones(3), 1) @ numlin.adjoint(u)
        assert np.max(np.abs(numlin.general_eigvals(a))) > 1e-5
        assert matricial.is_differentiator(a, u[:, 0])

    @pytest.mark.parametrize("seed", range(5))
    def test_householder_complement_is_orthonormal(self, seed):
        z = _gaussian(np.random.default_rng(seed), 30)
        z /= np.linalg.norm(z)
        q = matricial._complement_basis(z)
        assert q.shape == (30, 29)
        assert np.max(np.abs(numlin.adjoint(q) @ q - np.eye(29))) <= 1e-15
        assert np.max(np.abs(z.conj() @ q)) <= 1e-15
