"""Normal-matrix machinery for critical point extraction.

Core construction: place the zeros of a polynomial on a diagonal D,
conjugate by the unitary scaling U = F/sqrt(n) of the DFT matrix F, and
read the critical points off any principal submatrix of A = U D U*.
With the DFT, A is circulant and is built from one FFT of the zeros.
The bridge is the trace-vector property: every canonical basis vector is
a trace vector for A, which makes deleting a row and column act as a
differentiation operator on the characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin, poly
from .config import TOL
from .errors import NumericalError


def dft_matrix(n: int) -> np.ndarray:
    """DFT matrix of order n: entry (j, k) = w**(j*k), w = exp(-2*pi*i/n),
    zero-based indices. First row and column are all ones.

    Powers are reduced mod n before exponentiation so every entry is a
    machine-accurate root of unity.
    """
    if n < 1:
        raise ValueError("order must be positive")
    idx = np.arange(n)
    table = np.exp(-2j * np.pi * idx / n)
    return table[np.outer(idx, idx) % n]


def is_complex_hadamard(h, tol: float = 1e-10) -> bool:
    """True iff every entry has modulus within ``tol`` of 1 and
    ``h @ h* = n I`` holds entrywise within ``tol * n``."""
    m = numlin.as_square(h)
    n = m.shape[0]
    if np.max(np.abs(np.abs(m) - 1.0)) > tol:
        return False
    gram = m @ numlin.adjoint(m)
    return float(np.max(np.abs(gram - n * np.eye(n)))) <= tol * n


def build_construction(zeros, hadamard=None) -> np.ndarray:
    """The normal matrix A = U D U* with D = diag(zeros) and U unitary from
    a complex Hadamard matrix (the DFT matrix by default).

    With the DFT, A is the circulant matrix A[j, k] = c[(j - k) mod n] of
    c = fft(zeros) / n, formed in O(n log n + n^2) with no matrix product.
    The construction is verified by the round trip n * ifft(c) = zeros
    within ``TOL.unitarity * max|zeros|``. Every A_(i) is then A_(1) with
    its indices relabelled cyclically.

    ``hadamard`` optionally supplies any complex Hadamard matrix of the
    right order; it is validated before use, A is formed densely, and U
    is checked unitary and A normal. The zeros enter D in the given order.
    """
    z = np.atleast_1d(np.asarray(zeros, dtype=complex))
    n = z.size
    if n < 2:
        raise ValueError("at least 2 zeros are required")
    if not np.all(np.isfinite(z)):
        raise ValueError("zeros must be finite")
    if hadamard is None:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the round trip
            c = np.fft.fft(z) / n
            roundtrip = np.max(np.abs(n * np.fft.ifft(c) - z))
        if not roundtrip <= TOL.unitarity * np.max(np.abs(z)):
            raise NumericalError("DFT round trip does not return the zeros within tolerance")
        idx = np.arange(n)
        return c[np.subtract.outer(idx, idx) % n]

    h = numlin.as_square(hadamard)
    if h.shape[0] != n:
        raise ValueError("Hadamard order does not match the zero count")
    if not is_complex_hadamard(h):
        raise ValueError("matrix is not complex Hadamard within tolerance")
    u = h / np.sqrt(n)
    a = (u * z[None, :]) @ numlin.adjoint(u)
    if numlin.frobenius(u @ numlin.adjoint(u) - np.eye(n)) > TOL.unitarity:
        raise NumericalError("constructed U is not unitary within tolerance")
    comm = numlin.frobenius(a @ numlin.adjoint(a) - numlin.adjoint(a) @ a)
    if comm > TOL.normality * max(numlin.frobenius(a) ** 2, 1e-300):
        raise NumericalError("constructed A is not normal within tolerance")
    return a


@dataclass(frozen=True)
class TraceVectorReport:
    is_trace_vector: bool
    max_defect: float
    k_tested: int


def is_trace_vector(a, z, tol: float = TOL.trace_defect) -> TraceVectorReport:
    """Check z* A^k z == normalized trace of A^k for k = 0..n-1.

    Powers beyond n-1 are linear combinations of the tested ones
    (Cayley-Hamilton), so this finite range decides the full condition.
    """
    m = numlin.as_square(a)
    n = m.shape[0]
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if zz.shape != (n,):
        raise ValueError("vector length must match the matrix order")
    if abs(np.linalg.norm(zz) - 1.0) > 1e-12:
        raise ValueError("z must be a unit vector")
    power = np.eye(n, dtype=complex)
    max_defect = 0.0
    for _ in range(n):
        val = complex(zz.conj() @ power @ zz)
        defect = abs(val - complex(np.trace(power)) / n)
        max_defect = max(max_defect, defect)
        power = power @ m
    return TraceVectorReport(max_defect <= tol, max_defect, n)


def _complement_basis(z: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of z, as columns.

    z is completed with canonical vectors (skipping the pivot of largest
    modulus) and orthonormalized by two passes of modified Gram-Schmidt.
    For z = e_i this reproduces the canonical vectors e_j, j != i, in
    ascending order, exactly.
    """
    n = z.size
    pivot = int(np.argmax(np.abs(z)))
    basis: list[np.ndarray] = []
    columns = [z] + [np.eye(n, dtype=complex)[:, j] for j in range(n) if j != pivot]
    for w in columns:
        v = w.astype(complex).copy()
        for _ in range(2):
            for q in basis:
                v = v - (q.conj() @ v) * q
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            raise NumericalError("complement basis lost rank")
        basis.append(v / norm)
    return np.column_stack(basis[1:])


def compression(a, z) -> np.ndarray:
    """The restriction of (I - zz*) A (I - zz*) to the orthogonal
    complement of the unit vector z, in an orthonormal basis.

    The basis choice only changes the result by unitary similarity, so
    spectral outputs are basis-independent. For z = e_i the result is
    the principal submatrix with row and column i deleted, exactly.
    """
    m = numlin.as_square(a)
    n = m.shape[0]
    if n < 2:
        raise ValueError("compression needs order at least 2")
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if zz.shape != (n,):
        raise ValueError("vector length must match the matrix order")
    if abs(np.linalg.norm(zz) - 1.0) > 1e-12:
        raise ValueError("z must be a unit vector")
    q = _complement_basis(zz)
    return q.conj().T @ m @ q


def is_differentiator(a, z, tol: float = TOL.geometry) -> bool:
    """True iff the compression of ``a`` along ``z`` has characteristic
    polynomial equal to the derivative of the one of ``a`` divided by n,
    coefficientwise within ``tol * (1 + ||a||_F)**n``."""
    m = numlin.as_square(a)
    n = m.shape[0]
    p_b = numlin.char_poly(compression(m, z))
    p_a = numlin.char_poly(m)
    target = poly.Polynomial(poly.derivative(p_a).coeffs / n)
    scale = (1.0 + numlin.frobenius(m)) ** n
    return float(np.max(np.abs(p_b.coeffs - target.coeffs))) <= tol * scale


def critical_points_matricial(zeros, i: int = 1) -> np.ndarray:
    """Critical points of the monic polynomial with the given zeros, as
    the spectrum of the i-th principal submatrix (1-based) of the
    construction A = U D U*. Any i gives the same multiset."""
    z = np.atleast_1d(np.asarray(zeros, dtype=complex))
    n = z.size
    if n < 2:
        raise ValueError("at least 2 zeros are required")
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return numlin.general_eigvals(numlin.principal_submatrix(build_construction(z), i))
