"""Normal-matrix machinery for critical point extraction.

Core construction: place the zeros of a polynomial on a diagonal D,
conjugate by the unitary scaling U = F/sqrt(n) of the DFT matrix F, and
read the critical points off any principal submatrix of A = U D U*.
A is circulant and is built from one FFT of the zeros.
The bridge is the trace-vector property: every canonical basis vector is
a trace vector for A, which makes deleting a row and column act as a
differentiation operator on the characteristic polynomial. Both
predicates are decided on A centred at its mean eigenvalue and scaled by
a power of two to a Frobenius norm near 1 (``_centred``), so they hold
at every degree and scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numlin, poly
from .errors import NumericalError

# ``circulant_column`` accepts a DFT round trip within this many times the
# largest modulus of the zeros.
_UNITARITY = 1e-10
# Default bounds of the predicates, on the matrix ``_centred`` makes (Frobenius
# norm near 1): ``is_trace_vector``'s is absolute, ``is_differentiator``'s is
# relative to the largest coefficient of p_B' / n.
_TRACE_DEFECT = 1e-8
_DIFFERENTIATOR = 1e-7


def circulant_column(zeros) -> np.ndarray:
    """The column c = fft(zeros) / n of A = ``build_construction(zeros)``,
    in O(n log n), verified by the round trip n * ifft(c) = zeros within
    ``_UNITARITY * max|zeros|``."""
    z = np.atleast_1d(np.asarray(zeros, dtype=complex))
    n = z.size
    if n < 2:
        raise ValueError("at least 2 zeros are required")
    if not np.isfinite(z).all():
        raise ValueError("zeros must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the round trip
        c = np.fft.fft(z) / n
        roundtrip = np.abs(n * np.fft.ifft(c) - z).max()
    if not roundtrip <= _UNITARITY * np.abs(z).max():
        raise NumericalError("DFT round trip does not return the zeros within tolerance")
    return c


def build_construction(zeros) -> np.ndarray:
    """The normal matrix A = U D U* with D = diag(zeros) and U = F/sqrt(n),
    F the DFT matrix F[j, k] = w**(j k), w = exp(-2 pi i / n), zero-based:
    the circulant A[j, k] = c[(j - k) mod n] of c =
    ``circulant_column(zeros)``, with no matrix product. Every
    A_(i) is then A_(1) with its indices relabelled cyclically.
    """
    c = circulant_column(zeros)
    idx = np.arange(c.size)
    return c[np.subtract.outer(idx, idx) % c.size]


@dataclass(frozen=True)
class TraceVectorReport:
    is_trace_vector: bool
    max_defect: float
    k_tested: int


def _centred(a) -> np.ndarray:
    """B = (A - (tr A / n) I) / 2**e for A = ``a``, 2**e the power of two
    nearest ||A - (tr A / n) I||_F (B = 0 when that is 0), formed after an
    exact scaling of A by the power of two of its largest part, so nothing
    overflows. A is a polynomial of degree 1 in B, so each predicate below
    holds for A exactly when it holds for B, which is the same bit for bit
    on 2**k * A.
    """
    m = numlin.as_square(a)
    pre = numlin.ldexp(m, -numlin.binary_exponent(m))
    c = pre - np.trace(pre) / m.shape[0] * np.eye(m.shape[0])
    norm = numlin.frobenius(c)
    return numlin.ldexp(c, -round(math.log2(norm))) if norm else c


def _unit_vector(z, n: int) -> np.ndarray:
    """``z`` as a complex unit vector of length n; ValueError otherwise."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if zz.shape != (n,):
        raise ValueError("vector length must match the matrix order")
    if abs(np.linalg.norm(zz) - 1.0) > 1e-12:
        raise ValueError("z must be a unit vector")
    return zz


def is_trace_vector(a, z, tol: float = _TRACE_DEFECT) -> TraceVectorReport:
    """Check z* B^k z == normalized trace of B^k for k = 0..n-1, within
    ``tol``, on B = ``_centred(a)``; ``max_defect`` is the largest gap.

    Powers beyond n-1 are linear combinations of the tested ones
    (Cayley-Hamilton), so this finite range decides the full condition.
    """
    b = _centred(a)
    n = b.shape[0]
    zz = _unit_vector(z, n)
    power = np.eye(n, dtype=complex)
    max_defect = 0.0
    for _ in range(n):
        max_defect = max(max_defect, abs(complex(zz.conj() @ power @ zz) - complex(np.trace(power)) / n))
        power = power @ b
    return TraceVectorReport(max_defect <= tol, max_defect, n)


def _complement_basis(z: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the unit vector
    z, as columns.

    With p the entry of z of largest modulus and u = e_p + z |z_p| / z_p,
    the Householder reflector I - u u* / u_p maps e_p to a multiple of z,
    so its other columns are the basis. u_p = 1 + |z_p| >= 1, so nothing
    cancels. For z = e_i the reflector is I - 2 e_i e_i*, and the basis is
    the canonical vectors e_j, j != i, in ascending order, exactly.
    """
    p = int(np.argmax(np.abs(z)))
    u = z * (abs(z[p]) / z[p])
    u[p] = 1.0 + abs(z[p])
    reflector = np.eye(z.size, dtype=complex) - np.outer(u, u.conj() / u[p])
    return np.delete(reflector, p, axis=1)


def compression(a, z) -> np.ndarray:
    """The restriction of (I - zz*) A (I - zz*) to the orthogonal
    complement of the unit vector z, in an orthonormal basis.

    The basis choice only changes the result by unitary similarity, so
    spectral outputs are basis-independent. For z = e_i the result is
    the principal submatrix with row and column i deleted, exactly.
    """
    m = numlin.as_square(a)
    if m.shape[0] < 2:
        raise ValueError("compression needs order at least 2")
    q = _complement_basis(_unit_vector(z, m.shape[0]))
    return q.conj().T @ m @ q


def is_differentiator(a, z, tol: float = _DIFFERENTIATOR) -> bool:
    """True iff the compression of B = ``_centred(a)`` along ``z`` has
    characteristic polynomial p_B' / n, coefficientwise within ``tol``
    times the largest coefficient of p_B' / n.

    Coefficients, not spectra, are compared: they are well conditioned
    where the eigenvalues of a defective B are not."""
    b = _centred(a)
    target = poly.derivative(numlin.char_poly(b)).coeffs / b.shape[0]
    gap = np.max(np.abs(numlin.char_poly(compression(b, z)).coeffs - target))
    return float(gap) <= tol * float(np.max(np.abs(target)))


def critical_points_matricial(zeros, i: int = 1) -> np.ndarray:
    """Critical points of the monic polynomial with the given zeros, as
    the spectrum of the i-th principal submatrix (1-based) of the
    construction A = U D U*. Any i gives the same multiset."""
    return numlin.general_eigvals(numlin.principal_submatrix(build_construction(zeros), i))
