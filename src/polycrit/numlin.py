"""Dense complex linear algebra kernel.

Matrices are dense square complex128 ndarrays treated as immutable.
Eigen-decompositions are delegated to LAPACK through numpy; their
results are not checked here.
"""

from __future__ import annotations

import math

import numpy as np

from . import poly
from .errors import NumericalError


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a dense complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("expected a 2-d matrix with positive dimensions")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def ldexp(w, e: int) -> np.ndarray:
    """w * 2**e for a complex array; exact unless a part overflows."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(w, dtype=complex).view(float), e).view(complex)


def binary_exponent(w) -> int:
    """The e that brings the largest real or imaginary part of
    ``ldexp(w, -e)`` into [1/2, 1); 0 when w is zero."""
    w = np.asarray(w, dtype=complex)
    return math.frexp(max(float(np.max(np.abs(w.real))), float(np.max(np.abs(w.imag)))))[1]


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a), "fro"))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose. Involutive exactly: adjoint(adjoint(a)) == a."""
    return as_matrix(a).conj().T


def general_eigvals(a) -> np.ndarray:
    """Eigenvalues with multiplicity of a general square matrix, as
    LAPACK's QR iteration returns them; no residual is checked here, and a
    failed iteration raises ``NumericalError``."""
    m = as_square(a)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def char_poly(a) -> poly.Polynomial:
    """Monic characteristic polynomial, reconstructed from the computed
    eigenvalues by root expansion (better conditioned at this scale than
    determinant recursions, which are kept as a test oracle only)."""
    return poly.from_roots(general_eigvals(a))


def principal_submatrix(a, i: int) -> np.ndarray:
    """Delete row and column ``i`` (1-based) from a square matrix of
    order at least 2. Entries are copied exactly."""
    m = as_square(a)
    n = m.shape[0]
    if n < 2:
        raise ValueError("order-1 matrix has no principal submatrix")
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return np.delete(np.delete(m, i - 1, axis=0), i - 1, axis=1)
