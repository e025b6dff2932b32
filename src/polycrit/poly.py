"""Complex polynomial arithmetic, rootfinding, and multiset comparison.

Coefficients are stored in ascending degree order with a nonzero leading
coefficient. Root sets are plain complex ndarrays with multiset
semantics: multiplicities are carried by repetition, never by a count.

Two multisets are compared under a minimum-total-cost pairing. When
pairing each point with its nearest point on the other side is a
bijection (equal points, such as the copies of a cluster's mean, taken
as groups), its total is the sum of the row minima, a lower bound of
every pairing, so it is optimal: that costs O(n^2) in numpy. Otherwise
the Hungarian method, ``min_cost_assignment``, decides in O(n^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# ``_newton_polish`` stops once its step is below this many times 1 + |z|.
_NEWTON_STEP = 1e-14
# An absolute bound: a leading coefficient of smaller modulus is not divided by.
_MIN_LEADING = 1e-300


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Polynomial sum(coeffs[k] * t**k) with coeffs[-1] != 0."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if abs(c[-1]) == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):
        return f"Polynomial(degree={self.degree}, coeffs={self.coeffs!r})"


def from_roots(roots) -> Polynomial:
    """Monic polynomial with the given zeros, by incremental expansion."""
    r = np.atleast_1d(np.asarray(roots, dtype=complex))
    if r.size == 0:
        raise ValueError("root set must be nonempty")
    c = np.array([1.0 + 0.0j])
    for z in r:
        c = np.convolve(c, np.array([-z, 1.0 + 0.0j]))
    return Polynomial(c)


def derivative(p: Polynomial) -> Polynomial:
    """Formal derivative; rejects constants (the result would be zero)."""
    if p.degree < 1:
        raise ValueError("cannot differentiate a degree-0 polynomial")
    k = np.arange(1, p.degree + 1)
    return Polynomial(p.coeffs[1:] * k)


def evaluate(p: Polynomial, z):
    """Horner evaluation; ``z`` may be a scalar or an ndarray."""
    zz = np.asarray(z, dtype=complex)
    out = np.zeros_like(zz)
    for c in p.coeffs[::-1]:
        out = out * zz + c
    if out.ndim == 0:
        return complex(out)
    return out


def _horner(coeffs: np.ndarray, z: complex) -> complex:
    out = 0.0 + 0.0j
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _newton_polish(coeffs: np.ndarray, dcoeffs: np.ndarray, z: complex) -> complex:
    """Up to 20 damped Newton steps on a monic coefficient array.

    The step is halved while |p| does not decrease; iteration stops once
    the accepted step falls below ``_NEWTON_STEP * (1 + |z|)``.
    """
    pz = _horner(coeffs, z)
    for _ in range(20):
        dz = _horner(dcoeffs, z)
        if dz == 0:
            break
        step = pz / dz
        trial = z - step
        ptrial = _horner(coeffs, trial)
        halvings = 0
        while abs(ptrial) >= abs(pz) and halvings < 8:
            step *= 0.5
            trial = z - step
            ptrial = _horner(coeffs, trial)
            halvings += 1
        if abs(ptrial) >= abs(pz):
            break
        z, pz = trial, ptrial
        if abs(step) < _NEWTON_STEP * (1.0 + abs(z)):
            break
    return z


def _monic_coeffs(p: Polynomial) -> np.ndarray:
    lead = p.coeffs[-1]
    if abs(lead) < _MIN_LEADING:
        raise NumericalError("leading coefficient too small to normalize")
    return p.coeffs / lead


def companion_matrix(p: Polynomial) -> np.ndarray:
    """Companion matrix of the monic normalization of ``p``."""
    if p.degree < 1:
        raise ValueError("degree must be at least 1")
    monic = _monic_coeffs(p)
    deg = p.degree
    comp = np.zeros((deg, deg), dtype=complex)
    if deg > 1:
        comp[np.arange(1, deg), np.arange(deg - 1)] = 1.0
    comp[:, -1] = -monic[:-1]
    return comp


def roots(p: Polynomial) -> np.ndarray:
    """All roots with multiplicity: companion-matrix eigenvalues of the
    monic normalization, each polished by damped Newton iteration."""
    if p.degree < 1:
        raise ValueError("degree must be at least 1")
    monic = _monic_coeffs(p)
    deg = p.degree
    if deg == 1:
        return np.array([-monic[0]])
    try:
        raw = np.linalg.eigvals(companion_matrix(p))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"companion eigensolver failed: {exc}") from exc
    dmonic = monic[1:] * np.arange(1, deg + 1)
    return np.array([_newton_polish(monic, dmonic, z) for z in raw])


def min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Assignment minimizing total cost on a square matrix of finite costs
    (O(n^3), potentials formulation). Returns the column paired with each
    row. Each step scans the free columns in one pass and takes the first
    of equal minima."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError("cost matrix must be square")
    if n == 0:
        return []
    # rows and columns are 1-based; row 0 and column 0 are the sentinel
    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = cost
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=int)  # match[j] = row assigned to column j
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, math.inf)  # stays inf at the used columns
        free = np.ones(n + 1, dtype=bool)
        rows = np.zeros(n + 1, dtype=bool)  # the rows of the used columns
        while True:
            free[j0], minv[j0] = False, math.inf
            i0 = match[j0]
            rows[i0] = True
            cur = padded[i0] - u[i0] - v
            better = (cur < minv) & free
            np.copyto(minv, cur, where=better)
            np.copyto(way, j0, where=better)
            j1 = int(np.argmin(minv))
            delta = minv[j1]
            np.add(u, delta, out=u, where=rows)
            np.subtract(v, delta, out=v, where=~free)
            minv -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assign = [0] * n
    for j in range(1, n + 1):
        if match[j]:
            assign[match[j] - 1] = j - 1
    return assign


@dataclass(frozen=True)
class MatchReport:
    """Outcome of a multiset comparison under optimal pairing."""

    matched: bool
    max_distance: float
    pairs: tuple[tuple[int, int], ...] | None

    def __bool__(self) -> bool:
        return self.matched


def _nearest_pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The index in ``b`` paired with each point of ``a`` when pairing
    every point with a nearest point of ``b`` uses each point of ``b``
    once, else None.

    Every point then sits on a minimum of its row of the cost matrix
    |a_i - b_j|, in distinct columns, so the total cost is the sum of the
    row minima, a lower bound of every assignment: the pairing is a
    minimum-total-cost assignment. Equal points, such as the copies of a
    cluster's mean, share their nearest point; so when the plain pairing
    fails, equal points are grouped on both sides and each group of ``b``
    must receive as many points as it holds, paired in index order.
    """
    near = np.argmin(np.abs(a[:, None] - b[None, :]), axis=1)
    if np.all(np.bincount(near, minlength=b.size) == 1):
        return near
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib, kb = np.unique(b, return_inverse=True, return_counts=True)
    near = np.argmin(np.abs(ua[:, None] - ub[None, :]), axis=1)[ia]
    if not np.array_equal(np.bincount(near, minlength=ub.size), kb):
        return None
    assign = np.empty(a.size, dtype=int)
    assign[np.argsort(near, kind="stable")] = np.argsort(ib, kind="stable")
    return assign


def multiset_match(a, b, tol: float) -> MatchReport:
    """True iff both multisets have equal size and a minimum-total-cost
    perfect matching under |a_i - b_j| pairs every point within ``tol``.

    The matching is the nearest-point pairing when that is certified
    optimal (``_nearest_pairing``), in O(n^2) numpy; otherwise it comes
    from ``min_cost_assignment``."""
    aa = np.atleast_1d(np.asarray(a, dtype=complex))
    bb = np.atleast_1d(np.asarray(b, dtype=complex))
    if aa.size != bb.size:
        return MatchReport(False, math.inf, None)
    if aa.size == 0:
        return MatchReport(True, 0.0, ())
    assign = _nearest_pairing(aa, bb)
    if assign is None:
        assign = np.array(min_cost_assignment(np.abs(aa[:, None] - bb[None, :])))
    pairs = tuple(enumerate(assign.tolist()))
    dmax = float(np.max(np.abs(aa - bb[assign])))
    return MatchReport(dmax <= tol, dmax, pairs)
