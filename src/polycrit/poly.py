"""Complex polynomial arithmetic, rootfinding, and multiset comparison.

Coefficients are stored in ascending degree order with a nonzero leading
coefficient. Root sets are plain complex ndarrays with multiset
semantics: multiplicities are carried by repetition, never by a count.

Two multisets are compared under a bottleneck pairing, one whose largest
distance is the least possible: the nearest-point pairing when it is a
bijection, else a binary search over the distances with an
augmenting-path perfect matching at each bound.
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


@dataclass(frozen=True)
class MatchReport:
    """Outcome of a multiset comparison under a bottleneck pairing:
    ``max_distance`` is the bottleneck value."""

    matched: bool
    max_distance: float
    pairs: tuple[tuple[int, int], ...] | None

    def __bool__(self) -> bool:
        return self.matched


def _nearest_pairing(cost: np.ndarray) -> np.ndarray | None:
    """The column of each row's minimum of ``cost`` when those columns are
    all distinct, else None. No pairing gives a row less than its minimum,
    so this one, when it exists, is a bottleneck pairing."""
    near = np.argmin(cost, axis=1)
    return near if np.all(np.bincount(near, minlength=near.size) == 1) else None


def _perfect_matching(adj: np.ndarray, near: np.ndarray) -> np.ndarray | None:
    """The column matched to each row by a perfect matching of the
    bipartite graph with square biadjacency ``adj``, or None if there is
    none. The first row to name a column in ``near`` (a neighbour of each
    row) starts matched to it; each other row joins by an augmenting path
    found breadth-first (Hopcroft & Karp, SIAM J. Comput. 2, 1973), so no
    recursion deepens with the size."""
    n = adj.shape[0]
    col_of = np.full(n, -1)
    row_of = np.full(n, -1)
    named, first = np.unique(near, return_index=True)
    col_of[first], row_of[named] = named, first
    for root in np.flatnonzero(col_of < 0):
        seen = np.zeros(n, dtype=bool)
        parent = np.empty(n, dtype=int)  # the row from which each seen column was reached
        queue = [root]
        for row in queue:
            cols = np.flatnonzero(adj[row] & ~seen)
            seen[cols] = True
            parent[cols] = row
            free = cols[row_of[cols] < 0]
            if free.size:
                break
            queue.extend(row_of[cols].tolist())
        else:
            return None
        col = int(free[0])
        while col >= 0:  # flip the path back to the root, whose column is -1
            row = parent[col]
            col_of[row], row_of[col], col = col, row, col_of[row]
    return col_of


def _bottleneck_pairing(cost: np.ndarray) -> np.ndarray:
    """The column paired with each row by a pairing whose largest cost,
    the bottleneck value, is the least possible (Gabow & Tarjan, J.
    Algorithms 9, 1988): the least bound whose threshold graph
    {cost <= bound} has a perfect matching, binary searched over the
    distinct costs from the largest row or column minimum, below which no
    pairing goes. There each row's nearest column is a neighbour; at the
    largest cost any pairing will do."""
    near = np.argmin(cost, axis=1)
    floor = max(np.max(np.min(cost, axis=1)), np.max(np.min(cost, axis=0)))
    bounds = np.unique(cost[cost >= floor])
    best, lo, hi = np.arange(near.size), 0, bounds.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        assign = _perfect_matching(cost <= bounds[mid], near)
        if assign is None:
            lo = mid + 1
        else:
            best, hi = assign, mid
    return best


def multiset_match(a, b, tol: float) -> MatchReport:
    """True iff both multisets have equal size and some pairing under
    |a_i - b_j| keeps every point within ``tol``. The pairing reported is a
    bottleneck pairing: ``_nearest_pairing`` in O(n^2) numpy, or, where
    that fails (as for copies of a cluster's mean), ``_bottleneck_pairing``."""
    aa = np.atleast_1d(np.asarray(a, dtype=complex))
    bb = np.atleast_1d(np.asarray(b, dtype=complex))
    if aa.size != bb.size:
        return MatchReport(False, math.inf, None)
    if aa.size == 0:
        return MatchReport(True, 0.0, ())
    cost = np.abs(aa[:, None] - bb[None, :])
    assign = _nearest_pairing(cost)
    if assign is None:
        assign = _bottleneck_pairing(cost)
    pairs = tuple(enumerate(assign.tolist()))
    dmax = float(np.max(cost[np.arange(aa.size), assign]))
    return MatchReport(dmax <= tol, dmax, pairs)
