"""High-precision reference critical points, independent of both routes.

The critical points of p(x) = prod(x - z_k) are the zeros of the
logarithmic derivative S1(c) = sum 1/(c - z_k). With
S2(c) = sum 1/(c - z_k)^2 the Newton correction for p' is

    N(c) = p'(c) / p''(c) = S1 / (S1^2 - S2),

the reciprocal of the logarithmic derivative of p'. Nothing here expands
coefficients or calls an eigensolver, so the reference shares no step
with ``theorems.critical_points_oracle`` (companion matrix) or with
``matricial.critical_points_matricial`` (submatrix spectrum).

The zeros are centred and scaled by their spread in mpmath, so every
distance below is relative to the spread. A float Aberth-Ehrlich
iteration finds starting points; mpmath refines them by Aberth-Ehrlich
steps at ``DPS`` digits.
The reference is certified when every point's last correction |N| is at
most ``RESIDUAL_MAX`` and the first two power sums of the points match
the ones implied by the zeros (p'/n has elementary symmetric functions
e_k (n - k) / n), which catches two points converging to one root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

DPS = 40
RESIDUAL_MAX = 1e-20
ERR_FLOOR = 1e-24  # reported errors are clamped here; the reference resolves well below it
ERR_CAP = 1e6  # a route that raised or lost points is reported at this error
# The gated accuracy metrics are 17 + log10(error), with errors below
# 1e-16 of the spread (about half a unit roundoff) read as 1e-16: the value
# is then at least 1, and a relative bound b allows a loss of b times the
# value in decades.
GATE_FLOOR = 1e-16
GATE_OFFSET = 17


@dataclass(frozen=True)
class Reference:
    center: object  # mpc
    scale: object  # mpf, spread of the zeros
    points: list  # mpc/mpf, normalised coordinates
    residual: float  # max |N| over the points, relative to the spread
    vieta_defect: float
    certified: bool


def spread(z: np.ndarray) -> float:
    return float(np.max(np.abs(z[:, None] - z[None, :])))


def _aberth_float(w: np.ndarray, iters: int = 500) -> np.ndarray:
    """Float Aberth-Ehrlich iteration on S1 for the n - 1 roots of p'."""
    m = w.size - 1
    radius = max(0.5 * float(np.max(np.abs(w))), 0.25)
    c = radius * np.exp(1j * (2.0 * np.pi * np.arange(m) / m + 0.4))
    for _ in range(iters):
        inv = 1.0 / (c[:, None] - w[None, :])
        s1 = inv.sum(axis=1)
        s2 = (inv * inv).sum(axis=1)
        newton = s1 / (s1 * s1 - s2)
        diff = c[:, None] - c[None, :]
        np.fill_diagonal(diff, 1.0)
        repel = 1.0 / diff
        np.fill_diagonal(repel, 0.0)
        step = newton / (1.0 - newton * repel.sum(axis=1))
        c = c - step
        if not np.all(np.isfinite(c)):
            raise ArithmeticError("float Aberth iteration diverged")
        if np.max(np.abs(step)) < 1e-15:
            break
    return c


def _refine(w: list, c: list, max_iter: int = 80) -> tuple[list, float]:
    """mpmath Aberth-Ehrlich refinement; returns the points and the last max |N|."""
    last_newton = mpmath.inf
    prev_step = mpmath.inf
    for it in range(max_iter):
        steps = []
        newtons = []
        for i, ci in enumerate(c):
            inv = [1 / (ci - wk) for wk in w]
            s1 = mpmath.fsum(inv)
            s2 = mpmath.fsum(v * v for v in inv)
            newton = s1 / (s1 * s1 - s2)
            newtons.append(abs(newton))
            repel = mpmath.fsum(1 / (ci - cj) for j, cj in enumerate(c) if j != i)
            steps.append(newton / (1 - newton * repel))
        c = [ci - s for ci, s in zip(c, steps)]
        last_newton = max(newtons)
        step = max(abs(s) for s in steps)
        if step < mpmath.mpf(10) ** (12 - DPS):
            break
        if it >= 2 and step > prev_step / 2 and step < 1e-12:
            break  # stagnated at the working precision
        prev_step = step
    return c, float(last_newton)


def _vieta_defect(w: list, c: list) -> float:
    n = len(w)
    e1 = mpmath.fsum(w)
    e2 = (e1 * e1 - mpmath.fsum(x * x for x in w)) / 2
    big1 = e1 * (n - 1) / n
    big2 = e2 * (n - 2) / n
    p1 = mpmath.fsum(c)
    p2 = mpmath.fsum(x * x for x in c)
    return float(abs(p1 - big1) + abs(p2 - (big1 * big1 - 2 * big2)))


def reference(zeros) -> Reference:
    """Reference critical points of the monic polynomial with these zeros."""
    z = np.asarray(zeros, dtype=complex)
    n = z.size
    if n < 2:
        raise ValueError("need at least 2 zeros")
    real = bool(np.all(z.imag == 0.0))
    with mpmath.workdps(DPS):
        if real:
            zs = [mpmath.mpf(float(x.real)) for x in z]
        else:
            zs = [mpmath.mpc(complex(x)) for x in z]
        center = mpmath.fsum(zs) / n
        scale = mpmath.mpf(spread(z))
        w = [(x - center) / scale for x in zs]
        start = _aberth_float(np.array([complex(x) for x in w]))
        c = [mpmath.mpf(float(s.real)) for s in start] if real else [mpmath.mpc(complex(s)) for s in start]
        c, residual = _refine(w, c)
        defect = _vieta_defect(w, c)
    ok = residual <= RESIDUAL_MAX and defect <= RESIDUAL_MAX * n
    return Reference(center, scale, c, residual, defect, ok)


def gated_log10(err: float) -> float:
    return GATE_OFFSET + math.log10(max(err, GATE_FLOOR))


def route_error(ref: Reference, points) -> float:
    """Worst matched distance between route points and the reference,
    relative to the spread of the zeros (clamped below at ``ERR_FLOOR``)."""
    pts = np.asarray(points, dtype=complex)
    if pts.size != len(ref.points):
        return float("inf")
    with mpmath.workdps(DPS):
        norm = [(mpmath.mpc(complex(p)) - ref.center) / ref.scale for p in pts]
        approx = np.array([complex(x) for x in norm])
        exact = np.array([complex(x) for x in ref.points])
        cost = np.abs(approx[:, None] - exact[None, :])
        rows, cols = _assignment(cost)
        worst = max(abs(norm[i] - ref.points[j]) for i, j in zip(rows, cols))
    return max(float(worst), ERR_FLOOR)


def _assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Exact minimum-cost assignment on a square matrix: shortest
    augmenting paths with row and column potentials, O(n^3), the inner
    scan over columns vectorised. Returns rows and their columns."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_of = np.zeros(n + 1, dtype=int)  # row (1-based) matched to each column; 0 = free
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            reduced = np.full(n + 1, np.inf)
            reduced[1:] = cost[i0 - 1] - u[i0] - v[1:]
            better = ~used & (reduced < minv)
            minv[better] = reduced[better]
            way[better] = j0
            masked = np.where(used, np.inf, minv)
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return (row_of[1:] - 1).tolist(), list(range(n))
