"""Executable checkers for the classical critical-point location
theorems, each returning a structured verdict with numeric evidence.

A checker never conflates a violated hypothesis with a counterexample:
the verdict is one of ``pass``, ``fail``, ``preconditions_unmet``. The
critical-point reference in every checker is the classical route,
``critical_points_oracle``: Aberth-Ehrlich iteration on the logarithmic
derivative of p, which never forms coefficients or a matrix, so the two
sides of each comparison are computed along independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fov, geom, matricial, numlin, poly
from .config import DEFAULT_SWEEP_SAMPLES, TOL
from .errors import PreconditionsUnmet

PASS = "pass"
FAIL = "fail"
PRECONDITIONS_UNMET = "preconditions_unmet"


@dataclass(frozen=True)
class CheckReport:
    theorem: str
    verdict: str
    max_violation: float
    details: tuple[tuple[str, object], ...]
    tolerances_used: dict[str, float]


@dataclass(frozen=True)
class SiebeckHypotheses:
    """Computed (never assumed) hypotheses for the midpoint-tangency
    statement: every hull vertex is a simple zero, and every hull edge
    has all remaining zeros strictly on its inner side.
    ``vertex_indices`` lists the 1-based zero indices of each hull edge's
    endpoints, and ``edges`` the same edges as ``geom.polygon_edges``
    gives them for the zeros in their frame (``_frame``)."""

    simple_vertex_eigenvalues: bool
    strict_half_plane: bool
    vertex_indices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[complex, complex, complex], ...]

    @property
    def holds(self) -> bool:
        return self.simple_vertex_eigenvalues and self.strict_half_plane


@dataclass(frozen=True)
class _Frame:
    """The zeros as given, and ``u``, the same zeros in their frame:
    ``(zeros * 2**-shift - center) / 2**exponent``, of spread ``spread``."""

    zeros: np.ndarray
    u: np.ndarray
    spread: float
    shift: int
    exponent: int
    center: complex

    def length(self, x: float) -> float:
        """A length in the frame, in the units of the zeros."""
        with np.errstate(over="ignore"):
            return float(np.ldexp(x, self.shift + self.exponent))

    def points(self, w) -> np.ndarray:
        """Points in the frame, in the units of the zeros."""
        return numlin.ldexp(self.center + 2.0**self.exponent * np.atleast_1d(w), self.shift)


def _frame(zeros, minimum: int, exact: bool = False) -> _Frame:
    """The zeros in the frame every checker of zeros works in. Fewer than
    ``minimum`` zeros (not exactly ``minimum`` when ``exact``) raise
    PreconditionsUnmet; empty or non-finite zeros raise ValueError.

    The zeros are scaled by the power of two that brings their largest real
    or imaginary part into [1/2, 1), exactly, so nothing overflows and all
    later steps are bit for bit the same on 2**k times the zeros; then
    centred at their mean (0 when they coincide) and divided by the power
    of two nearest their spread. Checkers bound lengths in the frame by
    their tolerance times its spread, and report them in units of the zeros.
    """
    z = np.atleast_1d(np.asarray(zeros, dtype=complex))
    if z.size == 0 or not np.isfinite(z).all():
        raise ValueError("zeros must be finite" if z.size else "empty zero set")
    if z.size < minimum or (exact and z.size != minimum):
        raise PreconditionsUnmet(f"exactly {minimum} zeros required" if exact else f"need at least {minimum} zeros")
    shift = numlin.binary_exponent(z)
    pre = numlin.ldexp(z, -shift)
    spread = geom.point_spread(pre)
    exponent = round(math.log2(spread)) if spread else 0
    center = pre.sum() / pre.size if spread else pre[0]
    u = (pre - center) / 2.0**exponent
    return _Frame(z, u, spread / 2.0**exponent, shift, exponent, complex(center))


def critical_points_oracle(zeros) -> np.ndarray:
    """Roots of p' for monic p with the given zeros, by Aberth-Ehrlich
    iteration on the logarithmic derivative S1(c) = sum 1/(c - z_k). It
    forms no coefficient and calls no eigensolver, so it is independent
    of the submatrix route.

    The iteration runs on the zeros in their frame (``_frame``), and the
    critical points are mapped back. A zero of multiplicity k is a critical
    point of multiplicity k - 1 and is returned as it is (up to the roundoff
    of that map); the others are the zeros of S1 over the distinct zeros,
    weighted by multiplicity. When the distinct zeros in the frame are all
    real, so is the iteration, and the critical points come back with
    imaginary parts exactly 0; it then starts with one point in each gap
    between neighbouring zeros (``_aberth_start``), so a tight cluster of
    zeros gets no more points than it holds critical points.
    """
    frame = _frame(zeros, 2)
    if frame.spread == 0.0:
        return np.full(frame.zeros.size - 1, frame.zeros[0])
    return frame.points(_framed_critical_points(frame))


def _framed_critical_points(frame: _Frame) -> np.ndarray:
    """The critical points of the zeros in the frame, in the frame. The
    iteration runs on the real parts when no imaginary part of a distinct
    zero is nonzero: its iterates stay real, and real arithmetic is cheaper."""
    u, mult = np.unique(frame.u, return_counts=True)
    weights = mult.astype(float)
    v = u if u.imag.any() else u.real
    return np.concatenate([_aberth(v, weights, _aberth_start(v, weights)), np.repeat(u, mult - 1)])


# A point stops once its step is at most this many units of roundoff (the
# spread is about 1), once its log-derivative is at most this many units of
# roundoff of its terms, or at the iteration cap; a point whose step or
# repulsion is not finite (it sits on a zero or on another point) is nudged
# instead, unless it sits where it was last nudged from.
_ABERTH_STEP_ULPS = 4.0
_ABERTH_MAX_STEPS = 500
_ABERTH_NUDGE = 2.0**-20
_ROUNDOFF = _ABERTH_STEP_ULPS * np.finfo(float).eps


def _aberth_start(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Starting points for ``_aberth``: one in each gap between real zeros,
    one next to each complex zero but one.

    Real ``u`` must be sorted ascending, as ``np.unique`` gives it. Between
    neighbours a < b lies exactly one critical point (Rolle), and the start
    is the root in (a, b) of the two-pole model
    w_a / (c - a) + w_b / (c - b) + r = 0, where r is the sum of the other
    terms at the gap's midpoint m. With h = (b - a) / 2, s = r h and
    e = w_a - w_b, the root is c = m + t h, where
    t = 2 (s + e) / (w_a + w_b + sqrt((2 s + e)^2 + 4 w_a w_b)) lies in
    (-1, 1) and loses no digits; with two distinct zeros the model is
    exact. It costs one pass over the gaps and the zeros, in real
    arithmetic. Nothing keeps ``_aberth`` in the gaps: the interlacing of
    the points it converged to is what ``check_interlacing`` tests.

    For complex ``u`` a critical point sits next to every zero that is not
    crowded, at u_k - weights_k / G_k with G_k = sum_{j != k} weights_j /
    (u_k - u_j). The inverse is taken with a floor, so the jump stays below
    1/4 of the spread; the zero with the smallest |G_k| gets no point.
    """
    if not np.iscomplexobj(u):
        mid = (u[:-1] + u[1:]) / 2.0
        half = (u[1:] - u[:-1]) / 2.0
        gaps = np.arange(mid.size)
        diff = mid[:, None] - u[None, :]
        diff[gaps, gaps] = diff[gaps, gaps + 1] = math.inf  # the two poles of the model
        wa, wb = weights[:-1], weights[1:]
        e = wa - wb
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.einsum("ij,j->i", np.reciprocal(diff, out=diff), weights) * half
            t = 2.0 * (s + e) / (wa + wb + np.sqrt((2.0 * s + e) ** 2 + 4.0 * wa * wb))
        t[~np.isfinite(t)] = 0.0  # 0 * inf or inf / inf: zeros a subnormal distance apart
        return mid + t * half
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    g = np.reciprocal(diff, out=diff) @ weights - weights
    jump = weights * np.conj(g) / (np.abs(g) ** 2 + 4.0 * weights**2)
    return np.delete(u - jump, np.argmin(np.abs(g)))


def _aberth(u: np.ndarray, weights: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The u.size - 1 zeros of S1(c) = sum weights_k / (c - u_k) over
    distinct u_k of spread about 1, by simultaneous Aberth-Ehrlich iteration
    from ``start``.

    S1 = q / prod(c - u_k) for a polynomial q of degree u.size - 1. With
    S2 = sum weights_k / (c - u_k)^2 and T = sum (weights_k - 1) / (c - u_k),
    the Newton correction of q is N = S1 / (S1^2 - S2 - T S1) (of p' when
    every weight is 1). Each point steps by N / (1 - N R), where
    R = sum_{j != i} 1 / (c_i - c_j) repels it from the other points.
    Each step works in two preallocated buffers, shrunk to the rows still
    moving: the 1/(c - u) terms and the repulsion terms. The arithmetic is
    that of ``u`` and ``start`` together: real for real ones.

    A point that sits on a zero or on another point is nudged by
    ``_ABERTH_NUDGE``, along the real line in real arithmetic. If the
    iteration brings it back to exactly where it was nudged from, that spot
    is a fixed point of the iteration in floating point, and the point stops
    there: in real arithmetic a critical point within an ulp or two of a
    zero can round onto the zero every time.

    A point stops once its step is at most ``_ABERTH_STEP_ULPS`` units of
    roundoff. Inside a cluster of zeros of q that test is never met: there
    S1 is pure roundoff and the steps wander. So a point whose step did not
    shrink also stops, where it stands, once |S1| is at most ``_ROUNDOFF``
    times sum weights_k / |c - u_k|, the size of its terms. Only such rows
    pay for that sum, and only after a step in which no point stopped: while
    points converge one after another, the others are not yet wandering.
    If any point stopped on its terms, or is still moving at the
    ``_ABERTH_MAX_STEPS`` cap, each cluster of points (``_clusters``) that
    holds one is returned as copies of its mean, refined by
    ``_cluster_mean``; otherwise the points are returned as they stand.
    """
    m = start.size
    dtype = np.result_type(u, start)
    inv_buf = np.empty((m, u.size), dtype=dtype)
    rep_buf = np.empty((m, m), dtype=dtype)
    c = start.astype(dtype)
    # operands in the points' arithmetic, as the products would cast them every step
    columns = np.stack([weights, weights - 1.0], axis=1).astype(dtype)
    cweights = weights.astype(dtype)
    rows = np.arange(m)
    last = None  # the step sizes of the previous step, when no point stopped in it
    floored = np.zeros(m, dtype=bool)
    parked = np.full(m, np.nan, dtype=dtype)  # where each point was last nudged from
    active = np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ABERTH_MAX_STEPS):
            k = active.size
            ca = c[active]
            inv = inv_buf[:k]
            np.subtract(ca[:, None], u[None, :], out=inv)
            np.reciprocal(inv, out=inv)
            s1, t = (inv @ columns).T
            np.square(inv, out=inv)
            s2 = inv @ cweights
            newton = s1 / (s1 * s1 - s2 - t * s1)
            rep = rep_buf[:k]
            np.subtract(ca[:, None], c[None, :], out=rep)
            rep[rows[:k], active] = 1.0
            np.reciprocal(rep, out=rep)
            repulsion = rep.sum(axis=1) - 1.0
            step = newton / (1.0 - newton * repulsion)
            # on a zero or on another point; in real arithmetic an infinite
            # repulsion gives a step of 0, not one that is not finite
            stuck = ~np.isfinite(step + repulsion)
            if stuck.any():
                back = stuck & (ca == parked[active])  # a fixed point of the iteration
                stuck &= ~back
                step[back] = 0.0
                parked[active[stuck]] = ca[stuck]
                nudge = _ABERTH_NUDGE * np.exp(1j * active[stuck])
                step[stuck] = nudge if np.iscomplexobj(step) else nudge.real
            size = np.abs(step)
            moving = size > _ROUNDOFF
            stalled = np.flatnonzero(size >= last) if last is not None else rows[:0]
            if stalled.size:  # |1/(c - u)| is the root of the squared terms
                floor = np.sqrt(np.abs(inv[stalled])) @ weights
                flat = stalled[np.abs(s1[stalled]) <= _ROUNDOFF * floor]
                if flat.size:
                    flat = flat[~stuck[flat]]
                    step[flat] = 0.0
                    moving[flat] = False
                    floored[active[flat]] = True
            c[active] = ca - step
            active = active[moving]
            last = size if active.size == k else None
            if active.size == 0:
                break
    floored[active] = True
    if floored.any():
        for idx in _clusters(u, weights, c):
            if floored[idx].any():
                c[idx] = _cluster_mean(u, weights, c[idx].mean(), idx.size)
    return c


def _clusters(u: np.ndarray, weights: np.ndarray, points: np.ndarray) -> list[np.ndarray]:
    """The indices of each cluster of two or more ``points``: approximate
    zeros of q = prod(c - u_k) S1(c) / sum(weights), of degree
    points.size = u.size - 1, whose inclusion discs overlap.

    Point i carries the Weierstrass radius m |q(c_i) / prod_{j != i}
    (c_i - c_j)| (Gerschgorin-type discs for simultaneous iteration; Bini &
    Fiorentino, Numer. Algorithms 23, 2000): a connected union of k such
    discs holds exactly k zeros of q. It is formed in logs, so no product
    under- or overflows, and with |S1| floored at ``_ROUNDOFF`` times the
    size of its terms, so roundoff cannot shrink it. A point exactly on
    another point leaves that factor out, and a point exactly on a zero
    gets radius 0. Without two overlapping discs (the usual case) this
    costs one m x m comparison.
    """
    m = points.size
    if m < 2:
        return []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = points[:, None] - u[None, :]
        dist = np.abs(diff)
        s1 = np.abs(np.einsum("ij,j->i", np.reciprocal(diff, out=diff), weights))
        s1 = np.maximum(s1, _ROUNDOFF * np.einsum("ij,j->i", np.reciprocal(dist), weights))
        log_q = np.log(dist).sum(axis=1) + np.log(s1) - math.log(weights.sum())
        gaps = np.abs(points[:, None] - points[None, :])
        log_sep = np.log(gaps, out=np.zeros_like(gaps), where=gaps > 0.0).sum(axis=1)
        radius = np.exp(math.log(m) + log_q - log_sep)
    radius[np.isnan(radius)] = 0.0
    overlap = gaps <= radius[:, None] + radius[None, :]
    if np.count_nonzero(overlap) == m:
        return []
    labels = np.arange(m)
    while True:  # each point takes the least label of its neighbours
        least = np.min(np.where(overlap, labels[None, :], m), axis=1)
        if np.array_equal(least, labels):
            break
        labels = least
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return [idx for idx in groups if idx.size > 1]


def _cluster_mean(u: np.ndarray, weights: np.ndarray, c: complex, m: int) -> complex:
    """The mean of a cluster of m zeros of S1 near ``c``, refined by Newton
    on p^(m), whose root near c it is to first order (Zeng, Math. Comp. 74,
    2005), with p = prod (c - u_k)^weights_k.

    Newton steps by Y_m / Y_{m+1}, Y_k = p^(k) / p, taken from the power
    sums S_j = sum weights_k / (c - u_k)^j by the Bell recursion, scaled so
    that nothing overflows: with h = min |c - u_k| and
    s_j = h^j S_j, y_0 = 1 and
    y_{k+1} = (1 / (k + 1)) sum_{i=0}^{k} (-1)^i s_{i+1} y_{k-i},
    Y_k = k! y_k / h^k and the step is h y_m / ((m + 1) y_{m+1}). It stops
    at a step of at most ``_ABERTH_STEP_ULPS`` units of roundoff, at one
    that is not finite, or at the iteration cap. It works in the arithmetic
    of ``u`` and ``c``, so the mean of a real cluster stays real.
    """
    signs = (-1.0) ** np.arange(m + 1)
    y = np.empty(m + 2, dtype=np.result_type(u, c))
    y[0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ABERTH_MAX_STEPS):
            d = c - u
            h = float(np.min(np.abs(d)))
            s = signs * (np.cumprod(np.broadcast_to(h / d, (m + 1, u.size)), axis=0) @ weights)
            for k in range(m + 1):
                y[k + 1] = (s[: k + 1] @ y[k::-1]) / (k + 1)
            step = h * y[m] / ((m + 1) * y[m + 1])
            if not np.isfinite(step):
                break
            c -= step
            if abs(step) <= _ROUNDOFF:
                break
    return c


def preconditions_unmet(theorem: str, reason: str, tols: dict[str, float], extra=()) -> CheckReport:
    """The report of a check whose hypotheses do not hold: the reason
    first, then any evidence in ``extra``."""
    details = (("unmet_hypothesis", reason),) + tuple(extra)
    return CheckReport(theorem, PRECONDITIONS_UNMET, math.nan, details, tols)


def check_main_theorem(zeros, tol: float = TOL.match) -> CheckReport:
    """Critical points of p match the spectrum of every principal
    submatrix of A = U D U*, as multisets within ``tol`` times the spread
    of the zeros. Both routes run on the zeros in their frame (``_frame``),
    so neither loses accuracy to an offset of the zeros from the origin.

    A is circulant by construction, so every A_(i) is a permutation
    similarity of A_(1): one eigensolve and one bottleneck matching
    (``poly.multiset_match``) decide all n submatrices, and the reported
    distance is the least largest distance of any pairing.

    A multiple critical point is a cluster of eigenvalues, spread by
    roundoff far more than its mean is (Kato): each cluster whose inclusion
    discs overlap (``_clusters``) is compared by its mean, as the oracle
    returns its own clusters."""
    tols = {"match": tol}
    try:
        frame = _frame(zeros, 2)
    except PreconditionsUnmet as exc:
        return preconditions_unmet("main", str(exc), tols, exc.evidence)
    eigvals = matricial.critical_points_matricial(frame.u, 1)
    for idx in _clusters(frame.u, np.ones(frame.u.size), eigvals):
        eigvals[idx] = eigvals[idx].mean()
    report = poly.multiset_match(eigvals, _framed_critical_points(frame), tol * frame.spread)
    worst = frame.length(report.max_distance)
    details = (("submatrices_checked", frame.u.size), ("max_matched_distance", worst))
    return CheckReport("main", PASS if report.matched else FAIL, worst, details, tols)


def check_gauss_lucas(zeros, tol: float = TOL.geometry) -> CheckReport:
    """Every critical point lies in the convex hull of the zeros, within
    signed distance ``tol`` times the spread of the zeros."""
    tols = {"geometry": tol}
    try:
        frame = _frame(zeros, 2)
    except PreconditionsUnmet as exc:
        return preconditions_unmet("gauss-lucas", str(exc), tols, exc.evidence)
    hull = geom.convex_hull(frame.u)
    crit = _framed_critical_points(frame)
    worst = float(np.max(geom.hull_violation(hull, crit)))
    details = (
        ("hull_vertices", int(hull.vertices.size)),
        ("critical_points", int(crit.size)),
        ("worst_signed_distance", frame.length(worst)),
    )
    verdict = PASS if worst <= tol * frame.spread else FAIL
    return CheckReport("gauss-lucas", verdict, frame.length(worst), details, tols)


def check_interlacing(zeros, tol: float = TOL.linalg) -> CheckReport:
    """For real zeros sorted descending, critical points separate the
    zeros: lam_k >= mu_k >= lam_{k+1}, each within ``tol`` times the
    spread of the zeros. Zeros count as real when no imaginary part, as
    given, exceeds ``tol`` times the spread (none may be nonzero when
    ``tol`` is negative). ``worst_gap`` is the largest of the signed gaps,
    negative when the interlacing is strict, so a negative ``tol`` asks
    for a margin."""
    tols = {"linalg": tol}
    try:
        frame = _frame(zeros, 2)
    except PreconditionsUnmet as exc:
        return preconditions_unmet("interlacing", str(exc), tols, exc.evidence)
    imag_max = float(np.max(np.abs(frame.zeros.imag)))
    if imag_max > frame.length(max(tol, 0.0) * frame.spread):
        return preconditions_unmet("interlacing", "zeros are not real", tols, (("max_imag", imag_max),))
    lam = np.sort(frame.u.real)[::-1]
    mu = np.sort(_framed_critical_points(frame).real)[::-1]
    gap = float(max(np.max(mu - lam[:-1]), np.max(lam[1:] - mu)))
    worst = frame.length(gap)
    verdict = PASS if gap <= tol * frame.spread else FAIL
    return CheckReport("interlacing", verdict, worst, (("worst_gap", worst),), tols)


def check_siebeck_hypotheses(zeros) -> SiebeckHypotheses:
    """The two tangency hypotheses on the hull of the zeros in their frame
    (``_frame``): ``TOL.geometry`` times their spread is both the clustering
    radius for vertex multiplicity and the strict half-plane margin. Fewer
    than 3 zeros or hull vertices raise PreconditionsUnmet."""
    return _hypotheses(_frame(zeros, 3))


def _hypotheses(frame: _Frame) -> SiebeckHypotheses:
    u = frame.u
    hull = geom.convex_hull(u)
    if hull.vertices.size < 3:
        raise PreconditionsUnmet("fewer than 3 hull vertices")
    edges = geom.polygon_edges(hull)
    radius = TOL.geometry * frame.spread

    verts, _, normals = np.array(edges).T
    offsets = u[None, :] - verts[:, None]
    dists = np.abs(offsets)
    simple = bool(((dists <= radius).sum(axis=1) == 1).all())
    first = np.argmin(dists, axis=1)  # zero at each hull vertex, so at each edge's start
    last = np.concatenate((first[1:], first[:1]))
    signed = (np.conj(normals)[:, None] * offsets).real
    rows = np.arange(len(edges))
    signed[rows, first] = signed[rows, last] = -math.inf  # an edge's endpoints are not tested
    strict = not (signed > -radius).any()
    pairs = tuple(zip((first + 1).tolist(), (last + 1).tolist()))
    return SiebeckHypotheses(simple, strict, pairs, edges)


def _edge_normals(edges) -> tuple[np.ndarray, np.ndarray]:
    """The angle of each edge's outward unit normal, and there the support
    of the edge's line, Re(conj(normal) a): a convex set on its inner side
    touches the line when its own support at that angle is this value."""
    angles = np.array([math.atan2(normal.imag, normal.real) for _, _, normal in edges])
    return angles, np.array([(normal.conjugate() * a).real for a, _, normal in edges])


def _tangency_setup(zeros) -> tuple[_Frame, SiebeckHypotheses]:
    """The zeros in their frame and their tangency hypotheses, as both
    tangency checkers take them; PreconditionsUnmet when the hypotheses
    fail."""
    frame = _frame(zeros, 3)
    hyp = _hypotheses(frame)
    if not hyp.holds:
        flags = tuple((name, getattr(hyp, name)) for name in ("simple_vertex_eigenvalues", "strict_half_plane"))
        raise PreconditionsUnmet("hypothesis flags not satisfied", flags)
    return frame, hyp


def _edge_position(pairs, edge: int | tuple[int, int]) -> int:
    """The 0-based position of ``edge`` among the hull edges ``pairs`` (as
    ``check_edge_preimage`` takes it); PreconditionsUnmet when it names none,
    ValueError when it is neither an integer nor a pair of integers (a bool
    is neither)."""
    edge = edge.tolist() if isinstance(edge, np.ndarray) else edge
    items = edge if isinstance(edge, (tuple, list)) and len(edge) == 2 else [edge]
    if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in items):
        raise ValueError(f"an edge is a 1-based index or a pair of 1-based zero indices, not {edge!r}")
    if len(items) == 1:
        if not 1 <= edge <= len(pairs):
            raise PreconditionsUnmet(f"edge index {edge} out of range")
        return int(edge) - 1
    pair = (int(edge[0]), int(edge[1]))
    if pair not in pairs and pair[::-1] not in pairs:
        raise PreconditionsUnmet(f"{pair} is not a hull edge")
    return pairs.index(pair if pair in pairs else pair[::-1])


def _decide_faces(theorem: str, zeros, tol: float, pick) -> CheckReport:
    """The tangency decision of ``theorem`` on the face certificate
    (``fov.certify_faces``) of ``A_(1)`` of the zeros in the frame at the
    outward normal (``_edge_normals``) of each hull edge that ``pick``
    names by its 0-based position, given the hull edges' ``vertex_indices``.
    Each edge gives its support excess upper - line, its tangency gap
    |rho - line| and its face radius; the largest of each over the edges
    decided is bounded by ``tol`` times the spread of the zeros."""
    tols = {"geometry": tol, "hypotheses": TOL.geometry}
    try:
        frame, hyp = _tangency_setup(zeros)
        probed = pick(hyp.vertex_indices)
    except PreconditionsUnmet as exc:
        return preconditions_unmet(theorem, str(exc), tols, exc.evidence)
    normals, lines = _edge_normals([hyp.edges[k] for k in probed])
    faces = fov.certify_faces(frame.u, normals, np.array([hyp.vertex_indices[k] for k in probed]) - 1)
    # the largest excess, gap and radius, and the least certified gap, negated
    extremes = np.max([faces.upper - lines, np.abs(faces.rayleigh - lines), faces.radius, -faces.gap], axis=1)
    containment_excess, tangency_gap, face_radius, minus_gap = extremes.tolist()
    worst = max(containment_excess, tangency_gap, face_radius)
    with np.errstate(over="ignore"):
        lengths = np.ldexp([containment_excess, tangency_gap, face_radius, -minus_gap, worst],
                           frame.shift + frame.exponent).tolist()
    names = ("containment_excess", "tangency_gap", "face_radius", "face_min_gap")
    details = (*zip(names, lengths), ("hull_vertices", len(hyp.edges)))
    return CheckReport(theorem, PASS if worst <= tol * frame.spread else FAIL, lengths[-1], details, tols)


def check_poor_mans_siebeck(zeros, tol: float = TOL.geometry) -> CheckReport:
    """The field of values of the first principal submatrix is contained
    in the hull of the zeros and touches every hull edge at its midpoint
    only, each within ``tol`` times the spread of the zeros.

    At each edge normal the face certificate (``fov.certify_faces``) gives
    the Rayleigh quotient rho of the edge's mode vector and proves
    lambda_max of H(theta) in [rho, upper], upper = rho + r^2 / gap, and
    that F(A_(1)) meets the line there in one point, within the certified
    ``face_radius`` of the midpoint, which does not depend on the bound: a
    bound below it, as any bound of at most 0, gives ``fail``.
    ``face_min_gap`` is the least gap it certified below rho. The hull is
    the intersection of its edge half-planes, and under the strict
    half-plane hypothesis the edges are the whole hull, so F(A_(1)) lies in
    it at every angle when its support at each edge normal is at most the
    edge's line: ``containment_excess`` is the largest upper - line. All of
    it comes from H(theta) of the constructed ``A_(1)``; a certificate that
    fails raises NumericalError."""
    return _decide_faces("siebeck", zeros, tol, lambda pairs: range(len(pairs)))


def check_bgm(zeros, tol: float = TOL.geometry) -> CheckReport:
    """The foci of the inscribed midpoint-tangent ellipse of the triangle
    of zeros coincide with the critical points, and it touches each side at
    the midpoint, within ``tol`` times the spread of the zeros, in the frame
    of the zeros. A side is touched at its midpoint when the ellipse's
    support (``fov.ellipse_support``) at the side's outward normal is the
    side's line and the midpoint lies on the ellipse (``fov.ellipse_offset``,
    in closed form): a line that supports a strictly convex set touches it
    in one point. The contact point itself is not compared: on a thin
    triangle it moves along the long side by about eps times the spread
    over the angle between side and major axis when the ellipse moves by
    eps, while the midpoint's offset moves by eps."""
    tols = {"geometry": tol}
    try:
        frame = _frame(zeros, 3, exact=True)
        ellipse = geom.steiner_inellipse(*frame.u)
    except PreconditionsUnmet as exc:
        return preconditions_unmet("bgm", str(exc), tols, exc.evidence)
    edges = geom.polygon_edges(geom.convex_hull(frame.u))
    match = poly.multiset_match([ellipse.focus1, ellipse.focus2], _framed_critical_points(frame), tol * frame.spread)
    normals, lines = _edge_normals(edges)
    midpoints = np.array([(a + b) / 2.0 for a, b, _ in edges])
    support = np.abs(fov.ellipse_support(ellipse, normals) - lines)
    tangency = float(max(np.max(support), np.max(np.abs(fov.ellipse_offset(ellipse, midpoints)))))
    tangent_all = tangency <= tol * frame.spread
    details = (("foci_match_distance", frame.length(match.max_distance)), ("tangent_all_sides", tangent_all))
    verdict = PASS if match.matched and tangent_all else FAIL
    return CheckReport("bgm", verdict, frame.length(max(match.max_distance, tangency)), details, tols)


def check_elliptical_range(a, m: int = DEFAULT_SWEEP_SAMPLES, tol: float = TOL.match) -> CheckReport:
    """Support sweep of a 2x2 matrix against the closed-form elliptical
    disk. One-sided Hausdorff distances between the two convex sets are
    the positive parts of the support-function differences, sampled over
    the sweep grid; a degenerate ellipse reduces to the support of the
    two-point focus set automatically.

    Both sets are computed for A scaled by the power of two of its largest
    real or imaginary part, exactly, so nothing overflows or underflows and
    the verdict is the same on 2**k * A. The distances are bounded by
    ``tol`` times ||A||_F (the ``scale``) and reported in the units of A."""
    mat = numlin.as_square(a)
    thetas = fov.sweep_angles(m)
    tols = {"match": tol}
    if mat.shape[0] != 2:
        return preconditions_unmet("elliptical-range", "order-2 matrix required", tols)
    shift = numlin.binary_exponent(mat)
    scaled = numlin.ldexp(mat, -shift)
    ellipse = fov.elliptical_range(scaled)
    supports = fov.sweep_supports(scaled, thetas)
    he = fov.ellipse_support(ellipse, thetas)
    sweep_excess = float(max(np.max(supports - he), 0.0))
    ellipse_excess = float(max(np.max(he - supports), 0.0))
    norm = numlin.frobenius(scaled)
    worst = max(sweep_excess, ellipse_excess)
    with np.errstate(over="ignore"):
        lengths = np.ldexp([sweep_excess, ellipse_excess, ellipse.minor_semi_axis, norm, worst], shift).tolist()
    details = tuple(zip(("sweep_outside_ellipse", "ellipse_outside_sweep", "minor_semi_axis", "scale"), lengths))
    verdict = PASS if worst <= tol * norm else FAIL
    return CheckReport("elliptical-range", verdict, lengths[-1], details, tols)


def check_edge_preimage(zeros, edge: int | tuple[int, int], tol: float = TOL.geometry) -> CheckReport:
    """Only the midpoint of one hull edge lies in the field of values of
    the first principal submatrix: ``check_poor_mans_siebeck`` decided on
    that edge alone, within ``tol`` times the spread of the zeros.

    The face certificate (``fov.certify_faces``) at the edge's outward
    normal proves that F(A_(1)) lies on the inner side of the edge's line
    within ``containment_excess`` (upper - line), touches it within
    ``tangency_gap`` (|rho - line|), and meets it in one point within the
    certified ``face_radius`` of the midpoint. The report carries siebeck's
    five detail fields, measured on this edge, and fails a bound below the
    radius, as any bound of at most 0; a face the certificate cannot
    resolve raises NumericalError.

    ``edge`` is either the 1-based position of the edge on the hull,
    counterclockwise as in ``check_siebeck_hypotheses(zeros).vertex_indices``,
    or a pair of 1-based indices into the zeros naming a hull edge in
    either order. On zeros that meet the tangency hypotheses, anything else
    raises ValueError.
    """
    return _decide_faces("edge-preimage", zeros, tol, lambda pairs: [_edge_position(pairs, edge)])
