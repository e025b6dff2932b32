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
from .errors import NumericalError

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


def _ldexp(w: np.ndarray, e: int) -> np.ndarray:
    """w * 2**e for a 1-d complex array; exact unless a part overflows."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(w, dtype=complex).view(float), e).view(complex)


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


def _frame(zeros, minimum: int, theorem: str = "", tols=None, exact: bool = False) -> _Frame | CheckReport:
    """The zeros in the frame every checker of zeros works in, or the
    report of ``theorem`` that there are fewer than ``minimum`` zeros (not
    exactly ``minimum`` when ``exact``); with no ``theorem`` that raises
    ValueError, as empty or non-finite zeros always do.

    The zeros are scaled by the power of two that brings their largest real
    or imaginary part into [1/2, 1), exactly, so nothing overflows and all
    later steps are bit for bit the same on 2**k times the zeros; then
    centred at their mean (0 when they coincide) and divided by the power
    of two nearest their spread. Checkers bound lengths in the frame by
    their tolerance times its spread, and report them in units of the zeros.
    """
    z = np.atleast_1d(np.asarray(zeros, dtype=complex))
    if z.size == 0 or not np.all(np.isfinite(z)):
        raise ValueError("zeros must be finite" if z.size else "empty zero set")
    if z.size < minimum or (exact and z.size != minimum):
        reason = f"exactly {minimum} zeros required" if exact else f"need at least {minimum} zeros"
        if not theorem:
            raise ValueError(reason)
        return preconditions_unmet(theorem, reason, tols)
    shift = math.frexp(max(float(np.max(np.abs(z.real))), float(np.max(np.abs(z.imag)))))[1]
    pre = _ldexp(z, -shift)
    spread = geom.point_spread(pre)
    exponent = round(math.log2(spread)) if spread else 0
    center = pre.mean() if spread else pre[0]
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
    weighted by multiplicity.
    """
    frame = _frame(zeros, 2)
    if frame.spread == 0.0:
        return np.full(frame.zeros.size - 1, frame.zeros[0])
    return _ldexp(frame.center + 2.0**frame.exponent * _framed_critical_points(frame), frame.shift)


def _framed_critical_points(frame: _Frame) -> np.ndarray:
    """The critical points of the zeros in the frame, in the frame."""
    u, mult = np.unique(frame.u, return_counts=True)
    weights = mult.astype(float)
    return np.concatenate([_aberth(u, weights, _aberth_start(u, weights)), np.repeat(u, mult - 1)])


# A point stops once its step is at most this many units of roundoff (the
# spread is about 1), or at the iteration cap; a point whose step is not
# finite (it sits on a zero or on another point) is nudged instead.
_ABERTH_STEP_ULPS = 4.0
_ABERTH_MAX_STEPS = 500
_ABERTH_NUDGE = 2.0**-20


def _aberth_start(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Starting points for ``_aberth``, one next to each zero but one.

    A critical point sits next to every zero that is not crowded, at
    u_k - weights_k / G_k with G_k = sum_{j != k} weights_j / (u_k - u_j).
    The inverse is taken with a floor, so the jump stays below 1/4 of the
    spread; the zero with the smallest |G_k| gets no point.
    """
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
    moving: the 1/(c - u) terms and the repulsion terms.
    """
    m = start.size
    inv_buf = np.empty((m, u.size), dtype=complex)
    rep_buf = np.empty((m, m), dtype=complex)
    c = start.astype(complex)
    columns = np.stack([weights, weights - 1.0], axis=1)
    tol = _ABERTH_STEP_ULPS * np.finfo(float).eps
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
            s2 = inv @ weights
            newton = s1 / (s1 * s1 - s2 - t * s1)
            rep = rep_buf[:k]
            np.subtract(ca[:, None], c[None, :], out=rep)
            rep[np.arange(k), active] = 1.0
            np.reciprocal(rep, out=rep)
            step = newton / (1.0 - newton * (rep.sum(axis=1) - 1.0))
            stuck = ~np.isfinite(step)
            step[stuck] = _ABERTH_NUDGE * np.exp(1j * active[stuck])
            c[active] = ca - step
            active = active[(np.abs(step) > tol) | stuck]
            if active.size == 0:
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

    A is built once and certified exactly circulant, A = roll(A, (1, 1)),
    so every A_(i) is a permutation similarity of A_(1): one eigensolve
    and one matching decide all n submatrices."""
    tols = {"match": tol}
    frame = _frame(zeros, 2, "main", tols)
    if isinstance(frame, CheckReport):
        return frame
    a = matricial.build_construction(frame.u)
    if not np.array_equal(a, np.roll(a, (1, 1), axis=(0, 1))):
        raise NumericalError("constructed A is not circulant")
    eigvals = numlin.general_eigvals(numlin.principal_submatrix(a, 1))
    report = poly.multiset_match(eigvals, _framed_critical_points(frame), tol * frame.spread)
    worst = frame.length(report.max_distance)
    details = (("submatrices_checked", frame.u.size), ("max_matched_distance", worst))
    return CheckReport("main", PASS if report.matched else FAIL, worst, details, tols)


def check_gauss_lucas(zeros, tol: float = TOL.geometry) -> CheckReport:
    """Every critical point lies in the convex hull of the zeros, within
    signed distance ``tol`` times the spread of the zeros."""
    tols = {"geometry": tol}
    frame = _frame(zeros, 2, "gauss-lucas", tols)
    if isinstance(frame, CheckReport):
        return frame
    hull = geom.convex_hull(frame.u, tol=1e-12)
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
    frame = _frame(zeros, 2, "interlacing", tols)
    if isinstance(frame, CheckReport):
        return frame
    imag_max = float(np.max(np.abs(frame.zeros.imag)))
    if imag_max > frame.length(max(tol, 0.0) * frame.spread):
        return preconditions_unmet("interlacing", "zeros are not real", tols, (("max_imag", imag_max),))
    lam = np.sort(frame.u.real)[::-1]
    mu = np.sort(_framed_critical_points(frame).real)[::-1]
    gap = float(max(np.max(mu - lam[:-1]), np.max(lam[1:] - mu)))
    worst = frame.length(gap)
    verdict = PASS if gap <= tol * frame.spread else FAIL
    return CheckReport("interlacing", verdict, worst, (("worst_gap", worst),), tols)


def check_siebeck_hypotheses(zeros, tol: float = TOL.geometry) -> SiebeckHypotheses:
    """Evaluate the two tangency hypotheses on the hull of the zeros in
    their frame (``_frame``). ``tol`` is relative to the spread of the
    zeros: it is both the clustering radius for vertex multiplicity and the
    required strict half-plane margin. Raises if the hull has fewer than 3
    vertices."""
    return _hypotheses(_frame(zeros, 3), tol)


def _hypotheses(frame: _Frame, tol: float) -> SiebeckHypotheses:
    u = frame.u
    edges = geom.polygon_edges(geom.convex_hull(u, tol=1e-12))
    radius = tol * frame.spread

    verts = np.array([a for a, _, _ in edges])
    normals = np.array([normal for _, _, normal in edges])
    dists = np.abs(u[None, :] - verts[:, None])
    simple = bool(np.all(np.count_nonzero(dists <= radius, axis=1) == 1))
    first = np.argmin(dists, axis=1)  # zero at each hull vertex, so at each edge's start
    last = np.roll(first, -1)
    signed = (np.conj(normals)[:, None] * (u[None, :] - verts[:, None])).real
    rows = np.arange(len(edges))
    signed[rows, first] = signed[rows, last] = -math.inf  # an edge's endpoints are not tested
    strict = not np.any(signed > -radius)
    pairs = tuple(zip((first + 1).tolist(), (last + 1).tolist()))
    return SiebeckHypotheses(simple, strict, pairs, edges)


def _hull_supports(zeros: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    return np.max(np.real(np.exp(-1j * thetas)[:, None] * zeros[None, :]), axis=1)


@dataclass(frozen=True)
class _Tangency:
    """What both tangency checkers sweep: the zeros in their frame, their
    hypotheses, ``A_(1)`` of the zeros in the frame, and its supports on
    the uniform angle grid."""

    frame: _Frame
    hyp: SiebeckHypotheses
    sub: np.ndarray
    thetas: np.ndarray
    supports: np.ndarray

    def fan(self, normal: complex) -> tuple[np.ndarray, np.ndarray]:
        """Angles refined geometrically around an edge normal, and the
        supports of ``A_(1)`` there; the fan center is the normal itself.

        Margins of points near a tangency are attained at angles close to
        the edge normal; geometric spacing resolves the optimum with a
        relative error independent of how flat the boundary is there. The
        resulting membership test stays an outer (sound) certificate.
        """
        offsets = np.geomspace(1e-6, 0.7, 48)
        angles = math.atan2(normal.imag, normal.real) + np.concatenate([-offsets[::-1], [0.0], offsets])
        return angles, fov.sweep_supports(self.sub, angles)

    def margin(self, fan: tuple[np.ndarray, np.ndarray], point: complex) -> float:
        """Outer membership margin of a point on an edge: the larger of
        its margins on the uniform grid and on the edge's fan."""
        return max(fov.point_margin(self.thetas, self.supports, point), fov.point_margin(*fan, point))


def _tangency_setup(theorem: str, zeros, tols: dict[str, float], m: int) -> CheckReport | _Tangency:
    """The preconditions report when the tangency hypotheses (at
    ``tols["hypotheses"]``) fail, else the shared record of the tangency
    checkers, in the frame of the zeros: every margin is a difference, and
    probes far from the origin would lose more to roundoff than the
    membership slack allows."""
    frame = _frame(zeros, 3, theorem, tols)
    if isinstance(frame, CheckReport):
        return frame
    try:
        hyp = _hypotheses(frame, tols["hypotheses"])
    except ValueError as exc:
        return preconditions_unmet(theorem, str(exc), tols)
    if not hyp.holds:
        flags = tuple((name, getattr(hyp, name)) for name in ("simple_vertex_eigenvalues", "strict_half_plane"))
        return preconditions_unmet(theorem, "hypothesis flags not satisfied", tols, flags)
    sub = numlin.principal_submatrix(matricial.build_construction(frame.u), 1)
    thetas = 2.0 * np.pi * np.arange(m) / m
    return _Tangency(frame, hyp, sub, thetas, fov.sweep_supports(sub, thetas))


def check_poor_mans_siebeck(zeros, m: int = DEFAULT_SWEEP_SAMPLES, tol: float = TOL.geometry) -> CheckReport:
    """The field of values of the first principal submatrix is contained
    in the hull of the zeros and touches every hull edge at its midpoint,
    each within ``tol`` times the spread of the zeros, and no probe of an
    edge outside the 5% neighborhood of its midpoint belongs to it: each
    has a margin of more than ``TOL.membership_slack`` times the spread,
    the membership rule of ``check_edge_preimage``."""
    tols = {"geometry": tol, "hypotheses": TOL.geometry, "membership_slack": TOL.membership_slack}
    setup = _tangency_setup("siebeck", zeros, tols, m)
    if isinstance(setup, CheckReport):
        return setup
    frame = setup.frame
    containment_excess = float(np.max(setup.supports - _hull_supports(frame.u, setup.thetas)))

    params = [t for t in np.arange(41) / 40 if abs(t - 0.5) > 0.05]  # 41 probes, off the midpoint
    tangency_gap, midpoint_excess, uniqueness_margin = 0.0, -math.inf, math.inf
    for a, b, normal in setup.hyp.edges:
        fan = setup.fan(normal)
        sub_at_edge = float(fan[1][fan[1].size // 2])  # the fan center is the normal
        tangency_gap = max(tangency_gap, abs(sub_at_edge - (np.conj(normal) * a).real))
        midpoint_excess = max(midpoint_excess, setup.margin(fan, (a + b) / 2.0))
        for t in params:
            uniqueness_margin = min(uniqueness_margin, setup.margin(fan, a + t * (b - a)))

    worst = max(containment_excess, tangency_gap, midpoint_excess)
    ok = worst <= tol * frame.spread and uniqueness_margin > TOL.membership_slack * frame.spread
    details = (
        ("containment_excess", frame.length(containment_excess)),
        ("tangency_gap", frame.length(tangency_gap)),
        ("midpoint_excess", frame.length(midpoint_excess)),
        ("uniqueness_min_margin", frame.length(uniqueness_margin)),
        ("hull_vertices", len(setup.hyp.edges)),
    )
    return CheckReport("siebeck", PASS if ok else FAIL, frame.length(worst), details, tols)


def check_bgm(zeros, tol: float = TOL.geometry) -> CheckReport:
    """The foci of the inscribed midpoint-tangent ellipse of the triangle
    of zeros coincide with the critical points, within ``tol`` times the
    spread of the zeros, and the tangency holds on all three sides, in the
    frame of the zeros; there ``geom.ellipse_tangency_check`` also bounds
    the minor semi-axis of a degenerate ellipse by ``tol``."""
    tols = {"geometry": tol}
    frame = _frame(zeros, 3, "bgm", tols, exact=True)
    if isinstance(frame, CheckReport):
        return frame
    u = frame.u
    try:
        ellipse = geom.steiner_inellipse(u[0], u[1], u[2])
    except ValueError as exc:
        return preconditions_unmet("bgm", str(exc), tols)
    foci = np.array([ellipse.focus1, ellipse.focus2])
    match = poly.multiset_match(foci, _framed_critical_points(frame), tol * frame.spread)
    try:
        tangent_all = all(geom.ellipse_tangency_check(ellipse, u[k], u[(k + 1) % 3], tol) for k in range(3))
    except ValueError as exc:
        return preconditions_unmet("bgm", f"inellipse degenerate: {exc}", tols)
    ok = match.matched and tangent_all
    distance = frame.length(match.max_distance)
    details = (("foci_match_distance", distance), ("tangent_all_sides", tangent_all))
    return CheckReport("bgm", PASS if ok else FAIL, distance, details, tols)


def check_elliptical_range(a, m: int = DEFAULT_SWEEP_SAMPLES, tol: float = TOL.match) -> CheckReport:
    """Support sweep of a 2x2 matrix against the closed-form elliptical
    disk. One-sided Hausdorff distances between the two convex sets are
    the positive parts of the support-function differences, sampled over
    the sweep grid; a degenerate ellipse reduces to the support of the
    two-point focus set automatically."""
    mat = numlin.as_square(a)
    tols = {"match": tol}
    if mat.shape[0] != 2:
        return preconditions_unmet("elliptical-range", "order-2 matrix required", tols)
    ellipse = fov.elliptical_range(mat)
    polyline = fov.boundary_polyline(mat, m)
    he = fov.ellipse_support(ellipse, polyline.thetas)
    sweep_excess = float(max(np.max(polyline.support_values - he), 0.0))
    ellipse_excess = float(max(np.max(he - polyline.support_values), 0.0))
    scale = 1.0 + numlin.frobenius(mat)
    worst = max(sweep_excess, ellipse_excess)
    details = (
        ("sweep_outside_ellipse", sweep_excess),
        ("ellipse_outside_sweep", ellipse_excess),
        ("minor_semi_axis", ellipse.minor_semi_axis),
        ("scale", scale),
    )
    verdict = PASS if worst <= tol * scale else FAIL
    return CheckReport("elliptical-range", verdict, worst, details, tols)


def check_edge_preimage(
    zeros, edge: int | tuple[int, int], tol: float = TOL.geometry, m: int = DEFAULT_SWEEP_SAMPLES
) -> CheckReport:
    """Probe a hull edge at 101 evenly spaced points: the only probed
    points of the edge segment that belong to the field of values of the
    first principal submatrix are those within ``tol`` of the midpoint (in
    units of the edge length). A probe belongs when its margin is at most
    ``TOL.membership_slack`` times the spread of the zeros.

    ``edge`` is either the 1-based position of the edge on the hull,
    counterclockwise as in ``check_siebeck_hypotheses(zeros).vertex_indices``,
    or a pair of 1-based indices into the zeros naming a hull edge in
    either order. The edge is probed in its counterclockwise direction.
    """
    tols = {"geometry": tol, "membership_slack": TOL.membership_slack, "hypotheses": TOL.geometry}
    setup = _tangency_setup("edge-preimage", zeros, tols, m)
    if isinstance(setup, CheckReport):
        return setup
    pairs = setup.hyp.vertex_indices
    if isinstance(edge, (int, np.integer)):
        if not 1 <= edge <= len(pairs):
            return preconditions_unmet("edge-preimage", f"edge index {edge} out of range", tols)
        k = int(edge) - 1
    else:
        pair = (int(edge[0]), int(edge[1]))
        if pair not in pairs and pair[::-1] not in pairs:
            return preconditions_unmet("edge-preimage", f"{pair} is not a hull edge", tols)
        k = pairs.index(pair if pair in pairs else pair[::-1])

    a, b, normal = setup.hyp.edges[k]
    fan = setup.fan(normal)
    params = np.arange(101) / 100
    slack = TOL.membership_slack * setup.frame.spread
    members = np.array([setup.margin(fan, a + t * (b - a)) <= slack for t in params])
    target = np.abs(params - 0.5) <= tol
    agree = bool(np.array_equal(members, target))
    worst = float(np.max(np.abs(params - 0.5)[members])) if np.any(members) else 0.0
    details = (
        ("member_count", int(np.count_nonzero(members))),
        ("expected_count", int(np.count_nonzero(target))),
        ("worst_member_offset", worst),
    )
    return CheckReport("edge-preimage", PASS if agree else FAIL, worst, details, tols)
