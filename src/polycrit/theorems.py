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
    gives them; ``spread`` is the scale the tolerances are relative to."""

    simple_vertex_eigenvalues: bool
    strict_half_plane: bool
    vertex_indices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[complex, complex, complex], ...]
    spread: float

    @property
    def holds(self) -> bool:
        return self.simple_vertex_eigenvalues and self.strict_half_plane


def _as_zeros(zeros) -> np.ndarray:
    z = np.atleast_1d(np.asarray(zeros, dtype=complex))
    if z.size == 0:
        raise ValueError("empty zero set")
    if not np.all(np.isfinite(z)):
        raise ValueError("zeros must be finite")
    return z


def critical_points_oracle(zeros) -> np.ndarray:
    """Roots of p' for monic p with the given zeros, by Aberth-Ehrlich
    iteration on the logarithmic derivative S1(c) = sum 1/(c - z_k). It
    forms no coefficient and calls no eigensolver, so it is independent
    of the submatrix route.

    The zeros are centred at their centroid and scaled by the power of two
    nearest their spread, and the critical points are mapped back. A zero
    of multiplicity k is a critical point of multiplicity k - 1 and is
    returned as it is (up to the roundoff of that map); the others are the
    zeros of S1 over the distinct zeros, weighted by multiplicity.
    """
    z = _as_zeros(zeros)
    if z.size < 2:
        raise ValueError("need at least 2 zeros")
    spread = geom.point_spread(z)
    if spread == 0.0:
        return np.full(z.size - 1, z[0])
    scale = 2.0 ** round(math.log2(spread))  # scaling by it is exact
    center = z.mean()
    u, mult = np.unique((z - center) / scale, return_counts=True)
    weights = mult.astype(float)
    free = _aberth(u, weights, _aberth_start(u, weights))
    return center + scale * np.concatenate([free, np.repeat(u, mult - 1)])


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
    of the zeros. Critical points move with the zeros under affine maps,
    so both routes run on the zeros centred at their centroid and scaled
    by their spread, and no route loses accuracy to an offset of the zeros
    from the origin; distances are reported in the units of the zeros.

    A is built once and certified exactly circulant, A = roll(A, (1, 1)),
    so every A_(i) is a permutation similarity of A_(1): one eigensolve
    and one matching decide all n submatrices."""
    z = _as_zeros(zeros)
    tols = {"match": tol}
    if z.size < 2:
        return preconditions_unmet("main", "need at least 2 zeros", tols)
    scale = geom.point_spread(z) or 1.0
    u = (z - z.mean()) / scale
    oracle = critical_points_oracle(u)
    a = matricial.build_construction(u)
    if not np.array_equal(a, np.roll(a, (1, 1), axis=(0, 1))):
        raise NumericalError("constructed A is not circulant")
    report = poly.multiset_match(numlin.general_eigvals(numlin.principal_submatrix(a, 1)), oracle, tol)
    worst = report.max_distance * scale
    details = (
        ("submatrices_checked", z.size),
        ("max_matched_distance", worst),
    )
    return CheckReport("main", PASS if report.matched else FAIL, worst, details, tols)


def check_gauss_lucas(zeros, tol: float = TOL.geometry) -> CheckReport:
    """Every critical point lies in the convex hull of the zeros, within
    signed distance ``tol`` times the spread of the zeros."""
    z = _as_zeros(zeros)
    tols = {"geometry": tol}
    if z.size < 2:
        return preconditions_unmet("gauss-lucas", "need at least 2 zeros", tols)
    hull = geom.convex_hull(z, tol=1e-12)
    crit = critical_points_oracle(z)
    worst = float(np.max(geom.hull_violation(hull, crit)))
    details = (
        ("hull_vertices", int(hull.vertices.size)),
        ("critical_points", int(crit.size)),
        ("worst_signed_distance", worst),
    )
    verdict = PASS if worst <= tol * geom.point_spread(z) else FAIL
    return CheckReport("gauss-lucas", verdict, worst, details, tols)


def check_interlacing(zeros, tol: float = TOL.linalg) -> CheckReport:
    """For real zeros sorted descending, critical points separate the
    zeros: lam_k >= mu_k >= lam_{k+1}, each within ``tol`` times the
    spread of the zeros. Zeros count as real when no imaginary part
    exceeds ``tol`` times the spread (none may be nonzero when ``tol`` is
    negative). ``worst_gap`` is the largest of the signed gaps, negative
    when the interlacing is strict, so a negative ``tol`` asks for a
    margin."""
    z = _as_zeros(zeros)
    tols = {"linalg": tol}
    if z.size < 2:
        return preconditions_unmet("interlacing", "need at least 2 zeros", tols)
    spread = geom.point_spread(z)
    imag_max = float(np.max(np.abs(z.imag)))
    if imag_max > max(tol, 0.0) * spread:
        return preconditions_unmet(
            "interlacing", "zeros are not real", tols, (("max_imag", imag_max),)
        )
    lam = np.sort(z.real)[::-1]
    mu = np.sort(critical_points_oracle(z).real)[::-1]
    worst = float(max(np.max(mu - lam[:-1]), np.max(lam[1:] - mu)))
    details = (("worst_gap", worst),)
    verdict = PASS if worst <= tol * spread else FAIL
    return CheckReport("interlacing", verdict, worst, details, tols)


def check_siebeck_hypotheses(zeros, tol: float = TOL.geometry) -> SiebeckHypotheses:
    """Evaluate the two tangency hypotheses on the hull of the zeros.

    ``tol`` is relative to the spread of the zeros: it is both the
    clustering radius for vertex multiplicity and the required strict
    half-plane margin. Raises if the hull has fewer than 3 vertices.
    """
    z = _as_zeros(zeros)
    if z.size < 3:
        raise ValueError("need at least 3 zeros")
    edges = geom.polygon_edges(geom.convex_hull(z, tol=1e-12))
    spread = geom.point_spread(z)
    radius = tol * spread

    verts = np.array([a for a, _, _ in edges])
    normals = np.array([normal for _, _, normal in edges])
    dists = np.abs(z[None, :] - verts[:, None])
    simple = bool(np.all(np.count_nonzero(dists <= radius, axis=1) == 1))
    first = np.argmin(dists, axis=1)  # zero at each hull vertex, so at each edge's start
    last = np.roll(first, -1)
    signed = (np.conj(normals)[:, None] * (z[None, :] - verts[:, None])).real
    rows = np.arange(len(edges))
    signed[rows, first] = signed[rows, last] = -math.inf  # an edge's endpoints are not tested
    strict = not np.any(signed > -radius)
    pairs = tuple(zip((first + 1).tolist(), (last + 1).tolist()))
    return SiebeckHypotheses(simple, strict, pairs, edges, spread)


def _hull_supports(zeros: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    return np.max(np.real(np.exp(-1j * thetas)[:, None] * zeros[None, :]), axis=1)


def _edge_fan(theta_e: float) -> np.ndarray:
    """Support angles refined geometrically around an edge normal.

    Margins of points near a tangency are attained at angles close to
    the edge normal; geometric spacing resolves the optimum with a
    relative error independent of how flat the boundary is there. The
    resulting membership test stays an outer (sound) certificate.
    """
    offsets = np.geomspace(1e-6, 0.7, 48)
    return theta_e + np.concatenate([-offsets[::-1], [0.0], offsets])


@dataclass(frozen=True)
class _Tangency:
    """What both tangency checkers sweep: the zeros, their hypotheses
    (hull edges and spread included), ``A_(1)``, and its supports on the
    uniform angle grid."""

    zeros: np.ndarray
    hyp: SiebeckHypotheses
    sub: np.ndarray
    thetas: np.ndarray
    supports: np.ndarray

    def fan(self, normal: complex) -> tuple[np.ndarray, np.ndarray]:
        """Angles of the fan around an edge normal and the supports of
        ``A_(1)`` there; the fan center is the normal itself."""
        angles = _edge_fan(math.atan2(normal.imag, normal.real))
        return angles, fov.sweep_supports(self.sub, angles)

    def margin(self, fan: tuple[np.ndarray, np.ndarray], point: complex) -> float:
        """Outer membership margin of a point on an edge: the larger of
        its margins on the uniform grid and on the edge's fan."""
        return max(fov.point_margin(self.thetas, self.supports, point), fov.point_margin(*fan, point))


def _tangency_setup(
    theorem: str, zeros, tols: dict[str, float], hyp_tol: float, m: int
) -> CheckReport | _Tangency:
    """The preconditions report when the tangency hypotheses fail, else
    the shared record of the tangency checkers. The zeros are centred at
    their centroid first: the field of values moves with them, every
    margin is a difference, and probes far from the origin would lose
    more to roundoff than the membership slack allows."""
    z = _as_zeros(zeros)
    z = z - z.mean()
    try:
        hyp = check_siebeck_hypotheses(z, hyp_tol)
    except ValueError as exc:
        return preconditions_unmet(theorem, str(exc), tols)
    if not hyp.holds:
        return preconditions_unmet(
            theorem,
            "hypothesis flags not satisfied",
            tols,
            (
                ("simple_vertex_eigenvalues", hyp.simple_vertex_eigenvalues),
                ("strict_half_plane", hyp.strict_half_plane),
            ),
        )
    sub = numlin.principal_submatrix(matricial.build_construction(z), 1)
    thetas = 2.0 * np.pi * np.arange(m) / m
    return _Tangency(z, hyp, sub, thetas, fov.sweep_supports(sub, thetas))


def check_poor_mans_siebeck(
    zeros,
    m: int = DEFAULT_SWEEP_SAMPLES,
    tol: float = TOL.geometry,
    hyp_tol: float = TOL.geometry,
    probes_per_edge: int = 41,
) -> CheckReport:
    """The field of values of the first principal submatrix is contained
    in the hull of the zeros and touches every hull edge at its midpoint,
    each within ``tol`` times the spread of the zeros, and no probe of an
    edge outside the 5% neighborhood of its midpoint belongs to it: each
    has a margin of more than ``TOL.membership_slack`` times the spread,
    the membership rule of ``check_edge_preimage``."""
    slack = TOL.membership_slack
    tols = {"geometry": tol, "hypotheses": hyp_tol, "membership_slack": slack}
    setup = _tangency_setup("siebeck", zeros, tols, hyp_tol, m)
    if isinstance(setup, CheckReport):
        return setup
    containment_excess = float(np.max(setup.supports - _hull_supports(setup.zeros, setup.thetas)))

    params = [p / (probes_per_edge - 1) for p in range(probes_per_edge)]
    params = [t for t in params if abs(t - 0.5) > 0.05]
    tangency_gap = 0.0
    midpoint_excess = -math.inf
    uniqueness_margin = math.inf
    for a, b, normal in setup.hyp.edges:
        fan = setup.fan(normal)
        sub_at_edge = float(fan[1][fan[1].size // 2])  # the fan center is the normal
        tangency_gap = max(tangency_gap, abs(sub_at_edge - (np.conj(normal) * a).real))
        midpoint_excess = max(midpoint_excess, setup.margin(fan, (a + b) / 2.0))
        for t in params:
            uniqueness_margin = min(uniqueness_margin, setup.margin(fan, a + t * (b - a)))

    worst = max(containment_excess, tangency_gap, midpoint_excess)
    bound = tol * setup.hyp.spread
    ok = worst <= bound and uniqueness_margin > slack * setup.hyp.spread
    details = (
        ("containment_excess", containment_excess),
        ("tangency_gap", tangency_gap),
        ("midpoint_excess", midpoint_excess),
        ("uniqueness_min_margin", uniqueness_margin),
        ("hull_vertices", len(setup.hyp.edges)),
    )
    return CheckReport("siebeck", PASS if ok else FAIL, worst, details, tols)


def check_bgm(zeros, tol: float = TOL.geometry) -> CheckReport:
    """The foci of the inscribed midpoint-tangent ellipse of the triangle
    of zeros coincide with the critical points, and the tangency holds on
    all three sides."""
    z = _as_zeros(zeros)
    tols = {"geometry": tol}
    if z.size != 3:
        return preconditions_unmet("bgm", "exactly 3 zeros required", tols)
    try:
        ellipse = geom.steiner_inellipse(z[0], z[1], z[2])
    except ValueError as exc:
        return preconditions_unmet("bgm", str(exc), tols)
    crit = critical_points_oracle(z)
    match = poly.multiset_match(np.array([ellipse.focus1, ellipse.focus2]), crit, tol)
    tangent_all = True
    try:
        for k in range(3):
            if not geom.ellipse_tangency_check(ellipse, z[k], z[(k + 1) % 3], tol):
                tangent_all = False
    except ValueError as exc:
        return preconditions_unmet("bgm", f"inellipse degenerate: {exc}", tols)
    ok = match.matched and tangent_all
    details = (
        ("foci_match_distance", match.max_distance),
        ("tangent_all_sides", tangent_all),
    )
    return CheckReport("bgm", PASS if ok else FAIL, match.max_distance, details, tols)


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
    zeros,
    edge: int | tuple[int, int],
    samples: int = 101,
    tol: float = TOL.geometry,
    m: int = DEFAULT_SWEEP_SAMPLES,
    slack: float = TOL.membership_slack,
    hyp_tol: float = TOL.geometry,
) -> CheckReport:
    """Probe a hull edge: the only probed points of the edge segment that
    belong to the field of values of the first principal submatrix are
    those within ``tol`` of the midpoint (in units of the edge length).
    A probe belongs when its margin is at most ``slack`` times the
    spread of the zeros.

    ``edge`` is either the 1-based position of the edge on the hull,
    counterclockwise as in ``check_siebeck_hypotheses(zeros).vertex_indices``,
    or a pair of 1-based indices into the zeros naming a hull edge in
    either order. The edge is probed in its counterclockwise direction.
    """
    if samples < 3:
        raise ValueError("need at least 3 probes")
    tols = {"geometry": tol, "membership_slack": slack, "hypotheses": hyp_tol}
    setup = _tangency_setup("edge-preimage", zeros, tols, hyp_tol, m)
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
    params = np.arange(samples) / (samples - 1)
    slack_abs = slack * setup.hyp.spread
    members = np.array([setup.margin(fan, a + t * (b - a)) <= slack_abs for t in params])
    target = np.abs(params - 0.5) <= tol
    agree = bool(np.array_equal(members, target))
    worst = float(np.max(np.abs(params - 0.5)[members])) if np.any(members) else 0.0
    details = (
        ("member_count", int(np.count_nonzero(members))),
        ("expected_count", int(np.count_nonzero(target))),
        ("worst_member_offset", worst),
    )
    return CheckReport("edge-preimage", PASS if agree else FAIL, worst, details, tols)
