"""Planar convex geometry on complex points: hulls, membership, and the
inscribed midpoint-tangent ellipse of a triangle.

Predicates use tolerances relative to the spread of the input (largest
pairwise distance), so they are invariant under similarity transforms.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .fov import EllipseParams, ellipse_from_foci


def point_spread(points) -> float:
    """Largest pairwise distance."""
    p = np.atleast_1d(np.asarray(points, dtype=complex))
    if p.size < 2:
        return 0.0
    return float(np.max(np.abs(p[:, None] - p[None, :])))


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a - o).real * (b - o).imag - (a - o).imag * (b - o).real


@dataclass(frozen=True)
class ConvexPolygon:
    """Counterclockwise vertex list; 1 or 2 vertices encode a point or a
    segment. Clockwise input is reversed on ingestion so every consumer
    sees one orientation convention."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vertices, dtype=complex))
        if v.size == 0:
            raise ValueError("polygon needs at least one vertex")
        if v.size >= 3:
            area2 = sum(
                (v[k].real * v[(k + 1) % v.size].imag - v[k].imag * v[(k + 1) % v.size].real)
                for k in range(v.size)
            )
            if area2 < 0:
                v = v[::-1].copy()
        object.__setattr__(self, "vertices", v)
        if v.size < 3:
            return
        scale = point_spread(v)
        n = v.size
        for k in range(n):
            if abs(v[k] - v[(k + 1) % n]) <= TOL.dedup * scale:
                raise ValueError("vertices must be distinct")
            if _cross(v[k], v[(k + 1) % n], v[(k + 2) % n]) < -1e-12 * scale**2:
                raise ValueError("vertices must turn counterclockwise")


def _chord_distance(z: complex, a: complex, b: complex) -> float:
    """Distance from z to the segment ab, a != b."""
    d = b - a
    t = min(max(((z - a) * d.conjugate()).real / (d.real * d.real + d.imag * d.imag), 0.0), 1.0)
    return abs(z - a - t * d)


def _segment_distance(z: np.ndarray, a: complex, b: complex) -> np.ndarray:
    d = b - a
    if d == 0:
        return np.abs(z - a)
    t = np.clip(((z - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
    return np.abs(z - (a + t * d))


def _merge_coincident(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """The points in lexsort order, each dropped when an earlier kept point
    lies within ``TOL.dedup`` times their spread, and that spread.

    A point with no neighbor within the merge radius is always kept, so
    the greedy rule runs only over the points that have one.
    """
    p = pts[np.lexsort((pts.imag, pts.real))]
    dist = np.abs(p[:, None] - p[None, :])
    scale = float(np.max(dist))
    near = dist <= TOL.dedup * scale
    np.fill_diagonal(near, False)
    keep = ~np.any(near, axis=1)
    for k in np.flatnonzero(~keep):
        keep[k] = not np.any(near[k] & keep)
    return p[keep], scale


def convex_hull(points, tol: float = TOL.geometry) -> ConvexPolygon:
    """Counterclockwise convex hull by monotone chain.

    Coincident inputs are merged at ``TOL.dedup * spread`` and vertices
    within ``tol * spread`` of the chord of their neighbors are dropped,
    so near-collinear triples do not produce sliver vertices. The distance
    is to the chord as a segment, not to its line: on a sliver hull of
    nearly collinear points an extreme vertex lies on the line through its
    neighbors but beyond them, and must stay. Collapsed outputs are a
    single point or a segment.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if pts.size == 0:
        raise ValueError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    merged, scale = _merge_coincident(pts)
    if scale == 0.0:
        return ConvexPolygon(np.array([pts[0]]))
    kept = [complex(w) for w in merged]
    if len(kept) == 1:
        return ConvexPolygon(np.array(kept))

    def chain(seq):
        out: list[complex] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = chain(kept)
    upper = chain(kept[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return ConvexPolygon(np.array([kept[0], kept[-1]]))

    # drop vertices within tol*scale of the chord of their neighbors
    changed = True
    while changed and len(hull) > 2:
        changed = False
        for k in range(len(hull)):
            prev = hull[k - 1]
            nxt = hull[(k + 1) % len(hull)]
            if _chord_distance(hull[k], prev, nxt) <= tol * scale:
                del hull[k]
                changed = True
                break
    return ConvexPolygon(np.array(hull))


def edge_midpoints(p: ConvexPolygon) -> np.ndarray:
    """Midpoints of the polygon sides, cyclically; a segment has one."""
    v = p.vertices
    if v.size < 2:
        raise ValueError("a single vertex has no edges")
    if v.size == 2:
        return np.array([(v[0] + v[1]) / 2.0])
    return (v + np.roll(v, -1)) / 2.0


def polygon_edges(p: ConvexPolygon) -> tuple[tuple[complex, complex, complex], ...]:
    """The sides of a polygon with at least 3 vertices as
    ``(a, b, outward unit normal)``, counterclockwise from the first
    vertex. The signed distance of z past the side's line is
    ``(conj(normal) * (z - a)).real``."""
    v = p.vertices
    if v.size < 3:
        raise ValueError("fewer than 3 hull vertices")
    edges = []
    for k in range(v.size):
        a, b = complex(v[k]), complex(v[(k + 1) % v.size])
        normal = -1j * (b - a)
        edges.append((a, b, normal / abs(normal)))
    return tuple(edges)


def hull_violation(p: ConvexPolygon, z):
    """Worst signed distance of z to the polygon edge lines (positive
    outside): a float for one point, an array for an array of points,
    with the edges computed once. Degenerate polygons measure plain
    distance."""
    v = p.vertices
    zz = np.asarray(z, dtype=complex)
    if v.size == 1:
        out = np.abs(zz - v[0])
    elif v.size == 2:
        out = _segment_distance(zz, complex(v[0]), complex(v[1]))
    else:
        starts, _, normals = (np.array(col) for col in zip(*polygon_edges(p)))
        signed = (np.conj(normals)[:, None] * (zz.reshape(1, -1) - starts[:, None])).real
        out = np.max(signed, axis=0).reshape(zz.shape)
    return float(out) if out.ndim == 0 else out


def point_in_hull(p: ConvexPolygon, z: complex, tol: float = TOL.geometry) -> bool:
    """True iff z is within absolute distance ``tol`` of the closed
    polygon (signed distance to every edge line at least -tol)."""
    return hull_violation(p, z) <= tol


def steiner_inellipse(v1: complex, v2: complex, v3: complex) -> EllipseParams:
    """The inscribed ellipse of a triangle tangent to each side at its
    midpoint, constructed geometrically.

    The affine map sending the reference equilateral triangle
    (1, w, w^2), w = exp(2*pi*i/3), to (v1, v2, v3) carries that
    triangle's incircle (center 0, radius 1/2) to the inellipse. The
    center is the centroid; axes and orientation come from the singular
    value decomposition of the real 2x2 linear part scaled by 1/2. This
    never touches any derivative or eigenvalue computation, so it can sit
    on the opposite side of a verification from a critical-point solver.
    """
    a, b, c = complex(v1), complex(v2), complex(v3)
    scale = point_spread([a, b, c])
    if abs(((b - a) * np.conj(c - a)).imag) <= TOL.collinear * scale**2:
        raise ValueError("vertices are collinear")
    centroid = (a + b + c) / 3.0
    w = np.exp(2j * np.pi / 3.0)
    refs = np.array([1.0, w, w**2])
    rel = np.array([a, b, c]) - centroid
    alpha = complex(np.mean(rel * np.conj(refs)))
    beta = complex(np.mean(rel * refs))
    # real 2x2 matrix of z -> (alpha z + beta conj(z)) / 2
    lin = 0.5 * np.array(
        [
            [(alpha + beta).real, (beta - alpha).imag],
            [(alpha + beta).imag, (alpha - beta).real],
        ]
    )
    u, s, _ = np.linalg.svd(lin)
    major, minor = float(s[0]), float(s[1])
    axis = complex(u[0, 0], u[1, 0])
    half_focal = math.sqrt(max(major**2 - minor**2, 0.0))
    return ellipse_from_foci(centroid - half_focal * axis, centroid + half_focal * axis, minor)

