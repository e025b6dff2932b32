"""Planar convex geometry on complex points: hulls, hull violations, and the
inscribed midpoint-tangent ellipse of a triangle.

Predicates use tolerances relative to the spread of the input (largest
pairwise distance), so they are invariant under similarity transforms.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import PreconditionsUnmet
from .fov import EllipseParams, ellipse_from_foci


# From this many points on, ``point_spread`` and ``convex_hull`` first drop
# the points deep inside the hull (``_hull_candidates``); below it the
# filter costs more than the pairwise work it saves.
_FILTER_FROM = 64
# The depth, relative to the diagonal of the bounding box, past which a
# point counts as deep. It is 1e4 times ``TOL.dedup``: a chain of merges at
# the dedup radius from a dropped point to the hull would need 1e4 points.
_FILTER_DEPTH = 1e-6
# conjugates of 1, 1 + i, i and -1 + i: projections on them are exact on the axes
_DIRECTIONS = np.array([1, 1 - 1j, -1j, -1 - 1j])[:, None]
_NEXT_CORNER = np.roll(np.arange(8), -1)
# ``convex_hull`` drops a vertex within this many spreads of the chord of its neighbors.
_SLIVER = 1e-12


def _hull_candidates(p: np.ndarray) -> np.ndarray:
    """The points that can be hull vertices or ends of the largest pairwise
    distance: ``p`` without the points inside the polygon of its extreme
    points in the 8 directions k pi / 4 (Akl & Toussaint, Inform. Process.
    Lett. 7, 1978) by more than ``_FILTER_DEPTH`` times the diagonal of
    its bounding box. A point on the inner side of every side of a closed
    polygon of points of ``p`` is inside their hull, so the test needs no
    exact extremes. Points on one horizontal line (exactly real points)
    keep only those within that depth of its two ends. That depth is far
    above the merge radius and the roundoff of the test, so merging, the
    monotone chain and the sliver rule see the same points near the hull.
    Below ``_FILTER_FROM`` points ``p`` is returned as it is.
    """
    if p.size < _FILTER_FROM:
        return p
    proj = (_DIRECTIONS * p).real
    # counterclockwise: the largest projections on the 4 directions, then the least
    corners = p[np.concatenate([proj.argmax(axis=1), proj.argmin(axis=1)])]
    margin = _FILTER_DEPTH * abs(complex((corners[0] - corners[4]).real, (corners[2] - corners[6]).imag))
    if corners[2].imag == corners[6].imag:
        x = p.real
        return p[(x <= corners[4].real + margin) | (x >= corners[0].real - margin)]
    sides = corners[_NEXT_CORNER] - corners
    proper = sides != 0
    corners, sides = corners[proper, None], sides[proper, None]
    # the cross product of each side with each point, as ``_cross`` forms it
    cross = (np.conj(sides) * (p - corners)).imag
    return p[~np.all(cross > margin * np.abs(sides), axis=0)]


def point_spread(points) -> float:
    """Largest pairwise distance. It is attained at hull vertices, so from
    ``_FILTER_FROM`` points on only ``_hull_candidates`` are compared; the
    value is the same bit for bit."""
    p = np.atleast_1d(np.asarray(points, dtype=complex))
    if p.size < 2:
        return 0.0
    p = _hull_candidates(p)
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


def convex_hull(points) -> ConvexPolygon:
    """Counterclockwise convex hull by monotone chain.

    Coincident inputs are merged at ``TOL.dedup * spread`` and vertices
    within ``_SLIVER * spread`` of the chord of their neighbors are dropped,
    so near-collinear triples do not produce sliver vertices. The distance
    is to the chord as a segment, not to its line: on a sliver hull of
    nearly collinear points an extreme vertex lies on the line through its
    neighbors but beyond them, and must stay.
    Collapsed outputs are a single point or a segment. From
    ``_FILTER_FROM`` points on, the points deep inside the hull are dropped
    first (``_hull_candidates``); the hull is the same bit for bit.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if pts.size == 0:
        raise ValueError("need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    merged, scale = _merge_coincident(_hull_candidates(pts))
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

    # drop vertices within _SLIVER * scale of the chord of their neighbors
    changed = True
    while changed and len(hull) > 2:
        changed = False
        for k in range(len(hull)):
            prev = hull[k - 1]
            nxt = hull[(k + 1) % len(hull)]
            if _chord_distance(hull[k], prev, nxt) <= _SLIVER * scale:
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
        raise PreconditionsUnmet("vertices are collinear")
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

