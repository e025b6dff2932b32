"""Figure data assembly and SVG rendering.

A figure is a dictionary of named point layers. The SVG viewport is
1000x1000 user units with a 5% margin; the affine map from the complex
plane is stated in the document's ``desc`` element. Every documented
layer group is present in the output even when empty.
"""

from __future__ import annotations

import numpy as np

from . import fov, geom, matricial, numlin, theorems
from .config import DEFAULT_SWEEP_SAMPLES
from .errors import PreconditionsUnmet

LAYERS = ("zeros", "hull", "fov", "inellipse", "critical", "midpoints")

VIEWPORT = 1000.0
MARGIN_FRACTION = 0.05


def figure_layers(zeros, which: str, sweep_samples: int = DEFAULT_SWEEP_SAMPLES) -> dict:
    """Point layers for a midpoint-tangency ("siebeck") or inscribed
    ellipse ("bgm") figure, computed on the zeros in their frame
    (``theorems._frame``) and mapped back to the units of the zeros; the
    hull vertices are the zeros themselves."""
    if which not in ("siebeck", "bgm"):
        raise ValueError(f"unknown figure kind {which!r}")
    frame = theorems._frame(zeros, 2)
    u = frame.u
    hull = geom.convex_hull(u)
    layers: dict = {name: np.array([], dtype=complex) for name in LAYERS}
    layers["zeros"] = frame.zeros
    layers["hull"] = frame.zeros[np.argmax(u[None, :] == hull.vertices[:, None], axis=1)]
    layers["critical"] = theorems.critical_points_oracle(frame.zeros)
    if hull.vertices.size >= 2:
        layers["midpoints"] = frame.points(geom.edge_midpoints(hull))
    if which == "siebeck":
        sub = numlin.principal_submatrix(matricial.build_construction(u), 1)
        layers["fov"] = frame.points(fov.boundary_polyline(sub, sweep_samples))
    else:
        if u.size != 3:
            raise PreconditionsUnmet("bgm figure requires exactly 3 zeros")
        ellipse = geom.steiner_inellipse(u[0], u[1], u[2])
        layers["inellipse"] = frame.points(fov.ellipse_points(ellipse))
        focus1, focus2, center = frame.points([ellipse.focus1, ellipse.focus2, ellipse.center])
        layers["inellipse_params"] = {
            "focus1": [focus1.real, focus1.imag],
            "focus2": [focus2.real, focus2.imag],
            "center": [center.real, center.imag],
            "major_semi_axis": frame.length(ellipse.major_semi_axis),
            "minor_semi_axis": frame.length(ellipse.minor_semi_axis),
            "rotation": ellipse.rotation,
        }
    return layers


def _viewport_transform(layers: dict):
    pts = np.concatenate([np.atleast_1d(layers[name]) for name in LAYERS if len(np.atleast_1d(layers[name]))])
    xmin, xmax = float(np.min(pts.real)), float(np.max(pts.real))
    ymin, ymax = float(np.min(pts.imag)), float(np.max(pts.imag))
    span = max(xmax - xmin, ymax - ymin, 1e-12)
    scale = VIEWPORT * (1.0 - 2.0 * MARGIN_FRACTION) / span
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0

    def to_svg(z: complex) -> tuple[float, float]:
        return (
            VIEWPORT / 2.0 + scale * (z.real - cx),
            VIEWPORT / 2.0 - scale * (z.imag - cy),
        )

    statement = (
        f"x_svg = {VIEWPORT / 2.0!r} + {scale!r} * (re - {cx!r}); "
        f"y_svg = {VIEWPORT / 2.0!r} - {scale!r} * (im - {cy!r})"
    )
    return to_svg, statement


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _polygon_element(points, to_svg, stroke: str, close: bool = True) -> str:
    if len(points) == 0:
        return ""
    coords = " ".join("{},{}".format(_fmt(px), _fmt(py)) for px, py in (to_svg(complex(z)) for z in points))
    tag = "polygon" if close else "polyline"
    return f'<{tag} points="{coords}" fill="none" stroke="{stroke}" stroke-width="2"/>'


def _markers(points, to_svg, shape: str, color: str) -> str:
    parts = []
    for z in points:
        px, py = to_svg(complex(z))
        if shape == "circle":
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="6" fill="{color}"/>')
        elif shape == "dot":
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="{color}"/>')
        else:  # square
            parts.append(
                f'<rect x="{_fmt(px - 4)}" y="{_fmt(py - 4)}" width="8" height="8" fill="{color}"/>'
            )
    return "".join(parts)


def render_svg(layers: dict) -> str:
    """Standalone SVG with one group per documented layer name."""
    to_svg, statement = _viewport_transform(layers)
    body = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT:g}" height="{VIEWPORT:g}" '
        f'viewBox="0 0 {VIEWPORT:g} {VIEWPORT:g}">',
        f"<desc>viewport transform: {statement}</desc>",
        f'<g id="hull">{_polygon_element(layers["hull"], to_svg, "#888888")}</g>',
        f'<g id="fov">{_polygon_element(layers["fov"], to_svg, "#1f77b4")}</g>',
        f'<g id="inellipse">{_polygon_element(layers["inellipse"], to_svg, "#2ca02c")}</g>',
        f'<g id="zeros">{_markers(layers["zeros"], to_svg, "circle", "#000000")}</g>',
        f'<g id="critical">{_markers(layers["critical"], to_svg, "dot", "#d62728")}</g>',
        f'<g id="midpoints">{_markers(layers["midpoints"], to_svg, "square", "#ff7f0e")}</g>',
        "</svg>",
    ]
    return "\n".join(body) + "\n"


def layers_to_jsonable(layers: dict) -> dict:
    out: dict = {}
    for name in LAYERS:
        pts = np.atleast_1d(layers[name])
        out[name] = [[z.real, z.imag] for z in pts]
    if "inellipse_params" in layers:
        out["inellipse_params"] = layers["inellipse_params"]
    return out


def layers_to_csv(layers: dict) -> str:
    rows = ["layer,index,re,im"]
    for name in LAYERS:
        for k, z in enumerate(np.atleast_1d(layers[name])):
            rows.append(f"{name},{k},{float(z.real)!r},{float(z.imag)!r}")
    return "\n".join(rows) + "\n"
