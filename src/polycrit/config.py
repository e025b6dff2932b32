"""The verification bounds the checkers apply, and the sweep density.

Every checker of zeros runs on the zeros in one frame
(``theorems._frame``: scaled by powers of two and centred at their
centroid) and bounds each length there by its tolerance times the spread
of the zeros (their largest pairwise distance): ``match`` the matched
distances of ``main``; ``geometry`` the hull violations of
``gauss-lucas``, the foci distances and tangency distances of ``bgm`` and
the containment, tangency and face radii of ``siebeck`` and
``edge-preimage``; ``linalg`` the gaps of ``interlacing``. Each report
echoes the bounds it applied in ``tolerances_used``. One exception:
``elliptical-range`` bounds by ``match`` times the Frobenius norm of its
matrix. A guard of one kernel is a constant of that kernel's module. The
sweep density is that of ``elliptical-range`` and of the figures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Defaults of the verification bounds; the CLI can override each."""

    match: float = 1e-6
    geometry: float = 1e-7
    linalg: float = 1e-8


TOL = Tolerances()

DEFAULT_SWEEP_SAMPLES = 720
