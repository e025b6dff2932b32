"""The verification bounds the checkers apply, and the sweep density.

Every checker of zeros runs on the zeros in one frame
(``theorems._frame``: scaled by powers of two and centred at their
centroid) and bounds each length there by its tolerance times the spread
of the zeros (their largest pairwise distance): ``match`` the matched
distances of ``main``; ``geometry`` the hull violations of
``gauss-lucas``, the foci distances and tangency margins of ``bgm`` and
the containment, tangency and midpoint margins of ``siebeck``; ``linalg``
the gaps of ``interlacing``; ``membership_slack`` the margin at which
``siebeck`` and ``edge-preimage`` count a probe of an edge as a member.
Each report echoes the bounds it applied in ``tolerances_used``.
Two exceptions: ``elliptical-range`` bounds by ``match`` times the
Frobenius norm of its matrix, and the ``geometry`` bound of
``edge-preimage`` is the midpoint neighborhood in units of the edge
length. A guard of one kernel is a constant of that kernel's module.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Defaults of the verification bounds; the CLI can override the first three."""

    match: float = 1e-6
    geometry: float = 1e-7
    linalg: float = 1e-8
    # At the midpoint a probe's margin is roundoff, at most about 1e-15 of
    # the spread; away from it nothing bounds the margin from below. Drawn
    # unit-disk zeros keep it above about 1e-10, but where F(A_(1)) is
    # nearly a segment (zeros whose sizes span many decades) probes far
    # from the midpoint sit at roundoff too, and the slack takes them for
    # members: a false ``fail``.
    membership_slack: float = 1e-12


TOL = Tolerances()

DEFAULT_SWEEP_SAMPLES = 720
