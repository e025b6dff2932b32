"""Tolerance defaults shared across the package.

Matrix tolerances are relative to the Frobenius norm of the operand
unless a docstring says otherwise; planar-geometry tolerances are
relative to the spread (max pairwise distance) of the input points.
Every checker of zeros runs on the zeros in one frame
(``theorems._frame``: scaled by powers of two and centred at their
centroid) and bounds each length there by its tolerance times the
spread: ``match`` the matched distances of ``main``; ``geometry`` the
hull violations of ``gauss-lucas``, the foci distances and tangency
margins of ``bgm`` and the containment, tangency and midpoint margins of
``siebeck``; ``linalg`` the gaps of ``interlacing``. ``siebeck`` and
``edge-preimage`` count a probe of an edge as a member when its margin
is at most ``membership_slack`` times the spread (the ``geometry`` bound
of ``edge-preimage`` is the midpoint neighborhood in units of the edge
length). ``membership_slack`` sits between the two groups of probe
margins met on drawn instances: at the midpoint they are at most about
1e-15 of the spread, and one probe away at least about 1e-10, so it is
more than two decades from each. The DFT construction checks its FFT
round trip by ``unitarity`` times the largest modulus of the zeros.
``trace_defect`` is absolute on the matrix centred at its mean
eigenvalue and scaled to a Frobenius norm near 1 (``matricial._centred``).
Everything lives in one record so there is a single tuning point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # linear algebra, relative to the Frobenius norm
    unitarity: float = 1e-10
    # eigenvalue-gap threshold below which a top eigenspace of H(theta) is
    # treated as degenerate (flat boundary segment), relative to the power
    # of two of the matrix's largest real or imaginary part
    # (``numlin.binary_exponent``)
    degenerate_gap: float = 1e-10

    # verification defaults; the CLI can override per category
    match: float = 1e-6
    geometry: float = 1e-7
    linalg: float = 1e-8
    membership_slack: float = 1e-12
    trace_defect: float = 1e-8

    # rootfinding
    newton_step: float = 1e-14
    min_leading: float = 1e-300

    # planar geometry, relative to point spread
    dedup: float = 1e-10
    collinear: float = 1e-10


TOL = Tolerances()

DEFAULT_SWEEP_SAMPLES = 720
