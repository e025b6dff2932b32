"""Random instance generation with optional hypothesis filtering."""

from __future__ import annotations

import numpy as np

from .errors import GenerationCapExceeded, PreconditionsUnmet
from .rng import Xoshiro256StarStar, random_zeros
from .theorems import check_siebeck_hypotheses

CONSTRAINTS = ("none", "real", "siebeck-ok")
_MAX_ATTEMPTS = 1000


def generate_zeros(rng: Xoshiro256StarStar, n: int, constraint: str = "none") -> np.ndarray:
    """Draw n zeros: unit disk by default, real interval for "real",
    and rejection-resampled until the tangency hypotheses hold for
    "siebeck-ok" (at most ``_MAX_ATTEMPTS`` tries)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    if constraint == "real":
        return random_zeros(rng, n, real=True)
    if constraint == "none":
        return random_zeros(rng, n)
    for _ in range(_MAX_ATTEMPTS):
        zeros = random_zeros(rng, n)
        try:
            if check_siebeck_hypotheses(zeros).holds:
                return zeros
        except PreconditionsUnmet:
            continue
    raise GenerationCapExceeded(f"no hypothesis-satisfying instance in {_MAX_ATTEMPTS} attempts")
