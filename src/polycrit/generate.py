"""Random instance generation with optional hypothesis filtering."""

from __future__ import annotations

import numpy as np

from .errors import GenerationCapExceeded
from .rng import Xoshiro256StarStar, random_zeros
from .theorems import check_siebeck_hypotheses

CONSTRAINTS = ("none", "real", "siebeck-ok")


def generate_zeros(
    rng: Xoshiro256StarStar, n: int, constraint: str = "none", max_attempts: int = 1000
) -> np.ndarray:
    """Draw n zeros: unit disk by default, real interval for "real",
    and rejection-resampled until the tangency hypotheses hold for
    "siebeck-ok" (at most ``max_attempts`` tries)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    if constraint == "real":
        return random_zeros(rng, n, real=True)
    if constraint == "none":
        return random_zeros(rng, n)
    for _ in range(max_attempts):
        zeros = random_zeros(rng, n)
        try:
            if check_siebeck_hypotheses(zeros).holds:
                return zeros
        except ValueError:
            continue
    raise GenerationCapExceeded(f"no hypothesis-satisfying instance in {max_attempts} attempts")
