import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from polycrit import fov, geom, theorems
from polycrit.rng import Xoshiro256StarStar, random_matrix, random_zeros

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return Xoshiro256StarStar(0x5EED)


def make_rng(seed: int) -> Xoshiro256StarStar:
    return Xoshiro256StarStar(seed)


def random_hermitian(rng: Xoshiro256StarStar, n: int) -> np.ndarray:
    m = random_matrix(rng, n)
    return (m + m.conj().T) / 2.0


def random_unitary(rng: Xoshiro256StarStar, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_normal_matrix(rng: Xoshiro256StarStar, n: int) -> np.ndarray:
    u = random_unitary(rng, n)
    lam = random_zeros(rng, n)
    return (u * lam[None, :]) @ u.conj().T


def moved_secular_supports(sign: float):
    """``fov.secular_supports`` with the fourth of the 8 containment angles
    of ``check_poor_mans_siebeck`` moved by ``sign`` times its certificate's
    delta."""
    original = fov.secular_supports

    def moved(u, thetas):
        supports = original(u, thetas)
        supports[3] += sign * theorems._CONTAINMENT_DELTA * geom.point_spread(u)
        return supports

    return moved


def scipy_bottleneck(cost):
    """Reference for ``poly._bottleneck_pairing``: scipy's maximum
    bipartite matching on the threshold graph {cost <= bound}, binary
    searched over the sorted distinct costs."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    bounds = np.unique(cost)
    lo, hi = 0, bounds.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        rows = csgraph.maximum_bipartite_matching(sparse.csr_array(cost <= bounds[mid]), perm_type="column")
        if np.all(rows >= 0):
            hi = mid
        else:
            lo = mid + 1
    return bounds[lo]
