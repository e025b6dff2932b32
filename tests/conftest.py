import dataclasses
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from polycrit import fov, geom, numlin
from polycrit.config import TOL
from polycrit.rng import Xoshiro256StarStar, random_zeros

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


def complex_box(rng: Xoshiro256StarStar) -> complex:
    """Uniform point in [-1, 1) x [-1, 1), real part drawn first."""
    return complex(rng.symmetric(), rng.symmetric())


def random_matrix(rng: Xoshiro256StarStar, n: int) -> np.ndarray:
    """Dense n-by-n matrix with entries uniform on [-1,1) x [-1,1), drawn
    row by row."""
    return np.array([[complex_box(rng) for _ in range(n)] for _ in range(n)])


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


def dft_matrix(n: int) -> np.ndarray:
    """DFT matrix of order n: entry (j, k) = w**(j*k), w = exp(-2*pi*i/n),
    zero-based indices, with j*k reduced mod n so that every entry is a
    machine-accurate root of unity; the dense reference for
    ``matricial.build_construction``."""
    if n < 1:
        raise ValueError("order must be positive")
    idx = np.arange(n)
    table = np.exp(-2j * np.pi * idx / n)
    return table[np.outer(idx, idx) % n]


def evaluate(p, z):
    """Horner evaluation of the ``poly.Polynomial`` p; ``z`` may be a scalar
    or an ndarray. The reference for the rootfinder tests."""
    zz = np.asarray(z, dtype=complex)
    out = np.zeros_like(zz)
    for c in p.coeffs[::-1]:
        out = out * zz + c
    if out.ndim == 0:
        return complex(out)
    return out


class Sweep(NamedTuple):
    """The columns of the dense field-of-values kernel ``fov._boundary``
    at its angles: support values, boundary points and flat flags."""

    thetas: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray
    flat_flags: np.ndarray


def boundary_sweep(a, m: int) -> Sweep:
    """``fov._boundary`` on the grid of ``fov.sweep_angles(m)``, the grid
    ``fov.boundary_polyline(a, m)`` sweeps."""
    thetas = fov.sweep_angles(m)
    return Sweep(thetas, *fov._boundary(numlin.as_square(a), thetas))


def support_point(a, theta: float) -> tuple[float, complex]:
    """Support value of F(a) in direction exp(i*theta) and a boundary point
    attaining it: ``fov._boundary`` at one angle."""
    supports, points, _ = fov._boundary(numlin.as_square(a), np.array([float(theta)]))
    return float(supports[0]), complex(points[0])


def moved_first_face(factor: float):
    """``fov.certify_faces`` with the Rayleigh quotient of its first edge,
    and the upper bound above it, moved up by ``factor`` times
    ``TOL.geometry`` times the spread of the zeros it is given."""
    original = fov.certify_faces

    def moved(u, thetas, pairs):
        faces = original(u, thetas, pairs)
        shift = np.zeros(faces.rayleigh.size)
        shift[0] = factor * TOL.geometry * geom.point_spread(u)
        return dataclasses.replace(faces, rayleigh=faces.rayleigh + shift, upper=faces.upper + shift)

    return moved


def row_major_secular_supports(zeros, thetas):
    """The support of F(A_(1)) from the zeros alone, where A_(1) compresses
    the normal matrix with eigenvalues ``zeros`` by a vector whose entries
    all have modulus 1/sqrt(n): at each angle, x = Re(exp(-i theta) zeros)
    and the support is the largest root of sum 1/(mu - x_k) = 0, by Newton
    from max(x) on the concave F(s) = s + 1 / psi(s), guarded by a bisection
    bracket, one row per angle, until each step is below roundoff. A top
    value attained twice is the support itself. This is the paper's secular
    identity, which the tests hold against dense eigensolves of A_(1)."""
    z = np.asarray(zeros, dtype=complex)
    th = np.asarray(thetas, dtype=float)
    x = np.real(np.exp(-1j * th)[:, None] * z[None, :])
    rows = np.arange(th.size)
    top = np.argmax(x, axis=1)
    x_top = x[rows, top]
    d = x - x_top[:, None]
    d[rows, top] = -np.inf
    lo = np.max(d, axis=1)
    tol = 4.0 * np.finfo(float).eps * (x_top - np.min(x, axis=1))
    s = np.zeros(th.size)
    idx = np.flatnonzero(lo < 0.0)
    d, lo, hi, tol, sa = d[idx], lo[idx], np.zeros(idx.size), tol[idx], np.zeros(idx.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while idx.size:
            inv = np.reciprocal(sa[:, None] - d)
            psi = inv.sum(axis=1)
            f = sa + 1.0 / psi
            below = f < 0.0
            lo, hi = np.where(below, sa, lo), np.where(below, hi, sa)
            new = sa - f / (1.0 + np.einsum("ij,ij->i", inv, inv) / (psi * psi))
            new = np.where((new > lo) & (new <= hi), new, 0.5 * (lo + hi))
            s[idx] = new
            moving = (np.abs(new - sa) > tol) & (hi - lo > tol)
            idx, d, lo, hi, tol, sa = idx[moving], d[moving], lo[moving], hi[moving], tol[moving], new[moving]
    return x_top + s


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
