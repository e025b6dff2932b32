"""Field of values (numerical range): support sweep, membership
margins, the determinant form of the boundary curve, and the 2x2
elliptical case.

The support function of F(a) in direction exp(i*theta) is the largest
eigenvalue of

    H(theta) = (exp(-i*theta) a + exp(i*theta) a*) / 2
             = H1 cos(theta) + H2 sin(theta),

with H1 = (a + a*)/2 and H2 = (a - a*)/(2i). A top eigenvector x gives
the boundary point x* a x, whose projection Re(exp(-i*theta) x* a x)
equals the support value. ``support_point`` and ``boundary_polyline``
share one kernel, ``_boundary``: one batched eigensolve over their
angles, with the flat-segment rule relative to the matrix's power of
two. ``sweep_supports`` takes the support values alone from the
eigenvalues.

When a = A_(1) compresses a normal A with eigenvalues z_k by a vector
whose entries all have modulus 1/sqrt(n), as the DFT construction of
``matricial`` does, H(theta) compresses diag(x) with x_k =
Re(exp(-i*theta) z_k), so the support is the largest root mu of the
secular equation sum_k 1/(mu - x_k) = 0: the largest critical point of
prod_k (mu - x_k). ``secular_supports`` solves it from the zeros in O(n)
per angle and Newton step, and the tangency checkers sweep with it; a
dense ``sweep_supports`` of the constructed A_(1) at a few angles is
their runtime cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SWEEP_SAMPLES, TOL
from .errors import NumericalError
from .numlin import adjoint, as_square, binary_exponent, ldexp


@dataclass(frozen=True)
class EllipseParams:
    """A possibly degenerate ellipse: coincident foci give a circle,
    zero minor semi-axis gives a segment. ``ellipse_from_foci`` orders the
    foci, which fixes the rotation."""

    focus1: complex
    focus2: complex
    minor_semi_axis: float

    def __post_init__(self):
        if self.minor_semi_axis < 0.0:
            raise ValueError("minor semi-axis must be nonnegative")

    @property
    def center(self) -> complex:
        return (self.focus1 + self.focus2) / 2.0

    @property
    def major_semi_axis(self) -> float:
        return math.hypot(self.minor_semi_axis, abs(self.focus2 - self.focus1) / 2.0)

    @property
    def rotation(self) -> float:
        """arg(focus2 - focus1) in (-pi, pi], zero for coincident foci."""
        d = self.focus2 - self.focus1
        return 0.0 if d == 0 else math.atan2(d.imag, d.real)


def ellipse_from_foci(f1: complex, f2: complex, minor_semi_axis: float) -> EllipseParams:
    """EllipseParams from the foci and the minor semi-axis, with the foci
    ordered lexicographically by (re, im), which pins a deterministic
    representation."""
    a, b = complex(f1), complex(f2)
    if (b.real, b.imag) < (a.real, a.imag):
        a, b = b, a
    return EllipseParams(a, b, float(minor_semi_axis))


def ellipse_support(e: EllipseParams, theta):
    """Support function of the (possibly degenerate) elliptical disk in
    direction exp(i*theta); ``theta`` may be an ndarray."""
    th = np.asarray(theta, dtype=float)
    rel = th - e.rotation
    radial = np.sqrt(
        (e.major_semi_axis * np.cos(rel)) ** 2 + (e.minor_semi_axis * np.sin(rel)) ** 2
    )
    base = np.real(np.exp(-1j * th) * e.center)
    out = base + radial
    return float(out) if out.ndim == 0 else out


def ellipse_points(e: EllipseParams) -> np.ndarray:
    """256 parametric boundary samples, counterclockwise."""
    t = 2.0 * np.pi * np.arange(256) / 256
    phase = cmath.exp(1j * e.rotation)
    return e.center + phase * (e.major_semi_axis * np.cos(t) + 1j * e.minor_semi_axis * np.sin(t))


def hermitian_parts(a) -> tuple[np.ndarray, np.ndarray]:
    m = as_square(a)
    return (m + adjoint(m)) / 2.0, (m - adjoint(m)) / 2.0j


def _tangential_extreme(a: np.ndarray, theta: float, w: np.ndarray, v: np.ndarray) -> complex:
    """The boundary point for a degenerate top eigenspace of H(theta),
    with eigenpairs ``(w, v)``: the point of the flat boundary segment
    extreme in the forward tangential direction, so sweeps traverse flat
    edges monotonically."""
    sub = v[:, w >= w[-1] - TOL.degenerate_gap]
    phase = cmath.exp(-1j * theta)
    k = (phase * a - np.conj(phase) * adjoint(a)) / 2.0j
    kv = sub.conj().T @ k @ sub
    _, kvecs = np.linalg.eigh((kv + kv.conj().T) / 2.0)
    x = sub @ kvecs[:, -1]
    x /= np.linalg.norm(x)
    return complex(x.conj() @ a @ x)


def _direction_stack(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    phase = np.exp(-1j * thetas)
    return (phase[:, None, None] * a[None, :, :] + np.conj(phase)[:, None, None] * adjoint(a)[None, :, :]) / 2.0


def _boundary(a: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support values, boundary points and flat flags of F(a) at
    ``thetas``, from one batched eigensolve of H(theta).

    The sweep runs on a scaled by the power of two of its largest real or
    imaginary part, exactly, and its values are scaled back: the results
    on 2**k * a are 2**k times those on a, and ``TOL.degenerate_gap`` is
    relative to that power of two. A sample is flat when the top two
    eigenvalues differ by less than the gap; its boundary point is then
    ``_tangential_extreme``'s. A boundary point x* a x whose projection
    Re(exp(-i theta) x* a x) misses the support value by more than
    1e-9 * (1 + |support|), in the scaled units, raises NumericalError."""
    shift = binary_exponent(a)
    a = ldexp(a, -shift)
    try:
        w, v = np.linalg.eigh(_direction_stack(a, thetas))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"support eigensolver failed: {exc}") from exc
    supports = w[:, -1]
    flats = supports - w[:, -2] < TOL.degenerate_gap if a.shape[0] > 1 else np.zeros(thetas.size, dtype=bool)
    x = v[:, :, -1]
    points = np.einsum("ki,ij,kj->k", x.conj(), a, x)
    for k in np.flatnonzero(flats):
        points[k] = _tangential_extreme(a, float(thetas[k]), w[k], v[k])
    residual = np.abs(np.real(np.exp(-1j * thetas) * points) - supports)
    if np.any(residual > 1e-9 * (1.0 + np.abs(supports))):
        raise NumericalError("boundary points inconsistent with support values")
    return np.ldexp(supports, shift), ldexp(points, shift), flats


def support_point(a, theta: float) -> tuple[float, complex]:
    """Support value of F(a) in direction exp(i*theta) and a boundary
    point attaining it."""
    supports, points, _ = _boundary(as_square(a), np.array([float(theta)]))
    return float(supports[0]), complex(points[0])


@dataclass(frozen=True)
class BoundaryPolyline:
    """Support sweep of the boundary: angles, support values, boundary
    points, and per-sample flags marking degenerate (flat-segment) tops.

    Validated on construction: angles strictly increasing and at least 3
    samples."""

    thetas: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray
    flat_flags: np.ndarray

    def __post_init__(self):
        if self.thetas.size < 3:
            raise ValueError("at least 3 samples required")
        if not np.all(np.diff(self.thetas) > 0):
            raise ValueError("angles must be strictly increasing")


def sweep_supports(a, thetas) -> np.ndarray:
    """Support values at many angles (batched eigenvalue solve)."""
    m = as_square(a)
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    try:
        w = np.linalg.eigvalsh(_direction_stack(m, th))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"support eigensolver failed: {exc}") from exc
    return w[:, -1]


# A secular solve stops once its step is at most this many units of
# roundoff of the width of the projected zeros, or at the step cap.
_SECULAR_STEP_ULPS = 4.0
_SECULAR_MAX_STEPS = 100


def _pole_order(n: int) -> np.ndarray:
    """The order ``secular_supports`` keeps the zeros in: in each aligned
    block of 8, the pairs last to first (6, 7, 4, 5, 2, 3, 0, 1), then the
    rest as given. Summing the rows in this order repeats, bit for bit, the
    sums of a row of n terms in numpy: ``_pairwise_rows`` its pairwise
    ``sum`` (the pairs and blocks stay whole) and ``_lane_rows`` its
    two-lane ``einsum`` (which adds each block's pairs last to first)."""
    whole = n - n % 8
    blocks = np.arange(0, whole, 8)[:, None] + np.array([6, 7, 4, 5, 2, 3, 0, 1])
    return np.concatenate([blocks.ravel(), np.arange(whole, n)])


def _pairwise_rows(a: np.ndarray) -> np.ndarray:
    """The sum of the rows of ``a`` in numpy's pairwise order: below 8
    rows one by one; up to 128, eight partial sums over the blocks of 8,
    added in pairs, then the rest one by one; above that, the two halves
    split at a multiple of 8."""
    n = a.shape[0]
    if n < 8:
        return np.add.reduce(a, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_rows(a[:half]) + _pairwise_rows(a[half:])
    whole = n - n % 8
    r = a[:8] if whole == 8 else np.add.reduce(a[:whole].reshape(whole // 8, 8, -1), axis=0)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    out = r[0] + r[1]
    for row in a[whole:]:
        out += row
    return out


def _lane_rows(a: np.ndarray) -> np.ndarray:
    """The sum of the rows of ``a`` in numpy's two-lane ``einsum`` order:
    the even and the odd rows each one by one, then the two lanes."""
    n = a.shape[0]
    lanes = np.add.reduce(a[: n - n % 2].reshape(n // 2, 2, -1), axis=0)
    if n % 2:
        lanes[0] += a[-1]
    return lanes[0] + lanes[1]


def secular_supports(zeros, thetas) -> np.ndarray:
    """Support values of F(A_(1)) at many angles, from the zeros alone,
    where A_(1) compresses the normal matrix with eigenvalues ``zeros`` by a
    vector whose entries all have modulus 1/sqrt(n) (as the DFT makes it).

    At each angle, x = Re(exp(-i theta) zeros) and d = x - max(x). The
    support is max(x) + s for the root s in (d_second, 0] of
    F(s) = s + 1 / psi(s), psi(s) = sum over the other zeros of 1/(s - d_k):
    the largest root of sum 1/(mu - x_k) = 0. F increases and is concave
    there, so Newton from 0 converges; a bisection bracket guards each step.
    A top value that is attained twice gives s = 0. All angles are solved
    together, each on its own until its step is below roundoff.

    The layout is pole-major: one row per zero (in ``_pole_order``), one
    column per angle, so every sum over the zeros is a pass over whole rows.
    The sums take the order numpy's own sums take along one row per angle,
    so the supports are bit for bit those of a solve with one row per angle.
    The projections are formed one zero at a time, and the solve holds two
    buffers of one value per zero and angle.
    """
    z = np.atleast_1d(np.asarray(zeros, dtype=complex))
    if z.size < 2:
        raise ValueError("at least 2 zeros are required")
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    phase = np.exp(-1j * th)
    x = np.empty((z.size, th.size))
    for row, zk in zip(x, z[_pole_order(z.size)]):  # no (zeros x angles) complex array
        row[:] = np.real(phase * zk)
    top = np.argmax(x, axis=0)
    x_top = np.max(x, axis=0)
    tol = _SECULAR_STEP_ULPS * np.finfo(float).eps * (x_top - np.min(x, axis=0))
    d = np.subtract(x, x_top, out=x)
    d[top, np.arange(th.size)] = -np.inf  # 1/(s - d) = 0: the top zero leaves psi
    lo = np.max(d, axis=0)
    s = np.zeros(th.size)
    # the columns still moving: their angles, d, bracket, tolerance and iterate
    idx = np.flatnonzero(lo < 0.0)
    d, lo, hi, tol, sa = d.take(idx, axis=1), lo[idx], np.zeros(idx.size), tol[idx], np.zeros(idx.size)
    # two buffers take turns: d, and the Newton terms 1/(s - d_k) and their
    # squares, into which the next d is compacted
    terms = x.reshape(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_SECULAR_MAX_STEPS):
            if idx.size == 0:
                return x_top + s
            inv = np.subtract(sa, d, out=terms[: d.size].reshape(d.shape))
            np.reciprocal(inv, out=inv)
            psi = _pairwise_rows(inv)
            f = sa + 1.0 / psi
            below = f < 0.0
            lo, hi = np.where(below, sa, lo), np.where(below, hi, sa)
            new = sa - f / (1.0 + _lane_rows(np.square(inv, out=inv)) / (psi * psi))
            new = np.where((new > lo) & (new <= hi), new, 0.5 * (lo + hi))
            s[idx] = new
            moving = (np.abs(new - sa) > tol) & (hi - lo > tol)
            if not moving.all():
                keep = np.flatnonzero(moving)
                compact = terms[: z.size * keep.size].reshape(z.size, keep.size)
                d, terms = np.take(d, keep, axis=1, out=compact, mode="clip"), d.reshape(-1)
                idx, lo, hi, tol, new = idx[keep], lo[keep], hi[keep], tol[keep], new[keep]
            sa = new
    raise NumericalError("secular equation did not converge")


def boundary_polyline(a, m: int = DEFAULT_SWEEP_SAMPLES) -> BoundaryPolyline:
    """Support sweep at the uniform grid theta_k = 2 pi k / m."""
    mat = as_square(a)
    if m < 8:
        raise ValueError("at least 8 samples required")
    thetas = 2.0 * np.pi * np.arange(m) / m
    return BoundaryPolyline(thetas, *_boundary(mat, thetas))


def point_margin(thetas, supports, z):
    """Largest violation of the sampled supporting half-planes by ``z``:
    a float for one point, an array for an array of points, reduced over
    the angles in one pass.

    Nonpositive means the point satisfies all sampled constraints; the
    sampled test is an outer approximation of membership in the convex
    set, so a positive margin certifies exteriority."""
    th = np.asarray(thetas, dtype=float)
    projected = (np.exp(-1j * th) * np.asarray(z, dtype=complex)[..., None]).real
    out = np.max(np.subtract(projected, supports, out=projected), axis=-1)  # in place: one (points x angles) buffer
    return float(out) if out.ndim == 0 else out


def kippenhahn_eval(a, u: float, v: float, w: float) -> complex:
    """det(H1 u + H2 v + w I), the defining form of the boundary curve's
    tangent lines: it vanishes when u x + v y + w = 0 supports F(a).

    Computed by LU factorization with partial pivoting; the result is
    real up to roundoff for real (u, v, w) since the matrix is Hermitian.
    """
    m = as_square(a)
    h1, h2 = hermitian_parts(m)
    stack = h1 * u + h2 * v + w * np.eye(m.shape[0])
    return complex(np.linalg.det(stack))


def elliptical_range(a) -> EllipseParams:
    """Exact description of F(a) for a 2x2 matrix: an elliptical disk
    with the eigenvalues as foci and minor semi-axis
    sqrt(trace(a* a) - |l1|^2 - |l2|^2) / 2."""
    m = as_square(a)
    if m.shape[0] != 2:
        raise ValueError("order-2 matrix required")
    tr = complex(m[0, 0] + m[1, 1])
    det = complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    sq = cmath.sqrt(tr * tr - 4.0 * det)
    lam1 = (tr + sq) / 2.0 if abs(tr + sq) >= abs(tr - sq) else (tr - sq) / 2.0
    lam2 = det / lam1 if lam1 != 0 else tr - lam1
    gram = float(np.sum(np.abs(m) ** 2))
    radicand = gram - abs(lam1) ** 2 - abs(lam2) ** 2
    if radicand < -1e-12 * (1.0 + gram):
        raise NumericalError("negative minor-axis radicand")
    minor = 0.5 * math.sqrt(max(radicand, 0.0))
    return ellipse_from_foci(lam1, lam2, minor)
