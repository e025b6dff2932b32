"""Field of values (numerical range): support sweep, certificates of
supports and faces, the determinant form of the boundary curve, and the
2x2 elliptical case.

The support function of F(a) in direction exp(i*theta) is the largest
eigenvalue of

    H(theta) = (exp(-i*theta) a + exp(i*theta) a*) / 2
             = H1 cos(theta) + H2 sin(theta),

with H1 = (a + a*)/2 and H2 = (a - a*)/(2i). A top eigenvector x gives
the boundary point x* a x, whose projection Re(exp(-i*theta) x* a x)
equals the support value. ``boundary_polyline`` and ``sweep_supports``
share one kernel, ``_boundary``: batched eigensolves over their angles, in
chunks of bounded memory, with the flat-segment rule relative to the
matrix's power of two. ``boundary_polyline`` is its column of boundary
points on the grid of ``sweep_angles``, and ``sweep_supports`` its column
of support values.

When a = A_(1) compresses a normal A with eigenvalues z_k by a vector
whose entries all have modulus 1/sqrt(n), as the DFT construction of
``matricial`` does, H(theta) compresses diag(x) with x_k =
Re(exp(-i*theta) z_k), so the support is the largest root mu of the
secular equation sum_k 1/(mu - x_k) = 0: the largest critical point of
prod_k (mu - x_k). ``certify_faces`` works from the zeros, on H(theta) of
A_(1), without an eigensolve: at the outward normal of a hull edge it
brackets the support between the Rayleigh quotient of the edge's mode
vector and an upper bound, and shows that F(A_(1)) meets the edge's line
in one point, within a certified radius of the edge's midpoint, from that
mode vector, a closed-form bound of the gap below its eigenvalue and one
Cholesky factorisation. A convex polygon is the intersection of its edge
half-planes, so the upper bounds at the hull's edge normals decide whether
F(A_(1)) lies in the hull at every angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import matricial
from .config import DEFAULT_SWEEP_SAMPLES
from .errors import NumericalError
from .numlin import adjoint, as_square, binary_exponent, ldexp

# A top eigenspace of H(theta) whose two largest eigenvalues differ by less
# than this many units of the matrix's power of two (``numlin.binary_exponent``)
# is degenerate: its sample lies on a flat boundary segment.
_DEGENERATE_GAP = 1e-10
# A dense sweep solves at most this many entries of H(theta) at once, so its
# memory is bounded at every order and angle count.
_SWEEP_ENTRIES = 1 << 18


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


def ellipse_offset(e: EllipseParams, z) -> np.ndarray:
    """Signed distance of the points ``z`` from the boundary of the
    elliptical disk of positive minor semi-axis, positive outside, to first
    order: (q - 1) / |grad q| with q = (X / A)^2 + (Y / B)^2, semi-axes A and
    B, and X + iY = exp(-i rotation) (z - center). It is 0 on the boundary
    and moves by eps times the size of the ellipse when its parameters do,
    however thin it is."""
    w = np.exp(-1j * e.rotation) * (np.asarray(z, dtype=complex) - e.center)
    x, y = w.real / e.major_semi_axis, w.imag / e.minor_semi_axis
    return (x * x + y * y - 1.0) / (2.0 * np.hypot(x / e.major_semi_axis, y / e.minor_semi_axis))


def ellipse_points(e: EllipseParams) -> np.ndarray:
    """256 parametric boundary samples, counterclockwise."""
    t = 2.0 * np.pi * np.arange(256) / 256
    phase = cmath.exp(1j * e.rotation)
    return e.center + phase * (e.major_semi_axis * np.cos(t) + 1j * e.minor_semi_axis * np.sin(t))


def _tangential_extreme(a: np.ndarray, theta: float, w: np.ndarray, v: np.ndarray) -> complex:
    """The boundary point for a degenerate top eigenspace of H(theta),
    with eigenpairs ``(w, v)``: the point of the flat boundary segment
    extreme in the forward tangential direction, so sweeps traverse flat
    edges monotonically."""
    sub = v[:, w >= w[-1] - _DEGENERATE_GAP]
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


def _toeplitz_stack(zeros):
    """The H(theta) stack of A_(1) of ``matricial.build_construction(zeros)``
    as a function of the angles, from the operands of ``_direction_stack`` on
    that A_(1), so the same bits: A_(1) is Toeplitz with diagonals t[d] =
    c[d mod n] of A's column c (``matricial.circulant_column``), and H(theta)
    is its symbol h[d] = (exp(-i theta) t[d] + exp(i theta) conj(t[-d])) / 2
    gathered at i - j, with no A formed."""
    c = matricial.circulant_column(zeros)
    n = c.size
    diagonals = c[np.arange(2 - n, n - 1) % n]  # t[d] at d + n - 2
    offsets = np.subtract.outer(np.arange(n - 1), np.arange(n - 1)) + (n - 2)
    reflected = np.conj(diagonals[::-1])  # conj(t[-d]) at d + n - 2

    def stack(thetas: np.ndarray) -> np.ndarray:
        phase = np.exp(-1j * thetas)
        return np.take((phase[:, None] * diagonals + np.conj(phase)[:, None] * reflected) / 2.0, offsets, axis=1)

    return stack


def _direction_chunks(order: int, thetas: np.ndarray):
    """Consecutive slices of ``thetas`` whose H(theta) of order ``order``
    hold at most ``_SWEEP_ENTRIES`` entries (one angle at least). A batched
    solve treats each matrix on its own, so the chunks change no bit."""
    step = max(1, _SWEEP_ENTRIES // order**2)
    for start in range(0, thetas.size, step):
        yield slice(start, start + step)


def _boundary(a: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support values, boundary points and flat flags of F(a) at
    ``thetas``, from one batched ``eigh`` of H(theta) per chunk of
    ``_direction_chunks``; a failed solve raises NumericalError.

    The sweep runs on a scaled by the power of two of its largest real or
    imaginary part, exactly, and its values are scaled back: the results
    on 2**k * a are 2**k times those on a, and ``_DEGENERATE_GAP`` is
    relative to that power of two. A sample is flat when the top two
    eigenvalues differ by less than the gap; its boundary point is then
    ``_tangential_extreme``'s. A boundary point x* a x whose projection
    Re(exp(-i theta) x* a x) misses the support value by more than
    1e-9 * (1 + |support|), in the scaled units, raises NumericalError."""
    shift = binary_exponent(a)
    a = ldexp(a, -shift)
    parts = []
    for part in _direction_chunks(a.shape[0], thetas):
        chunk = thetas[part]
        try:
            w, v = np.linalg.eigh(_direction_stack(a, chunk))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"support eigensolver failed: {exc}") from exc
        flats = w[:, -1] - w[:, -2] < _DEGENERATE_GAP if a.shape[0] > 1 else np.zeros(chunk.size, dtype=bool)
        x = v[:, :, -1]
        points = np.einsum("ki,ij,kj->k", x.conj(), a, x)
        for k in np.flatnonzero(flats):
            points[k] = _tangential_extreme(a, float(chunk[k]), w[k], v[k])
        parts.append((w[:, -1], points, flats))
    supports, points, flats = (np.concatenate(column) for column in zip(*parts))
    residual = np.abs(np.real(np.exp(-1j * thetas) * points) - supports)
    if np.any(residual > 1e-9 * (1.0 + np.abs(supports))):
        raise NumericalError("boundary points inconsistent with support values")
    return np.ldexp(supports, shift), ldexp(points, shift), flats


def sweep_supports(a, thetas) -> np.ndarray:
    """Support values of F(a) at many angles: the support column of
    ``_boundary``."""
    return _boundary(as_square(a), np.atleast_1d(np.asarray(thetas, dtype=float)))[0]


# ``certify_faces`` works in units of s, the largest |zero| (at least
# ||H(theta)||): it adds c y y* to -H(theta) with c this many times s, twice
# any gap it can certify; it counts one unit of roundoff of s into each
# residual, so that a residual that rounds to 0 is not taken for an exact
# one; and it asks for no gap below this many units of roundoff of s times
# the order, where Cholesky's backward error on a matrix of norm at most
# 8 s lies.
_FACE_SHIFT = 4.0
_FACE_GAP_ULPS = 64.0


@dataclass(frozen=True)
class FaceCertificate:
    """What ``certify_faces`` proved at each edge normal: the Rayleigh
    quotient rho of the edge's mode vector y, its residual ||H y - rho y||
    (with the unit of roundoff it counts in), a gap below rho that holds
    every other eigenvalue of H(theta), the upper bound rho + r^2 / gap on
    lambda_max(H(theta)), the support of F(A_(1)) there, and the radius
    about the edge's midpoint within which F(A_(1)) meets the line
    Re(exp(-i theta) w) = lambda_max(H(theta))."""

    rayleigh: np.ndarray
    residual: np.ndarray
    gap: np.ndarray
    upper: np.ndarray
    radius: np.ndarray


def certify_faces(zeros, thetas, pairs) -> FaceCertificate:
    """Certify that F(A_(1)), with A_(1) that of
    ``matricial.build_construction(zeros)``, meets its supporting line at
    each angle of ``thetas`` in one point near the midpoint of the two
    zeros that ``pairs`` names there (0-based): at the outward normal of a
    hull edge, its two endpoints. Returns the support bracket [rho, upper]
    and the certified radius, neither of which depends on any bound; raises
    NumericalError naming the edge and the gap it tried when the
    factorisation fails.

    At such an angle the top projection x_a = x_b of the zeros is attained
    twice, and y = fft(e_a - e_b)[1:] / sqrt(2n) is an eigenvector of
    H(theta) with eigenvalue x_a and y* A_(1) y = (z_a + z_b) / 2. The
    face of F(A_(1)) there is the field of values of the top eigenspace
    (Horn & Johnson, Topics in Matrix Analysis, 1.5), so it is one point
    when lambda_max is simple. From one product H y: rho = y* H y and the
    residual r = ||H y - rho y||, plus one unit of roundoff of the largest
    |zero|. A Cholesky factorisation of (rho - gap) I - H + c y y* then
    shows lambda_2(H) <= lambda_1(H - c y y*) < rho - gap (rank-one
    interlacing, Horn & Johnson, Matrix Analysis, 4.3), up to its backward
    error of order n eps ||H||. So the top
    eigenvalue is simple, lies in [rho, rho + r^2 / gap] (Kato-Temple), and
    its unit eigenvector x is at an angle phi to y with sin(phi) <= r / gap
    (Davis & Kahan, SIAM J. Numer. Anal. 7, 1970). The face point x* A_(1) x
    then lies within r^2 / gap of the midpoint along the normal, and within
    w sin(phi) along the line, w the width of the zeros along it (a 2x2
    compression of the Hermitian Im(exp(-i theta) A_(1)) spans at most w):
    the certified radius is r (w + r) / gap.

    The gap asked for is half a lower bound of x_a - lambda_2, never below
    the backward error. H(theta) compresses diag(x) (see the module
    docstring), so x_a - lambda_2 is the least root t of 2 / t = sum over
    the other zeros of 1 / (delta_k - t), delta_k = x_a - x_k. Below
    delta = min delta_k each term is at most 1 / delta_k + t / (delta_k
    (delta - t)), so with S = sum 1 / delta_k, 2 / (S + 2 / delta) <= t <=
    2 / S (Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978): the gap asked
    for, 1 / (S + 2 / delta), is at most 3 times below t / 2, and is t / 2
    for three zeros. The factorisation alone certifies.

    H(theta) is gathered from the zeros (``_toeplitz_stack``), in the
    chunks of ``_direction_chunks``, and no A_(1) is formed."""
    z = np.asarray(zeros, dtype=complex)
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    ends = np.asarray(pairs).reshape(th.size, 2)
    modes = np.zeros((th.size, z.size))
    rows = np.arange(th.size)
    modes[rows, ends[:, 0]], modes[rows, ends[:, 1]] = 1.0, -1.0
    vectors = np.fft.fft(modes, axis=-1)[:, 1:] / math.sqrt(2 * z.size)
    projected = np.exp(-1j * th)[:, None] * z
    width = np.ptp(np.imag(projected), axis=1)
    scale = float(np.max(np.abs(z)))
    roundoff = np.finfo(float).eps * scale
    floor = _FACE_GAP_ULPS * z.size * roundoff
    delta = np.real(projected[rows, ends[:, 0]])[:, None] - np.real(projected)
    delta[rows, ends[:, 0]] = delta[rows, ends[:, 1]] = np.inf  # the edge's double pole leaves the sum
    inv = 1.0 / delta
    gap = np.maximum(1.0 / (inv.sum(axis=1) + 2.0 * inv.max(axis=1)), floor)
    rho, residual = np.empty(th.size), np.empty(th.size)
    diagonal = np.arange(z.size - 1)
    gather = _toeplitz_stack(z)
    for part in _direction_chunks(z.size - 1, th):
        stack, y = gather(th[part]), vectors[part]
        hy = np.einsum("kij,kj->ki", stack, y)
        rho[part] = np.einsum("ki,ki->k", y.conj(), hy).real
        residual[part] = np.linalg.norm(hy - rho[part][:, None] * y, axis=1) + roundoff
        shifted = np.multiply(stack, -1.0, out=stack)
        shifted[:, diagonal, diagonal] += (rho[part] - gap[part])[:, None]
        shifted += _FACE_SHIFT * scale * y[:, :, None] * y.conj()[:, None, :]
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            for k, matrix in enumerate(shifted):  # the failure's edge, on this path only
                try:
                    np.linalg.cholesky(matrix)
                except np.linalg.LinAlgError:
                    break
            a, b = ends[part][k] + 1
            raise NumericalError(
                f"face certificate: at the edge of zeros {a} and {b} (theta = {th[part][k]:.6g}) the other "
                f"eigenvalues of H(theta) are not below the Rayleigh quotient by the gap {gap[part][k]:.3g}: "
                f"(rho - gap) I - H(theta) + c y y* has no Cholesky factor"
            ) from None
    return FaceCertificate(rho, residual, gap, rho + residual**2 / gap, residual * (width + residual) / gap)


def sweep_angles(m: int) -> np.ndarray:
    """The uniform grid theta_k = 2 pi k / m of a boundary sweep; fewer
    than 8 samples raise ValueError."""
    if m < 8:
        raise ValueError("at least 8 samples required")
    return 2.0 * np.pi * np.arange(m) / m


def boundary_polyline(a, m: int = DEFAULT_SWEEP_SAMPLES) -> np.ndarray:
    """Boundary points of F(a) at the angles of ``sweep_angles(m)``, in
    counterclockwise order: the point column of ``_boundary``."""
    return _boundary(as_square(a), sweep_angles(m))[1]


def point_margin(thetas, supports, z):
    """Largest violation of the sampled supporting half-planes by ``z``:
    a float for one point, an array for an array of points, reduced over
    the angles in one pass. Leading axes broadcast: angles and supports of
    shape (..., 1, angles) give each row of points of shape (..., points)
    its own angles.

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
    real up to roundoff for real (u, v, w) since the matrix is Hermitian:
    with q = u + iv, H1 u + H2 v = (conj(q) a + q a*) / 2.
    """
    m = as_square(a)
    q = complex(u, v)
    return complex(np.linalg.det((q.conjugate() * m + q * adjoint(m)) / 2.0 + w * np.eye(m.shape[0])))


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
