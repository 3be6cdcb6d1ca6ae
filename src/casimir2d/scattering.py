"""Concrete T-matrix kernels in the rapidity basis.

Half-plates, the infinite plate (RL channel), and the small-needle
multipole matrix with conversion to the planar basis.  Every kernel
builder returns the weighted matrix K(alpha_j, alpha_k) w_k (see
_weighted), the one representation the chain products use.

Conventions (frozen by the closed-form cross-checks, see the test
suite): evanescent waves are labeled by the complex angle a = i*alpha
measured from the vertical axis; a half-plate tilted by phi from the
decay axis scatters with

    T(a_out, a_in) = 1/2 [ -sech((a_out+a_in)/2)
                           + s * sec(i(a_out-a_in)/2 + phi) ]

where s = -1 (Dirichlet) / +1 (Neumann).  The kernel is analytic for
|phi| < pi/2 and Hermitian, T(a',a) = conj(T(a,a')).  At phi = pi/2 the
sec term degenerates into the csch singularity: the vertical plate is
built as its exact limit (``_vertical_halfplate_ll``), and tilts within
the grid's epsilon of it are refused.

At a = i alpha the sec argument is i y + phi with y = (alpha_out -
alpha_in)/2, and |cos(i y + phi)|^2 = cos^2 phi + sinh^2 y, so

    sec(i y + phi) = (cos phi cosh y + i sin phi sinh y)
                     / (cos^2 phi + sinh^2 y):

the builder needs no complex transcendental, the denominator is a sum
of squares (no cancellation) and at phi = 0 the imaginary part is
exactly 0.  sinh y, cosh y and sech of the half-sums depend on the grid
alone and are computed once per grid (``QuadratureGrid.
half_angle_factors``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError
from .quadrature import QuadratureGrid

__all__ = [
    "BoundaryCondition",
    "Channel",
    "HalfPlate",
    "InfinitePlate",
    "Needle",
    "halfplate_kernel",
    "infinite_plate_rl",
    "needle_T_multipole",
    "needle_image_factors",
    "needle_kernel_planar",
    "parity_defect",
]


class BoundaryCondition(enum.Enum):
    DIRICHLET = "D"
    NEUMANN = "N"
    EM2D = "EM"

    @property
    def sign(self) -> int:
        """s in the half-plate kernel: -1 Dirichlet, +1 Neumann."""
        if self is BoundaryCondition.DIRICHLET:
            return -1
        if self is BoundaryCondition.NEUMANN:
            return +1
        raise ValidationError(
            "EM2D is a sum rule over D and N, not a kernel sign"
        )

    @property
    def scalars(self) -> tuple:
        """Scalar conditions summed by this one: EM2D = D + N."""
        if self is BoundaryCondition.EM2D:
            return (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN)
        return (self,)

    @classmethod
    def parse(cls, s) -> "BoundaryCondition":
        if isinstance(s, cls):
            return s
        key = str(s).strip().upper()
        table = {"D": cls.DIRICHLET, "DIRICHLET": cls.DIRICHLET,
                 "N": cls.NEUMANN, "NEUMANN": cls.NEUMANN,
                 "EM": cls.EM2D, "EM2D": cls.EM2D}
        if key not in table:
            raise ValidationError(f"unknown boundary condition {s!r}")
        return table[key]


class Channel(enum.Enum):
    """Half-plate scattering channels: same side (LL) or through (RL).

    RR = LL and LR = RL by symmetry, so two labels suffice.
    """

    LL = "LL"
    RL = "RL"


# --- scatterer descriptors -------------------------------------------------

@dataclass(frozen=True)
class HalfPlate:
    """Half-plate tilted by phi (radians) from the edge-to-edge axis."""

    tilt: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.tilt):
            raise ValidationError("tilt must be finite")


@dataclass(frozen=True)
class InfinitePlate:
    """Infinite plate used as a blocking wall (RL channel only)."""


@dataclass(frozen=True)
class Needle:
    """Small scatterer with quadratic-in-frequency multipole strengths.

    t00, txx, tyy are polarizability-like coefficients (length^2,
    multiplying p^2); theta0 is the orientation angle.
    """

    t00: float = 0.0
    txx: float = 0.0
    tyy: float = 0.0
    theta0: float = 0.0

    def __post_init__(self):
        for name in ("t00", "txx", "tyy", "theta0"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.txx < 0 or self.tyy < 0:
            raise ValidationError("txx and tyy must be nonnegative")


# --- kernels ---------------------------------------------------------------

def _weighted(entries: np.ndarray, grid: QuadratureGrid,
              out: np.ndarray | None = None) -> np.ndarray:
    """Values K(alpha_j, alpha_k) of a kernel -> weighted matrix K_jk w_k,
    into ``out`` if given.

    The alpha measure (1/(2 pi) included) sits on the input index, so
    operator composition is ``@``, the operator trace is ``np.trace``
    and the identity operator is ``np.eye``.
    """
    if not np.all(np.isfinite(entries)):
        raise ValidationError("kernel entries must be finite")
    return np.multiply(entries, grid.alpha_weights[None, :], out=out)


def _effective_tilt(phi: float, grid: QuadratureGrid) -> float | None:
    """Map phi to the analytic domain; None flags the vertical case.

    Exactly vertical plates (|phi| = pi/2) are evaluated by the exact
    eps -> 0 limit of the sec term (principal value plus a delta part,
    see _vertical_halfplate_ll), signalled by returning None.  Angles
    strictly inside the forbidden collar (pi/2 - eps, pi/2) would put
    the sec pole within resolution of the grid and are refused.
    """
    half_pi = 0.5 * np.pi
    mag = abs(phi)
    if mag > half_pi + 1e-12:
        raise ValidationError(
            f"half-plate tilt {phi:.6f} outside |phi| <= pi/2"
        )
    if mag >= half_pi - 1e-12:
        return None
    if mag > half_pi - grid.epsilon:
        # the diagonal node closest to the pole is alpha = alpha', i.e.
        # every diagonal entry; name the central one
        j = grid.n_alpha // 2
        raise ResolutionError(
            f"sec pole at tilt {phi:.6f} within grid resolution near node "
            f"alpha={grid.alpha_nodes[j]:.6f} (epsilon={grid.epsilon:.3e})"
        )
    return phi


def _differentiation_matrix(grid: QuadratureGrid) -> np.ndarray:
    """Spectral d/d(alpha) on the mapped Gauss-Legendre grid.

    Barycentric differentiation at the Legendre points t = tanh(alpha/m)
    with weights lambda_k = (-1)^k sqrt((1-t_k^2) w_k), then the chain
    rule d/d(alpha) = ((1-t^2)/m) d/dt.
    """
    m = grid.map_scale
    t = np.tanh(grid.alpha_nodes / m)
    # recover the plain Legendre weights from the folded alpha weights
    wt = grid.alpha_weights * (2.0 * np.pi) * (1.0 - t * t) / m
    lam = (-1.0) ** np.arange(t.size) * np.sqrt((1.0 - t * t) * wt)
    D = np.zeros((t.size, t.size))
    off = ~np.eye(t.size, dtype=bool)
    tt = t[:, None] - t[None, :]
    D[off] = (lam[None, :] / lam[:, None])[off] / tt[off]
    np.fill_diagonal(D, -D.sum(axis=1))
    return ((1.0 - t * t) / m)[:, None] * D


def _pv_csch_half(grid: QuadratureGrid) -> np.ndarray:
    """Weighted matrix of the operator f -> PV int (dalpha'/2pi)
    f(alpha') / sinh((alpha-alpha')/2), by singularity subtraction.

    PV int 1/sinh over the line vanishes, so
        (Kf)_j = sum_k w_k [f(a_k) - f(a_j)] / sinh(y_jk)
    with the k = j term taken at its removable limit -2 w_j f'(a_j),
    realized through the spectral differentiation matrix.
    """
    a = grid.alpha_nodes
    w = grid.alpha_weights
    y = 0.5 * (a[:, None] - a[None, :])
    pv = np.zeros_like(y)
    off = ~np.eye(grid.n_alpha, dtype=bool)
    pv[off] = 1.0 / np.sinh(y[off])
    pv *= w[None, :]
    np.fill_diagonal(pv, -pv.sum(axis=1))
    return pv - 2.0 * w[:, None] * _differentiation_matrix(grid)


def _vertical_halfplate_ll(s: int, up: bool,
                           grid: QuadratureGrid) -> np.ndarray:
    """Weighted LL matrix at tilt pi/2, as the exact eps -> 0 limit.

    With phi = pi/2 - eps the sec term degenerates,
        sec(i y + pi/2 - eps) -> i PV(1/sinh y) + pi delta(y),
    so the kernel splits into the smooth -sech/2 part, an odd
    principal-value part, and an exact identity part (s/2) * I.  A
    plate extending the other way (phi = -pi/2) flips the sign of the
    PV part only.
    """
    a = grid.alpha_nodes
    z = 0.5 * (a[:, None] + a[None, :])
    sign_pv = 1.0 if up else -1.0
    k = (_weighted(-0.5 / np.cosh(z), grid)
         + 0.5 * s * sign_pv * 1j * _pv_csch_half(grid))
    # pi*delta(y) = 2*pi*delta(alpha-alpha') is the identity operator
    # under the d(alpha)/(2 pi) measure
    k[np.diag_indices(grid.n_alpha)] += 0.5 * s
    return k


def halfplate_kernel(bc: BoundaryCondition, channel: Channel, phi: float,
                     grid: QuadratureGrid) -> np.ndarray:
    """Weighted half-plate T matrix, LL or RL channel, tilt phi from
    the axis.

    Frequency independent: the same kernel serves every p node.
    RL = +LL for Dirichlet, -LL for Neumann.
    """
    bc = BoundaryCondition.parse(bc)
    s = bc.sign
    phi_eff = _effective_tilt(float(phi), grid)
    if phi_eff is None:
        k = _vertical_halfplate_ll(s, phi > 0, grid)
    else:
        # sec(i y + phi) in real arithmetic (see the module docstring),
        # in place: a temporary of n_alpha^2 entries costs about as much
        # as the arithmetic
        sinh_y, cosh_y, sech_z = grid.half_angle_factors
        c = math.cos(phi_eff)
        q = sinh_y * sinh_y
        q += c * c
        np.divide(0.5 * s, q, out=q)  # s / (2 |cos(i y + phi)|^2)
        re = cosh_y * c
        re *= q
        re -= 0.5 * sech_z
        q *= sinh_y  # q becomes the imaginary part
        q *= math.sin(phi_eff)
        k = np.empty(q.shape, complex)
        _weighted(re, grid, out=k.real)
        _weighted(q, grid, out=k.imag)
    if channel is Channel.RL:
        k = -s * k  # + for Dirichlet, - for Neumann
    return k


def parity_defect(t: np.ndarray) -> float:
    """max |P T P - conj T| / max |T| of a kernel matrix T, P the parity
    alpha -> -alpha (index j -> n - 1 - j on the symmetric grid).

    The y -> -y mirror symmetry of the scattering problem makes every
    kernel satisfy P T P = conj T; on the grid it holds exactly or to
    rounding.  0 for an all-zero T.
    """
    return _parity_defect(t, float(np.abs(t).max()))


def _parity_defect(t: np.ndarray, scale: float) -> float:
    """``parity_defect`` of T, given scale = max |T|.  |P T P - conj T| is
    symmetric under (alpha, beta) -> (-alpha, -beta), so its largest
    entry lies in the first half of its rows, the only ones formed."""
    if scale == 0.0:
        return 0.0
    half = (t.shape[0] + 1) // 2
    return float(np.abs(t[::-1, ::-1][:half] - t[:half].conj()).max()) / scale


def infinite_plate_rl(grid: QuadratureGrid) -> np.ndarray:
    """Infinite blocking plate: minus the identity, for both Dirichlet
    and Neumann."""
    return -np.eye(grid.n_alpha, dtype=complex)


_M_ORDER = (-1, 0, 1)


def needle_T_multipole(desc: Needle, p: float) -> np.ndarray:
    """3x3 multipole T matrix over m, m' in {-1, 0, 1}.

    Indexed [m_in, m_out] in the order (-1, 0, 1).  Entries with
    m + m' odd vanish for the symmetric needle.  The dipole block is the
    theta0-rotation of the principal strengths; its normalization is
    fixed by reproducing the tilted-needle closed forms.
    """
    if p <= 0:
        raise ValidationError("p must be positive")
    p2 = p * p
    T = np.zeros((3, 3), dtype=complex)
    iy = {m: k for k, m in enumerate(_M_ORDER)}
    T[iy[0], iy[0]] = p2 * desc.t00
    diag = 2.0 * p2 * (desc.txx + desc.tyy)
    for m in (-1, 1):
        T[iy[m], iy[m]] = diag
        T[iy[m], iy[-m]] = (
            2.0 * p2 * (desc.txx - desc.tyy) * np.exp(2j * m * desc.theta0)
        )
    return T


def _needle_basis(desc: Needle, p: float, grid: QuadratureGrid) -> tuple:
    """(E, S) of the needle kernel T = E S E^T W (see
    ``needle_kernel_planar``): E[j, k] = e^{m_k alpha_j} and the complex
    3x3 core S = pi ((-1)^{m+m'} T_{m,m'})^T."""
    m = np.array(_M_ORDER)
    e = np.exp(np.outer(grid.alpha_nodes, m))
    s = np.pi * ((-1.0) ** np.add.outer(m, m)
                 * needle_T_multipole(desc, p)).T
    return e, s


def needle_kernel_planar(desc: Needle, p: float,
                         grid: QuadratureGrid) -> np.ndarray:
    """Weighted needle kernel in the planar (rapidity) basis.

    T(a', a) = pi * sum_{m,m'} (-1)^{m+m'} e^{i m' a'* - i m a} T_{m,m'}
    at a = i*alpha (vertical-axis convention), a' the outgoing angle.
    There e^{i m' a'* - i m a} = e^{m' alpha'} e^{m alpha}, so the
    weighted kernel is the rank-3 product E S E^T W with E[j, k] =
    e^{m_k alpha_j}, S = pi ((-1)^{m+m'} T)^T and W the alpha weights
    (``_needle_basis``).
    """
    e, s = _needle_basis(desc, p, grid)
    return _weighted(e @ s @ e.T, grid)


def needle_image_factors(desc: Needle, p: float,
                         grid: QuadratureGrid) -> tuple:
    """(E, M, W) with the parity image T' = Re T - Im T P of the weighted
    needle kernel T = E S E^T W equal to E M E^T diag(W).

    On the symmetric grid P E = E J, J the swap of m and -m, and P
    commutes with W, so T P = E S J E^T W and the real 3x3 core is M =
    Re S - Im S J; W is the grid's alpha weights.  The chain engine
    keeps the needle in these factors (rank space).
    """
    e, s = _needle_basis(desc, p, grid)
    return e, s.real - s.imag[:, ::-1], grid.alpha_weights
