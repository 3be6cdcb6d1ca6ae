"""Closed-form evaluators for every analytic result in scope.

All energies are in units of hbar*c (natural units internally; the
docstrings note the restored powers).

Conventions fixed by the quadrature oracles (documented where they
deviate from the printed displays):

* two_halfplates_energy: the bracket is evaluated with the
  Gudermannian combination gd(i phi) + gd(-i phi) = 0 (standard odd
  gd(x) = 2 atan(tanh(x/2))) and with csc^2 phi_j in the single-tilt
  terms and csc(phi1) csc(phi2) in the cross term.  This is the unique
  reading that matches the first-reflection kernel quadrature (to
  ~1e-13); see the test suite.
* needle formulas: E00, Exx, Eyy as displayed; removable phi0 -> 0
  limits by 4th-order series inside a 1e-2 radius.
* repulsion_energy: the displayed bracket is exact with d = the
  in-plane (horizontal) distance from the needle's foot to each edge
  and phi0 = atan(h/d); it equals twice the Eyy closed form of one
  half-line at tilt phi0, needle angle theta0 = pi/2 - phi0, edge
  distance d/cos(phi0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .scattering import BoundaryCondition

__all__ = [
    "ClosedFormResult",
    "gd",
    "parallel_plate_energy",
    "parallel_plate_per_order",
    "two_halfplates_energy",
    "needle_edge_E00",
    "needle_edge_Exx",
    "needle_edge_Eyy",
    "needle_f",
    "repulsion_energy",
]

_ZETA3 = 1.2020569031595942854
_ZETA4 = math.pi ** 4 / 90.0

_SERIES_SWITCH = 1e-2


@dataclass(frozen=True)
class ClosedFormResult:
    value: float


def gd(x: float) -> float:
    """Gudermannian function, gd(x) = 2 atan(tanh(x/2))."""
    return 2.0 * math.atan(math.tanh(0.5 * x))


# --- parallel plates -------------------------------------------------------

def _pp_total(D_dim: int, d: float, bc: BoundaryCondition) -> float:
    """Parallel-plate energy density (per length for D=2, per area for
    D=3).  D and N scalars give the same value; EM2D sums both."""
    if d <= 0:
        raise ValidationError("separation must be positive")
    if D_dim == 2:
        e = -_ZETA3 / (16.0 * math.pi * d * d)
    elif D_dim == 3:
        e = -_ZETA4 / (16.0 * math.pi ** 2 * d ** 3)
    else:
        raise ValidationError("D_dim must be 2 or 3")
    return e * len(BoundaryCondition.parse(bc).scalars)


def parallel_plate_energy(D_dim: int, d: float, area_or_length: float,
                          bc) -> ClosedFormResult:
    val = _pp_total(D_dim, d, BoundaryCondition.parse(bc)) * area_or_length
    return ClosedFormResult(val)


def parallel_plate_per_order(D_dim: int, d: float, area_or_length: float,
                             bc, n: int) -> ClosedFormResult:
    """Contribution of the n-th reflection: total * n^-(D+1) / zeta(D+1)."""
    if n < 1:
        raise ValidationError("reflection order must be >= 1")
    total = parallel_plate_energy(D_dim, d, area_or_length, bc).value
    zeta = _ZETA3 if D_dim == 2 else _ZETA4
    val = total * n ** (-(D_dim + 1.0)) / zeta
    return ClosedFormResult(val)


# --- two half-plates -------------------------------------------------------

def _csc(x: float) -> float:
    return 1.0 / math.sin(x)


def _single_tilt(phi: float) -> float:
    """pi (1 - cos phi) csc^2 phi = pi / (1 + cos phi), with the
    vanishing gd combination already dropped."""
    return math.pi / (1.0 + math.cos(phi))


def _cross_term(phi1: float, phi2: float) -> float:
    """-4 csc(phi1) csc(phi2) + 4 (phi1 csc^2 phi1 + phi2 csc^2 phi2)
    csc(phi1+phi2), with removable phi -> 0 limits."""
    a1, a2 = abs(phi1), abs(phi2)
    if a1 < 1e-12 and a2 < 1e-12:
        return 16.0 / 3.0 - 8.0 / 3.0  # limit of the cross term alone: 8/3
    if a1 < 1e-12:
        return -4.0 * _csc(phi2) * math.cos(phi2) * _csc(phi2) \
            + 4.0 * phi2 * _csc(phi2) ** 3
    if a2 < 1e-12:
        return _cross_term(phi2, phi1)
    return (-4.0 * _csc(phi1) * _csc(phi2)
            + 4.0 * (phi1 * _csc(phi1) ** 2 + phi2 * _csc(phi2) ** 2)
            * _csc(phi1 + phi2))


def two_halfplates_bracket(phi1: float, phi2: float,
                           bc: BoundaryCondition) -> float:
    """Dimensionless bracket B with E = -(hbar c L / 128 pi^3 D^2) B."""
    s = math.sin(phi1 + phi2)
    if abs(s) < 1e-8 and (abs(phi1) > 1e-12 or abs(phi2) > 1e-12):
        raise DomainError(
            "two-half-plate formula diverges as phi1+phi2 approaches pi "
            "(overlap limit) or 0"
        )
    # the odd term enters with +1 for Dirichlet, -1 for Neumann
    odd = -bc.sign * (math.pi / 2.0) * (_single_tilt(phi1)
                                        + _single_tilt(phi2))
    even = 8.0 / 3.0 + _cross_term(phi1, phi2)
    return odd + even


def two_halfplates_energy(phi1: float, phi2: float, D: float, L: float,
                          bc, *, allow_continuation: bool = False
                          ) -> ClosedFormResult:
    """Two-half-plate interaction energy (units hbar*c*L/D^2).

    Valid for |phi| <= pi/2; beyond that the analytic continuation is
    only evaluated with allow_continuation.  EM = D + N.
    """
    if D <= 0 or L <= 0:
        raise ValidationError("D and L must be positive")
    half_pi = 0.5 * math.pi
    if (abs(phi1) > half_pi or abs(phi2) > half_pi) and not allow_continuation:
        raise ValidationError(
            "tilt outside the range of validity of this expression "
            "(|phi| <= pi/2); pass allow_continuation to override"
        )
    bc = BoundaryCondition.parse(bc)
    val = sum(-L * two_halfplates_bracket(phi1, phi2, b)
              / (128.0 * math.pi ** 3 * D * D) for b in bc.scalars)
    return ClosedFormResult(val)


# --- needle vs half-line ---------------------------------------------------

def _g00(phi0: float) -> float:
    """-4/3 + csc^3(phi0) (2 phi0 - sin 2 phi0), removable at 0."""
    if abs(phi0) < _SERIES_SWITCH:
        p2 = phi0 * phi0
        return p2 * (840.0 + 170.0 * p2 + 29.0 * p2 * p2) / 2100.0
    return (-4.0 / 3.0
            + _csc(phi0) ** 3 * (2.0 * phi0 - math.sin(2.0 * phi0)))


def needle_f(phi0: float, theta0: float) -> float:
    """The orientation bracket f-hat of the Exx display (dimensionless);
    Exx = -(hbar c / 8 pi D^3) Txx * f-hat."""
    c2, s2 = math.cos(2.0 * theta0), math.sin(2.0 * theta0)
    if abs(phi0) < _SERIES_SWITCH:
        p = phi0
        return (2.0 / 3.0 - 2.0 / 3.0 * c2 - 2.0 / 3.0 * p * s2
                + p * p * (3.0 / 5.0 + 2.0 / 15.0 * c2)
                - 7.0 / 45.0 * p ** 3 * s2
                + p ** 4 * (17.0 / 140.0 - c2 / 630.0))
    cot, csc = math.cos(phi0) * _csc(phi0), _csc(phi0)
    return (-4.0 / 3.0 + c2 * (-2.0 + cot * csc)
            - csc * (3.0 * cot + 2.0 * s2
                     + phi0 * (-3.0 + math.cos(2.0 * theta0 + 2.0 * phi0))
                     * csc * csc))


def needle_edge_E00(phi0: float, D: float, t00: float) -> ClosedFormResult:
    """Monopole term: theta0-independent; vanishes as phi0 -> 0."""
    if D <= 0:
        raise ValidationError("D must be positive")
    val = -t00 * _g00(phi0) / (64.0 * math.pi * D ** 3)
    return ClosedFormResult(val)


def needle_edge_Exx(phi0: float, theta0: float, D: float,
                    txx: float) -> ClosedFormResult:
    if D <= 0:
        raise ValidationError("D must be positive")
    val = -txx * needle_f(phi0, theta0) / (8.0 * math.pi * D ** 3)
    return ClosedFormResult(val)


def needle_edge_Eyy(phi0: float, theta0: float, D: float,
                    tyy: float) -> ClosedFormResult:
    """Eyy(phi0, theta0) = Tyy * f(phi0, theta0 + pi/2)."""
    if D <= 0:
        raise ValidationError("D must be positive")
    val = -tyy * needle_f(phi0, theta0 + 0.5 * math.pi) \
        / (8.0 * math.pi * D ** 3)
    return ClosedFormResult(val)


# --- repulsion (needle over a gap) -----------------------------------------

def repulsion_energy(phi0: float, d: float, tyy: float) -> ClosedFormResult:
    """Vertical needle above two collinear half-lines.

    phi0 = atan(h/d) with h the needle height and d the horizontal
    distance from the needle's foot to each edge.  Equals twice the Eyy
    closed form per half-line (theta0 = pi/2 - phi0 at edge distance
    d/cos(phi0)).  Always <= 0; vanishes at phi0 = 0 (h = 0), which is
    why the vertical force near the gap is repulsive.
    """
    if d <= 0:
        raise ValidationError("d must be positive")
    if not 0.0 <= phi0 <= 0.5 * math.pi:
        raise ValidationError("phi0 must lie in [0, pi/2]")
    if phi0 < _SERIES_SWITCH:
        p2 = phi0 * phi0
        bracket = p2 * (-17.0 / 20.0 + 2633.0 / 1680.0 * p2)
    elif phi0 > 0.5 * math.pi - 1e-12:
        bracket = 0.0  # cot^3 kills the bracket at phi0 = pi/2
    else:
        cot = math.cos(phi0) * _csc(phi0)
        bracket = cot ** 3 * (
            -24.0 * phi0 + 6.0 * math.sin(2.0 * phi0)
            + 5.0 * math.sin(3.0 * phi0) + 3.0 * math.sin(4.0 * phi0)
            - 3.0 * math.sin(5.0 * phi0)
        ) / 48.0
    val = tyy * bracket / (math.pi * d ** 3)
    return ClosedFormResult(val)
