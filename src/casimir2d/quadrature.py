"""Quadrature grids for the rapidity and radial-frequency integrals.

The continuous objects of the reflection expansion are operators
K(alpha_out, alpha_in) acting on functions of the rapidity alpha with
measure d(alpha)/(2 pi).  We discretize on a Gauss-Legendre grid mapped
to the real line by alpha = map_scale * atanh(t); the 1/(2 pi) measure
factor is folded into the alpha weights.  Kernels are stored weighted,
K(alpha_j, alpha_k) w_k, so that composition is a matrix product and
the operator trace a matrix trace (see scattering._weighted).

The radial frequency integral uses one exp-sinh (double-exponential)
rule for the plain int_0^infty f(p) dp, p = scale * exp((pi/2) sinh t)
with a trapezoid in t: the rapidity integral generates log(p) endpoint
behavior at p -> 0, which defeats Gauss-Laguerre (algebraic
convergence) but is handled spectrally by the double-exponential
clustering.  A grid carries no radial measure of its own: the scene's
mode supplies the Jacobian (p for the folded (kappa, k_z) half-plane of
the 2.5D scenes, 1 for the pure-2D ones; see ``assembly``).

Grid factors: the tilted half-plate kernel reads sinh and cosh of the
half-differences (alpha_j - alpha_k)/2 and sech of the half-sums
(alpha_j + alpha_k)/2, which depend on the rapidity nodes alone.  A
grid computes them on first use and keeps them, read-only
(``QuadratureGrid.half_angle_factors``), so every kernel build on it
after the first does only the tilt-dependent arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "QuadratureGrid",
    "check_alpha_count",
    "check_radial_count",
    "build_alpha_grid",
    "build_radial_grid",
    "build_grid",
]

MIN_NODES = 8  # fewest nodes of a rapidity or radial rule


def _half_angle_factors(alpha: np.ndarray) -> tuple:
    """(sinh y, cosh y, sech z) on the node pairs, y = (alpha_j -
    alpha_k)/2 and z = (alpha_j + alpha_k)/2, each a read-only
    (n, n) float64 array; cosh y = sqrt(1 + sinh^2 y)."""
    y = 0.5 * (alpha[:, None] - alpha[None, :])
    sinh_y = np.sinh(y)
    factors = (sinh_y, np.sqrt(1.0 + sinh_y * sinh_y),
               1.0 / np.cosh(0.5 * (alpha[:, None] + alpha[None, :])))
    for f in factors:
        f.flags.writeable = False
    return factors


def check_alpha_count(n: int, name: str = "n_nodes") -> None:
    """Reject a rapidity node count that is odd or below MIN_NODES (the
    grid must be symmetric about alpha = 0); ``name`` is the field the
    message names."""
    if n < MIN_NODES or n % 2:
        raise ValidationError(f"{name} must be even and >= {MIN_NODES}")


def check_radial_count(n: int, name: str = "n_nodes") -> None:
    """Reject a radial node count below MIN_NODES; ``name`` is the field
    the message names."""
    if n < MIN_NODES:
        raise ValidationError(f"{name} must be >= {MIN_NODES}")


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights for the rapidity and radial-frequency integrals.

    ``alpha_weights`` include the 1/(2 pi) measure; ``p_weights`` realize
    the plain int dp (``build_radial_grid``), to which the scene's mode
    adds its Jacobian.
    ``epsilon`` is the regulator used by singular (csch-type) kernels,
    tied to the grid spacing.
    """

    alpha_nodes: np.ndarray
    alpha_weights: np.ndarray
    p_nodes: np.ndarray = field(default_factory=lambda: np.empty(0))
    p_weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    epsilon: float = 0.0
    map_scale: float = 1.0

    def __post_init__(self):
        a = np.asarray(self.alpha_nodes, dtype=float)
        w = np.asarray(self.alpha_weights, dtype=float)
        if a.size:
            if np.any(np.diff(a) <= 0):
                raise ValidationError("alpha nodes must be strictly increasing")
            if np.any(w <= 0):
                raise ValidationError("alpha weights must be positive")
            # symmetric about zero
            if not np.allclose(a, -a[::-1], atol=1e-13):
                raise ValidationError("alpha grid must be symmetric about 0")
            spacing = np.min(np.diff(a))
            if self.epsilon <= 0 or self.epsilon > 0.5 * spacing + 1e-15:
                raise ValidationError(
                    "epsilon must be positive and at most half the minimum "
                    "alpha spacing"
                )
        p = np.asarray(self.p_nodes, dtype=float)
        if p.size and (np.any(p <= 0) or np.any(np.diff(p) <= 0)):
            raise ValidationError("p nodes must be positive and increasing")

    @property
    def n_alpha(self) -> int:
        return self.alpha_nodes.size

    @property
    def n_p(self) -> int:
        return self.p_nodes.size

    @functools.cached_property
    def half_angle_factors(self) -> tuple:
        """(sinh y, cosh y, sech z) of the rapidity half-differences y
        and half-sums z, computed once per grid (see the module
        docstring)."""
        return _half_angle_factors(np.asarray(self.alpha_nodes, float))

    def with_p(self, p_nodes, p_weights) -> "QuadratureGrid":
        return QuadratureGrid(
            self.alpha_nodes, self.alpha_weights,
            np.asarray(p_nodes, float), np.asarray(p_weights, float),
            self.epsilon, self.map_scale,
        )


def build_alpha_grid(n_nodes: int, map_scale: float = 3.0) -> QuadratureGrid:
    """Symmetric rapidity grid for int d(alpha)/(2 pi).

    alpha = map_scale * atanh(t) with t on Gauss-Legendre nodes in
    (-1, 1).  Integrands with sech-type decay become doubly-exponentially
    small at the endpoints under this map.
    """
    check_alpha_count(n_nodes)
    if map_scale <= 0:
        raise ValidationError("map_scale must be positive")
    t, wt = np.polynomial.legendre.leggauss(n_nodes)
    # enforce exact symmetry of the node set under negation
    t = 0.5 * (t - t[::-1])
    wt = 0.5 * (wt + wt[::-1])
    alpha = map_scale * np.arctanh(t)
    w = wt * map_scale / (1.0 - t * t) / (2.0 * np.pi)
    eps = 0.5 * float(np.min(np.diff(alpha)))
    return QuadratureGrid(alpha, w, epsilon=eps, map_scale=map_scale)


def build_radial_grid(n_nodes: int, scale: float = 1.0):
    """Radial-frequency grid realizing int_0^infty f(p) dp, for f ~
    exp(-p/scale): sum(w * exp(-p)) -> Gamma(1) = 1 at scale 1 (to
    quadrature accuracy).  Returns (p_nodes, p_weights).

    Exp-sinh map p = scale * exp((pi/2) sinh t), trapezoid in t over
    [t_min, t_max] chosen so the omitted tails are below double
    precision for integrands with the stated decay; robust to log(p)
    endpoint singularities at p -> 0.  ``scale`` should track the decay
    length of the integrand (for a round trip across gap d,
    scale ~ 1/(2 d)).
    """
    check_radial_count(n_nodes)
    if scale <= 0:
        raise ValidationError("scale must be positive")
    two_over_pi = 2.0 / np.pi
    t_min = np.arcsinh(two_over_pi * np.log(1e-12))   # p_min = 1e-12*scale
    t_max = np.arcsinh(two_over_pi * np.log(690.0))   # e^{-690} ~ 1e-300
    t = np.linspace(t_min, t_max, n_nodes)
    h = t[1] - t[0]
    p = scale * np.exp(0.5 * np.pi * np.sinh(t))
    weights = p * 0.5 * np.pi * np.cosh(t) * h
    weights[0] *= 0.5
    weights[-1] *= 0.5
    if not np.all(np.isfinite(weights)):
        raise ValidationError("p-grid weights overflow; reduce n_nodes")
    return p, weights


def build_grid(n_alpha: int, n_p: int, *, map_scale: float = 3.0,
               p_scale: float = 1.0) -> QuadratureGrid:
    """Convenience: combined alpha + radial grid, the radial rule the
    plain int dp of ``build_radial_grid``."""
    return build_alpha_grid(n_alpha, map_scale).with_p(
        *build_radial_grid(n_p, p_scale))
