"""Object poses and the translation symbol between object frames.

In the rapidity basis a translation by (Delta_par, Delta_perp) --
longitudinal along the decay axis, lateral across it -- is diagonal:

    U(alpha) = exp(-p g(alpha)),
    g(alpha) = Delta_par cosh(alpha) + i Delta_perp sinh(alpha)

(evanescent waves e^{-p cosh(alpha) x + i k_y y} with k_y = -p sinh(alpha);
the decay axis is global x, the lateral axis y).
Rotations are not represented here: they are absorbed into the T-kernel
angle arguments (a = i alpha - phi), keeping U trivially composable.

The exponent g does not depend on the radial frequency p, so a caller
that needs U at many p computes g once and exponentiates -p g per node.

The chain engine splits U into a real decay and two height phases,

    U_{to<-from} = R Phi(y_to) Phi(y_from)^-1,
    R(alpha) = exp(-p Delta_par cosh(alpha)),
    Phi(y)(alpha) = exp(-i p y sinh(alpha)),

and moves the phases onto the kernels (see ``assembly``), so it only
needs the real exponent Delta_par cosh(alpha) of R, which
``decay_exponent`` returns.  ``translation_exponent`` is the full g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

__all__ = ["FramePose", "decay_exponent", "translation_exponent"]


@dataclass(frozen=True)
class FramePose:
    """Object frame: 2D origin and tilt from the global decay axis.

    The tilt is bookkeeping for the scattering kernels (rotations live
    in the T evaluation); translations only use the origins.
    """

    origin: tuple
    tilt: float = 0.0

    def __post_init__(self):
        x, y = self.origin
        if not (np.isfinite(x) and np.isfinite(y) and np.isfinite(self.tilt)):
            raise GeometryError("pose coordinates must be finite")


def decay_exponent(to_pose: FramePose, from_pose: FramePose,
                   cosh_a: np.ndarray) -> np.ndarray:
    """Real exponent Delta_par cosh(alpha) of the decay R = exp(-p
    Delta_par cosh(alpha)) from `from_pose` to `to_pose`, float64, on the
    nodes where cosh_a = cosh(alpha).

    Delta_par = |x_to - x_from| must be positive (waves must decay
    between distinct objects), which bounds every |U| by e^{-p Delta_par}.
    """
    dpar = abs(to_pose.origin[0] - from_pose.origin[0])
    if dpar == 0.0:
        raise GeometryError(
            f"poses at {to_pose.origin} and {from_pose.origin} are not "
            "separated along the decay axis"
        )
    return dpar * cosh_a


def translation_exponent(to_pose: FramePose, from_pose: FramePose,
                         cosh_a: np.ndarray,
                         sinh_a: np.ndarray) -> np.ndarray:
    """Exponent g(alpha) = Delta_par cosh(alpha) + i Delta_perp sinh(alpha)
    of the translation from `from_pose` to `to_pose`, U = exp(-p g), on
    the nodes where cosh_a = cosh(alpha) and sinh_a = sinh(alpha).

    The real part is ``decay_exponent``.  Delta_perp = y_to - y_from is
    signed, so that displacements compose: U_13 U_32 = U_12.  g is
    float64 when Delta_perp = 0 and complex128 otherwise.
    """
    g = decay_exponent(to_pose, from_pose, cosh_a)
    dperp = to_pose.origin[1] - from_pose.origin[1]
    if dperp == 0.0:
        return g
    return g + 1j * dperp * sinh_a
