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
that needs U at many p (the chain engine) computes g once with
``translation_exponent`` and exponentiates -p g per node.  Between
objects at the same height (Delta_perp = 0) g, and so U, is real, and
``translation_exponent`` returns it as float64: the chain engine then
keeps the products of such a U with a real kernel in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

__all__ = ["FramePose", "translation_exponent"]


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


def translation_exponent(to_pose: FramePose, from_pose: FramePose,
                         cosh_a: np.ndarray,
                         sinh_a: np.ndarray) -> np.ndarray:
    """Exponent g(alpha) = Delta_par cosh(alpha) + i Delta_perp sinh(alpha)
    of the translation from `from_pose` to `to_pose`, U = exp(-p g), on
    the nodes where cosh_a = cosh(alpha) and sinh_a = sinh(alpha).

    Delta_par = |x_to - x_from| must be positive (waves must decay
    between distinct objects), which bounds every |U| by e^{-p Delta_par};
    Delta_perp = y_to - y_from is signed, so that displacements compose:
    U_13 U_32 = U_12.  g is float64 when Delta_perp = 0 and complex128
    otherwise.
    """
    dpar = abs(to_pose.origin[0] - from_pose.origin[0])
    if dpar == 0.0:
        raise GeometryError(
            f"poses at {to_pose.origin} and {from_pose.origin} are not "
            "separated along the decay axis"
        )
    dperp = to_pose.origin[1] - from_pose.origin[1]
    if dperp == 0.0:
        return dpar * cosh_a
    return dpar * cosh_a + 1j * dperp * sinh_a
