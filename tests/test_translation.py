"""The translation exponent and its symbol: composition, decay bounds,
conjugation, dtype."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir2d.errors import GeometryError
from casimir2d.quadrature import build_alpha_grid
from casimir2d.translation import (
    FramePose,
    decay_exponent,
    translation_exponent,
)

finite = st.floats(-5.0, 5.0, allow_nan=False)


def _g(to_pose, from_pose, grid):
    a = grid.alpha_nodes
    return translation_exponent(to_pose, from_pose, np.cosh(a), np.sinh(a))


def _u(to_pose, from_pose, p, grid):
    """The symbol U = exp(-p g) at radial frequency p."""
    return np.exp(-p * _g(to_pose, from_pose, grid))


class TestFramePose:
    def test_nonfinite_rejected(self):
        with pytest.raises(GeometryError):
            FramePose((np.nan, 0.0))


class TestTranslationDiagonal:
    """The diagonal symbol exp(-p g) of ``translation_exponent``."""

    def test_composition(self):
        # U_13 U_32 = U_12 when object 3 sits between 1 and 2 in x
        g = build_alpha_grid(48)
        p1 = FramePose((-1.0, 0.2))
        p2 = FramePose((1.5, -0.7))
        p3 = FramePose((0.3, 2.0))
        p = 0.9
        u12 = _u(p1, p2, p, g)
        u13 = _u(p1, p3, p, g)
        u32 = _u(p3, p2, p, g)
        np.testing.assert_allclose(u13 * u32, u12, atol=1e-13)

    def test_decay_bound(self):
        g = build_alpha_grid(48)
        d = _u(FramePose((2.0, 5.0)), FramePose((0.0, 0.0)), 1.3, g)
        assert np.all(np.abs(d) <= np.exp(-1.3 * 2.0) + 1e-15)

    def test_conjugation_under_lateral_flip(self):
        g = build_alpha_grid(48)
        up = _u(FramePose((1.0, 0.7)), FramePose((0.0, 0.0)), 1.0, g)
        dn = _u(FramePose((1.0, -0.7)), FramePose((0.0, 0.0)), 1.0, g)
        np.testing.assert_allclose(up, dn.conj(), atol=1e-14)

    @given(finite, finite, st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_magnitude_bounded_by_longitudinal_decay(self, dy, x, p):
        g = build_alpha_grid(16)
        dx = abs(x) + 0.1
        d = _u(FramePose((dx, dy)), FramePose((0.0, 0.0)), p, g)
        assert np.all(np.abs(d) <= np.exp(-p * dx) + 1e-12)

    def test_zero_longitudinal_separation_rejected(self):
        g = build_alpha_grid(16)
        with pytest.raises(GeometryError):
            _u(FramePose((0.0, 1.0)), FramePose((0.0, 0.0)), 1.0, g)
        with pytest.raises(GeometryError):
            _u(FramePose((1.0, 1.0)), FramePose((1.0, 1.0)), 1.0, g)

    @pytest.mark.parametrize("dy", [0.0, -0.0, 0.7, -1e-300])
    def test_real_exactly_at_equal_height(self, dy):
        # g is float64 exactly when Delta_perp = 0, with the values of
        # the complex form dpar cosh(alpha) + i dperp sinh(alpha)
        grid = build_alpha_grid(16)
        a = grid.alpha_nodes
        g = _g(FramePose((1.5, dy)), FramePose((0.0, 0.0)), grid)
        assert g.dtype == (np.float64 if dy == 0.0 else np.complex128)
        ref = 1.5 * np.cosh(a) + 1j * dy * np.sinh(a)
        assert np.array_equal(g, ref)
        assert np.array_equal(np.exp(-0.8 * g), np.exp(-0.8 * ref))


class TestHeightPhaseSplit:
    """U = R Phi(y_to) Phi(y_from)^-1, R = exp(-p ``decay_exponent``)
    and Phi(y) = exp(-i p y sinh(alpha)): the split the chain engine
    moves the phases onto the kernels with."""

    def test_split(self):
        grid = build_alpha_grid(32)
        a = grid.alpha_nodes
        to, frm, p = FramePose((-0.4, 0.9)), FramePose((1.1, -0.3)), 0.7
        r = np.exp(-p * decay_exponent(to, frm, np.cosh(a)))
        assert r.dtype == np.float64
        assert np.array_equal(r, r[::-1])  # even: commutes with parity

        def phase(y):
            return np.exp(-1j * p * y * np.sinh(a))

        # the phases' arguments reach p y sinh(alpha) ~ 1e4 at the grid's
        # ends, where their rounding is ~1e-14 of the phase
        np.testing.assert_allclose(
            r * phase(0.9) / phase(-0.3), _u(to, frm, p, grid),
            rtol=1e-12)

    def test_zero_longitudinal_separation_rejected(self):
        with pytest.raises(GeometryError):
            decay_exponent(FramePose((1.0, 2.0)), FramePose((1.0, 0.0)),
                           np.ones(4))
