"""T-matrix kernels: half-plates (tilted and vertical), needles, plates.

The builders return weighted matrices K(a_j, a_k) w_k; a kernel K is
Hermitian when diag(w) @ (its weighted matrix) is.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir2d.errors import ResolutionError, ValidationError
from casimir2d.quadrature import build_alpha_grid
from casimir2d.scattering import (
    BoundaryCondition,
    Channel,
    HalfPlate,
    Needle,
    _differentiation_matrix,
    _pv_csch_half,
    halfplate_kernel,
    infinite_plate_rl,
    needle_T_multipole,
    needle_image_factors,
    needle_kernel_planar,
    parity_defect,
)


def _hermitian_form(k, grid):
    """diag(w) @ k: Hermitian iff the kernel behind k is."""
    return grid.alpha_weights[:, None] * k


class TestBoundaryCondition:
    def test_parse(self):
        assert BoundaryCondition.parse("d") is BoundaryCondition.DIRICHLET
        assert BoundaryCondition.parse("Neumann") is BoundaryCondition.NEUMANN
        assert BoundaryCondition.parse("EM") is BoundaryCondition.EM2D
        with pytest.raises(ValidationError):
            BoundaryCondition.parse("periodic")

    def test_signs(self):
        assert BoundaryCondition.DIRICHLET.sign == -1
        assert BoundaryCondition.NEUMANN.sign == +1
        with pytest.raises(ValidationError):
            BoundaryCondition.EM2D.sign

    def test_scalars(self):
        d, n = BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN
        assert BoundaryCondition.EM2D.scalars == (d, n)
        assert d.scalars == (d,) and n.scalars == (n,)


class TestHalfPlateKernel:
    @pytest.mark.parametrize("bc", ["D", "N"])
    @pytest.mark.parametrize("phi", [0.0, 0.3, -0.7, 1.2])
    def test_hermitian(self, bc, phi):
        g = build_alpha_grid(48)
        h = _hermitian_form(halfplate_kernel(bc, Channel.LL, phi, g), g)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    def test_rl_sign(self):
        g = build_alpha_grid(32)
        for bc, s in (("D", -1), ("N", +1)):
            ll = halfplate_kernel(bc, Channel.LL, 0.2, g)
            rl = halfplate_kernel(bc, Channel.RL, 0.2, g)
            np.testing.assert_allclose(rl, -s * ll, atol=1e-14)

    def test_untilted_values(self):
        # phi = 0: T = (-sech z + s sech y) / 2 elementwise
        g = build_alpha_grid(32)
        a = g.alpha_nodes
        z = 0.5 * (a[:, None] + a[None, :])
        y = 0.5 * (a[:, None] - a[None, :])
        k = halfplate_kernel("D", Channel.LL, 0.0, g)
        np.testing.assert_allclose(
            k, 0.5 * (-1 / np.cosh(z) - 1 / np.cosh(y)) * g.alpha_weights,
            atol=1e-13)

    def test_beyond_pi_half_rejected(self):
        g = build_alpha_grid(32)
        with pytest.raises(ValidationError):
            halfplate_kernel("D", Channel.LL, 2.0, g)

    def test_pole_collar_refused(self):
        g = build_alpha_grid(32)
        phi = 0.5 * math.pi - 0.5 * g.epsilon
        with pytest.raises(ResolutionError):
            halfplate_kernel("D", Channel.LL, phi, g)

    def test_infinite_plate_is_minus_identity(self):
        g = build_alpha_grid(32)
        np.testing.assert_array_equal(infinite_plate_rl(g), -np.eye(32))


def _complex_halfplate(bc, channel, phi, grid):
    """The weighted half-plate kernel from complex transcendentals,
    1/2 (-sech z + s / cos(i y + phi)), the builder's reference."""
    s = BoundaryCondition.parse(bc).sign
    a = grid.alpha_nodes
    z = 0.5 * (a[:, None] + a[None, :])
    y = 0.5 * (a[:, None] - a[None, :])
    k = 0.5 * (-1.0 / np.cosh(z) + s / np.cos(1j * y + phi))
    k = k * grid.alpha_weights[None, :]
    return -s * k if channel is Channel.RL else k


class TestRealArithmeticBuilder:
    """The tilted half-plate in real arithmetic, sec(i y + phi) = (cos phi
    cosh y + i sin phi sinh y) / (cos^2 phi + sinh^2 y), on the grid's
    cached half-angle factors."""

    GRIDS = {n: build_alpha_grid(n) for n in (64, 128)}

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("bc", ["D", "N"])
    @pytest.mark.parametrize("channel", [Channel.LL, Channel.RL])
    @pytest.mark.parametrize("phi", [0.0, 0.3, -0.3, 1.2, -1.2, 1.45, -1.45,
                                     "collar"])
    def test_matches_complex_expression(self, n, bc, channel, phi):
        g = self.GRIDS[n]
        if phi == "collar":
            # just outside the refused collar (pi/2 - epsilon, pi/2)
            phi = 0.5 * math.pi - 1.001 * g.epsilon
        got = halfplate_kernel(bc, channel, phi, g)
        ref = _complex_halfplate(bc, channel, phi, g)
        assert got.dtype == np.complex128
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
        assert parity_defect(got) <= 1e-15
        if phi == 0.0:
            assert not got.imag.any()

    def test_grid_factors_computed_once(self, monkeypatch):
        from casimir2d import quadrature
        calls = []
        real = quadrature._half_angle_factors

        def counted(alpha):
            calls.append(alpha.size)
            return real(alpha)

        monkeypatch.setattr(quadrature, "_half_angle_factors", counted)
        g = build_alpha_grid(64)
        halfplate_kernel("D", Channel.LL, 0.7, g)
        assert calls == [64]
        halfplate_kernel("N", Channel.RL, -0.4, g)
        halfplate_kernel("D", Channel.LL, 0.0, g)
        assert calls == [64]

    def test_grid_factors_read_only(self):
        g = build_alpha_grid(16)
        a = g.alpha_nodes
        sinh_y, cosh_y, sech_z = g.half_angle_factors
        y = 0.5 * (a[:, None] - a[None, :])
        np.testing.assert_allclose(sinh_y, np.sinh(y), rtol=1e-15)
        np.testing.assert_allclose(cosh_y, np.cosh(y), rtol=1e-15)
        np.testing.assert_array_equal(
            sech_z, 1.0 / np.cosh(0.5 * (a[:, None] + a[None, :])))
        for f in g.half_angle_factors:
            with pytest.raises(ValueError):
                f[0, 0] = 0.0
        # a grid with other radial nodes computes its own
        assert g.with_p([1.0], [1.0]).half_angle_factors[0] is not sinh_y


class TestVerticalKernel:
    def test_differentiation_matrix(self):
        g = build_alpha_grid(64)
        d = _differentiation_matrix(g)
        a = g.alpha_nodes
        f = 1 / np.cosh(a)
        fprime = -np.tanh(a) / np.cosh(a)
        np.testing.assert_allclose(d @ f, fprime, atol=1e-5)

    def test_differentiation_annihilates_constants(self):
        g = build_alpha_grid(48)
        d = _differentiation_matrix(g)
        np.testing.assert_allclose(d @ np.ones(48), 0.0, atol=1e-10)

    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_pv_operator_vs_adaptive_quadrature(self, c):
        # PV int dalpha'/(2 pi) f(alpha') / sinh((alpha-alpha')/2),
        # reference by singularity-subtracted adaptive quadrature
        g = build_alpha_grid(96)
        a = g.alpha_nodes
        K = _pv_csch_half(g)
        f = 1.0 / np.cosh(a) * np.exp(1j * c * np.sinh(a))
        out = K @ f

        def ref_at(aj):
            fj = 1.0 / math.cosh(aj) * np.exp(1j * c * math.sinh(aj))

            def gfun(x):
                fx = 1.0 / np.cosh(x) * np.exp(1j * c * np.sinh(x))
                return (fx - fj) / np.sinh(0.5 * (aj - x)) / (2 * np.pi)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", si.IntegrationWarning)
                rr = si.quad(lambda x: gfun(x).real, -25, 25, limit=400,
                             points=[aj])[0]
                ri = si.quad(lambda x: gfun(x).imag, -25, 25, limit=400,
                             points=[aj])[0]
            return rr + 1j * ri

        for j in (48, 32, 60):
            assert abs(out[j] - ref_at(a[j])) < 1e-3

    def test_vertical_kernel_weakly_hermitian(self):
        # the continuum kernel is Hermitian; the discrete matrix is not
        # (the PV singularity subtraction adds a dense real correction),
        # but quadratic forms on smooth test functions agree to
        # quadrature accuracy: <f, K h> = conj(<h, K f>)
        g = build_alpha_grid(96)
        a, w = g.alpha_nodes, g.alpha_weights
        f = 1 / np.cosh(a) * np.exp(0.4j * np.sinh(a))
        h = np.tanh(a) / np.cosh(a) + 0.2j / np.cosh(2 * a)
        for bc in ("D", "N"):
            k = halfplate_kernel(bc, Channel.LL, 0.5 * math.pi, g)
            lhs = np.sum(w * np.conj(f) * (k @ h))
            rhs = np.conj(np.sum(w * np.conj(h) * (k @ f)))
            assert abs(lhs - rhs) < 1e-4

    def test_up_down_conjugate(self):
        # flipping the extension direction flips only the PV (imaginary
        # odd) part: T_down = conj(T_up) elementwise
        g = build_alpha_grid(48)
        up = halfplate_kernel("N", Channel.LL, 0.5 * math.pi, g)
        down = halfplate_kernel("N", Channel.LL, -0.5 * math.pi, g)
        np.testing.assert_allclose(down, up.conj(), atol=1e-12)


class TestNeedle:
    def test_multipole_structure(self):
        t = needle_T_multipole(Needle(0.2, 0.3, 0.5, 0.7), 2.0)
        p2 = 4.0
        assert t[1, 1] == pytest.approx(p2 * 0.2)
        for m, k in ((-1, 0), (1, 2)):
            assert t[k, k] == pytest.approx(2 * p2 * 0.8)
            assert t[k, 2 - k] == pytest.approx(
                2 * p2 * (0.3 - 0.5) * np.exp(2j * m * 0.7))
        # m + m' odd entries vanish
        assert t[0, 1] == 0 and t[1, 0] == 0 and t[1, 2] == 0

    def test_planar_kernel_rank_form(self):
        # equivalent rank-one form of the planar conversion
        desc = Needle(0.1, 0.25, 0.6, 0.4)
        g = build_alpha_grid(32)
        p = 1.3
        k = needle_kernel_planar(desc, p, g)
        a_in = g.alpha_nodes[None, :]
        a_out = g.alpha_nodes[:, None]
        expect = math.pi * p * p * (
            desc.t00
            + 8 * desc.txx * np.cosh(a_in + 1j * desc.theta0)
            * np.cosh(a_out - 1j * desc.theta0)
            + 8 * desc.tyy * np.sinh(a_in + 1j * desc.theta0)
            * np.sinh(a_out - 1j * desc.theta0)
        )
        np.testing.assert_allclose(k, expect * g.alpha_weights, atol=1e-10)

    def test_planar_kernel_nine_term_sum(self):
        # the rank-3 product against the defining sum over m, m'
        desc = Needle(0.1, 0.05, 0.2, 0.3)
        g = build_alpha_grid(48)
        p = 0.7
        t = needle_T_multipole(desc, p)
        a_in = g.alpha_nodes[None, :]
        a_out = g.alpha_nodes[:, None]
        expect = np.zeros((g.n_alpha, g.n_alpha), dtype=complex)
        for ki, m in enumerate((-1, 0, 1)):
            for ko, mp in enumerate((-1, 0, 1)):
                expect += ((-1.0) ** (m + mp) * t[ki, ko]
                           * np.exp(mp * a_out + m * a_in))
        np.testing.assert_allclose(needle_kernel_planar(desc, p, g),
                                   math.pi * expect * g.alpha_weights,
                                   rtol=1e-14, atol=0)

    def test_circle_theta_independent(self):
        g = build_alpha_grid(24)
        k1 = needle_kernel_planar(Needle(0.0, 0.3, 0.3, 0.0), 1.0, g)
        k2 = needle_kernel_planar(Needle(0.0, 0.3, 0.3, 1.1), 1.0, g)
        np.testing.assert_allclose(k1, k2, atol=1e-12)

    @given(st.floats(-1.5, 1.5), st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_kernel_hermitian_for_real_strengths(self, theta0, p):
        g = build_alpha_grid(16)
        h = _hermitian_form(
            needle_kernel_planar(Needle(0.1, 0.2, 0.5, theta0), p, g), g)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-10)

    @pytest.mark.parametrize("desc", [
        Needle(0.1, 0.0, 1e-4, 0.5 * math.pi),  # vertical
        Needle(0.1, 0.0, 1e-4, 0.0),  # horizontal
        Needle(0.1, 1e-4, 1e-4, 0.0),  # circle
    ], ids=["vertical", "horizontal", "circle"])
    @pytest.mark.parametrize("p", [1e-12, 0.3, 7.0, 300.0])
    def test_kernel_is_p_squared_times_unit_kernel(self, desc, p):
        # the chain engine builds the needle kernel once at p = 1 and
        # scales it by p^2 at every radial node.  An entry is a sum of
        # nine terms that can cancel (one of the horizontal needle's
        # entries is 1/134 of the sum of its terms' moduli), so rtol is
        # taken against that sum, the scale of their rounding
        g = build_alpha_grid(32)
        m = np.array((-1, 0, 1))
        e = np.exp(np.outer(g.alpha_nodes, m))
        scale = (math.pi * e @ np.abs(needle_T_multipole(desc, p)).T @ e.T
                 * g.alpha_weights)
        diff = np.abs(needle_kernel_planar(desc, p, g)
                      - p ** 2 * needle_kernel_planar(desc, 1.0, g))
        assert np.all(diff <= 1e-14 * scale)

    @pytest.mark.parametrize("desc", [
        Needle(0.1, 0.0, 1e-4, 0.5 * math.pi),  # vertical
        Needle(0.1, 0.0, 1e-4, 0.0),  # horizontal
        Needle(0.1, 1e-4, 1e-4, 0.0),  # circle
        Needle(0.1, 0.05, 0.2, 0.7),
        Needle(0.1, 0.05, 0.2, 0.3),
    ], ids=["vertical", "horizontal", "circle", "tilted-0.7", "tilted-0.3"])
    @pytest.mark.parametrize("map_scale", [3.0, 6.0])
    def test_image_factors(self, desc, map_scale):
        # the chain engine keeps the needle as (E, M, W): E M E^T W is
        # the parity image Re T - Im T P of the builder's kernel.  The
        # tilted needles have Im S != 0, which takes the swap J in M
        g = build_alpha_grid(96, map_scale)
        e, m, w = needle_image_factors(desc, 1.0, g)
        assert e.shape == (96, 3) and m.shape == (3, 3)
        assert e.dtype == m.dtype == w.dtype == np.float64
        t = needle_kernel_planar(desc, 1.0, g)
        ref = t.real - t.imag[:, ::-1]
        assert np.abs(e @ m @ e.T * w - ref).max() <= 1e-15 * np.abs(
            ref).max()

    def test_validation(self):
        with pytest.raises(ValidationError):
            Needle(0.0, -1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            needle_T_multipole(Needle(), 0.0)
        with pytest.raises(ValidationError):
            HalfPlate(math.nan)


class TestParitySymmetry:
    """Every builder's kernel satisfies P T P = conj T, P the parity
    alpha -> -alpha, which the chain engine's real images rely on."""

    GRID = build_alpha_grid(96)

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET,
                                    BoundaryCondition.NEUMANN])
    @pytest.mark.parametrize("channel", [Channel.LL, Channel.RL])
    @pytest.mark.parametrize("phi", [0.0, 0.3, -0.3, 1.1, -1.1,
                                     0.5 * math.pi, -0.5 * math.pi])
    def test_halfplates(self, bc, channel, phi):
        assert parity_defect(halfplate_kernel(bc, channel, phi,
                                              self.GRID)) <= 1e-14

    def test_wall(self):
        assert parity_defect(infinite_plate_rl(self.GRID)) <= 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_needles(self, seed):
        rng = np.random.default_rng(seed)
        desc = Needle(rng.normal(), *rng.uniform(0.0, 1.0, 2),
                      rng.uniform(-math.pi, math.pi))
        assert parity_defect(needle_kernel_planar(
            desc, rng.uniform(0.1, 10.0), self.GRID)) <= 1e-14

    def test_defect_measures_the_broken_symmetry(self):
        t = halfplate_kernel("D", Channel.LL, 0.3, self.GRID)
        assert parity_defect(np.zeros((4, 4))) == 0.0
        # a bend in either half of the rows, the middle row of an odd
        # matrix included: the defect forms only the first half
        n = t.shape[0]
        for row in (0, n // 2 - 1, n // 2, n - 1):
            bent = t.copy()
            bent[row, 1] += 1e-6 * np.abs(t).max()
            assert parity_defect(bent) == pytest.approx(1e-6, rel=1e-6), row
        odd = np.ones((5, 5), complex)
        odd[2, 0] += 1e-6
        assert parity_defect(odd) == pytest.approx(1e-6, rel=1e-5)
