"""Grid construction and the algebra of weighted kernel matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir2d.closedforms import (
    parallel_plate_energy,
    parallel_plate_per_order,
)
from casimir2d.errors import ValidationError
from casimir2d.quadrature import (
    build_alpha_grid,
    build_grid,
    build_radial_grid,
)
from casimir2d.scattering import _weighted, infinite_plate_rl

EULER_GAMMA = 0.5772156649015329


def parallel_plate_quadrature(d, d_dim, grid, n_max=None):
    """Energy of two parallel perfect scalar plates at separation d from
    a grid's radial and rapidity rules: per unit area in 3D (d_dim = 3,
    int p dp), per unit length in 2D (d_dim = 2, int dkappa), the
    Jacobian p put on the grid's plain int dp here.  The kernels are
    diagonal in k_x and the trace per unit width carries dk_x/(2 pi) =
    p cosh(alpha) dalpha/(2 pi), so

        E = -C int dr int dk_x/(2 pi) sum_n x^n / n,
        x = exp(-2 p d cosh alpha),

    with C = 1/(4 pi) in 3D and 1/(2 pi) in 2D, the prefactors of the
    edge and pure-2D scene modes, and the sum over n all orders
    (-ln(1 - x)) or, with ``n_max``, up to it."""
    cosh_a = np.cosh(grid.alpha_nodes)
    acc = 0.0
    for p, wp in zip(grid.p_nodes, grid.p_weights):
        x = np.exp(-2.0 * p * d * cosh_a)
        if n_max is None:
            g = -np.log1p(-x)
        else:
            g = sum(x ** n / n for n in range(1, n_max + 1))
        jac = p if d_dim == 3 else 1.0
        acc += wp * jac * float(np.sum(grid.alpha_weights * p * cosh_a * g))
    return -acc / (4.0 * math.pi if d_dim == 3 else 2.0 * math.pi)


class TestAlphaGrid:
    def test_symmetric_and_increasing(self):
        g = build_alpha_grid(64)
        assert np.all(np.diff(g.alpha_nodes) > 0)
        np.testing.assert_allclose(g.alpha_nodes, -g.alpha_nodes[::-1],
                                   atol=1e-13)

    def test_measure_includes_two_pi(self):
        # int sech(alpha) dalpha / (2 pi) = 1/2
        g = build_alpha_grid(96)
        val = np.sum(g.alpha_weights / np.cosh(g.alpha_nodes))
        assert abs(val - 0.5) < 1e-6

    def test_gaussian_moment(self):
        g = build_alpha_grid(96)
        val = np.sum(g.alpha_weights * np.exp(-g.alpha_nodes ** 2))
        assert abs(val - math.sqrt(math.pi) / (2 * math.pi)) < 1e-10

    @given(st.integers(4, 40))
    @settings(deadline=None)
    def test_odd_or_small_counts_refused(self, n):
        if n % 2 or n < 8:
            with pytest.raises(ValidationError):
                build_alpha_grid(n)
        else:
            build_alpha_grid(n)


class TestRadialGrids:
    """The one radial rule, int dp; the p dp of the 2.5D scenes is the
    same rule with the Jacobian p on its weights."""

    def test_p_grid_gamma2(self):
        p, w = build_radial_grid(48, 1.0)
        assert abs(np.sum(w * p * np.exp(-p)) - 1.0) < 1e-8

    def test_p_grid_scaling(self):
        # int p e^{-p/s} dp = s^2 Gamma(2)
        p, w = build_radial_grid(48, 0.25)
        assert abs(np.sum(w * p * np.exp(-p / 0.25)) - 0.0625) < 1e-8

    def test_kappa_grid_gamma1(self):
        k, w = build_radial_grid(48, 1.0)
        assert abs(np.sum(w * np.exp(-k)) - 1.0) < 1e-8

    def test_log_endpoint_integrand(self):
        # int_0^inf e^{-k} log k dk = -gamma; Laguerre-type rules fail
        # this, the exp-sinh rule must not
        k, w = build_radial_grid(64, 1.0)
        val = np.sum(w * np.exp(-k) * np.log(k))
        assert abs(val + EULER_GAMMA) < 1e-8

    def test_nodes_positive_increasing(self):
        p, w = build_radial_grid(32, 2.0)
        assert np.all(p > 0) and np.all(np.diff(p) > 0)
        assert np.all(w > 0)


class TestParallelPlateRules:
    """The radial rules on the parallel-plate integrand against the
    plate laws: int p dp (3D) and int dkappa (2D)."""

    def test_p_rule_matches_zeta4_law(self, edge_grid):
        num = parallel_plate_quadrature(1.0, 3, edge_grid)
        cf = parallel_plate_energy(3, 1.0, 1.0, "D").value
        assert num == pytest.approx(cf, rel=1e-7)

    def test_kappa_rule_matches_zeta3_law(self, kappa_grid):
        num = parallel_plate_quadrature(1.0, 2, kappa_grid)
        cf = parallel_plate_energy(2, 1.0, 1.0, "D").value
        assert num == pytest.approx(cf, rel=1e-6)

    def test_truncated_orders_match_per_order_forms(self, edge_grid):
        num = parallel_plate_quadrature(1.0, 3, edge_grid, n_max=3)
        cf = sum(parallel_plate_per_order(3, 1.0, 1.0, "D", n).value
                 for n in (1, 2, 3))
        assert num == pytest.approx(cf, rel=1e-7)


class TestKernelAlgebra:
    """Weighted matrices K(a_j, a_k) w_k: operator composition is ``@``
    and the operator trace is ``np.trace``."""

    def test_identity_is_neutral(self):
        # the blocking wall is minus the identity operator
        g = build_alpha_grid(32)
        rng = np.random.default_rng(0)
        k = _weighted(rng.standard_normal((32, 32))
                      + 1j * rng.standard_normal((32, 32)), g)
        ident = -infinite_plate_rl(g)
        np.testing.assert_allclose(ident @ k, k, atol=1e-10)
        np.testing.assert_allclose(k @ ident, k, atol=1e-10)

    def test_trace_cyclic(self):
        g = build_alpha_grid(32)
        rng = np.random.default_rng(1)
        ra, rb = rng.standard_normal((2, 32, 32))
        a, b = _weighted(ra, g), _weighted(rb, g)
        t_ab = np.trace(a @ b)
        t_ba = np.trace(b @ a)
        assert abs(t_ab - t_ba) < 1e-10 * max(1.0, abs(t_ab))
        # the operator trace: sum_jk w_j A(a_j, a_k) w_k B(a_k, a_j)
        w = g.alpha_weights
        assert t_ab == pytest.approx(w @ (ra * rb.T) @ w, rel=1e-12)

    def test_product_is_operator_composition(self):
        # rank-one kernels: K(a,a') = f(a) g(a') compose to inner products
        g = build_alpha_grid(64)
        a = g.alpha_nodes
        f1, g1 = 1 / np.cosh(a), np.tanh(a) / np.cosh(a)
        f2, g2 = 1 / np.cosh(2 * a), 1 / np.cosh(a) ** 2
        k1 = _weighted(np.outer(f1, g1), g)
        k2 = _weighted(np.outer(f2, g2), g)
        inner = np.sum(g.alpha_weights * g1 * f2)
        np.testing.assert_allclose(k1 @ k2,
                                   inner * _weighted(np.outer(f1, g2), g),
                                   atol=1e-12)

    def test_nonfinite_rejected(self):
        g = build_alpha_grid(16)
        bad = np.zeros((16, 16))
        bad[0, 0] = np.inf
        with pytest.raises(ValidationError):
            _weighted(bad, g)


class TestBuildGrid:
    def test_epsilon_tracks_spacing(self):
        g = build_grid(64, 8)
        assert 0 < g.epsilon <= 0.5 * np.min(np.diff(g.alpha_nodes)) + 1e-15
