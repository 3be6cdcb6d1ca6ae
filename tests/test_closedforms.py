"""Closed-form evaluators: limits, symmetries, and internal identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir2d.closedforms import (
    gd,
    needle_edge_E00,
    needle_edge_Exx,
    needle_edge_Eyy,
    needle_f,
    parallel_plate_energy,
    parallel_plate_per_order,
    repulsion_energy,
    two_halfplates_bracket,
    two_halfplates_energy,
)
from casimir2d.errors import DomainError, ValidationError
from casimir2d.scattering import BoundaryCondition

ZETA3 = 1.2020569031595942854
ZETA4 = math.pi ** 4 / 90.0


class TestGudermannian:
    def test_values(self):
        assert gd(0.0) == 0.0
        assert gd(50.0) == pytest.approx(math.pi / 2, abs=1e-12)

    @given(st.floats(-10, 10))
    def test_odd(self, x):
        assert gd(-x) == pytest.approx(-gd(x), abs=1e-14)


class TestParallelPlates:
    def test_reference_values(self):
        e2 = parallel_plate_energy(2, 1.0, 1.0, "D").value
        assert e2 == pytest.approx(-ZETA3 / (16 * math.pi), rel=1e-14)
        e3 = parallel_plate_energy(3, 1.0, 1.0, "D").value
        assert e3 == pytest.approx(-ZETA4 / (16 * math.pi ** 2), rel=1e-14)

    def test_em_doubles_scalar(self):
        for dd in (2, 3):
            e = parallel_plate_energy(dd, 0.7, 2.0, "D").value
            em = parallel_plate_energy(dd, 0.7, 2.0, "EM").value
            assert em == pytest.approx(2 * e, rel=1e-14)

    def test_per_order_ratio(self):
        first = parallel_plate_per_order(3, 1.0, 1.0, "D", 1).value
        for n in (2, 3, 5, 8):
            pn = parallel_plate_per_order(3, 1.0, 1.0, "D", n).value
            assert pn / first == pytest.approx(n ** -4.0, rel=1e-14)

    def test_per_order_resums_to_total(self):
        total = parallel_plate_energy(2, 1.0, 1.0, "N").value
        series = sum(parallel_plate_per_order(2, 1.0, 1.0, "N", n).value
                     for n in range(1, 5000))
        assert series == pytest.approx(total, rel=1e-7)

    @pytest.mark.parametrize("D_dim", [2, 3])
    def test_force_is_gradient(self, D_dim):
        # E ~ d^-D_dim, so F = -dE/dd = D_dim E / d, negative: attractive
        d, h = 0.8, 1e-6
        e = parallel_plate_energy(D_dim, d, 1.0, "D").value
        ep = parallel_plate_energy(D_dim, d + h, 1.0, "D").value
        em = parallel_plate_energy(D_dim, d - h, 1.0, "D").value
        f = -(ep - em) / (2 * h)
        assert f == pytest.approx(D_dim * e / d, rel=1e-8)
        assert f < 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            parallel_plate_energy(4, 1.0, 1.0, "D")
        with pytest.raises(ValidationError):
            parallel_plate_energy(3, -1.0, 1.0, "D")
        with pytest.raises(ValidationError):
            parallel_plate_per_order(3, 1.0, 1.0, "D", 0)


class TestTwoHalfPlates:
    def test_symmetric_in_tilts(self):
        for bc in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
            b12 = two_halfplates_bracket(0.5, 1.1, bc)
            b21 = two_halfplates_bracket(1.1, 0.5, bc)
            assert b12 == pytest.approx(b21, rel=1e-13)

    def test_collinear_limit(self):
        bd = two_halfplates_bracket(0.0, 0.0, BoundaryCondition.DIRICHLET)
        bn = two_halfplates_bracket(0.0, 0.0, BoundaryCondition.NEUMANN)
        assert bd == pytest.approx(16.0 / 3.0 + math.pi ** 2 / 2, rel=1e-13)
        assert bn == pytest.approx(16.0 / 3.0 - math.pi ** 2 / 2, rel=1e-13)

    def test_removable_single_zero_tilt(self):
        # phi1 -> 0 at fixed phi2 is continuous
        for bc in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
            b0 = two_halfplates_bracket(0.0, 0.8, bc)
            bh = two_halfplates_bracket(1e-7, 0.8, bc)
            assert bh == pytest.approx(b0, rel=1e-6)

    def test_em_sum_rule(self):
        e_d = two_halfplates_energy(0.3, 0.4, 1.0, 1.0, "D").value
        e_n = two_halfplates_energy(0.3, 0.4, 1.0, 1.0, "N").value
        e_em = two_halfplates_energy(0.3, 0.4, 1.0, 1.0, "EM").value
        assert e_em == pytest.approx(e_d + e_n, rel=1e-14)

    def test_scaling_in_d_and_l(self):
        e1 = two_halfplates_energy(0.3, 0.4, 1.0, 1.0, "D").value
        e2 = two_halfplates_energy(0.3, 0.4, 2.0, 3.0, "D").value
        assert e2 == pytest.approx(e1 * 3.0 / 4.0, rel=1e-14)

    def test_overlap_divergence(self):
        with pytest.raises(DomainError):
            two_halfplates_bracket(1.5, math.pi - 1.5 + 1e-10,
                                   BoundaryCondition.DIRICHLET)

    def test_range_of_validity(self):
        with pytest.raises(ValidationError, match="range of validity"):
            two_halfplates_energy(2.0, 0.0, 1.0, 1.0, "D")
        # continuation is explicit opt-in
        two_halfplates_energy(2.0, 0.0, 1.0, 1.0, "D",
                              allow_continuation=True)

    @given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))
    @settings(max_examples=60, deadline=None)
    def test_dirichlet_bracket_exceeds_neumann(self, phi1, phi2):
        # the odd (pi/2) term enters with opposite sign; its coefficient
        # is positive, so B_D > B_N pointwise
        if abs(math.sin(phi1 + phi2)) < 1e-6:
            return
        bd = two_halfplates_bracket(phi1, phi2, BoundaryCondition.DIRICHLET)
        bn = two_halfplates_bracket(phi1, phi2, BoundaryCondition.NEUMANN)
        assert bd > bn


class TestNeedleForms:
    def test_e00_vanishes_at_zero(self):
        assert needle_edge_E00(0.0, 1.0, 1.0).value == 0.0

    def test_series_matches_exact_at_switch(self):
        # the small-phi Taylor branch must agree with the exact branch
        # at the same phi just past the switch radius
        from casimir2d.closedforms import _SERIES_SWITCH, _g00
        phi = _SERIES_SWITCH * 1.2  # exact branch is taken here
        exact = _g00(phi)
        series = phi ** 2 * (840 + 170 * phi ** 2 + 29 * phi ** 4) / 2100
        assert exact == pytest.approx(series, rel=1e-6)

    @given(st.floats(0.0, 1.5), st.floats(-3.2, 3.2))
    @settings(max_examples=60, deadline=None)
    def test_orientation_sum_is_theta_independent(self, phi0, theta0):
        s1 = needle_f(phi0, theta0) + needle_f(phi0, theta0 + math.pi / 2)
        s2 = needle_f(phi0, 0.0) + needle_f(phi0, math.pi / 2)
        assert s1 == pytest.approx(s2, abs=1e-10 * max(1.0, abs(s2)))

    def test_eyy_is_rotated_exx(self):
        e_yy = needle_edge_Eyy(0.4, 0.3, 1.0, 2.0).value
        e_xx = needle_edge_Exx(0.4, 0.3 + math.pi / 2, 1.0, 2.0).value
        assert e_yy == pytest.approx(e_xx, rel=1e-14)

    def test_repulsion_equals_two_eyy(self):
        for phi0 in (0.15, 0.5, 1.0, 1.4):
            d = 1.3
            de = d / math.cos(phi0)
            direct = repulsion_energy(phi0, d, 0.7).value
            via_eyy = 2 * needle_edge_Eyy(phi0, math.pi / 2 - phi0, de,
                                          0.7).value
            assert direct == pytest.approx(via_eyy, rel=1e-10)

    def test_repulsion_zero_at_gap_center_height(self):
        assert repulsion_energy(0.0, 1.0, 1.0).value == 0.0

    @given(st.floats(0.0, math.pi / 2))
    @settings(max_examples=40, deadline=None)
    def test_repulsion_energy_nonpositive(self, phi0):
        assert repulsion_energy(phi0, 1.0, 1.0).value <= 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            repulsion_energy(-0.1, 1.0, 1.0)
        with pytest.raises(ValidationError):
            needle_edge_E00(0.3, -1.0, 1.0)
