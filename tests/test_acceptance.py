"""Acceptance gate: end-to-end physics checks at stated tolerances.

Each test exercises one acceptance criterion on realistic grids; together
they pin the diagram combinatorics, the quadrature engine, the closed
forms, and the scenario runners against independent references.
"""

import math
import time

import numpy as np
import pytest

from casimir2d import closedforms
from casimir2d.assembly import (
    Scene,
    SceneObject,
    _central_differences,
    diagram_energy,
    evaluate,
    reflection_series,
)
from casimir2d.diagrams import canonicalize, enumerate_diagrams
from casimir2d.quadrature import build_grid
from casimir2d.scattering import BoundaryCondition, HalfPlate, InfinitePlate
from casimir2d.scenarios import (
    ScenarioConfig,
    SweepSpec,
    force_direction_field,
    run,
)
from casimir2d.translation import FramePose
from block_system import lndet_oracle, random_block_system, truncated_lndet
from test_assembly import _explicit_trace
from test_quadrature import parallel_plate_quadrature

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def _two_halfplates(phi1, phi2, bc, d=1.0):
    return Scene(
        (SceneObject(HalfPlate(phi1), FramePose((0.0, 0.0), phi1)),
         SceneObject(HalfPlate(phi2), FramePose((d, 0.0), phi2))),
        bc, mode="edge")


def _wall_scene(bc=D):
    return Scene(
        (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
         SceneObject(HalfPlate(0.0), FramePose((+1.0, 0.0))),
         SceneObject(InfinitePlate(), FramePose((0.0, 0.0)))),
        bc, mode="edge")


class TestDiagramCombinatorics:
    """100 random block systems: the diagram sum equals the power-trace
    truncation of -tr ln(1-K) to relative 1e-8, and the truncation error
    against the exact ln-det obeys the analytic next-term bound."""

    def test_lndet_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7041)
        n_max = 8
        for _ in range(100):
            m = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            rho = float(rng.uniform(0.05, 0.5))
            sysb = random_block_system(rng, m, dim, rho)
            series, exact = lndet_oracle(sysb, n_max)
            trunc = truncated_lndet(sysb, n_max)
            assert abs(series - trunc) < 1e-8 * max(abs(trunc), 1e-300)
            bound = (m * dim) * rho ** (n_max + 1) \
                / ((n_max + 1) * (1.0 - rho))
            assert abs(series - exact) <= bound
        assert time.perf_counter() - t0 < 10.0


class TestParallelPlateSeries:
    """Per-order 1/n^4 ratios, zeta resummation, and the quadrature
    engine against the D=2 closed form."""

    def test_per_order_ratios_exact(self):
        first = closedforms.parallel_plate_per_order(3, 1.0, 1.0, "D",
                                                     1).value
        for n in range(1, 9):
            per = closedforms.parallel_plate_per_order(3, 1.0, 1.0, "D",
                                                       n).value
            assert abs(per / first - 1.0 / n ** 4) < 1e-14

    def test_resummation_to_zeta4(self):
        total = closedforms.parallel_plate_energy(3, 1.0, 1.0, "D").value
        series = sum(
            closedforms.parallel_plate_per_order(3, 1.0, 1.0, "D", n).value
            for n in range(1, 20001))
        assert abs(series - total) / abs(total) < 1e-12

    def test_d2_quadrature_vs_zeta3(self):
        t0 = time.perf_counter()
        grid = build_grid(64, 48, p_scale=0.5, map_scale=6.0)
        num = parallel_plate_quadrature(1.0, 2, grid)
        exact = closedforms.parallel_plate_energy(2, 1.0, 1.0, "D").value
        assert abs(num - exact) / abs(exact) < 1e-6
        assert time.perf_counter() - t0 < 30.0


class TestTwoHalfPlateClosedForm:
    """5x5 tilt grid: the [21] quadrature energy matches the closed-form
    bracket to relative 1e-4 for both scalar boundary conditions."""

    def test_closed_form_grid(self):
        t0 = time.perf_counter()
        grid = build_grid(96, 40, p_scale=0.5)
        tilts = np.linspace(math.pi / 8, 3 * math.pi / 8, 5)
        d12 = canonicalize((1, 2))
        for phi1 in tilts:
            for phi2 in tilts:
                for bc, label in ((D, "D"), (N, "N")):
                    num = diagram_energy(_two_halfplates(phi1, phi2, bc),
                                         d12, grid)
                    cf = closedforms.two_halfplates_energy(
                        phi1, phi2, 1.0, 1.0, label).value
                    assert abs(num - cf) < 1e-4 * abs(cf)
        assert time.perf_counter() - t0 < 120.0


class TestWallCancellation:
    """An infinite plate between two half-plates screens them: each
    pair-diagram is cancelled by its wall-dressed partner to 1e-8."""

    @pytest.mark.parametrize("bc", [D, N])
    def test_cancellation_pairs(self, bc):
        t0 = time.perf_counter()
        grid = build_grid(96, 40, p_scale=0.5)
        scene = _wall_scene(bc)
        e12 = diagram_energy(scene, canonicalize((1, 2)), grid)
        e123 = diagram_energy(scene, canonicalize((1, 2, 3)), grid)
        assert abs(e12 + e123) < 1e-8 * abs(e12)
        e132 = diagram_energy(scene, canonicalize((1, 3, 2)), grid)
        e1323 = diagram_energy(scene, canonicalize((1, 3, 2, 3)), grid)
        assert abs(e132 + e1323) < 1e-8 * abs(e132)
        assert time.perf_counter() - t0 < 60.0


class TestNeedleIdentities:
    """Needle-edge closed forms: series branch, orientation sum rule,
    and vanishing tangential force on the symmetry axis."""

    def test_e00_vanishes_quadratically(self):
        assert closedforms.needle_edge_E00(0.0, 1.0, 1.0).value == 0.0
        # in the series regime E00 ~ -c phi0^2: the quadratic ratio is
        # reached to 1e-6 well before phi0 = 1e-3
        e1 = closedforms.needle_edge_E00(1e-4, 1.0, 1.0).value
        e2 = closedforms.needle_edge_E00(1e-3, 1.0, 1.0).value
        assert abs(e1 / e2 - 1e-2) < 1e-6

    def test_series_branch_continuity(self):
        from casimir2d.closedforms import _SERIES_SWITCH, _g00
        phi = _SERIES_SWITCH * 1.5
        series = phi ** 2 * (840 + 170 * phi ** 2 + 29 * phi ** 4) / 2100
        assert abs(_g00(phi) - series) < 1e-6 * abs(series)

    def test_orientation_sum_invariance(self):
        for phi0 in (0.0, 0.4, 1.0, 1.5):
            ref = closedforms.needle_f(phi0, 0.0) \
                + closedforms.needle_f(phi0, 0.5 * math.pi)
            for th in (0.3, 1.1, 2.7):
                s = closedforms.needle_f(phi0, th) \
                    + closedforms.needle_f(phi0, th + 0.5 * math.pi)
                assert abs(s - ref) < 1e-10 * max(1.0, abs(ref))

    def test_axis_force_is_radial(self):
        t0 = time.perf_counter()
        cfg = ScenarioConfig(scenario_id="edge_needle", bc="N", t00=0.1,
                             txx=0.05, tyy=0.2)
        out = force_direction_field(cfg, [0.0], [0.0, 0.5 * math.pi])
        j = out.columns.index("Fy")
        for row in out.rows:
            assert abs(row[j]) < 1e-10
        assert time.perf_counter() - t0 < 10.0


class TestGapRepulsion:
    """Needle over a gap in a Neumann (pure-2D EM) plane: zero force at
    the symmetric point, repulsion for the vertical needle, attraction
    for horizontal and circular ones, and a three-body correction below
    1% of the full two-body set."""

    def _curve(self, kind, h0, h1, steps):
        cfg = ScenarioConfig(scenario_id="gap_repulsion", bc="N",
                             needle=kind, n_alpha=96, n_p=48,
                             sweep=SweepSpec("h", h0, h1, steps))
        return run(cfg)

    def test_force_signs(self):
        t0 = time.perf_counter()
        v = self._curve("vertical", 0.0, 0.6, 3)
        f = v.column("F_total")
        assert abs(f[0]) < 1e-8  # h = 0: symmetric point
        assert np.all(f[1:] > 0)  # repelled from the gap
        for kind in ("horizontal", "circle"):
            c = self._curve(kind, 0.3, 0.6, 2)
            assert np.all(c.column("F_total") < 0)  # attracted
        assert time.perf_counter() - t0 < 120.0

    def test_three_body_below_percent_of_full_two_body(self):
        cfg = ScenarioConfig(scenario_id="gap_repulsion", bc="N", h=0.45)
        from casimir2d.scenarios import _grid_for, build
        bld = build(cfg)
        grid = _grid_for(cfg, bld)
        scene = bld.scene
        e = {w: diagram_energy(scene, canonicalize(w), grid)
             for w in ((1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 3, 2))}
        two_body = e[(1, 2)] + e[(1, 3)] + e[(2, 3)]
        three_body = e[(1, 2, 3)] + e[(1, 3, 2)]
        assert abs(three_body) < 0.01 * abs(two_body)


class TestThreeHalfPlateForceCurve:
    """Vertical half-plate between two coplanar ones: the vertical force
    decays at both ends, peaks at a positive height, has a Neumann share
    between 1/20 and 1/3 of the Dirichlet one there, and orders beyond
    the two-body terms contribute less than 10%."""

    def test_force_curve(self):
        t0 = time.perf_counter()
        cfg = ScenarioConfig(scenario_id="three_halfplates", bc="EM",
                             n_max=4, n_alpha=96, n_p=40,
                             sweep=SweepSpec("h", -0.5, 3.0, 8))
        out = run(cfg)
        f = out.column("F_total")
        h = out.column("h")
        peak = np.argmax(np.abs(f))
        assert h[peak] > 0.0
        # decay toward both ends of the sweep window and beyond
        for h_far in (-2.0, 5.0):
            far = run(ScenarioConfig(scenario_id="three_halfplates",
                                     bc="EM", n_max=4, n_alpha=96, n_p=40,
                                     sweep=SweepSpec("h", h_far, h_far, 1)))
            assert abs(far.column("F_total")[0]) < 0.1 * abs(f[peak])
        # channel ratio and higher-order share at the peak height
        at_peak = run(ScenarioConfig(scenario_id="three_halfplates",
                                     bc="EM", n_max=4, n_alpha=96, n_p=40,
                                     sweep=SweepSpec("h", 0.25, 0.25, 1)))
        row = dict(zip(at_peak.columns, at_peak.rows[0]))
        ratio = abs(row["F_N"] / row["F_D"])
        assert 1.0 / 20.0 <= ratio <= 1.0 / 3.0
        beyond = sum(v for c, v in row.items()
                     if c.startswith("F_[") and len(c) > 6)
        assert abs(beyond) < 0.1 * abs(row["F_total"])
        assert time.perf_counter() - t0 < 300.0


class TestNumericalHygiene:
    """Cross-checked forces, real energies, and grid-doubling stability."""

    def test_force_cross_checks(self):
        grid = build_grid(96, 40, p_scale=0.5)
        scene = _two_halfplates(0.3, 0.4, D)
        diagrams = enumerate_diagrams(2, 4)
        (forces,), = evaluate((scene,), diagrams, grid,
                              [((2, (1.0, 0.0)),)])
        f = sum(forces)
        fd = sum(_central_differences(scene, 2, (1.0, 0.0), grid, diagrams))
        assert abs(f - fd) < 1e-5 * max(abs(f), abs(fd))

    def test_energy_reality(self):
        grid = build_grid(96, 40, p_scale=0.5)
        scene = Scene(
            (SceneObject(HalfPlate(0.0), FramePose((-1.0, 0.0))),
             SceneObject(HalfPlate(0.0), FramePose((+1.0, 0.0))),
             SceneObject(HalfPlate(0.5 * math.pi),
                         FramePose((0.0, 0.7), 0.5 * math.pi),
                         plane_normal=(1.0, 0.0))),
            D, mode="edge")

        def integral(word):
            # the edge scene's measure p dp on the grid's plain dp
            return sum(wp * p * _explicit_trace(scene, word, grid, p, [])
                       for p, wp in zip(grid.p_nodes, grid.p_weights))
        # the complex chains, multiplied out as they stand: a mirror
        # pair's sum and the two-body diagrams integrate to real traces
        for words in (((1, 2, 3), (1, 3, 2)), ((1, 2),), ((1, 3),)):
            acc = sum(integral(w) for w in words)
            assert abs(acc.imag) < 1e-10 * abs(acc.real), words

    def test_grid_doubling_stability(self):
        scene = _two_halfplates(0.3, 0.4, D)
        coarse = reflection_series(
            scene, 4, build_grid(64, 24, p_scale=0.5)).total
        fine = reflection_series(
            scene, 4, build_grid(128, 48, p_scale=0.5)).total
        assert abs(fine - coarse) < 1e-4 * abs(fine)
