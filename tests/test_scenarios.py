"""Scenario runners: config validation, output schemas, and sum rules."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from casimir2d import closedforms, scenarios
from casimir2d.closedforms import two_halfplates_energy
from casimir2d.diagrams import word_to_str
from casimir2d.errors import ValidationError
from casimir2d.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    SweepSpec,
    build,
    force_direction_field,
    gap_twobody_energy,
    run,
)


def _cfg(**kw):
    kw.setdefault("n_alpha", 64)
    kw.setdefault("n_p", 32)
    return ScenarioConfig(**kw)


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ValidationError, match="scenario_id"):
            _cfg(scenario_id="bogus")

    def test_unknown_bc(self):
        with pytest.raises(ValidationError):
            _cfg(scenario_id="parallel_plates", bc="robin")

    def test_needle_scenarios_reject_scalar_dirichlet(self):
        for sid in ("edge_needle", "gap_repulsion"):
            with pytest.raises(ValidationError, match="pure-2D"):
                _cfg(scenario_id=sid, bc="D")
            _cfg(scenario_id=sid, bc="N")
            _cfg(scenario_id=sid, bc="EM")

    def test_positive_lengths(self):
        with pytest.raises(ValidationError):
            _cfg(scenario_id="two_halfplates", D=0.0)
        with pytest.raises(ValidationError):
            _cfg(scenario_id="blocking", d1=-1.0)

    @pytest.mark.parametrize("sid,field,value", [
        ("edge_needle", "D", math.nan),
        ("two_halfplates", "L", math.inf),
        ("edge_needle", "t00", math.inf),
        ("blocking", "h", -math.inf),
    ])
    def test_nonfinite_numbers_rejected(self, sid, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            _cfg(scenario_id=sid, bc="N", **{field: value})

    def test_nonfinite_sweep_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            _cfg(scenario_id="blocking", sweep=SweepSpec("h", 0.0, math.nan,
                                                         3))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValidationError, match="threads"):
            _cfg(scenario_id="parallel_plates", threads=threads)

    def test_needle_kind(self):
        with pytest.raises(ValidationError, match="needle"):
            _cfg(scenario_id="gap_repulsion", bc="N", needle="square")

    def test_d_dim(self):
        with pytest.raises(ValidationError):
            _cfg(scenario_id="parallel_plates", d_dim=4)

    def test_range_of_validity_includes_sweep_endpoints(self):
        sw = SweepSpec("phi1", 0.0, 2.0, 5)
        with pytest.raises(ValidationError, match="range of validity"):
            _cfg(scenario_id="two_halfplates", sweep=sw)
        _cfg(scenario_id="two_halfplates", sweep=sw,
             allow_continuation=True)

    def test_sweep_values(self):
        assert len(SweepSpec("d", 1.0, 2.0, 5).values()) == 5
        np.testing.assert_allclose(SweepSpec("d", 1.0, 2.0, 1).values(),
                                   [1.0])
        with pytest.raises(ValidationError):
            SweepSpec("d", 1.0, 2.0, 0).values()

    def test_default_sweeps_cover_all_scenarios(self):
        assert tuple(scenarios._SCENARIOS) == SCENARIOS
        for _, sw, others, size in scenarios._SCENARIOS.values():
            assert sw.steps >= 1 and sw.param not in others
            # the h sweeps take batches of B points, the others one
            assert size == (scenarios.B if sw.param == "h" else 1)

    def test_wrong_sweep_param_rejected(self):
        with pytest.raises(ValidationError):
            _cfg(scenario_id="parallel_plates",
                 sweep=SweepSpec("h", 0.0, 1.0, 3))

    # parallel_plates is the case above
    @pytest.mark.parametrize("sid,param", [
        ("two_halfplates", "D"),
        ("three_halfplates", "d1"),
        ("blocking", "phi1"),
        ("edge_needle", "h"),
        ("gap_repulsion", "d"),
    ])
    def test_unswept_param_rejected(self, sid, param):
        with pytest.raises(ValidationError, match=f"{sid} sweeps"):
            _cfg(scenario_id=sid, bc="N", sweep=SweepSpec(param, 0.5, 1.0, 2))


class TestParallelPlates:
    def test_rows_and_sum_rule(self):
        cfg = _cfg(scenario_id="parallel_plates", d_dim=3,
                   sweep=SweepSpec("d", 0.5, 1.5, 3))
        out = run(cfg)
        assert out.columns[:4] == ["d", "E_D", "E_N", "E_EM"]
        assert len(out.rows) == 3
        np.testing.assert_allclose(out.column("E_EM"),
                                   out.column("E_D") + out.column("E_N"),
                                   rtol=1e-14)
        # order_n / order_1 = 1/n^4 in 3D
        r = out.column("order_2") / out.column("order_1")
        np.testing.assert_allclose(r, 1.0 / 16.0, rtol=1e-13)


class TestTwoHalfPlates:
    def test_em_sum_and_order2_limit(self):
        cfg = _cfg(scenario_id="two_halfplates", bc="EM", phi2=0.3,
                   n_alpha=96, n_p=48,
                   sweep=SweepSpec("phi1", 0.2, 0.6, 2))
        out = run(cfg)
        np.testing.assert_allclose(out.column("E_EM"),
                                   out.column("E_D") + out.column("E_N"),
                                   rtol=1e-13)
        # second-order quadrature reproduces the closed form
        np.testing.assert_allclose(out.column("order2"),
                                   out.column("E_EM"), rtol=1e-5)

    def test_vertical_limit_yields_nan_orders(self):
        cfg = _cfg(scenario_id="two_halfplates",
                   sweep=SweepSpec("phi1", 0.5 * math.pi, 0.5 * math.pi, 1))
        out = run(cfg)
        assert math.isnan(out.rows[0][out.columns.index("order2")])
        assert math.isfinite(out.rows[0][out.columns.index("E_D")])

    @pytest.mark.parametrize("n_max", [2, 6])
    def test_runner_evaluates_the_built_diagrams(self, monkeypatch, n_max):
        # the order2/order4 columns need [12] and [1212] whatever n_max
        cfg = _cfg(scenario_id="two_halfplates", bc="EM", n_max=n_max,
                   n_alpha=32, n_p=8, sweep=SweepSpec("phi1", 0.3, 0.3, 1))
        seen = []
        real = scenarios.assembly.evaluate

        def spy(scenes, diagrams, grid, queries):
            seen.append([word_to_str(di.word) for di in diagrams])
            return real(scenes, diagrams, grid, queries)

        monkeypatch.setattr(scenarios.assembly, "evaluate", spy)
        run(cfg)
        built = [word_to_str(di.word) for di in build(cfg).diagrams]
        assert built == ["[12]", "[1212]"]
        assert seen == [built]  # one call per point, EM included


class TestThreeHalfPlates:
    def test_per_diagram_sum_and_em_rule(self):
        cfg = _cfg(scenario_id="three_halfplates", bc="EM", n_max=2,
                   sweep=SweepSpec("h", 0.3, 0.3, 1))
        out = run(cfg)
        row = dict(zip(out.columns, out.rows[0]))
        per = [v for c, v in row.items() if c.startswith("F_[")]
        assert row["F_total"] == pytest.approx(sum(per), rel=1e-12)
        assert row["F_EM"] == pytest.approx(row["F_D"] + row["F_N"],
                                            rel=1e-12)
        assert row["F_EM"] == pytest.approx(row["F_total"], rel=1e-12)


class TestBlocking:
    def test_per_diagram_sum(self):
        cfg = _cfg(scenario_id="blocking", n_max=2,
                   sweep=SweepSpec("h", 0.5, 0.5, 1))
        out = run(cfg)
        row = dict(zip(out.columns, out.rows[0]))
        per = [v for c, v in row.items() if c.startswith("I12_[")]
        assert row["I12_total"] == pytest.approx(sum(per), rel=1e-12)

    def test_blocking_releases_as_plate_withdraws(self):
        # raising the vertical plate restores the 1-2 interaction: I12
        # grows monotonically with h toward the free two-body value
        cfg = _cfg(scenario_id="blocking", n_max=4,
                   sweep=SweepSpec("h", 0.0, 4.0, 3))
        vals = run(cfg).column("I12_total")
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) > 0)

    def test_note_states_the_truncation_error(self):
        # the note gives the n_max = 4 D I12's distance from its
        # all-orders value (README's numerical notes) and the rule for
        # trusting a row; the old note called the screened value a
        # "wall-limit residual"
        out = run(_cfg(scenario_id="blocking", n_max=2, n_alpha=32, n_p=8,
                       sweep=SweepSpec("h", 0.5, 0.5, 1)))
        note = out.notes[0]
        assert note.startswith("I12 = -d^2 E / d(d1) d(d2), bc=D; ")
        for part in ("n_max = 4", "54% above its all-orders value at "
                     "h = 0.5", "2000x above it at h = -1",
                     "trustworthy only where trunc_est is small"):
            assert part in note
        assert "residual" not in note

    @pytest.mark.parametrize("bc", ["D", "N", "EM"])
    def test_every_row_anchored_to_the_closed_form(self, bc):
        # I12_[12] = -6 E_[12] / D^2, D = d1 + d2, on every row
        cfg = _cfg(scenario_id="blocking", bc=bc, n_max=2, n_alpha=64,
                   n_p=24, sweep=SweepSpec("h", -1.0, 2.0, 2))
        out = run(cfg)
        notes = [n for n in out.notes if n.startswith("closed-form anchor")]
        assert len(notes) == 1
        worst = float(re.search(r"D\^2\)\| (\S+)", notes[0]).group(1))
        dd = cfg.d1 + cfg.d2
        closed = -6.0 * two_halfplates_energy(0.0, 0.0, dd, 1.0,
                                              bc).value / (dd * dd)
        ref = max(abs(v - closed) for v in out.column("I12_[12]"))
        assert worst == pytest.approx(ref / abs(closed), rel=1e-3)
        assert worst < 1e-4


class TestEdgeNeedle:
    def test_component_sum_and_theta_invariance(self):
        cfg = _cfg(scenario_id="edge_needle", bc="N", phi1=0.4,
                   t00=0.2, txx=0.1, tyy=0.3,
                   sweep=SweepSpec("theta0", 0.0, 0.5 * math.pi, 2))
        out = run(cfg)
        np.testing.assert_allclose(
            out.column("E_total"),
            out.column("E00") + out.column("Exx") + out.column("Eyy"),
            rtol=1e-13)
        # with txx == tyy the energy is orientation independent
        cfg2 = _cfg(scenario_id="edge_needle", bc="N", phi1=0.4,
                    t00=0.2, txx=0.3, tyy=0.3,
                    sweep=SweepSpec("theta0", 0.0, 1.2, 3))
        tot = run(cfg2).column("E_total")
        np.testing.assert_allclose(tot, tot[0], rtol=1e-12)


class TestGapRepulsion:
    def test_twobody_matches_closed_form(self):
        cfg = _cfg(scenario_id="gap_repulsion", bc="N", n_alpha=96,
                   n_p=48, sweep=SweepSpec("h", 0.4, 0.4, 1))
        out = run(cfg)
        row = dict(zip(out.columns, out.rows[0]))
        cf = gap_twobody_energy(cfg, 0.4)
        assert row["E_twobody"] == pytest.approx(cf, rel=1e-4)
        assert row["F_total"] == pytest.approx(
            row["F_twobody"] + row["F_threebody"], rel=1e-12)

    def test_every_row_anchored_to_the_closed_form(self):
        cfg = _cfg(scenario_id="gap_repulsion", bc="N", needle="vertical",
                   n_alpha=64, n_p=24, sweep=SweepSpec("h", 0.0, 0.8, 3))
        out = run(cfg)
        notes = [n for n in out.notes if n.startswith("closed-form anchor")]
        assert len(notes) == 1
        worst = float(re.search(r"closed form\| (\S+)", notes[0]).group(1))
        closed = [gap_twobody_energy(cfg, h) for h in out.column("h")]
        ref = max(abs(e - c) for e, c in zip(out.column("E_twobody"),
                                             closed))
        assert worst == pytest.approx(ref / max(map(abs, closed)),
                                      rel=1e-3)
        assert worst < 1e-4

    @pytest.mark.parametrize("h,rel", [
        (-1.2, 1e-14), (-0.5, 1e-14), (0.0, 0.0), (0.3, 1e-14),
        (1.2, 1e-14), (5.0, 1e-14),
        # the series branch of both closed forms
        (1e-3, 1e-10), (-1e-3, 1e-10)])
    def test_vertical_twobody_is_the_repulsion_formula(self, h, rel):
        # the vertical needle's two-body energy, 2 E00 plus the gap's
        # repulsion formula, is 2 E00 plus the Eyy form of each
        # half-line, and even in h
        cfg = _cfg(scenario_id="gap_repulsion", bc="N", needle="vertical")
        beta, de = math.atan2(h, cfg.d), math.hypot(cfg.d, h)
        ref = 2.0 * (closedforms.needle_edge_E00(beta, de, cfg.t00).value
                     + closedforms.needle_edge_Eyy(
                         beta, 0.5 * math.pi - beta, de, cfg.tyy).value)
        got = gap_twobody_energy(cfg, h)
        assert abs(got - ref) <= rel * abs(ref)
        assert got == gap_twobody_energy(cfg, -h)

    def test_vertical_needle_repelled_from_gap(self):
        cfg = _cfg(scenario_id="gap_repulsion", bc="N", n_alpha=96,
                   n_p=48, sweep=SweepSpec("h", 0.3, 0.3, 1))
        out = run(cfg)
        assert out.rows[0][out.columns.index("F_total")] > 0


def _note_delta(out):
    """Largest error in the curve's force cross-check note."""
    note = next(n for n in out.notes if n.startswith("force cross-check"))
    return float(re.search(r"max delta (\S+)", note).group(1))


class TestForceCrossCheckNote:
    @pytest.mark.parametrize("kw", [
        dict(scenario_id="three_halfplates", bc="EM",
             sweep=SweepSpec("h", 0.3, 0.8, 2)),
        dict(scenario_id="gap_repulsion", bc="N",
             sweep=SweepSpec("h", 0.3, 0.8, 2)),
        # h = 0 is a symmetry zero of the needle force: the check moves
        # on to the first row whose |F_total| counts on the curve
        dict(scenario_id="gap_repulsion", bc="N",
             sweep=SweepSpec("h", 0.0, 0.5, 2)),
    ])
    def test_first_row_is_cross_checked(self, kw):
        out = run(_cfg(n_alpha=64, n_p=24, **kw))
        notes = [n for n in out.notes if n.startswith("force cross-check")]
        assert len(notes) == 1
        f = np.abs(out.column("F_total"))
        checked = out.column("h")[np.flatnonzero(f >= 1e-2 * f.max())[0]]
        assert notes[0].startswith(f"force cross-check at h={checked:g}:")
        assert _note_delta(out) < 1e-5

    def test_symmetry_zero_is_not_the_row_checked(self):
        out = run(_cfg(scenario_id="gap_repulsion", bc="N", n_alpha=64,
                       n_p=24, sweep=SweepSpec("h", 0.0, 0.6, 2)))
        note = next(n for n in out.notes
                    if n.startswith("force cross-check"))
        assert note.startswith("force cross-check at h=0.6:")
        assert _note_delta(out) < 1e-5

    @pytest.mark.parametrize("kw", [
        dict(scenario_id="three_halfplates", bc="EM",
             sweep=SweepSpec("h", 0.3, 0.8, 2)),
        dict(scenario_id="gap_repulsion", bc="N",
             sweep=SweepSpec("h", 0.3, 0.8, 2)),
    ])
    def test_note_checks_the_forces_the_row_writes(self, monkeypatch, kw):
        # shift one diagram's force by 1% of the curve's largest
        # |F_total|: the first row's check must see the shift
        # (the needle runner takes its forces from the one pass that
        # also gives its energies; the central differences are energy
        # queries and stay as they are)
        from casimir2d import assembly
        cfg = _cfg(n_alpha=64, n_p=24, **kw)
        fmax = np.abs(run(cfg).column("F_total")).max()
        real = assembly.evaluate

        def shifted(scenes, diagrams, grid, queries):
            return [[[vs[0] + 0.01 * fmax] + vs[1:] if query else vs
                     for query, vs in zip(queries, per_query)]
                    for per_query in real(scenes, diagrams, grid, queries)]

        monkeypatch.setattr(assembly, "evaluate", shifted)
        assert _note_delta(run(cfg)) > 1e-3

    def test_needle_kernel_built_once_per_engine_call(self, monkeypatch):
        # energies and forces of both rows come from one engine pass on
        # the batch of their two scenes; the checked row adds the central
        # differences of its diagrams (one pass on the batch of its two
        # displaced scenes), so a 2-point curve makes 1 + 1 engine calls,
        # each building the unit needle kernel once for all its radial
        # nodes and scenes
        from casimir2d import assembly
        calls = []
        real = assembly.needle_kernel_planar

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(assembly, "needle_kernel_planar", counted)
        cfg = _cfg(scenario_id="gap_repulsion", bc="N", n_alpha=32, n_p=16,
                   sweep=SweepSpec("h", 0.3, 0.8, 2))
        run(cfg)
        assert len(calls) == 2
        assert all(args[1] == 1.0 for args in calls)


class TestEngineEntry:
    """Every engine pass of a run goes through ``assembly.evaluate``, one
    call per batch of sweep points (per scalar where a runner needs the
    scalars apart) and one per cross-check batch."""

    @staticmethod
    def _calls(monkeypatch, **kw):
        calls = []
        real = scenarios.assembly.evaluate

        def spy(scenes, diagrams, grid, queries):
            calls.append((len(scenes), scenes[0].bc.value, len(queries)))
            return real(scenes, diagrams, grid, queries)

        monkeypatch.setattr(scenarios.assembly, "evaluate", spy)
        out = run(_cfg(n_alpha=32, n_p=8, **kw))
        return calls, out

    def test_three_halfplates(self, monkeypatch):
        # the D and N sweep passes, then the cross-check of each scalar's
        # forces, its two displaced scenes in one batch
        calls, _ = self._calls(monkeypatch, scenario_id="three_halfplates",
                               bc="EM", n_max=3,
                               sweep=SweepSpec("h", 0.4, 0.4, 1))
        assert calls == [(1, "D", 1), (1, "N", 1), (2, "D", 1),
                         (2, "N", 1)]

    def test_blocking(self, monkeypatch):
        calls, out = self._calls(monkeypatch, scenario_id="blocking",
                                 n_max=2, sweep=SweepSpec("h", 0.0, 1.0, 6))
        assert out.threads["batches"] == [4, 2]
        assert calls == [(4, "D", 1), (2, "D", 1)]

    def test_gap_repulsion(self, monkeypatch):
        # energies and forces of the batch in one call, then the
        # cross-check's energies
        calls, _ = self._calls(monkeypatch, scenario_id="gap_repulsion",
                               bc="N", sweep=SweepSpec("h", 0.3, 0.8, 3))
        assert calls == [(3, "N", 2), (2, "N", 1)]

    def test_two_halfplates(self, monkeypatch):
        calls, _ = self._calls(monkeypatch, scenario_id="two_halfplates",
                               bc="EM", sweep=SweepSpec("phi1", 0.1, 0.5, 3))
        assert calls == [(1, "EM", 1)] * 3


class TestThreads:
    def test_threaded_rows_identical(self):
        sw = SweepSpec("d", 0.5, 1.5, 4)
        r1 = run(_cfg(scenario_id="parallel_plates", sweep=sw, threads=1))
        r2 = run(_cfg(scenario_id="parallel_plates", sweep=sw, threads=3))
        assert r1.rows == r2.rows

    def test_threaded_blocking_rows_identical(self):
        # the chain engine keeps its kernel cache and windows per call
        kw = dict(scenario_id="blocking", n_max=3, n_alpha=48, n_p=16,
                  sweep=SweepSpec("h", -0.5, 1.0, 4))
        r1 = run(_cfg(threads=1, **kw))
        r2 = run(_cfg(threads=2, **kw))
        assert r1.rows == r2.rows

    @pytest.mark.parametrize("kw,batches", [
        (dict(scenario_id="gap_repulsion", bc="N",
              sweep=SweepSpec("h", 0.0, 1.2, 9)),
         {1: [4, 4, 1], 2: [4, 1, 4], 3: [3, 3, 3]}),
        (dict(scenario_id="three_halfplates", bc="EM", n_max=3,
              sweep=SweepSpec("h", -0.5, 1.0, 6)),
         {1: [4, 2], 2: [3, 3], 3: [3, 3]})])
    def test_batched_rows_identical(self, monkeypatch, kw, batches):
        # each worker takes a contiguous share of the points, cut into
        # batches of at most B scenes per engine pass, and the pool has
        # one worker per batch at most: the rows do not depend on how the
        # points were batched, to the last bit
        monkeypatch.setattr(scenarios, "_openblas", lambda: None)
        rows = None
        for threads, sizes in batches.items():
            out = run(_cfg(n_alpha=32, n_p=12, threads=threads, **kw))
            assert out.threads["batches"] == sizes
            assert rows is None or out.rows == rows
            rows = out.rows

    def test_tilt_sweep_is_not_batched(self):
        out = run(_cfg(scenario_id="two_halfplates", bc="N", n_alpha=32,
                       n_p=12, sweep=SweepSpec("phi1", 0.1, 0.4, 3)))
        assert out.threads["batches"] == [1, 1, 1]

    @staticmethod
    def _blas():
        blas = scenarios._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS found in this process")
        return blas

    @pytest.mark.parametrize("threads", [2, 4])
    def test_blas_holds_the_budget_inside_the_pool(self, monkeypatch,
                                                   threads):
        # six points, two batches: the pool gets two workers whatever
        # threads says, and BLAS the cores they leave while the points
        # run
        get, _ = self._blas()
        before = get()
        seen = []
        real = scenarios.assembly.evaluate

        def spy(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios.assembly, "evaluate", spy)
        out = run(_cfg(scenario_id="blocking", n_max=2, n_alpha=32, n_p=8,
                       threads=threads, sweep=SweepSpec("h", 0.0, 1.0, 6)))
        budget = max(1, min(before, scenarios._cpus() // 2))
        assert seen == [budget, budget]
        assert get() == before
        assert out.threads == {"sweep_workers": 2, "blas_threads": budget,
                               "blas_threads_restored": before,
                               "batches": [3, 3]}

    @pytest.mark.parametrize("scenario,bc", [
        ("blocking", "D"), ("three_halfplates", "EM"),
        ("gap_repulsion", "N")])
    def test_one_worker_per_batch(self, monkeypatch, scenario, bc):
        # an h sweep of two points at threads = 2 is one batch on one
        # worker: one engine call per scalar evaluates both points
        calls = []
        real = scenarios.assembly.evaluate

        def spy(scenes, *args):
            calls.append(len(scenes))
            return real(scenes, *args)

        monkeypatch.setattr(scenarios.assembly, "evaluate", spy)
        out = run(_cfg(scenario_id=scenario, bc=bc, n_max=2, n_alpha=32,
                       n_p=8, threads=2, sweep=SweepSpec("h", 0.2, 0.7, 2)))
        assert out.threads["sweep_workers"] == 1
        assert out.threads["batches"] == [2]
        assert calls[0] == 2

    @pytest.mark.parametrize("scenario,points,workers", [
        ("blocking", 26, 4), ("three_halfplates", 33, 4),
        ("blocking", 5, 2), ("parallel_plates", 3, 3)])
    def test_workers_per_chunk(self, monkeypatch, scenario, points,
                               workers):
        # the bundled blocking.ini (26 points) and three_halfplates.ini
        # (33) at threads = 4 keep four workers; a curve one point at a
        # time gets one per point
        monkeypatch.setattr(scenarios, "_openblas", lambda: None)
        seen = []
        real = scenarios._sweep_map

        def spy(values, n, *args, **kwargs):
            seen.append(n)
            return [[v] for v in values]

        monkeypatch.setattr(scenarios, "_sweep_map", spy)
        monkeypatch.setitem(scenarios._SCENARIOS, scenario, (
            lambda config, sweep, sweep_map: scenarios.CurveOutput(
                ["x"], ["1"], sweep_map(None), []),
            *scenarios._SCENARIOS[scenario][1:]))
        run(_cfg(scenario_id=scenario, threads=4,
                 sweep=SweepSpec("h" if scenario != "parallel_plates"
                                 else "d", 0.5, 1.5, points)))
        assert seen == [workers]

    def test_cross_check_runs_under_the_budget(self, monkeypatch):
        # a pooled force curve checks its first row after the pool has
        # finished, but still inside the sweep's thread budget
        get, _ = self._blas()
        before = get()
        budget = max(1, min(before, scenarios._cpus() // 2))
        if budget == before:
            pytest.skip("the budget equals BLAS's own count here")
        seen = []
        real = scenarios.assembly._central_differences

        def spy(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios.assembly, "_central_differences", spy)
        run(_cfg(scenario_id="three_halfplates", bc="EM", n_max=2,
                 n_alpha=32, n_p=8, threads=2,
                 sweep=SweepSpec("h", 0.0, 1.0, 6)))
        assert seen == [budget, budget]  # one per EM scalar
        assert get() == before

    def test_blas_restored_when_a_point_raises(self, monkeypatch):
        get, put = self._blas()
        before = get()
        calls = []

        def recorded(n):
            calls.append(n)
            put(n)

        monkeypatch.setattr(scenarios, "_openblas", lambda: (get, recorded))
        # d = -1 and d = 0 are not separations: those points raise
        with pytest.raises(ValidationError, match="separation"):
            run(_cfg(scenario_id="parallel_plates", threads=3,
                     sweep=SweepSpec("d", -1.0, 1.0, 3)))
        assert calls[-1] == before and get() == before

    def test_serial_sweep_never_looks_up_blas(self, monkeypatch):
        def fail():
            raise AssertionError("a serial sweep looked up BLAS")

        monkeypatch.setattr(scenarios, "_openblas", fail)
        out = run(_cfg(scenario_id="blocking", n_max=2, n_alpha=32, n_p=8,
                       threads=1, sweep=SweepSpec("h", 0.0, 1.0, 2)))
        assert out.threads == {"sweep_workers": 1,
                               "blas_threads": "not controlled",
                               "blas_threads_restored": "not controlled",
                               "batches": [2]}

    def test_without_openblas_the_pool_runs_uncontrolled(self, monkeypatch):
        kw = dict(scenario_id="blocking", n_max=3, n_alpha=48, n_p=16,
                  sweep=SweepSpec("h", -0.5, 1.0, 6))
        r1 = run(_cfg(threads=1, **kw))
        monkeypatch.setattr(scenarios, "_openblas", lambda: None)
        r2 = run(_cfg(threads=2, **kw))
        assert r1.rows == r2.rows
        assert r2.threads == {"sweep_workers": 2,
                              "blas_threads": "not controlled",
                              "blas_threads_restored": "not controlled",
                              "batches": [3, 3]}

    def test_concurrent_pools_restore_blas(self):
        # pooled sweeps run from several threads at once share the
        # process-wide BLAS count: the last one out must restore it
        get, _ = self._blas()
        before = get()
        cfg = _cfg(scenario_id="parallel_plates", threads=2,
                   sweep=SweepSpec("d", 0.5, 1.5, 2))
        errors = []

        def sweeps():
            try:
                for _ in range(50):
                    run(cfg)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=sweeps) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert get() == before


class TestForceDirectionField:
    def test_requires_edge_needle(self):
        with pytest.raises(ValidationError):
            force_direction_field(_cfg(scenario_id="parallel_plates"),
                                  [0.0], [0.0])

    def test_symmetry_axis_force_is_radial(self):
        cfg = _cfg(scenario_id="edge_needle", bc="N", t00=0.1, txx=0.05,
                   tyy=0.2)
        out = force_direction_field(cfg, [0.0], [0.0, 0.5 * math.pi])
        for row in out.rows:
            r = dict(zip(out.columns, row))
            # on the half-line axis the tangential component vanishes
            assert abs(r["Fy"]) < 1e-8 * max(1.0, abs(r["Fx"]))
            assert abs(r["Fx_norm"]) <= 1.0 + 1e-12
