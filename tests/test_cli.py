"""CLI: config parsing, exit codes, output determinism, manifests."""

import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from casimir2d import scenarios
from casimir2d.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    load_config,
    main,
)
from casimir2d.errors import ValidationError

FAST_PP = """\
[scenario]
id = parallel_plates
bc = D
n_max = 3

[sweep]
param = d
start = 0.5
stop = 1.5
steps = 4
"""

TWO_HP = """\
[scenario]
id = two_halfplates
bc = EM

[geometry]
phi2 = 0.3

[sweep]
param = phi1
start = 0.1
stop = 0.5
steps = 3

[grid]
n_alpha = 64
n_p = 32
"""

BLOCKING = """\
[scenario]
id = blocking
bc = D
n_max = 2

[sweep]
param = h
start = 0.5
stop = 0.5
steps = 1

[grid]
n_alpha = 64
n_p = 32
"""


# misspelled keys and a stray section: rejected, not run on defaults
TYPO = """\
[scenario]
id = three_halfplates

[geometry]
phi_1 = 0.7
DD = 3

[grid]
n_alfa = 16

[typo]
x = 1
"""

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(_write(tmp_path, FAST_PP), {})
        assert cfg.scenario_id == "parallel_plates"
        assert cfg.n_max == 3
        assert cfg.sweep.steps == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(tmp_path / "nope.ini", {})

    def test_missing_scenario_section(self, tmp_path):
        p = _write(tmp_path, "[geometry]\nD = 1.0\n")
        with pytest.raises(ValidationError, match="scenario"):
            load_config(p, {})

    def test_typed_errors(self, tmp_path):
        p = _write(tmp_path, FAST_PP.replace("n_max = 3", "n_max = three"))
        with pytest.raises(ValidationError, match="integer"):
            load_config(p, {})
        p2 = _write(tmp_path, TWO_HP.replace("phi2 = 0.3", "phi2 = wide"),
                    "c2.ini")
        with pytest.raises(ValidationError, match="number"):
            load_config(p2, {})

    def test_incomplete_sweep(self, tmp_path):
        p = _write(tmp_path, FAST_PP.replace("steps = 4\n", ""))
        with pytest.raises(ValidationError, match="sweep.steps"):
            load_config(p, {})

    def test_inline_comments_stripped(self, tmp_path):
        p = _write(tmp_path,
                   FAST_PP.replace("bc = D", "bc = D  ; boundary"))
        assert load_config(p, {}).bc == "D"

    @pytest.mark.parametrize("extra,name", [
        ("[geometry]\nphi_1 = 0.7\n", "geometry.phi_1"),
        ("[geometry]\nDD = 3\n", "geometry.DD"),
        ("[grid]\nn_alfa = 16\n", "grid.n_alfa"),
        ("[sweep]\nparam = h\nstart = 0\nstop = 1\nsteps = 2\n"
         "step = 1\n", "sweep.step"),
        ("[typo]\nx = 1\n", "[typo]"),
    ], ids=["geometry.phi_1", "geometry.DD", "grid.n_alfa", "sweep.step",
            "typo"])
    def test_unknown_section_or_key(self, tmp_path, extra, name):
        p = _write(tmp_path, "[scenario]\nid = three_halfplates\n" + extra)
        with pytest.raises(ValidationError, match=re.escape(name)):
            load_config(p, {})

    def test_keys_are_case_sensitive(self, tmp_path):
        p = _write(tmp_path, "[scenario]\nid = gap_repulsion\nbc = N\n"
                   "[geometry]\nD = 2.0\n")
        cfg = load_config(p, {})
        assert cfg.D == 2.0 and cfg.d == 1.0

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")),
                             ids=lambda p: p.stem)
    def test_bundled_configs_load(self, path):
        assert load_config(path, {}).sweep is not None

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")),
                             ids=lambda p: p.stem)
    def test_bundled_configs_run(self, path):
        # every bundled config runs end to end on a small grid (48 nodes
        # resolve the two_halfplates tilt of 1.45 rad); the only
        # non-finite values allowed are the two_halfplates order columns
        # at the vertical limit, where no kernel can be built
        cfg = load_config(path, {"n_alpha": 48, "n_p": 16, "threads": 1})
        cfg = replace(cfg, sweep=replace(cfg.sweep, steps=2))
        out = scenarios.run(cfg)
        assert len(out.rows) == 2
        for row in out.rows:
            point = replace(cfg, **{cfg.sweep.param: row[0]})
            vertical = (cfg.scenario_id == "two_halfplates" and max(
                abs(point.phi1), abs(point.phi2)) >= 0.5 * math.pi - 1e-9)
            for name, v in zip(out.columns, row):
                assert math.isfinite(v) or (
                    vertical and name in ("order2", "order4", "trunc_est"))

    def test_overrides_win(self, tmp_path):
        cfg = load_config(_write(tmp_path, FAST_PP),
                          {"n_max": 5, "threads": 2})
        assert cfg.n_max == 5 and cfg.threads == 2


class TestRunCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        p = _write(tmp_path, FAST_PP)
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        csv_path = tmp_path / "parallel_plates.csv"
        man_path = tmp_path / "parallel_plates.manifest.json"
        assert csv_path.exists() and man_path.exists()
        raw = csv_path.read_bytes()
        assert b"\r\n" in raw  # RFC-4180 line endings
        header = raw.split(b"\r\n")[0].decode()
        assert header.startswith("d (len),E_D (hbar*c/len^3)")
        man = json.loads(man_path.read_text())
        assert man["tool"] == "casimir2d"
        assert man["n_rows"] == 4
        assert man["config_sha256"] == hashlib.sha256(
            p.read_bytes()).hexdigest()
        assert man["data_sha256"] == hashlib.sha256(raw).hexdigest()
        assert man["grid"]["n_max"] == 3

    def test_bit_identical_rerun(self, tmp_path):
        p = _write(tmp_path, TWO_HP)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(p), "--out", str(d1)]) == 0
        assert main(["run", "--config", str(p), "--out", str(d2)]) == 0
        assert (d1 / "two_halfplates.csv").read_bytes() == \
            (d2 / "two_halfplates.csv").read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        p = _write(tmp_path, FAST_PP)
        d1, d2 = tmp_path / "t1", tmp_path / "t2"
        main(["run", "--config", str(p), "--out", str(d1)])
        main(["run", "--config", str(p), "--out", str(d2),
              "--threads", "3"])
        assert (d1 / "parallel_plates.csv").read_bytes() == \
            (d2 / "parallel_plates.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_thread_budget_in_manifest(self, tmp_path, threads):
        p = _write(tmp_path, FAST_PP)
        main(["run", "--config", str(p), "--out", str(tmp_path),
              "--threads", threads])
        man = json.loads(
            (tmp_path / "parallel_plates.manifest.json").read_text())
        # the 4 points, one per pass: parallel_plates is no h sweep
        assert man["threads"] == {"sweep_workers": int(threads),
                                  "batches": [1, 1, 1, 1]}

    @pytest.mark.parametrize("sid, extra, nmax, recorded", [
        ("gap_repulsion", "param = h", "2", 3),
        ("gap_repulsion", "param = h", "6", 3),
        ("two_halfplates", "param = phi1", "6", 4),
        ("blocking", "param = h", "3", 3),
    ])
    def test_manifest_records_the_series_order(self, tmp_path, sid, extra,
                                               nmax, recorded):
        # grid.n_max is the highest order the CSV's series columns hold:
        # gap_repulsion always stops at 3 and two_halfplates at 4,
        # whatever --nmax says
        p = _write(tmp_path, f"[scenario]\nid = {sid}\nbc = N\n\n"
                   f"[sweep]\n{extra}\nstart = 0.5\nstop = 0.5\n"
                   "steps = 1\n\n[grid]\nn_alpha = 16\nn_p = 8\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path),
                     "--nmax", nmax]) == EXIT_OK
        man = json.loads((tmp_path / f"{sid}.manifest.json").read_text())
        assert man["grid"]["n_max"] == recorded

    def test_per_diagram_in_manifest(self, tmp_path):
        p = _write(tmp_path, BLOCKING)
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        man = json.loads((tmp_path / "blocking.manifest.json").read_text())
        assert "I12_[12]" in man["per_diagram"]
        assert len(man["per_diagram"]["I12_[12]"]) == 1

    def test_validation_exit_code(self, tmp_path):
        p = _write(tmp_path, TWO_HP.replace("stop = 0.5", "stop = 2.0"))
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("text,flags,env", [
        (TYPO, [], None),
        ("[scenario]\nid = edge_needle\nbc = N\n[geometry]\nD = nan\n",
         [], None),
        ("[scenario]\nid = two_halfplates\n[geometry]\nL = inf\n", [],
         None),
        ("[scenario]\nid = edge_needle\nbc = N\n[geometry]\nt00 = inf\n",
         [], None),
        ("[scenario]\nid = parallel_plates\nthreads = -3\n", [], None),
        (FAST_PP, ["--threads", "0"], None),
        (FAST_PP, [], "-3"),
    ], ids=["roadmap-typo", "D-nan", "L-inf", "t00-inf", "threads-neg",
            "threads-flag-0", "threads-env-neg"])
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, text, flags,
                               env):
        if env is not None:
            monkeypatch.setenv("CASIMIR2D_THREADS", env)
        p = _write(tmp_path, text)
        rc = main(["run", "--config", str(p), "--out", str(tmp_path),
                   *flags])
        assert rc == EXIT_VALIDATION
        assert not list(tmp_path.glob("*.csv"))

    def test_non_utf8_config_exits_2(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_bytes(FAST_PP.encode() + b"; caf\xff\n")
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION
        assert not list(tmp_path.glob("*.csv"))

    def test_config_that_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.mkdir()
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert f"cannot read config {cfg}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_out_that_is_a_file_exits_2_before_the_sweep(self, tmp_path,
                                                          monkeypatch):
        def sweep(config):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(scenarios, "run", sweep)
        p = _write(tmp_path, FAST_PP)
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["run", "--config", str(p), "--out", str(taken)])
        assert rc == EXIT_VALIDATION

    def test_continuation_opt_in_and_warning(self, tmp_path):
        p = _write(tmp_path, TWO_HP.replace("stop = 0.5", "stop = 2.0"))
        rc = main(["run", "--config", str(p), "--out", str(tmp_path),
                   "--allow-continuation"])
        assert rc == EXIT_OK
        man = json.loads(
            (tmp_path / "two_halfplates.manifest.json").read_text())
        assert any("range of validity" in w for w in man["warnings"])

    def test_nonfinite_output_exits_3(self, tmp_path, monkeypatch, capsys):
        # a non-finite value outside the documented vertical-limit nan
        # fails the run before any CSV is written
        def nan_values(scenes, diagrams, grid, queries):
            return [[[float("nan")] * len(diagrams) for _ in queries]
                    for _ in scenes]

        monkeypatch.setattr(scenarios.assembly, "evaluate", nan_values)
        p = _write(tmp_path, BLOCKING)
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_NUMERICAL
        assert "non-finite I12_total = nan in row 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_broken_kernel_symmetry_exits_3(self, tmp_path, monkeypatch,
                                             capsys):
        # the chain engine's real images need P T P = conj T of every
        # kernel; a kernel that breaks it fails the run
        from casimir2d import assembly
        real = assembly.halfplate_kernel

        def bent(*args):
            t = real(*args)
            t[0, 1] += 1e-9 * np.abs(t).max()
            return t

        monkeypatch.setattr(assembly, "halfplate_kernel", bent)
        p = _write(tmp_path, BLOCKING)
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_NUMERICAL
        assert "mirror symmetry" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_requires_section(self, tmp_path):
        no_sweep = "[scenario]\nid = parallel_plates\n"
        p = _write(tmp_path, no_sweep)
        rc = main(["sweep", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("config,edit,flags,error", [
        ("parallel_plates", None, ["--grid-alpha", "0", "--grid-p", "-5"],
         "grid.n_alpha must be"),
        ("edge_needle", None, ["--grid-alpha", "0", "--grid-p", "-5"],
         "grid.n_alpha must be"),
        ("blocking", None, ["--grid-alpha", "10", "--grid-p", "7"],
         "grid.n_p must be"),
        ("two_halfplates", None, ["--grid-alpha", "-2"],
         "grid.n_alpha must be"),
        ("blocking", ("param = h", "param = phi1"), [],
         "blocking sweeps h, not 'phi1'"),
    ])
    def test_bad_grid_exits_2_before_any_output(self, tmp_path, capsys,
                                                config, edit, flags, error):
        # every scenario checks its grid, also those that build none, and
        # its sweep parameter, and names the field before the output
        # directory is made
        text = (CONFIGS / f"{config}.ini").read_text()
        if edit:
            assert edit[0] in text
            text = text.replace(*edit)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(_write(tmp_path, text)),
                   "--out", str(out), *flags])
        assert rc == EXIT_VALIDATION
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_bad_steps_exits_2_before_any_output(self, tmp_path, capsys,
                                                 steps):
        p = _write(tmp_path, FAST_PP.replace("steps = 4",
                                             f"steps = {steps}"))
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(p), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "error: sweep.steps must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_flag_overrides(self, tmp_path):
        p = _write(tmp_path, BLOCKING)
        rc = main(["run", "--config", str(p), "--out", str(tmp_path),
                   "--grid-alpha", "9"])  # odd count: rejected downstream
        assert rc == EXIT_VALIDATION


class TestEnvOverrides:
    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        p = _write(tmp_path, FAST_PP)
        dest = tmp_path / "envout"
        monkeypatch.setenv("CASIMIR2D_OUT", str(dest))
        assert main(["run", "--config", str(p)]) == EXIT_OK
        assert (dest / "parallel_plates.csv").exists()

    def test_bad_threads_env(self, tmp_path, monkeypatch):
        p = _write(tmp_path, FAST_PP)
        monkeypatch.setenv("CASIMIR2D_THREADS", "many")
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        p = _write(tmp_path, FAST_PP)
        monkeypatch.setenv("CASIMIR2D_THREADS", "many")  # ignored
        rc = main(["run", "--config", str(p), "--out", str(tmp_path),
                   "--threads", "1"])
        assert rc == EXIT_OK


class TestDiagramsCommand:
    def test_listing(self, capsys):
        assert main(["diagrams", "3", "--nmax", "4"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "[12] S=1 sym" in out
        assert "[1212] S=1/2 sym" in out
        mirrors = [ln for ln in out if ln.startswith("[123]")
                   or ln.startswith("[132]")]
        assert len(mirrors) == 2
        assert any("mirror" in ln for ln in mirrors)

    def test_m_too_small(self):
        assert main(["diagrams", "1"]) == EXIT_VALIDATION


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out.replace("FAILURES", "")

    def test_parity_symmetry_checked(self, capsys):
        assert main(["verify"]) == EXIT_OK
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if "kernel parity symmetry" in ln)
        assert line.startswith("PASS")
        assert float(line.split("measured")[1].split()[0]) <= 1e-14

    def test_operator_checked(self, capsys):
        # the scene's operator on object states against the engine, in
        # place of the random block systems, which moved to the tests
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lndet" not in out
        line = next(ln for ln in out.splitlines()
                    if "operator power traces" in ln)
        assert line.startswith("PASS")
        assert float(line.split("measured")[1].split()[0]) <= 1e-14
        line = next(ln for ln in out.splitlines() if "operator ln det" in ln)
        assert line.startswith("PASS")

    def test_needle_factors_checked(self, capsys):
        # the rank-space needle relies on T' = E M E^T W
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        line = next(ln for ln in out if "needle factors" in ln)
        assert line.startswith("PASS")
        assert float(line.split("measured")[1].split()[0]) <= 1e-14
        assert out.index(line) == 1 + next(
            i for i, ln in enumerate(out) if "kernel parity symmetry" in ln)
