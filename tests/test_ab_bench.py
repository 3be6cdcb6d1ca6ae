"""scripts/ab_bench.py: the verdict over A/B pairs and its argument
checks."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_bench",
    Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def _pairs(old, new, name="point_s"):
    return [{"parent": {name: o}, "change": {name: n}}
            for o, n in zip(old, new)]


OLD = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_clear_gain():
    v = ab_bench.summarize(_pairs(OLD, [x - 0.2 for x in OLD]))["point_s"]
    assert v["won"] == v["pairs"] == 10
    assert v["parent_median"] == pytest.approx(1.0)
    assert v["change_median"] == pytest.approx(0.8)
    assert v["parent_q1"] < v["parent_median"] < v["parent_q3"]
    assert v["gain"]


def test_eight_of_ten_is_no_gain():
    new = [x - 0.2 for x in OLD[:8]] + [x + 0.2 for x in OLD[8:]]
    v = ab_bench.summarize(_pairs(OLD, new))["point_s"]
    assert v["won"] == 8
    assert not v["gain"]


def test_gap_inside_the_parent_iqr_is_no_gain():
    # every pair won, by less than the parent's spread
    v = ab_bench.summarize(_pairs(OLD, [x - 0.001 for x in OLD]))["point_s"]
    assert v["won"] == 10
    assert v["parent_q3"] - v["parent_q1"] > 0.001
    assert not v["gain"]


def test_ties_are_not_wins():
    v = ab_bench.summarize(_pairs(OLD, OLD))["point_s"]
    assert v["won"] == 0 and not v["gain"]


def test_higher_is_better():
    pairs = _pairs(OLD, [x + 0.2 for x in OLD], "rate")
    assert ab_bench.summarize(pairs, {"rate": "higher"})["rate"]["gain"]
    assert not ab_bench.summarize(pairs)["rate"]["gain"]


def test_every_shared_metric_is_summarized():
    pairs = [{"parent": {"point_s": 1.0, "peak_rss_mb": 40.0, "x": 1.0},
              "change": {"point_s": 0.5, "peak_rss_mb": 40.1}}]
    out = ab_bench.summarize(pairs)
    assert sorted(out) == ["peak_rss_mb", "point_s"]
    assert out["point_s"]["parent_q1"] == out["point_s"]["parent_q3"] == 1.0


# setup_s as it reads on a host where the import is bimodal (about
# 0.13 s or 0.22 s): q3 - q1 is about half the median
BIMODAL = [0.13, 0.22, 0.13, 0.22, 0.14, 0.21, 0.13, 0.22, 0.13, 0.22]


def _regression(old, new, bound=0.25, name="setup_s", better=None):
    return ab_bench.summarize(_pairs(old, new, name), better,
                              {name: bound})[name]["regression"]


def test_no_bound_gives_no_regression_verdict():
    assert ab_bench.summarize(_pairs(OLD, OLD))["point_s"]["regression"] \
        is None


def test_within_bound():
    assert _regression(OLD, [x * 1.1 for x in OLD]) == "within"
    assert _regression(OLD, OLD) == "within"


def test_median_worse_than_bound_regressed():
    # +30% on a tight parent: worse than the 25% bound
    assert _regression(OLD, [x * 1.3 for x in OLD]) == "regressed"
    # the bound is relative to the parent's median: +20% is within
    assert _regression(OLD, [x * 1.2 for x in OLD]) == "within"


def test_regressed_before_unresolved():
    assert _regression(BIMODAL, [x * 2.0 for x in BIMODAL]) == "regressed"


def test_wide_parent_spread_unresolved():
    v = ab_bench.summarize(_pairs(BIMODAL, BIMODAL, "setup_s"), None,
                           {"setup_s": 0.25})["setup_s"]
    assert v["parent_q3"] - v["parent_q1"] > 0.25 * v["parent_median"]
    assert v["regression"] == "unresolved"


def test_wide_spread_resolved_when_every_change_run_wins():
    # every change run beats every parent run: the spread hides nothing
    assert _regression(BIMODAL, [0.12] * 10) == "within"
    # one change run slower than the fastest parent run: unresolved
    assert _regression(BIMODAL, [0.12] * 9 + [0.135]) == "unresolved"


def test_regression_of_a_higher_is_better_metric():
    better = {"rate": "higher"}
    assert _regression(OLD, [x * 0.7 for x in OLD], name="rate",
                       better=better) == "regressed"
    assert _regression(OLD, [x * 1.3 for x in OLD], name="rate",
                       better=better) == "within"


@pytest.mark.parametrize("args", [
    ["{missing}", "tilt_curve"],
    ["{root}", "no_such_workload"],
    ["{root}", "tilt_curve", "--pairs", "0"],
    ["{root}", "tilt_curve", "--seconds", "0"],
    ["{root}"],
    ["{root}", "tilt_curve", "no_such_workload"],
])
def test_bad_arguments_exit_2(tmp_path, capsys, args):
    root = Path(__file__).resolve().parent.parent
    argv = [a.format(missing=tmp_path, root=root) for a in args]
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(argv)
    assert exc.value.code == 2


def _stub_run(calls):
    """A ``_run`` that records (side, workload, seed) and returns a
    result whose point_s is 1.0 for the parent and 0.5 for the change."""
    root = Path(__file__).resolve().parent.parent

    def run(checkout, workload, seed, seconds):
        side = "change" if checkout == root else "parent"
        calls.append((side, workload, seed))
        value = 0.5 if side == "change" else 1.0
        return {"failed": 0, "attempted": 2,
                "metrics": {"point_s": {"value": value, "unit": "s"}}}

    return run


def test_several_workloads_in_one_call(tmp_path, monkeypatch, capsys):
    # the parent checkout is a copy of perfbench/run.py's place
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    calls = []
    monkeypatch.setattr(ab_bench, "_run", _stub_run(calls))
    rc = ab_bench.main([str(tmp_path), "force_curve", "needle_curve",
                        "--pairs", "3", "--seconds", "1"])
    assert rc == 0
    # seed-major: pair k of every workload, then pair k + 1, so that a
    # drift of the host lands on every workload alike; within a pair the
    # side that goes first alternates with the seed
    assert calls == [
        (side, w, seed) for seed in (1, 2, 3)
        for w in ("force_curve", "needle_curve")
        for side in (("parent", "change") if seed % 2
                     else ("change", "parent"))]
    lines = capsys.readouterr().out.splitlines()
    assert [(json.loads(line)["workload"], json.loads(line)["seed"])
            for line in lines[:6]] == [
        (w, seed) for seed in (1, 2, 3)
        for w in ("force_curve", "needle_curve")]
    assert len(lines) == 8
    for workload, line in zip(("force_curve", "needle_curve"), lines[6:]):
        assert line.startswith(f"{workload} point_s: parent 1 ")
        assert "change won 3/3" in line and "within (bound 24%)" in line


def test_all_runs_every_workload(tmp_path, monkeypatch, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    calls = []
    monkeypatch.setattr(ab_bench, "_run", _stub_run(calls))
    assert ab_bench.main([str(tmp_path), "all", "--pairs", "1"]) == 0
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w for side, w, _ in calls if side == "parent"] == [
        w["name"] for w in spec["workloads"]]
    summary = capsys.readouterr().out.splitlines()[-4:]
    assert [line.split()[0] for line in summary] == [
        w["name"] for w in spec["workloads"]]


def test_a_failed_run_exits_1(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")

    def fail(checkout, workload, seed, seconds):
        raise RuntimeError("exit 2")

    monkeypatch.setattr(ab_bench, "_run", fail)
    assert ab_bench.main([str(tmp_path), "tilt_curve", "needle_curve",
                          "--pairs", "1"]) == 1
