"""scripts/ab_bench.py: the verdict over A/B pairs and its argument
checks."""

import importlib.util
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


@pytest.mark.parametrize("args", [
    ["{missing}", "tilt_curve"],
    ["{root}", "no_such_workload"],
    ["{root}", "tilt_curve", "--pairs", "0"],
    ["{root}", "tilt_curve", "--seconds", "0"],
    ["{root}"],
])
def test_bad_arguments_exit_2(tmp_path, capsys, args):
    root = Path(__file__).resolve().parent.parent
    argv = [a.format(missing=tmp_path, root=root) for a in args]
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(argv)
    assert exc.value.code == 2
