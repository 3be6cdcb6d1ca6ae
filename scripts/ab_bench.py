#!/usr/bin/env python3
"""A/B pairs of benchmark workloads: another checkout against this one.

    scripts/ab_bench.py OTHER_CHECKOUT WORKLOAD [WORKLOAD ...] [--pairs 10]
        [--seconds 25]

WORKLOAD is a workload of BENCHMARK.json, or ``all`` for every one of
them.  Each pair runs
``perfbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0``
once with OTHER_CHECKOUT (the parent, the baseline) and once with this
checkout (the change), one process at a time, pair k with seed k; odd
seeds run the parent first, even seeds the change, so that neither side
always meets the machine warmer.  The pairs run seed-major: pair k of
every workload, in the order given, then pair k + 1, so that a drift of
the host over the session lands on every workload alike instead of on
the one that runs last.  Every pair is printed as it completes, with
its workload.  Then, one block per workload, each line prefixed
with the workload's name, per end-to-end metric of BENCHMARK.json: the
two medians, the parent's quartiles, the pairs the change won, whether
the change shows a gain by the rule: it won at least 9 of 10 pairs and
its median beats the parent's by more than the parent's interquartile
range, and the no-regression verdict against the metric's relative
``bound`` of BENCHMARK.json (see ``summarize``).

Exit 0 when every run completed, 1 when one failed, 2 on bad arguments.
Nothing under perfbench/ is written but its own work directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # least share of pairs the change must win


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(pairs: list, better: dict | None = None,
              bounds: dict | None = None) -> dict:
    """Per metric, the verdict over ``pairs``, each a dict with the
    metric values of both sides, {"parent": {name: value}, "change":
    {name: value}}.  ``better`` maps a metric to "lower" or "higher"
    (default "lower"), ``bounds`` to its relative no-regression bound.
    Each verdict holds the medians, the parent's quartiles q1 and q3,
    the pairs won by the change (strictly better), ``gain``: won >= 9/10
    of the pairs and a median gap in the change's favour above the
    parent's q3 - q1, and ``regression``, None for a metric without a
    bound, else, with tol = bound * |parent median|:

    * "regressed": the change's median is worse than the parent's by
      more than tol;
    * "unresolved": the parent's q3 - q1 exceeds tol, so a regression
      of tol could hide in its spread, unless every change run beats
      every parent run;
    * "within": otherwise."""
    better = better or {}
    bounds = bounds or {}
    names = [m for m in pairs[0]["parent"] if m in pairs[0]["change"]]
    out = {}
    for name in names:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        old = [p["parent"][name] for p in pairs]
        new = [p["change"][name] for p in pairs]
        q1, q3 = _quartiles(old)
        won = sum(sign * (n - o) < 0 for o, n in zip(old, new))
        gap = sign * (statistics.median(old) - statistics.median(new))
        regression = None
        if name in bounds:
            tol = bounds[name] * abs(statistics.median(old))
            if -gap > tol:
                regression = "regressed"
            elif q3 - q1 > tol and not all(
                    sign * (n - o) < 0 for o in old for n in new):
                regression = "unresolved"
            else:
                regression = "within"
        out[name] = {"parent_median": statistics.median(old),
                     "change_median": statistics.median(new),
                     "parent_q1": q1, "parent_q3": q3,
                     "won": won, "pairs": len(pairs),
                     "gain": won >= WIN_SHARE * len(pairs) and gap > q3 - q1,
                     "regression": regression}
    return out


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """Result line of one benchmark run in ``checkout``."""
    res = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {res.returncode}: "
                           + res.stderr[-2000:])
    return json.loads(res.stdout.strip().splitlines()[-1])


def _metrics(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def _print_summary(workload: str, verdicts: dict, bounds: dict) -> None:
    for name, v in verdicts.items():
        print(f"{workload} {name}: parent {v['parent_median']:.6g} "
              f"[q1 {v['parent_q1']:.6g}, q3 {v['parent_q3']:.6g}] -> "
              f"change {v['change_median']:.6g}; change won "
              f"{v['won']}/{v['pairs']}; "
              f"gain {'yes' if v['gain'] else 'no'}"
              + (f"; {v['regression']} (bound {bounds[name]:.0%})"
                 if v["regression"] else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other", type=Path, help="baseline checkout")
    ap.add_argument("workloads", nargs="+", metavar="workload",
                    help="benchmark workloads, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]
              if "bound" in m}
    if not (args.other / "perfbench" / "run.py").is_file():
        ap.error(f"{args.other} holds no perfbench/run.py")
    names = workloads if args.workloads == ["all"] else args.workloads
    unknown = [w for w in names if w not in workloads]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; one of {workloads} "
                 "or all")
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs must be >= 1 and --seconds > 0")
    sides = {"parent": args.other.resolve(), "change": ROOT}
    pairs: dict = {workload: [] for workload in names}
    try:
        for seed in range(1, args.pairs + 1):
            order = (("parent", "change") if seed % 2
                     else ("change", "parent"))
            for workload in names:
                results = {side: _run(sides[side], workload, seed,
                                      args.seconds) for side in order}
                pair = {side: _metrics(results[side]) for side in sides}
                pairs[workload].append(pair)
                failed = {side: f"{r['failed']}/{r['attempted']}"
                          for side, r in results.items()}
                print(json.dumps({"workload": workload, "seed": seed,
                                  "first": order[0], **pair,
                                  "failed": failed}), flush=True)
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    for workload in names:
        _print_summary(workload, summarize(pairs[workload], better, bounds),
                       bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
