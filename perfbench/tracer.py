"""In-memory span tracer that wraps casimir2d's public functions.

The benchmark installs the tracer from its own files; the program is not
changed.  Every public function of every ``casimir2d`` module is wrapped
in each module namespace that holds it, so a name imported by another
module (``scenarios.force``, ``assembly.halfplate_kernel``) is traced
where it is looked up.  Spans are named ``<defining module>.<function>``.

Parent links come from thread-local stacks: sweep points run on
``ThreadPoolExecutor`` workers, whose outermost spans have no parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import types
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "casimir2d"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    curve: int
    key: object = None

    @property
    def dur(self) -> float:
        return self.end - self.start


# Argument keys for the kernel builders, to count distinct builds.  They
# read arguments by parameter name; a signature they no longer fit gives
# no key, and the distinct fraction is then reported absent.
KEY_FNS = {
    "scattering.halfplate_kernel":
        lambda a: (a["bc"], a["channel"], float(a["phi"]),
                   a["grid"].n_alpha, a["grid"].map_scale),
    "scattering.needle_kernel_planar":
        lambda a: (a["desc"], float(a["p"]), a["grid"].n_alpha),
}


def _call_key(key_fn, sig, args, kwargs):
    try:
        return key_fn(sig.bind(*args, **kwargs).arguments)
    except (KeyError, TypeError, AttributeError):
        return None


class Tracer:
    """Collects spans while ``enabled``; ``curve`` tags the request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.curve = 0
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        key_fn = KEY_FNS.get(name)
        sig = inspect.signature(fn) if key_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                key = (_call_key(key_fn, sig, args, kwargs)
                       if key_fn else None)
                self.spans.append(Span(sid, name, t0, t1, parent,
                                       threading.get_ident(), self.curve,
                                       key))

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> None:
        """Replace each public casimir2d function in every casimir2d
        module namespace (the package itself included) by its wrapper;
        functions wrapped by an earlier tracer are re-wrapped."""
        done: dict = {}
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(
                        fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith(PACKAGE + "."):
                    continue
                if getattr(fn, "__wrapped_by_tracer__", False):
                    fn = fn.__wrapped__  # re-wrap for this tracer
                if fn not in done:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    done[fn] = self.wrap(name, fn)
                setattr(mod, attr, done[fn])

    def dump(self, path) -> None:
        """Write the spans out as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "thread": s.thread,
                    "curve": s.curve}) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its child spans."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return {s.sid: s.dur - child[s.sid] for s in spans}


def layer_metrics(spans, points: int) -> tuple[dict, list]:
    """Per-layer metrics per sweep point, and the names found absent.

    A metric is absent when its function is no longer in the program or
    the workload never called it; it then reads 0.
    """
    by_id = {s.sid: s for s in spans}
    selft = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p else None

    out: dict = {}
    absent: list = []

    def put(metric, value, present):
        out[metric] = value / points if present else 0.0
        if not present:
            absent.append(metric)

    def span_set(fn_name, metrics, select=None):
        ss = [s for s in by_name.get(fn_name, []) if
              select is None or select(s)]
        present = bool(ss)
        for m in metrics:
            if m == "s":
                put(f"{fn_name}.s", sum(s.dur for s in ss), present)
            elif m == "self_s":
                put(f"{fn_name}.self_s", sum(selft[s.sid] for s in ss),
                    present)
            elif m == "calls":
                put(f"{fn_name}.calls", len(ss), present)

    asm = [s for s in spans if s.name.startswith("assembly.")]
    put("assembly.chain_self_s", sum(selft[s.sid] for s in asm), bool(asm))
    span_set("assembly.force", ("s", "self_s", "calls"))
    checks = [s for s in by_name.get("assembly.diagram_energy", [])
              if parent_name(s) == "assembly.force"]
    put("assembly.force.check_s", sum(s.dur for s in checks), bool(checks))
    span_set("assembly.interaction_I12", ("s", "self_s", "calls"))
    span_set("assembly.diagram_energy", ("s", "self_s", "calls"),
             select=lambda s: not (parent_name(s) or "").startswith(
                 "assembly."))
    span_set("assembly.reflection_series", ("s", "calls"))
    for fn_name in ("scattering.halfplate_kernel",
                    "scattering.needle_kernel_planar"):
        span_set(fn_name, ("s", "calls"))
        keyed = [s for s in by_name.get(fn_name, []) if s.key is not None]
        distinct = len({(s.curve, s.key) for s in keyed})
        out[f"{fn_name}.distinct_frac"] = (distinct / len(keyed)
                                           if keyed else 0.0)
        if not keyed:
            absent.append(f"{fn_name}.distinct_frac")
    span_set("quadrature.build_grid", ("s", "calls"))
    cf = [s for s in spans if s.name.startswith("closedforms.")]
    cf_top = [s for s in cf
              if not (parent_name(s) or "").startswith("closedforms.")]
    put("closedforms.s", sum(s.dur for s in cf_top), bool(cf))
    put("closedforms.calls", len(cf), bool(cf))
    span_set("diagrams.enumerate_diagrams", ("calls",))
    span_set("scenarios.run", ("s",))
    span_set("scenarios.build", ("calls",))
    run_wall = sum(s.dur for s in by_name.get("scenarios.run", []))
    asm_top = sum(s.dur for s in asm
                  if not (parent_name(s) or "").startswith("assembly."))
    out["scenarios.sweep_concurrency"] = (asm_top / run_wall
                                          if run_wall and asm else 0.0)
    if not (run_wall and asm):
        absent.append("scenarios.sweep_concurrency")
    span_set("cli.load_config", ("s",))
    span_set("cli.write_outputs", ("s",))
    return out, sorted(absent)
