"""Output checks for the benchmark's sweep curves.

Every CSV the sweep writes is parsed back and every value must be finite,
except the documented vertical-limit ``nan`` of ``two_halfplates``.  At
one seed-chosen row per curve the physics is checked independently of
the timed path, from energies of the scenes ``scenarios.build`` returns:

* force curves: ``F_total`` against a central difference of energies;
* the interaction curve: ``I12_total`` against a mixed second difference;
* the tilt curve: ``order2`` against the closed-form ``E_EM``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

# Finite-difference step in length units (every gap in the workloads is
# of order 1); the O(step^2) error is ~1e-8 relative.
FD_STEP = 1e-4
# Analytic-vs-finite-difference force tolerance of the acceptance suite
# (tests/test_acceptance.py, test_force_cross_checks); I12 is held to it too.
FD_RTOL = 1e-5
# Quadrature-vs-closed-form tolerance of the acceptance suite
# (tests/test_acceptance.py, the two-half-plate bracket test).
CLOSED_FORM_RTOL = 1e-4
# Columns of two_halfplates that read nan at and beyond the vertical limit.
VERTICAL_NAN_COLUMNS = ("order2", "order4", "trunc_est")


def parse_csv(text: str) -> tuple[list, list]:
    """Column names (units stripped) and rows of floats."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    names = [h.rsplit(" (", 1)[0] for h in header]
    rows = [[float(v) for v in row] for row in reader]
    return names, rows


def nonfinite_rows(scenario_id: str, names: list, rows: list) -> set:
    """Indices of rows holding a non-finite value that is not documented."""
    bad = set()
    for i, row in enumerate(rows):
        for name, v in zip(names, row):
            if math.isfinite(v):
                continue
            if (scenario_id == "two_halfplates" and math.isnan(v)
                    and name in VERTICAL_NAN_COLUMNS
                    and abs(row[0]) >= 0.5 * math.pi - 1e-9):
                continue
            bad.add(i)
    return bad


def _energy(c2d, cfg, grid) -> float:
    """Sum of the scenario's diagram energies over its scalar channels."""
    scalar = ("D", "N") if cfg.bc == "EM" else (cfg.bc,)
    if cfg.scenario_id == "gap_repulsion":
        scalar = ("N",)  # pure-2D EM is the Neumann scalar
    total = 0.0
    for bc in scalar:
        bld = c2d.scenarios.build(replace(cfg, bc=bc))
        total += sum(c2d.assembly.diagram_energy(bld.scene, d, grid)
                     for d in bld.diagrams)
    return total


def physics_check(c2d, cfg, names: list, rows: list, row: int) -> dict:
    """Check one row of a curve; returns the measured error and verdict.

    Force and I12 errors are relative to the largest magnitude of the
    checked column on the curve, because the needle force crosses zero
    inside its sweep range, where a pointwise relative error is
    undefined.
    """
    point = replace(cfg, sweep=None, **{cfg.sweep.param: rows[row][0]})
    col = {"three_halfplates": "F_total", "gap_repulsion": "F_total",
           "blocking": "I12_total", "two_halfplates": "order2"}[
        cfg.scenario_id]
    j = names.index(col)
    value = rows[row][j]
    scale = max(abs(r[j]) for r in rows)
    h = FD_STEP
    # the derivative is taken on the checked point's grid: the radial
    # scale of some scenarios follows the gaps being differentiated
    grid = c2d.scenarios._grid_for(point, c2d.scenarios.build(point))
    if col == "F_total":
        ep = _energy(c2d, replace(point, h=point.h + h), grid)
        em = _energy(c2d, replace(point, h=point.h - h), grid)
        ref = -(ep - em) / (2.0 * h)
        err, tol = abs(value - ref) / max(scale, abs(ref)), FD_RTOL
    elif col == "I12_total":
        e = {(s1, s2): _energy(c2d, replace(point, d1=point.d1 + s1 * h,
                                            d2=point.d2 + s2 * h), grid)
             for s1 in (1, -1) for s2 in (1, -1)}
        ref = -(e[1, 1] - e[1, -1] - e[-1, 1] + e[-1, -1]) / (4.0 * h * h)
        err, tol = abs(value - ref) / max(scale, abs(ref)), FD_RTOL
    else:
        cf = c2d.closedforms
        ref = sum(cf.two_halfplates_energy(point.phi1, point.phi2, point.D,
                                           point.L, b).value
                  for b in ("D", "N")) / point.L
        err, tol = abs(value - ref) / abs(ref), CLOSED_FORM_RTOL
    return {"row": row, "column": col, "value": value, "reference": ref,
            "rel_err": err, "tol": tol, "ok": bool(err <= tol)}
