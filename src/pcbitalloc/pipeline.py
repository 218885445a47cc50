"""End-to-end runs: probe, fit, allocate, baseline, report.

A run is driven by a JSON-compatible config tree::

    {
      "codec": { ... synthetic codec spec ... },   # or "probe_log": "log.csv"
      "targets": [240, 450, 600],                  # kbpmp budgets
      "omegas": [0.25, 0.5],                       # default [0.5]
      "run_exhaustive": true,                      # default false
      "solver": {"max_newton_iters": 1000},        # optional Newton cap
      "geometry_peak": 1023.0,                     # PSNR normalization
      "color_peak": 255.0
    }

A ``probe_log`` config may also give ``overhead_kbpmp`` (default 0); a
codec carries its own. A config holds no other keys, and not both
``codec`` and ``probe_log``. The ``solver`` object may hold only the
Newton iteration cap, a positive integer; the barrier schedule itself is
fixed in ``allocator``. The report is a JSON tree with sections
``models``, ``allocations`` and ``evaluation``. Reports are byte-stable
for a fixed config: the complexity quotient uses the simulated encode
clock (a fixed cost per encode call), never wall time. With a synthetic
codec backend the exhaustive baseline sweeps each grid pair once and
reuses the sweep for every budget and omega, as a real 441-encode
baseline would. The sweep
is kept as four 21x21 arrays (r_g, r_c, d_g, d_c): each omega gets one
``GridTable`` built from them, each budget one ``exhaustive_search`` over
it, and the baseline's PSNR reads its cell's d_g and d_c.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .allocator import (
    MAX_NEWTON_ITERS,
    AllocationProblem,
    GridTable,
    check_newton_cap,
    exhaustive_search,
    solve_interior_point,
)
from .errors import InfeasibleBudgetError, ValidationError
from .evaluate import bd_psnr, compute_be, compute_cq, compute_qpe
from .metrics import psnr
from .models import (
    QP_MIN,
    finite_number,
    fit_distortion_model,
    fit_distortion_model_lstsq,
    fit_rate_model,
    fit_rate_model_lstsq,
    model_to_dict,
    probes_from_records,
    qp_grid,
    read_probe_log,
    weighted,
)
from .simcodec import ENCODE_TIME_MS, QpPair, encode, run_probe_schedule, spec_from_dict


_CONFIG_KEYS = frozenset({"codec", "probe_log", "targets", "omegas", "run_exhaustive",
                          "solver", "geometry_peak", "color_peak", "overhead_kbpmp"})


def fit_models(records, omega):
    """Distortion and rate models for one omega: the exact fits through
    three probes, least squares over more, which refuse fewer."""
    probes = probes_from_records(records, omega)
    if len(probes) == 3:
        dm = fit_distortion_model(probes[0], probes[1], probes[2], omega)
        rm = fit_rate_model(probes[0], probes[1])
    else:
        dm = fit_distortion_model_lstsq(probes, omega)
        rm = fit_rate_model_lstsq(probes)
    return dm, rm


def _newton_cap(solver) -> int:
    """The config's Newton iteration cap, the one key its 'solver' object may hold."""
    if not isinstance(solver, dict):
        raise ValidationError(f"config 'solver' must be an object, got {solver!r}")
    unknown = set(solver) - {"max_newton_iters"}
    if unknown:
        raise ValidationError(f"unknown solver keys: {sorted(unknown)}")
    return check_newton_cap(solver.get("max_newton_iters", MAX_NEWTON_ITERS))


def _grid_sweep(spec) -> dict[str, np.ndarray]:
    """r_g, r_c, d_g and d_c of every grid pair as 21x21 arrays indexed
    [qp_g - QP_MIN, qp_c - QP_MIN], one ``encode`` per pair."""
    encodes = [encode(spec, QpPair(qp_g, qp_c)) for qp_g in qp_grid() for qp_c in qp_grid()]
    n = len(qp_grid())
    return {key: np.array([getattr(e, key) for e in encodes]).reshape(n, n)
            for key in ("r_g", "r_c", "d_g", "d_c")}


def allocation_fields(alloc) -> dict:
    """The solver's part of an allocation row, as ``simulate`` and ``allocate`` write it."""
    return {
        "continuous": {"q_g": alloc.continuous.q_g, "q_c": alloc.continuous.q_c},
        "qp_g": alloc.qp.qp_g,
        "qp_c": alloc.qp.qp_c,
        "predicted_rate": alloc.predicted_rate,
        "predicted_distortion": alloc.predicted_distortion,
    }


def psnr_fields(quality: float) -> dict:
    """A PSNR as reports write it; a lossless +inf, not standard JSON, is null."""
    lossless = quality == math.inf
    return {"psnr_db": None, "lossless": True} if lossless else {"psnr_db": quality}


def read_psnr(row: dict, what: str) -> float | None:
    """The PSNR that ``psnr_fields`` wrote into row: +inf when lossless,
    None when unmeasured."""
    if "lossless" in row:
        if row["lossless"] is not True or row.get("psnr_db", 0) is not None:
            raise ValidationError(f"{what} 'lossless' must be true, with psnr_db null")
        return math.inf
    quality = row.get("psnr_db")
    return None if quality is None else finite_number("psnr_db", quality, what)


def rd_curve(points):
    """Sorted, duplicate-free (rate, psnr) curve."""
    pts = sorted(set((round(r, 9), q) for r, q in points if q is not None))
    dedup = []
    for r, q in pts:
        if not dedup or r > dedup[-1][0]:
            dedup.append((r, q))
    return dedup


def bd_gap(esa_points, pba_points) -> float | None:
    """BD-PSNR of the allocator's (rate, psnr) points over the baseline's,
    or None when either curve is too short, holds a lossless (+inf PSNR)
    point or the two do not overlap."""
    try:
        return bd_psnr(rd_curve(esa_points), rd_curve(pba_points))
    except ValidationError:
        return None


def run_pipeline(config: dict) -> dict:
    """Execute probe -> fit -> allocate (-> exhaustive baseline) -> report."""
    if not isinstance(config, dict):
        raise ValidationError(f"config must be a JSON object, got {type(config).__name__}")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(map(repr, unknown)))}")
    has_codec = "codec" in config
    if has_codec == ("probe_log" in config):
        raise ValidationError("config needs a 'codec' spec or a 'probe_log' path, not both")
    if has_codec and "overhead_kbpmp" in config:
        raise ValidationError("config 'overhead_kbpmp' is for a probe log; "
                              "a codec sets its own overhead_kbpmp")
    targets, omegas = config.get("targets"), config.get("omegas", [0.5])
    for key, values in (("targets", targets), ("omegas", omegas)):
        if not isinstance(values, (list, tuple)) or not values:
            raise ValidationError(f"config needs a non-empty '{key}' list")
    targets = [finite_number("targets", t) for t in targets]
    omegas = [finite_number("omegas", w) for w in omegas]
    run_esa = config.get("run_exhaustive", False)
    if not isinstance(run_esa, bool):
        raise ValidationError("config 'run_exhaustive' must be true or false")
    if run_esa and not has_codec:
        raise ValidationError("the exhaustive baseline needs a codec backend")
    geometry_peak = finite_number("geometry_peak", config.get("geometry_peak", 1023.0))
    color_peak = finite_number("color_peak", config.get("color_peak", 255.0))
    max_newton_iters = _newton_cap(config.get("solver", {}))

    if has_codec:
        spec = spec_from_dict(config["codec"])
        records = run_probe_schedule(spec)
        overhead = spec.overhead_kbpmp
    else:
        spec = None
        if not isinstance(config["probe_log"], str):
            raise ValidationError("config 'probe_log' must be a path string")
        records = read_probe_log(config["probe_log"])
        overhead = finite_number("overhead_kbpmp", config.get("overhead_kbpmp", 0.0))
    pba_encode_calls = len(records)

    sweep = _grid_sweep(spec) if run_esa else None
    esa_encode_calls = sweep["r_g"].size if sweep else 0
    if sweep is not None:
        esa_rate_grid = sweep["r_g"] + sweep["r_c"]

    models_out = {}
    allocations = []
    rows = []
    curves = {}
    for omega in omegas:
        dm, rm = fit_models(records, omega)
        models_out[str(omega)] = model_to_dict(dm, rm)
        if sweep is not None:
            table = GridTable(esa_rate_grid, weighted(omega, sweep["d_g"], sweep["d_c"]))
        pba_points = []
        esa_points = []
        for target in targets:
            budget = target - overhead
            if budget <= 0:
                raise InfeasibleBudgetError(
                    f"target {target:g} kbpmp does not cover the overhead"
                )
            problem = AllocationProblem(dm, rm, budget)
            alloc = solve_interior_point(problem, max_newton_iters)
            row = {"omega": omega, "target": target, "budget": budget,
                   **allocation_fields(alloc)}
            if spec is not None:
                enc = encode(spec, alloc.qp)
                actual_rate = enc.r_g + enc.r_c
                quality = psnr(enc.d_g, enc.d_c, omega, geometry_peak, color_peak)
                row["actual"] = {
                    "r_g": enc.r_g, "r_c": enc.r_c, "rate": actual_rate,
                    "d_g": enc.d_g, "d_c": enc.d_c,
                    "distortion": weighted(omega, enc.d_g, enc.d_c),
                    **psnr_fields(quality),
                }
                row["be_pct"] = compute_be(actual_rate, budget)
                pba_points.append((actual_rate, quality))
            else:
                # no codec to re-encode with: measure BE on the modeled rate
                row["be_pct"] = compute_be(problem.rate(alloc.qp.steps()), budget)
            if sweep is not None:
                esa_qp = exhaustive_search(table, budget)
                cell = (esa_qp.qp_g - QP_MIN, esa_qp.qp_c - QP_MIN)
                esa_rate, esa_distortion = table(esa_qp)
                esa_quality = psnr(float(sweep["d_g"][cell]), float(sweep["d_c"][cell]),
                                   omega, geometry_peak, color_peak)
                row["esa"] = {
                    "qp_g": esa_qp.qp_g, "qp_c": esa_qp.qp_c, "rate": esa_rate,
                    "distortion": esa_distortion,
                    **psnr_fields(esa_quality),
                    "be_pct": compute_be(esa_rate, budget),
                }
                row["qpe"] = compute_qpe(alloc.qp, esa_qp)
                esa_points.append((esa_rate, esa_quality))
            allocations.append(row)
            eval_row = {k: row[k] for k in ("omega", "target", "be_pct", "qpe") if k in row}
            if "actual" in row:
                eval_row.update(psnr_fields(quality))
            rows.append(eval_row)
        if pba_points and esa_points:
            curves[str(omega)] = bd_gap(esa_points, pba_points)

    evaluation = {
        "encode_calls": {"pba": pba_encode_calls, "esa": esa_encode_calls},
        "per_target": rows,
    }
    if esa_encode_calls:
        evaluation["cq_pct"] = compute_cq(pba_encode_calls * ENCODE_TIME_MS,
                                          esa_encode_calls * ENCODE_TIME_MS)
        # the baseline gives every row a qpe and a be_pct, and rows is never empty
        evaluation["average"] = {key: sum(r[key] for r in rows) / len(rows)
                                 for key in ("qpe", "be_pct")}
        evaluation["bd_psnr_db"] = curves
    return {
        "config": config,
        "models": models_out,
        "allocations": allocations,
        "evaluation": evaluation,
    }


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def report_allocations_csv(report: dict, path) -> None:
    """Flat CSV of the allocation rows, for table building."""
    fields = ["omega", "target", "budget", "qp_g", "qp_c",
              "predicted_rate", "predicted_distortion", "be_pct", "qpe"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in report["allocations"]:
            writer.writerow([row.get(k, "") for k in fields])
