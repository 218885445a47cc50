"""End-to-end runs: probe, fit, allocate, baseline, report.

A run is driven by a JSON-compatible config tree::

    {
      "codec": { ... synthetic codec spec ... },   # or "probe_log": "log.csv"
      "targets": [240, 450, 600],                  # kbpmp budgets
      "omegas": [0.25, 0.5],                       # default [0.5]
      "run_exhaustive": true,                      # default false
      "solver": {"max_newton_iters": 1000},        # optional root step cap
      "geometry_peak": 1023.0,                     # PSNR normalization
      "color_peak": 255.0
    }

A ``probe_log`` config may also give ``overhead_kbpmp`` (default 0); a
codec carries its own. A config holds no other keys, and not both
``codec`` and ``probe_log``. The ``solver`` object may hold only the cap
on the barrier root's Newton steps, a positive integer; the barrier weight
itself is fixed in ``allocator``. Targets must be positive and cover the overhead,
omegas lie in [0, 1]; the whole config is checked before the first encode.
The report is a JSON tree with sections ``models``, ``allocations`` (one
row per omega and target, the only place a per-target fact is written)
and ``evaluation`` (``encode_calls``, plus ``cq_pct``, ``average`` and
``bd_psnr_db`` when the baseline runs). Reports are byte-stable
for a fixed config: the complexity quotient is the ratio of encode
calls, never of wall time, and the baseline counts the 441 encodes a real
one would make. A synthetic codec backend
is its ``grid``, the (r_g, r_c, d_g, d_c) of every grid pair as one
21x21x4 array, built and checked when the codec spec is, so a codec that
the config can build has no cell to refuse. The probes are encoded, as
probe log rows; everything else reads the array. The exhaustive sweep is
the whole grid: each omega gets one ``GridTable`` built from its slices
and each budget one ``exhaustive_search`` over it. Every row's ``actual``
and ``esa`` read their pair's cell. The rate model does not depend on
omega, so it is fitted once per run and its grid tabulated once for every
omega and target; each omega's distortion model tabulates its grid once,
for all of that omega's targets.
"""

from __future__ import annotations

import csv
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .allocator import (
    MAX_NEWTON_ITERS,
    AllocationProblem,
    GridTable,
    check_newton_cap,
    exhaustive_search,
    solve_interior_point,
)
from .errors import InfeasibleBudgetError, ValidationError
from .evaluate import bd_psnr, compute_be, compute_cq, compute_qpe, psnr
from .models import (
    finite_number,
    # the exact fits are unused here; perfbench/spans.py looks all four up by name
    fit_distortion_model,
    fit_distortion_model_lstsq,
    fit_rate_model,
    fit_rate_model_lstsq,
    model_to_dict,
    read_probe_log,
    weighted,
)
from .simcodec import (
    # encode is unused here; perfbench/spans.py looks it up by name
    encode,
    run_probe_schedule,
    spec_from_dict,
)


_CONFIG_KEYS = frozenset({"codec", "probe_log", "targets", "omegas", "run_exhaustive",
                          "solver", "geometry_peak", "color_peak", "overhead_kbpmp"})


def fit_models(records, omega):
    """Distortion and rate models for one omega, each stream fitted on its own
    by least squares over every probe, distortion slopes floored at 0.
    ``run_pipeline`` calls the two fits itself, the rate fit once per run.
    Both fit the rate model first, so ``fit`` and ``simulate`` report the
    same error for a log that both fits refuse."""
    rm = fit_rate_model_lstsq(records)
    return fit_distortion_model_lstsq(records, omega), rm


def _newton_cap(solver) -> int:
    """The config's cap on the root's Newton steps, the one key its 'solver' object may hold."""
    if not isinstance(solver, dict):
        raise ValidationError(f"config 'solver' must be an object, got {solver!r}")
    unknown = set(solver) - {"max_newton_iters"}
    if unknown:
        raise ValidationError(f"unknown solver keys: {sorted(unknown)}")
    return check_newton_cap(solver.get("max_newton_iters", MAX_NEWTON_ITERS))


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
    """Sorted (rate, psnr) curve with one point per exact rate, the least
    PSNR of a repeated one: equal cells give equal bits, at any rate unit."""
    dedup = []
    for r, q in sorted((r, q) for r, q in points if q is not None):
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
    for t in targets:
        if t <= 0:
            raise ValidationError(f"config 'targets' must be positive, got {t!r}")
    for w in omegas:
        if not 0 <= w <= 1:
            raise ValidationError(f"config 'omegas' must lie in [0, 1], got {w!r}")
    run_esa = config.get("run_exhaustive", False)
    if not isinstance(run_esa, bool):
        raise ValidationError("config 'run_exhaustive' must be true or false")
    if run_esa and not has_codec:
        raise ValidationError("the exhaustive baseline needs a codec backend")
    geometry_peak = finite_number("geometry_peak", config.get("geometry_peak", 1023.0))
    color_peak = finite_number("color_peak", config.get("color_peak", 255.0))
    for key, peak in (("geometry_peak", geometry_peak), ("color_peak", color_peak)):
        if peak <= 0:
            raise ValidationError(f"config '{key}' must be positive, got {peak!r}")
    max_newton_iters = _newton_cap(config.get("solver", {}))

    if has_codec:
        spec = spec_from_dict(config["codec"])
        overhead = spec.overhead_kbpmp
    else:
        spec = None
        if not isinstance(config["probe_log"], str):
            raise ValidationError("config 'probe_log' must be a path string")
        overhead = finite_number("overhead_kbpmp", config.get("overhead_kbpmp", 0.0))
    for target in targets:
        if target <= overhead:
            raise InfeasibleBudgetError(f"target {target:g} kbpmp does not cover the overhead")

    records = run_probe_schedule(spec) if has_codec else read_probe_log(config["probe_log"])
    pba_encode_calls = len(records)
    grid = spec.grid if has_codec else None
    esa_encode_calls = grid[..., 0].size if run_esa else 0
    if run_esa:
        esa_rate_grid = grid[..., 0] + grid[..., 1]

    models_out = {}
    allocations = []
    curves = {}
    # the rate fit reads no omega: one model, and one tabulated grid, per run
    rm = fit_rate_model_lstsq(records)
    for omega in omegas:
        dm = fit_distortion_model_lstsq(records, omega)
        models_out[str(omega)] = model_to_dict(dm, rm)
        if run_esa:
            table = GridTable(esa_rate_grid, weighted(omega, grid[..., 2], grid[..., 3]))
        pba_points = []
        esa_points = []
        for target in targets:
            budget = target - overhead
            problem = AllocationProblem(dm, rm, budget)
            alloc = solve_interior_point(problem, max_newton_iters)
            row = {"omega": omega, "target": target, "budget": budget,
                   **allocation_fields(alloc)}
            if grid is not None:
                r_g, r_c, d_g, d_c = grid[alloc.qp.cell].tolist()
                actual_rate = r_g + r_c
                quality = psnr(d_g, d_c, omega, geometry_peak, color_peak)
                row["actual"] = {
                    "r_g": r_g, "r_c": r_c, "rate": actual_rate,
                    "d_g": d_g, "d_c": d_c,
                    "distortion": weighted(omega, d_g, d_c),
                    **psnr_fields(quality),
                }
                row["be_pct"] = compute_be(actual_rate, budget)
                pba_points.append((actual_rate, quality))
            else:
                # no codec to re-encode with: measure BE on the modeled rate
                row["be_pct"] = compute_be(problem.rate(alloc.qp.steps()), budget)
            if run_esa:
                esa_qp = exhaustive_search(table, budget)
                r_g, r_c, d_g, d_c = grid[esa_qp.cell].tolist()
                esa_rate = r_g + r_c
                esa_quality = psnr(d_g, d_c, omega, geometry_peak, color_peak)
                row["esa"] = {
                    "qp_g": esa_qp.qp_g, "qp_c": esa_qp.qp_c, "rate": esa_rate,
                    "distortion": weighted(omega, d_g, d_c),
                    **psnr_fields(esa_quality),
                    "be_pct": compute_be(esa_rate, budget),
                }
                row["qpe"] = compute_qpe(alloc.qp, esa_qp)
                esa_points.append((esa_rate, esa_quality))
            allocations.append(row)
        if pba_points and esa_points:
            curves[str(omega)] = bd_gap(esa_points, pba_points)

    evaluation = {"encode_calls": {"pba": pba_encode_calls, "esa": esa_encode_calls}}
    if esa_encode_calls:
        evaluation["cq_pct"] = compute_cq(pba_encode_calls, esa_encode_calls)
        # the baseline gives every row a qpe and a be_pct, and there is always a row
        evaluation["average"] = {key: sum(r[key] for r in allocations) / len(allocations)
                                 for key in ("qpe", "be_pct")}
        evaluation["bd_psnr_db"] = curves
    return {
        "config": config,
        "models": models_out,
        "allocations": allocations,
        "evaluation": evaluation,
    }


def _scalar_text(o) -> str:
    """JSON text of a value that is not a container, dispatched in the order
    json's encoder tests types, so str, int and float subclasses encode as
    their base types do."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def json_text(payload) -> str:
    """The one layout of every JSON document the tools write: two-space
    indent, sorted keys, ``,`` and ``: `` separators, ``{}`` and ``[]`` for
    empty containers, a final newline.

    The text is ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``
    byte for byte, but made in one pass that appends every token to one
    list: with ``indent`` set, ``json.dumps`` uses its pure-Python generator
    encoder, not the C one, and that was the largest cost of a study report
    after the solve. The leaf text comes from the functions json itself
    uses: ``json.encoder.encode_basestring_ascii`` for strings and keys,
    ``int.__repr__`` for ints and ``float.__repr__`` for floats, with NaN
    and the infinities written as ``allow_nan`` writes them. A value json
    cannot encode, such as a set or a numpy integer, raises ``TypeError``
    as it does. So does a key that is not a string: json would convert an
    int, float, bool or None key, but no document the tools write has one.
    """
    out = []
    append = out.append

    def emit(o, indent):
        if isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = indent + "  "
            head = "{" + inner
            for key, item in sorted(o.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                # a finite float, most leaves of a report, takes no call
                if type(item) is float and -math.inf < item < math.inf:
                    append(head + encode_basestring_ascii(key) + ": " + float.__repr__(item))
                else:
                    append(head + encode_basestring_ascii(key) + ": ")
                    emit(item, inner)
                head = "," + inner
            append(indent + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = indent + "  "
            head = "[" + inner
            for item in o:
                append(head)
                emit(item, inner)
                head = "," + inner
            append(indent + "]")
        else:
            append(_scalar_text(o))

    emit(payload, "\n")
    append("\n")
    return "".join(out)


def write_report(report: dict, path) -> None:
    Path(path).write_text(json_text(report))


def report_allocations_csv(report: dict, path) -> None:
    """Flat CSV of the allocation rows, for table building."""
    fields = ["omega", "target", "budget", "qp_g", "qp_c",
              "predicted_rate", "predicted_distortion", "be_pct", "qpe"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in report["allocations"]:
            writer.writerow([row.get(k, "") for k in fields])
