"""Command-line front end. Thin adapters only; numeric work lives in the library.

Exit codes: 0 success, 2 validation error, 3 infeasible problem, 4 I/O error.
Errors print as one ``error [category]: ...`` line on stderr, and library
warnings, such as a floored fit slope, as one ``warning: ...`` line.

Only ``metric`` imports ``cloud`` and ``metrics``, and with them scipy, inside
its handler, so the other commands start without them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

from . import allocator, evaluate, models, pipeline
from .errors import PcBitAllocError, ValidationError

_EXIT_CODES = {"validation": 2, "infeasible": 3, "io": 4}


def _emit(payload: dict, out: str | None) -> None:
    text = pipeline.json_text(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ValidationError(f"bad {what} file {path}: {exc}") from exc


def _cmd_metric(args) -> None:
    from . import cloud, metrics

    # refuse bad flags before either cloud is read: the luma weights, then omega
    # and the peaks in the payload's order; a default geometry peak comes from
    # the reference's bit depth
    cloud.check_luma_weights(args.luma_weights)
    models.weighted(args.omega, 0.0, 0.0)
    evaluate.psnr(0.0, 0.0, args.omega, 1.0 if args.geometry_peak is None
                  else args.geometry_peak, args.color_peak)
    ref = cloud.load_ply(args.reference)
    rec = cloud.load_ply(args.reconstruction)
    pair = metrics.symmetric_distortion(ref, rec, luma_weights=args.luma_weights)
    geometry_peak = args.geometry_peak
    if geometry_peak is None:
        geometry_peak = float((1 << ref.bit_depth) - 1)
    payload = {
        "d_g": pair.d_g,
        "d_c": pair.d_c,
        "omega": args.omega,
        "combined": models.weighted(args.omega, pair.d_g, pair.d_c),
        **pipeline.psnr_fields(evaluate.psnr(pair.d_g, pair.d_c, args.omega,
                                             geometry_peak, args.color_peak)),
        "geometry_peak": geometry_peak,
        "color_peak": args.color_peak,
        "points": {"reference": len(ref), "reconstruction": len(rec)},
    }
    _emit(payload, args.output)


def _cmd_fit(args) -> None:
    records = models.read_probe_log(args.probes)
    _emit(models.model_to_dict(*pipeline.fit_models(records, args.omega)), args.output)


def _cmd_allocate(args) -> None:
    dm, rm = models.model_from_dict(_read_json(args.model, "model"))
    problem = allocator.AllocationProblem(dm, rm, args.target)
    alloc = allocator.solve_interior_point(problem)
    _emit({"target": args.target, **pipeline.allocation_fields(alloc)}, args.output)


def _cmd_simulate(args) -> None:
    if args.csv and not args.output:
        raise ValidationError("--csv needs -o: the CSV is written beside the report")
    report = pipeline.run_pipeline(_read_json(args.spec, "config"))
    if args.output:
        pipeline.write_report(report, args.output)
        if args.csv:
            pipeline.report_allocations_csv(
                report, Path(args.output).with_suffix(".allocations.csv")
            )
    else:
        _emit(report, None)


def _read_rows(path) -> list[dict]:
    doc = _read_json(path, "report")
    rows = doc.get("allocations") if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{path} holds no allocation rows")
    what = f"{path} row"
    for row in rows:
        if not isinstance(row, dict):
            raise ValidationError(f"{what}s must be objects, got {row!r}")
        for key in ("omega", "target"):
            models.finite_number(key, row.get(key), what)
        if "be_pct" in row:
            models.finite_number("be_pct", row["be_pct"], what)
        try:
            models.QpPair(row.get("qp_g"), row.get("qp_c"))
        except ValidationError as exc:
            raise ValidationError(f"{what} {exc}") from exc
        if "actual" in row:
            actual = row["actual"]
            if not isinstance(actual, dict):
                raise ValidationError(f"{what} 'actual' must be an object, got {actual!r}")
            models.finite_number("actual.rate", actual.get("rate"), what)
            pipeline.read_psnr(actual, f"{what} actual")
    return rows


def _cmd_evaluate(args) -> None:
    pba_rows = _read_rows(args.pba)
    esa_rows = _read_rows(args.esa)
    by_key = lambda rows: {(r["omega"], r["target"]): r for r in rows}
    pba_map, esa_map = by_key(pba_rows), by_key(esa_rows)
    shared = sorted(set(pba_map) & set(esa_map))
    if not shared:
        raise ValidationError("the two reports share no (omega, target) rows")
    per_target = []
    curves = {}
    for key in shared:
        p, e = pba_map[key], esa_map[key]
        qpe = evaluate.compute_qpe(
            models.QpPair(p["qp_g"], p["qp_c"]),
            models.QpPair(e["qp_g"], e["qp_c"]),
        )
        row = {"omega": key[0], "target": key[1], "qpe": qpe}
        for label, r in (("pba", p), ("esa", e)):
            if "be_pct" in r:
                row[f"be_pct_{label}"] = r["be_pct"]
            actual = r.get("actual")
            if actual and "psnr_db" in actual:
                quality = pipeline.read_psnr(actual, f"{label} actual")
                curves.setdefault((key[0], label), []).append((actual["rate"], quality))
        per_target.append(row)
    qpes = [r["qpe"] for r in per_target]
    payload = {
        "per_target": per_target,
        "average": {"qpe": sum(qpes) / len(qpes)},
    }
    bd = {str(omega): pipeline.bd_gap(curves.get((omega, "esa"), []),
                                      curves.get((omega, "pba"), []))
          for omega in sorted({k[0] for k in curves})}
    if bd:
        payload["bd_psnr_db"] = bd
    _emit(payload, args.output)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="pcbitalloc",
        description="Model-based joint geometry/color bit allocation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="point-to-point metrics between two PLY files")
    p.add_argument("reference")
    p.add_argument("reconstruction")
    p.add_argument("--omega", type=float, default=0.5)
    p.add_argument("--geometry-peak", type=float, default=None,
                   help="default: 2^bit_depth - 1 of the reference")
    p.add_argument("--color-peak", type=float, default=255.0)
    p.add_argument("--luma-weights", default="bt709",
                   help="luma weights of the color error: bt709 or bt601")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("fit", help="fit rate and distortion models from a probe log")
    p.add_argument("--probes", required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("allocate", help="solve the bit allocation for a budget")
    p.add_argument("--model", required=True, help="model JSON from 'fit'")
    p.add_argument("--target", type=float, required=True, help="budget in kbpmp")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("simulate", help="run a full study from a config file")
    p.add_argument("--spec", required=True, help="JSON config (see pipeline docs)")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--csv", action="store_true",
                   help="also write the allocations table as CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="compare two allocation reports")
    p.add_argument("--pba", required=True)
    p.add_argument("--esa", required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a shown warning is one line, like an error; a recorded one is not formatted
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args.func(args)
    except PcBitAllocError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
