#!/usr/bin/env python3
"""Self-test of the benchmark's checker and tracer, on small inputs.

    python3 perfbench/selftest.py

For each workload it runs three ops and checks three things. The clean
outputs pass. One corrupted output counts as exactly one failed op. One
nonzero exit code counts as one more. It also checks that a traced op
fills every per-layer metric named in BENCHMARK.json, and that the
library functions are restored afterwards. Exits 1 on the first
expectation that does not hold.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run
import spans
import workloads


def corrupt_metric(blob: bytes) -> bytes:
    doc = json.loads(blob)
    doc["d_g"] = math.nextafter(doc["d_g"], math.inf)
    return json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"


def corrupt_study(capture: tuple[bytes, bytes]) -> tuple[bytes, bytes]:
    report, csv_blob = capture
    doc = json.loads(report)
    doc["allocations"][0]["qp_c"] += 1 if doc["allocations"][0]["qp_c"] < 42 else -1
    return json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n", csv_blob


def originals() -> list:
    from pcbitalloc import allocator, cloud, metrics, pipeline, simcodec

    return [cloud.load_ply, cloud.save_ply, metrics.build_index,
            metrics.NnIndex.query, pipeline.run_pipeline, pipeline.encode,
            pipeline.solve_interior_point, allocator.polish_rounding,
            simcodec.encode]


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli = run.import_cli()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        per_layer = json.load(fh)["per_layer"]
    layer_names = {m["name"] for m in per_layer}
    expect(all(spans.unit(m["name"]) == m["unit"] for m in per_layer),
           "per-layer units match BENCHMARK.json")
    for name in workloads.NAMES:
        wl = workloads.make(name, 5, workdir, warmup=True)
        wl.bind()
        records = [r for _ in range(3) for r in run.measure(wl, cli, 0.0, None)]
        expect(run.failures(wl, records)[0] == 0, f"{name}: clean outputs pass")
        corrupt = corrupt_metric if name.startswith("metric") else corrupt_study
        records[1].capture = corrupt(records[1].capture)
        expect(run.failures(wl, records)[0] == 1, f"{name}: a corrupted output fails")
        records[2].code = 4
        expect(run.failures(wl, records)[0] == 2, f"{name}: a nonzero exit fails")

        tracer = spans.Tracer()
        before = originals()
        traced = run.measure(wl, cli, 0.0, tracer)
        layers = spans.layer_metrics(tracer, {1})
        expect(set(layers) | {"trace.overhead_frac"} == layer_names,
               f"{name}: traced run reports the per-layer metrics of BENCHMARK.json")
        expect(layers["cli.main.self_s"] > 0 and len(traced) == 2,
               f"{name}: the second op is traced")
        expect(originals() == before and not tracer._stack,
               f"{name}: library functions are restored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
