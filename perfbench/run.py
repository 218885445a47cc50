#!/usr/bin/env python3
"""Benchmark of the pcbitalloc command line, run in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload metric_lattice --seed 1 --seconds 20 --trace 0

One process, one caller, one op at a time: each op calls
``pcbitalloc.cli.main(argv)`` and the next starts when it returns. After
each op, outside its timed region, a fixed probe that does not touch the
library is timed; the gated op time is the op's time over the probe's
(``host_probe``). Inputs come from ``--seed``. After the measured loop
every op's output is checked against an independent reference
(``reference.py``). The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. The line before it describes the inputs. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up is timed in this process and in this many fresh interpreters.
SETUP_CHILDREN = 4
# Fixed inputs of the host probe, the same in every run.
_PROBE_POINTS = np.random.default_rng(0).integers(0, 1024, size=(2000, 3)).astype(float)
_PROBE_VALUES = np.random.default_rng(1).random(300_000)


class MissingLibrary(Exception):
    pass


def require_sources() -> None:
    if not (SRC / "pcbitalloc" / "__init__.py").is_file():
        raise MissingLibrary(f"no pcbitalloc sources under {SRC}")


def import_cli():
    require_sources()
    sys.path.insert(0, str(SRC))
    from pcbitalloc import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise MissingLibrary(f"pcbitalloc was imported from {cli.__file__}, not {SRC}")
    return cli


def timed_setup(name: str, seed: int, workdir: Path):
    """Import the library and run one op on small inputs; returns (cli, seconds)."""
    warm = workloads.make(name, seed, workdir, warmup=True)
    start = perf_counter()
    cli = import_cli()
    warm.bind()
    code = warm.op(0, cli.main)
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"warm-up op exited with code {code}")
    return cli, elapsed


def child_setup(name: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def host_probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch the library.

    The shared host's speed drifts by up to 2x over seconds to minutes,
    and the op and the probe slow down together, so the op's time over
    the probe's, both taken back to back, barely moves (see README.md).
    The work mixes what the ops do: a pure-Python dict loop, a kd-tree
    radius query whose per-point lists Python walks, and a numpy sort.
    """
    from scipy.spatial import cKDTree  # loaded by the library at set-up

    start = perf_counter()
    counts = {}
    for i in range(20_000):
        counts[i % 997] = counts.get(i % 997, 0) + i * i
    near = cKDTree(_PROBE_POINTS).query_ball_point(_PROBE_POINTS, 12.0)
    sum(len(row) for row in near)
    np.sort(_PROBE_VALUES)
    return perf_counter() - start


@dataclass
class OpRecord:
    seconds: float
    probe_seconds: float
    code: int | None    # None: the op raised
    capture: object     # None: the op left no output to read
    traced: bool


def measure(wl, cli, seconds: float, tracer: spans.Tracer | None) -> list[OpRecord]:
    """Closed loop for ``seconds``; with a tracer, every second op is traced."""
    records = []
    distinct = {}  # equal outputs share one copy, so memory stays flat
    start = perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        code = None
        t0 = perf_counter()
        try:
            if traced:
                tracer.op = i
                with spans.installed(tracer):
                    code = wl.op(i, tracer.wrap("cli.main", cli.main))
            else:
                code = wl.op(i, cli.main)
        except Exception:
            traceback.print_exc()
        t1 = perf_counter()
        try:
            capture = wl.capture(i) if code == 0 else None
        except OSError:
            capture = None
        capture = distinct.setdefault(capture, capture)
        records.append(OpRecord(t1 - t0, host_probe(), code, capture, traced))
        i += 1
        if perf_counter() - start >= seconds and i >= (2 if tracer else 1):
            return records


def failures(wl, records: list[OpRecord]) -> tuple[int, dict]:
    """Failed ops (nonzero exit, no output, or a wrong output) and the descriptor."""
    verdicts, descriptor = wl.check([r.capture for r in records])
    failed = 0
    for i, (r, errors) in enumerate(zip(records, verdicts)):
        if r.code != 0 or errors:
            failed += 1
            reason = f"exit code {r.code}" if r.code != 0 else "; ".join(errors[:3])
            print(f"op {i} failed: {reason}", file=sys.stderr)
    return failed, descriptor


def relative(r: OpRecord) -> float:
    return r.seconds / r.probe_seconds


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2),
            "value": sorted(times)[n - 11], "n": n}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    require_sources()
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed, workdir)
    cli, setup = timed_setup(args.workload, args.seed, workdir)
    setups = [setup] + [child_setup(args.workload, args.seed, workdir)
                        for _ in range(SETUP_CHILDREN)]
    wl.bind()

    tracer = spans.Tracer() if args.trace else None
    records = measure(wl, cli, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, descriptor = failures(wl, records)

    times = [r.seconds for r in records]
    if tracer:
        traced = {i for i, r in enumerate(records) if r.traced}
        layers = spans.layer_metrics(tracer, traced)
        rel_traced = statistics.median(relative(r) for r in records if r.traced)
        rel_plain = statistics.median(relative(r) for r in records if not r.traced)
        layers["trace.overhead_frac"] = rel_traced / rel_plain - 1.0
        metrics = {name: metric(v, spans.unit(name)) for name, v in layers.items()}
        tracer.dump(workdir / f"spans_seed{args.seed}.json")
    else:
        metrics = {
            "op_rel_p50": metric(statistics.median(map(relative, records)), "ratio"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    p50 = statistics.median(times)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "inputs": descriptor,
        "ops": len(times),
        "op_s_p50": p50,
        "op_s_min": min(times),
        wl.items_name: wl.items_per_op / p50,
        "op_s_tail": tail(times),
        "fail_frac": failed / len(times),
        "setup_s_samples": setups,
        "op_s": times,
        "probe_s": [r.probe_seconds for r in records],
    }))
    return {"correct": failed == 0, "attempted": len(times), "failed": failed,
            "metrics": metrics}


def setup_probe(args) -> int:
    _, elapsed = timed_setup(args.workload, args.seed, Path(args.workdir))
    print(elapsed)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        result = run(args)
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
