"""The benchmark's tracer must still find and hit every library name it patches.

``perfbench/spans.py`` wraps library functions at the names their callers
look up. A refactor that renames one of them, or routes a call around it,
breaks every traced benchmark run; this guard runs one small exhaustive
``simulate`` and one ``metric`` under the tracer and checks what they
recorded.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from pcbitalloc import allocator, cli, cloud, metrics, pipeline, simcodec
from pcbitalloc.simcodec import random_spec, spec_to_dict

from conftest import count_grid_builds, make_cloud

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

TARGETS = [800.0, 1000.0, 1400.0, 2000.0]


def patched_attributes():
    return [
        (cloud, "load_ply"), (cloud, "save_ply"),
        (metrics, "symmetric_distortion"), (metrics, "build_index"),
        (metrics.NnIndex, "query"),
        (allocator, "round_to_grid"), (allocator, "polish_rounding"),
        (simcodec, "encode"),
    ] + [(pipeline, name) for name in (
        "run_pipeline", "write_report", "report_allocations_csv",
        "solve_interior_point", "exhaustive_search", "encode",
        *spans._FITS, *spans._EVALUATE)]


def test_traced_simulate_hits_every_span(tmp_path, monkeypatch):
    config = {"codec": spec_to_dict(random_spec(seed=7)), "targets": TARGETS,
              "omegas": [0.5], "run_exhaustive": True}
    spec_path = tmp_path / "study.json"
    spec_path.write_text(json.dumps(config))
    before = [getattr(owner, name) for owner, name in patched_attributes()]
    built = count_grid_builds(monkeypatch)

    with spans.installed(spans.Tracer()) as tracer:
        inside = [getattr(owner, name) for owner, name in patched_attributes()]
        assert cli.main(["simulate", "--spec", str(spec_path),
                         "-o", str(tmp_path / "report.json"), "--csv"]) == 0

    assert all(a is not b for a, b in zip(before, inside))
    assert [getattr(owner, name) for owner, name in patched_attributes()] == before
    calls = Counter(name for name, *_ in tracer.spans)
    for name in ("allocator.solve", "allocator.round_to_grid",
                 "allocator.polish_rounding", "allocator.exhaustive_search",
                 "models.fit", "evaluate", "simcodec.encode",
                 "pipeline.run_pipeline", "pipeline.write_report",
                 "pipeline.report_allocations_csv"):
        assert calls[name] >= 1, name
    assert calls["allocator.solve"] == len(TARGETS)
    assert calls["allocator.exhaustive_search"] == len(TARGETS)
    # only the probes encode; the rows and the baseline read the grid that
    # the spec built once, and the report still counts the 441 encodes of a
    # real baseline
    assert calls["simcodec.encode"] == 3
    assert len(built) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["evaluation"]["encode_calls"] == {"pba": 3, "esa": 441}


def test_traced_metric_hits_index_spans(tmp_path):
    rng = np.random.default_rng(5)
    for name in ("ref.ply", "rec.ply"):
        cloud.save_ply(make_cloud(rng, 300, bit_depth=8), tmp_path / name, binary=True)

    with spans.installed(spans.Tracer()) as tracer:
        assert cli.main(["metric", str(tmp_path / "ref.ply"), str(tmp_path / "rec.ply"),
                         "-o", str(tmp_path / "metric.json")]) == 0

    calls = Counter(name for name, *_ in tracer.spans)
    # one index and one query per direction of the symmetric distortion
    assert calls["metrics.build_index"] == 2
    assert calls["metrics.nn_query"] == 2
    assert calls["metrics.symmetric_distortion"] == 1
    assert calls["cloud.load_ply"] == 2


def test_traced_metric_queries_each_distinct_position_once(tmp_path):
    # a codec-like reconstruction: the reference snapped to a step-4 lattice
    rng = np.random.default_rng(6)
    ref = make_cloud(rng, 400, bit_depth=4)
    rec = cloud.PointCloud(ref.positions // 4 * 4, ref.colors, 4)
    cloud.save_ply(ref, tmp_path / "ref.ply")
    cloud.save_ply(rec, tmp_path / "rec.ply")
    distinct = [len(np.unique(c.positions, axis=0)) for c in (ref, rec)]
    assert distinct[0] < len(ref) and distinct[1] < len(rec) // 2

    with spans.installed(spans.Tracer()) as tracer:
        assert cli.main(["metric", str(tmp_path / "ref.ply"), str(tmp_path / "rec.ply"),
                         "-o", str(tmp_path / "metric.json")]) == 0

    calls = Counter(name for name, *_ in tracer.spans)
    assert calls["metrics.nn_query"] == 2
    assert tracer.counts["nn_query_points"] == sum(distinct)
