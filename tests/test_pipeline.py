import copy
import functools
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pcbitalloc import pipeline, simcodec
from pcbitalloc.cli import build_parser, main
from pcbitalloc.cloud import PointCloud, save_ply
from pcbitalloc.errors import ValidationError
from pcbitalloc.evaluate import psnr
from pcbitalloc.models import (
    PROBE_LOG_HEADER, ProbeRecord, QpPair, RateModel, model_to_dict, weighted,
    write_probe_log,
)
from pcbitalloc.pipeline import (
    bd_gap, fit_models, json_text, psnr_fields, run_pipeline, write_report,
)
from pcbitalloc.simcodec import (
    SyntheticCodecSpec, encode, probe_schedule, random_spec, run_probe_schedule,
    spec_from_dict, spec_to_dict,
)

from conftest import (
    GRID_REFUSALS,
    NOT_QP_IDS,
    NOT_QPS,
    count_grid_builds,
    make_cloud,
    with_field,
)

WORKED_SPEC = {
    "alpha_g": 0.6, "beta_g": 4.0, "alpha_gc": 0.4, "alpha_cc": 0.5, "beta_c": 4.0,
    "rate": {"gamma_g": 6400.0, "theta_g": -1.0, "gamma_c": 3200.0, "theta_c": -1.0},
    "noise_rel": 0.0, "coupling": 0.0, "overhead_kbpmp": 0.0, "seed": 1,
}


def worked_config(**overrides):
    config = {
        "codec": dict(WORKED_SPEC),
        "targets": [300, 450, 700, 1000, 1800],
        "omegas": [0.5],
        "run_exhaustive": True,
    }
    config.update(overrides)
    return config


def standard_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not standard JSON."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


# a noisy codec whose rows repeat QP pairs, one of them a probe pair
DEDUP_CONFIG = {"codec": spec_to_dict(random_spec(93, noise_rel=0.02)),
                "targets": [636, 655, 800, 1000, 1400, 2000, 3000, 3010],
                "omegas": [0.25, 0.5, 0.75], "run_exhaustive": True}


def count_encodes(monkeypatch) -> list:
    """Wrap ``encode`` at both names a tracer patches (the probes call
    simcodec's; pipeline's is looked up by name only); returns the QP pairs
    encoded."""
    encoded = []
    real = simcodec.encode

    def counted(spec, qp):
        encoded.append(qp)
        return real(spec, qp)

    for owner in (simcodec, pipeline):
        monkeypatch.setattr(owner, "encode", counted)
    return encoded


# one allocation row of a simulate report, as evaluate reads it
EVAL_ROW = {"omega": 0.5, "target": 1000.0, "qp_g": 24, "qp_c": 23, "be_pct": 0.5,
            "actual": {"rate": 995.0, "psnr_db": 40.0}}


class TestRunPipeline:
    def test_worked_example_report(self):
        report = run_pipeline(worked_config())
        m = report["models"]["0.5"]
        assert m["distortion"]["a"] == pytest.approx(0.5, rel=1e-9)
        assert m["rate"]["gamma_g"] == pytest.approx(6400.0, rel=1e-9)
        row = next(r for r in report["allocations"] if r["target"] == 1000.0)
        assert row["continuous"]["q_g"] == pytest.approx(9.6, abs=1e-4)
        assert row["continuous"]["q_c"] == pytest.approx(9.6, abs=1e-4)
        # BE measured against the rounded pair's encoded rate
        actual = row["actual"]["rate"]
        assert row["be_pct"] == pytest.approx(abs(actual - 1000.0) / 1000.0 * 100)

    def test_five_targets_yield_five_rows(self):
        report = run_pipeline(worked_config())
        assert len(report["allocations"]) == 5
        assert [r["target"] for r in report["allocations"]] == [300, 450, 700, 1000, 1800]
        for row in report["allocations"]:
            assert {"qp_g", "qp_c", "predicted_rate", "be_pct", "qpe"} <= set(row)

    def test_noise_free_esa_agreement(self):
        report = run_pipeline(worked_config())
        assert all(row["qpe"] == 0 for row in report["allocations"])

    def test_cq_is_probe_ratio(self):
        report = run_pipeline(worked_config())
        ev = report["evaluation"]
        assert ev["encode_calls"] == {"pba": 3, "esa": 441}
        assert ev["cq_pct"] == pytest.approx(3 / 441 * 100)
        assert ev["bd_psnr_db"]["0.5"] == pytest.approx(0.0, abs=1e-9)
        # every per-target fact lives in the allocation rows alone
        assert set(ev) == {"encode_calls", "cq_pct", "average", "bd_psnr_db"}
        rows = report["allocations"]
        assert ev["average"] == {key: functools.reduce(operator.add, (r[key] for r in rows))
                                 / len(rows) for key in ("qpe", "be_pct")}

    def test_two_omegas(self):
        report = run_pipeline(worked_config(omegas=[0.25, 0.5]))
        assert set(report["models"]) == {"0.25", "0.5"}
        assert len(report["allocations"]) == 10

    def test_report_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(run_pipeline(worked_config()), p1)
        write_report(run_pipeline(worked_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_probe_log_backend(self, tmp_path):
        spec = SyntheticCodecSpec(rate=RateModel(**WORKED_SPEC["rate"]),
                                  **{k: v for k, v in WORKED_SPEC.items() if k != "rate"})
        log = tmp_path / "probes.csv"
        write_probe_log(log, run_probe_schedule(spec))
        report = run_pipeline({"probe_log": str(log), "targets": [1000], "omegas": [0.5]})
        row = report["allocations"][0]
        assert row["continuous"]["q_g"] == pytest.approx(9.6, abs=1e-4)
        assert "esa" not in row
        assert report["evaluation"] == {"encode_calls": {"pba": 3, "esa": 0}}

    def test_overhead_subtracted_from_budget(self):
        report = run_pipeline(worked_config(codec=dict(WORKED_SPEC, overhead_kbpmp=50.0),
                                            targets=[1050]))
        row = report["allocations"][0]
        assert row["budget"] == pytest.approx(1000.0)
        assert row["continuous"]["q_g"] == pytest.approx(9.6, abs=1e-4)

    def test_esa_picks_match_tuple_key_loop(self):
        codec = spec_to_dict(random_spec(7, noise_rel=0.02))
        report = run_pipeline({"codec": codec, "targets": [800, 1000, 1400, 2000, 3000],
                               "omegas": [0.25, 0.5, 0.75], "run_exhaustive": True})
        spec = spec_from_dict(codec)
        sweep = [encode(spec, QpPair(qp_g, qp_c))
                 for qp_g in range(22, 43) for qp_c in range(22, 43)]
        assert len(report["allocations"]) == 15
        for row in report["allocations"]:
            best = min((weighted(row["omega"], e.d_g, e.d_c), e.r_g + e.r_c,
                        e.qp.qp_g, e.qp.qp_c)
                       for e in sweep if e.r_g + e.r_c <= row["budget"])
            esa = row["esa"]
            assert (esa["distortion"], esa["rate"], esa["qp_g"], esa["qp_c"]) == best

    def test_average_adds_the_rows_left_to_right(self):
        # Python 3.12's sum() compensates its additions (Neumaier), which
        # moves this config's be_pct average; the report adds the rows in
        # order from 0 on every Python, as sum() did before 3.12
        def compensated(values):
            total = correction = 0.0
            for x in values:
                t = total + x
                correction += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            return total + correction

        report = run_pipeline({"codec": spec_to_dict(random_spec(7, noise_rel=0.02)),
                               "targets": [800, 1000, 1400, 2000, 3000],
                               "omegas": [0.25, 0.5, 0.75], "run_exhaustive": True})
        rows = [row["be_pct"] for row in report["allocations"]]
        in_order = functools.reduce(operator.add, rows) / len(rows)
        assert compensated(rows) / len(rows) != in_order
        assert report["evaluation"]["average"]["be_pct"] == in_order

    def test_esa_psnr_matches_its_encode(self):
        spec = random_spec(7, noise_rel=0.02)
        report = run_pipeline({"codec": spec_to_dict(spec),
                               "targets": [800, 1000, 1400, 2000, 3000],
                               "omegas": [0.25, 0.5, 0.75], "run_exhaustive": True})
        assert len(report["allocations"]) == 15
        for row in report["allocations"]:
            esa = row["esa"]
            e = encode(spec, QpPair(esa["qp_g"], esa["qp_c"]))
            want = psnr_fields(psnr(e.d_g, e.d_c, row["omega"], 1023.0, 255.0))
            assert {k: esa[k] for k in ("psnr_db", "lossless") if k in esa} == want

    def test_baseline_run_computes_the_grid_once(self, monkeypatch):
        built = count_grid_builds(monkeypatch)
        encoded = count_encodes(monkeypatch)
        report = run_pipeline(DEDUP_CONFIG)
        # the spec builds its grid; the baseline and the rows read it, and
        # only the probes encode
        assert len(built) == 1
        assert encoded == list(probe_schedule())
        assert report["evaluation"]["encode_calls"] == {"pba": 3, "esa": 441}

    def test_model_run_encodes_only_its_probes(self, monkeypatch):
        built = count_grid_builds(monkeypatch)
        encoded = count_encodes(monkeypatch)
        report = run_pipeline(dict(DEDUP_CONFIG, run_exhaustive=False))
        rows = {QpPair(r["qp_g"], r["qp_c"]) for r in report["allocations"]}
        # the config repeats row pairs and lands a row on a probe pair
        assert len(rows) < len(report["allocations"]) and rows & set(probe_schedule())
        assert len(built) == 1
        assert encoded == list(probe_schedule())
        assert report["evaluation"]["encode_calls"] == {"pba": 3, "esa": 0}

    def test_one_rate_fit_per_simulate_run(self, tmp_path, monkeypatch):
        # the rate fit reads no omega, so a 3-omega run fits (and tabulates) one model
        fits = []
        real = pipeline.fit_rate_model_lstsq
        monkeypatch.setattr(pipeline, "fit_rate_model_lstsq",
                            lambda records: fits.append(records) or real(records))
        cfg_path, out = tmp_path / "sim.json", tmp_path / "report.json"
        cfg_path.write_text(json.dumps(DEDUP_CONFIG))
        assert main(["simulate", "--spec", str(cfg_path), "-o", str(out)]) == 0
        rates = [m["rate"] for m in json.loads(out.read_text())["models"].values()]
        assert len(fits) == 1
        assert len(rates) == 3 and all(rate == rates[0] for rate in rates)

    @pytest.mark.parametrize("run_exhaustive", [True, False])
    def test_actuals_equal_fresh_encodes(self, run_exhaustive):
        report = run_pipeline(dict(DEDUP_CONFIG, run_exhaustive=run_exhaustive))
        spec = spec_from_dict(DEDUP_CONFIG["codec"])
        for row in report["allocations"]:
            e = encode(spec, QpPair(row["qp_g"], row["qp_c"]))
            want = {"r_g": e.r_g, "r_c": e.r_c, "rate": e.r_g + e.r_c,
                    "d_g": e.d_g, "d_c": e.d_c,
                    "distortion": weighted(row["omega"], e.d_g, e.d_c),
                    **psnr_fields(psnr(e.d_g, e.d_c, row["omega"], 1023.0, 255.0))}
            assert row["actual"] == want

    def test_unknown_config_keys_named(self):
        with pytest.raises(ValidationError, match="'omega', 'run_exhastive'"):
            run_pipeline(worked_config(run_exhastive=True, omega=[0.25]))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            run_pipeline({"targets": [100]})
        with pytest.raises(ValidationError):
            run_pipeline(worked_config(targets=[]))
        with pytest.raises(ValidationError):
            run_pipeline(worked_config(omegas=[]))
        with pytest.raises(ValidationError):
            run_pipeline({"probe_log": "x.csv", "targets": [1], "run_exhaustive": True})


class TestCli:
    def test_metric_subcommand(self, tmp_path, rng, capsys):
        a = make_cloud(rng, 400, bit_depth=9)
        noisy = np.clip(a.positions + rng.integers(-1, 2, a.positions.shape), 0, 511)
        b = PointCloud(noisy, a.colors, 9)
        save_ply(a, tmp_path / "a.ply")
        save_ply(b, tmp_path / "b.ply", binary=True)
        rc = main(["metric", str(tmp_path / "a.ply"), str(tmp_path / "b.ply"),
                   "--omega", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["geometry_peak"] == 511.0
        assert payload["d_g"] > 0

    @pytest.mark.parametrize("flag, value", [("--geometry-peak", "nan"),
                                             ("--color-peak", "inf")])
    def test_metric_rejects_non_finite_peak(self, tmp_path, rng, capsys, flag, value):
        save_ply(make_cloud(rng, 20, bit_depth=4), tmp_path / "a.ply")
        rc = main(["metric", str(tmp_path / "a.ply"), str(tmp_path / "a.ply"),
                   flag, value, "-o", str(tmp_path / "out.json")])
        assert rc == 2
        assert capsys.readouterr().err == "error [validation]: peaks must be positive and finite\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--omega", "2"], "omega must lie in [0, 1]"),
        (["--color-peak", "0"], "peaks must be positive and finite"),
        (["--geometry-peak", "-1"], "peaks must be positive and finite"),
        (["--luma-weights", "foo"],
         "unknown luma weights 'foo'; expected one of bt709, bt601"),
    ])
    def test_metric_checks_flags_before_loading_clouds(self, tmp_path, capsys,
                                                       flags, message):
        # neither file exists, so reading one would exit 4 [io]
        rc = main(["metric", str(tmp_path / "nope.ply"), str(tmp_path / "nope2.ply"),
                   *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error [validation]: {message}\n"

    def test_metric_binary_vertex_count_beyond_file(self, tmp_path, rng, capsys):
        save_ply(make_cloud(rng, 20, bit_depth=4), tmp_path / "a.ply", binary=True)
        blob = (tmp_path / "a.ply").read_bytes()
        (tmp_path / "huge.ply").write_bytes(
            blob.replace(b"element vertex 20", b"element vertex 99999999999999"))
        rc = main(["metric", str(tmp_path / "a.ply"), str(tmp_path / "huge.ply")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error [io]: binary body truncated: expected ")
        assert err.count("\n") == 1

    def test_repeated_main_calls_match_separate_processes(
            self, tmp_path, rng, capsys, monkeypatch):
        # main builds its parser once per process; neither other commands
        # nor a usage error in between change what a later call does
        save_ply(make_cloud(rng, 50, bit_depth=6), tmp_path / "a.ply")
        save_ply(make_cloud(rng, 60, bit_depth=6), tmp_path / "b.ply", binary=True)
        (tmp_path / "sim.json").write_text(json.dumps(worked_config()))
        calls = [
            ["metric", "a.ply", "b.ply", "--omega", "0.25"],
            ["allocate", "--target", "1000"],  # usage error: --model is missing
            ["simulate", "--spec", "sim.json"],
            ["metric", "b.ply", "a.ply", "--luma-weights", "bt601"],
            ["fit", "--probes", "missing.csv", "--omega", "0.5"],
            ["metric", "a.ply", "b.ply"],
        ]
        monkeypatch.chdir(tmp_path)
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, *capsys.readouterr()))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        separate = [subprocess.run([sys.executable, "-m", "pcbitalloc.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=60)
                    for argv in calls]
        assert build_parser() is build_parser()
        assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 4, 0]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in separate]

    def test_fit_allocate_chain(self, tmp_path, capsys):
        spec = SyntheticCodecSpec(rate=RateModel(**WORKED_SPEC["rate"]),
                                  **{k: v for k, v in WORKED_SPEC.items() if k != "rate"})
        log = tmp_path / "probes.csv"
        write_probe_log(log, run_probe_schedule(spec))
        model_path = tmp_path / "model.json"
        assert main(["fit", "--probes", str(log), "--omega", "0.5",
                     "-o", str(model_path)]) == 0
        assert main(["allocate", "--model", str(model_path), "--target", "1000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["qp_g"] == 24 and payload["qp_c"] == 23
        assert payload["continuous"]["q_g"] == pytest.approx(9.6, abs=1e-4)

    def test_simulate_and_evaluate(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(worked_config()))
        out = tmp_path / "report.json"
        assert main(["simulate", "--spec", str(cfg_path), "-o", str(out), "--csv"]) == 0
        assert out.exists()
        assert out.with_suffix(".allocations.csv").exists()
        assert main(["evaluate", "--pba", str(out), "--esa", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["average"]["qpe"] == 0.0

    def test_simulate_solves_a_codec_of_tiny_rate_scale(self, tmp_path, capsys):
        # the slack at a budget of 1e-290 has a square that underflows to 0
        codec = dict(WORKED_SPEC, rate={"gamma_g": 1e-300, "theta_g": -1.0,
                                        "gamma_c": 1e-300, "theta_c": -1.0})
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(worked_config(codec=codec, targets=[1e-290])))
        assert main(["simulate", "--spec", str(cfg_path)]) == 0
        (row,) = json.loads(capsys.readouterr().out)["allocations"]
        assert (row["qp_g"], row["qp_c"]) == (22, 22)
        assert row["actual"]["rate"] <= row["budget"]

    def test_exit_code_validation(self, tmp_path, capsys):
        log = tmp_path / "probes.csv"
        spec = SyntheticCodecSpec(rate=RateModel(**WORKED_SPEC["rate"]),
                                  **{k: v for k, v in WORKED_SPEC.items() if k != "rate"})
        write_probe_log(log, run_probe_schedule(spec))
        assert main(["fit", "--probes", str(log), "--omega", "2.0"]) == 2
        assert "validation" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [1000.0, True, 0])
    def test_simulate_rejects_non_integer_newton_cap(self, tmp_path, capsys, cap):
        self.assert_simulate_rejects(tmp_path, capsys,
                                     worked_config(solver={"max_newton_iters": cap}))

    @pytest.mark.parametrize("field, value", [
        ("noise_rel", float("nan")),
        ("overhead_kbpmp", float("inf")),
        ("seed", 1.5),
        ("seed", -1),
        ("alpha_g", True),
        ("rate", dict(spec_to_dict(random_spec(7))["rate"], gamma_g=True)),
        ("beta_c", 10**400),
        ("beta_g", -7.0),
        ("beta_c", -9.0),
    ], ids=["noise-nan", "overhead-inf", "seed-fractional", "seed-negative",
            "alpha-g-bool", "rate-gamma-g-bool", "beta-c-huge",
            "beta-g-negative-distortion", "beta-c-negative-distortion"])
    def test_simulate_rejects_bad_codec_spec(self, tmp_path, capsys, field, value):
        codec = dict(spec_to_dict(random_spec(7, noise_rel=0.02)), **{field: value})
        self.assert_simulate_rejects(tmp_path, capsys, {
            "codec": codec, "targets": [800, 1000, 1400, 2000]})

    @pytest.mark.parametrize("field, value", [
        ("targets", ["x"]),
        ("targets", 900),
        ("geometry_peak", float("nan")),
        ("color_peak", float("nan")),
        ("geometry_peak", 0),
        ("color_peak", -255.0),
        ("run_exhaustive", "no"),
        ("solver", {"mu0": "x"}),
        ("solver", {"eps": None}),
        ("solver", 5),
        ("solver", None),
        ("solver", {"mu0": True}),
        ("solver", {"newton_tol": 1e-9, "max_newton_iters": 1000}),
        ("run_exhastive", True),
        ("omega", [0.25]),
        ("probe_log", "probes.csv"),
        ("overhead_kbpmp", 5.0),
        ("targets", [-5, 300]),
        ("targets", [0]),
        ("omegas", [1.5]),
        ("omegas", [-0.25]),
    ], ids=["targets-string", "targets-scalar", "geometry-peak-nan", "color-peak-nan",
            "geometry-peak-zero", "color-peak-negative",
            "run-exhaustive-string", "solver-mu0-string", "solver-eps-null",
            "solver-scalar", "solver-null", "solver-mu0-bool", "solver-newton-tol",
            "unknown-misspelt-key", "unknown-omega-key", "codec-and-probe-log",
            "overhead-beside-codec", "targets-negative", "targets-zero", "omegas-above-1",
            "omegas-below-0"])
    def test_simulate_rejects_bad_top_level_field(self, tmp_path, capsys, field, value):
        self.assert_simulate_rejects(tmp_path, capsys, worked_config(**{field: value}))

    @pytest.mark.parametrize("config", [5, None, "codec x", [worked_config()]],
                             ids=["number", "null", "string", "list"])
    def test_simulate_rejects_non_object_config(self, tmp_path, capsys, config):
        self.assert_simulate_rejects(tmp_path, capsys, config)

    # a library caller can pass an integer that json.loads would refuse
    @pytest.mark.parametrize("solver, shown", [(10**5000, "an integer of 5001 digits"),
                                               ([10**5000], "a list holding an integer")],
                             ids=["integer", "list"])
    def test_solver_too_long_for_repr_is_refused(self, solver, shown):
        with pytest.raises(ValidationError, match=f"'solver' must be an object, got {shown}"):
            run_pipeline(worked_config(solver=solver))

    def test_solver_keys_of_mixed_types_are_refused(self):
        # a library caller's dict can mix key types that do not sort together
        with pytest.raises(ValidationError, match=r"unknown solver keys: \['x', 1\]$"):
            run_pipeline(worked_config(solver={1: 2, "x": 3}))

    @pytest.mark.parametrize("path", [5, None], ids=["number", "null"])
    def test_simulate_rejects_non_string_probe_log(self, tmp_path, capsys, path):
        self.assert_simulate_rejects(tmp_path, capsys, {"probe_log": path, "targets": [1000]})

    @staticmethod
    def assert_simulate_rejects(tmp_path, capsys, config, code=2, category="validation"):
        # the whole config is checked before the first probe or encode
        def no_encode(*args):
            raise AssertionError("encoded before the config was checked")

        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(config))
        report = tmp_path / "report.json"
        with pytest.MonkeyPatch.context() as mp:
            for name in ("run_probe_schedule", "read_probe_log", "encode"):
                mp.setattr(f"pcbitalloc.pipeline.{name}", no_encode)
            assert main(["simulate", "--spec", str(cfg_path), "-o", str(report)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error [{category}]: ") and err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("target", [50, 20], ids=["at-overhead", "below-overhead"])
    def test_simulate_target_within_overhead_is_infeasible(self, tmp_path, capsys, target):
        config = worked_config(codec=dict(WORKED_SPEC, overhead_kbpmp=50.0),
                               targets=[1000, target])
        self.assert_simulate_rejects(tmp_path, capsys, config, code=3, category="infeasible")

    def test_simulate_csv_needs_an_output(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "sim.json").write_text(json.dumps(worked_config()))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--spec", "sim.json", "--csv"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error [validation]: --csv needs -o: the CSV is written beside the report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]

    def test_fit_floors_a_negative_slope(self, tmp_path, capsys):
        records = []
        for qp in probe_schedule():
            q = qp.steps()
            d = -0.5 * q.q_g + 0.25 * q.q_c + 40.0  # falls as the geometry step coarsens
            records.append(ProbeRecord(qp, 6400 / q.q_g, 3200 / q.q_c, d, d))
        log, model_path = tmp_path / "probes.csv", tmp_path / "model.json"
        write_probe_log(log, records)
        with pytest.warns(UserWarning) as caught:
            assert main(["fit", "--probes", str(log), "--omega", "0.5",
                         "-o", str(model_path)]) == 0
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert messages[0].startswith("geometry distortion slope a_g=-")
        assert messages[1] == ("color distortion slope a_gc=-0.5 from least squares "
                               "is floored at 0")
        assert capsys.readouterr().err == ""
        distortion = json.loads(model_path.read_text())["distortion"]
        assert distortion["a"] == 0.0 and distortion["b"] > 0

    def test_allocate_refuses_a_negative_slope_model(self, tmp_path, capsys):
        model = model_to_dict(*fit_models(run_probe_schedule(spec_from_dict(WORKED_SPEC)), 0.5))
        model["distortion"]["b"] = -0.25
        model_path, out = tmp_path / "model.json", tmp_path / "alloc.json"
        model_path.write_text(json.dumps(model))
        assert main(["allocate", "--model", str(model_path), "--target", "1000",
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == ("error [validation]: distortion color slope "
                                           "b=-0.25 is negative\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", range(10))
    def test_noise_free_omega_ends_run(self, tmp_path, capsys, seed):
        # at omega 1 the color slope b is exactly 0, not the sign of a rounding error
        spec = random_spec(seed)
        log, cfg_path = tmp_path / "probes.csv", tmp_path / "sim.json"
        write_probe_log(log, run_probe_schedule(spec))
        rate = spec.rate
        coarsest = rate.gamma_g * 80.64**rate.theta_g + rate.gamma_c * 80.64**rate.theta_c
        cfg_path.write_text(json.dumps({"codec": spec_to_dict(spec), "omegas": [0, 1],
                                        "targets": [1.5 * coarsest, 3 * coarsest],
                                        "run_exhaustive": True}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--spec", str(cfg_path)]) == 0
            models = json.loads(capsys.readouterr().out)["models"]
            for omega in (0, 1):
                assert main(["fit", "--probes", str(log), "--omega", str(omega)]) == 0
                assert json.loads(capsys.readouterr().out) == models[f"{omega:.1f}"]
        assert models["1.0"]["distortion"]["b"] == 0.0

    def test_noisy_fit_warns_on_stderr_and_writes_the_model(self, tmp_path):
        # noise pulls the color distortion's small geometry slope below 0
        log, model_path = tmp_path / "probes.csv", tmp_path / "model.json"
        write_probe_log(log, run_probe_schedule(random_spec(74, noise_rel=0.005)))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        result = subprocess.run([sys.executable, "-m", "pcbitalloc.cli", "fit",
                                 "--probes", str(log), "--omega", "0", "-o", str(model_path)],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0
        assert result.stderr == ("warning: color distortion slope a_gc=-0.0014 from "
                                 "least squares is floored at 0\n")
        assert json.loads(model_path.read_text())["distortion"]["a"] == 0.0

    def test_fit_refuses_rates_too_far_apart(self, tmp_path, capsys):
        # the least-squares rate fit's gamma_g would be beyond the float range
        records = []
        for (qp_g, qp_c), r_g in zip([(22, 22), (23, 35), (22, 30), (30, 25)],
                                     [1e300, 1e-300, 1e300, 1e-300]):
            qp = QpPair(qp_g, qp_c)
            q = qp.steps()
            d = 0.5 * q.q_g + 0.25 * q.q_c + 10.0
            records.append(ProbeRecord(qp, r_g, 3200 / q.q_c, d, d))
        log, model_path = tmp_path / "probes.csv", tmp_path / "model.json"
        write_probe_log(log, records)
        assert main(["fit", "--probes", str(log), "--omega", "0.5",
                     "-o", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert err == ("error [validation]: geometry rates 1e+300 and 1e-300 are too far "
                       "apart to fit a power law\n")
        assert not model_path.exists()

    def test_exit_code_infeasible(self, tmp_path, capsys):
        spec = SyntheticCodecSpec(rate=RateModel(**WORKED_SPEC["rate"]),
                                  **{k: v for k, v in WORKED_SPEC.items() if k != "rate"})
        log = tmp_path / "probes.csv"
        write_probe_log(log, run_probe_schedule(spec))
        model_path = tmp_path / "model.json"
        main(["fit", "--probes", str(log), "--omega", "0.5", "-o", str(model_path)])
        capsys.readouterr()
        assert main(["allocate", "--model", str(model_path), "--target", "10"]) == 3
        assert "infeasible" in capsys.readouterr().err

    # the spec refuses a grid out of range when it is built, before any
    # encode, whether or not a probe or a row would reach a bad cell
    @pytest.mark.parametrize("noise_rel", [0.0, 0.02])
    @pytest.mark.parametrize("run_exhaustive", [True, False])
    @pytest.mark.parametrize("field, value, message", GRID_REFUSALS)
    def test_simulate_refuses_overflowing_cells_as_their_encodes_do(
            self, tmp_path, capsys, monkeypatch, field, value, message, run_exhaustive,
            noise_rel):
        codec = with_field(spec_to_dict(random_spec(3, noise_rel)), field, value)
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"codec": codec, "targets": [3000],
                                        "omegas": [0.5], "run_exhaustive": run_exhaustive}))
        encoded = count_encodes(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--spec", str(cfg_path),
                         "-o", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err == f"error [validation]: {message}\n"
        assert [str(w.message) for w in caught] == []
        assert encoded == []
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("extra_qps", [(), ((28, 30), (38, 27))],
                             ids=["3-probes-exact", "5-probes-lstsq"])
    def test_fit_matches_pipeline_models(self, tmp_path, capsys, extra_qps):
        spec = random_spec(7, noise_rel=0.02)
        records = run_probe_schedule(spec)
        records += [encode(spec, QpPair(*qp)) for qp in extra_qps]
        log = tmp_path / "probes.csv"
        write_probe_log(log, records)
        assert main(["fit", "--probes", str(log), "--omega", "0.25"]) == 0
        fitted = json.loads(capsys.readouterr().out)
        report = run_pipeline({"probe_log": str(log), "targets": [2000], "omegas": [0.25]})
        assert fitted == report["models"]["0.25"]

    def test_evaluate_short_curves_write_null_bd(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(worked_config(targets=[450, 700, 1000])))
        out = tmp_path / "report.json"
        assert main(["simulate", "--spec", str(cfg_path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["evaluation"]["bd_psnr_db"] == {"0.5": None}
        assert main(["evaluate", "--pba", str(out), "--esa", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["bd_psnr_db"] == {"0.5": None}

    def test_evaluate_lossless_point_writes_null_bd(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        write_report(run_pipeline(worked_config()), out)
        lossless = json.loads(out.read_text())
        lossless["allocations"][-1]["actual"].update(psnr_db=None, lossless=True)
        (tmp_path / "lossless.json").write_text(json.dumps(lossless))
        assert main(["evaluate", "--pba", str(tmp_path / "lossless.json"),
                     "--esa", str(out), "-o", str(tmp_path / "eval.json")]) == 0
        payload = standard_json((tmp_path / "eval.json").read_text())
        assert payload["bd_psnr_db"] == {"0.5": None}

    def test_every_command_writes_standard_json_when_lossless(self, tmp_path, capsys):
        def stdout_json():
            return standard_json(capsys.readouterr().out)

        cloud = make_cloud(np.random.default_rng(4), 50, bit_depth=6)
        save_ply(cloud, tmp_path / "a.ply")
        assert main(["metric", str(tmp_path / "a.ply"), str(tmp_path / "a.ply")]) == 0
        metric = stdout_json()
        assert (metric["psnr_db"], metric["lossless"], metric["d_g"]) == (None, True, 0.0)

        # no geometry distortion at omega 1: every encode is lossless
        cfg = worked_config(omegas=[1.0])
        cfg["codec"].update(alpha_g=0.0, beta_g=0.0)
        (tmp_path / "sim.json").write_text(json.dumps(cfg))
        report = tmp_path / "report.json"
        assert main(["simulate", "--spec", str(tmp_path / "sim.json"), "-o", str(report)]) == 0
        assert main(["simulate", "--spec", str(tmp_path / "sim.json")]) == 0
        doc = standard_json(report.read_text())
        assert stdout_json() == doc
        for row in doc["allocations"]:
            for entry in (row["actual"], row["esa"]):
                assert (entry["psnr_db"], entry["lossless"]) == (None, True)
        assert doc["evaluation"]["bd_psnr_db"] == {"1.0": None}
        assert main(["evaluate", "--pba", str(report), "--esa", str(report)]) == 0
        assert stdout_json()["bd_psnr_db"] == {"1.0": None}

        log = tmp_path / "probes.csv"
        write_probe_log(log, run_probe_schedule(spec_from_dict(WORKED_SPEC)))
        assert main(["fit", "--probes", str(log), "--omega", "0.5",
                     "-o", str(tmp_path / "model.json")]) == 0
        standard_json((tmp_path / "model.json").read_text())
        assert main(["allocate", "--model", str(tmp_path / "model.json"),
                     "--target", "1000"]) == 0
        assert stdout_json()["qp_g"] == 24

    @pytest.mark.parametrize("field, value, target", [
        (None, None, "nan"),
        (None, None, "inf"),
        ("a", float("nan"), "1000"),
        ("a", "0.5", "1000"),
        ("b", None, "1000"),
        ("c", True, "1000"),
        ("gamma_g", "6400", "1000"),
        ("theta_c", float("-inf"), "1000"),
        pytest.param("a", 10**400, "1000", id="a-huge-1000"),
        pytest.param("gamma_g", -10**400, "1000", id="gamma_g-minus-huge-1000"),
        pytest.param("a", -0.05, "1000", id="a-negative-1000"),
        pytest.param("omega", 7.5, "1000", id="omega-above-1-1000"),
        pytest.param("omega", -0.5, "1000", id="omega-below-0-1000"),
    ])
    def test_allocate_rejects_malformed_input(self, tmp_path, capsys, field, value, target):
        spec = SyntheticCodecSpec(rate=RateModel(**WORKED_SPEC["rate"]),
                                  **{k: v for k, v in WORKED_SPEC.items() if k != "rate"})
        log = tmp_path / "probes.csv"
        write_probe_log(log, run_probe_schedule(spec))
        model_path = tmp_path / "model.json"
        assert main(["fit", "--probes", str(log), "--omega", "0.5",
                     "-o", str(model_path)]) == 0
        if field is not None:
            doc = json.loads(model_path.read_text())
            doc["rate" if field in doc["rate"] else "distortion"][field] = value
            model_path.write_text(json.dumps(doc))
        assert main(["allocate", "--model", str(model_path), "--target", target]) == 2
        assert "validation" in capsys.readouterr().err

    def test_exit_code_io(self, tmp_path, capsys):
        assert main(["metric", str(tmp_path / "missing.ply"),
                     str(tmp_path / "other.ply")]) == 4
        assert "io" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"allocations": [{"omega": 0.5}]},
        [5],
        [dict(EVAL_ROW, qp_g="x")],
        [dict(EVAL_ROW, omega=[1])],
        [dict(EVAL_ROW, actual=5)],
        [dict(EVAL_ROW, actual={"rate": "x", "psnr_db": 30})],
        [dict(EVAL_ROW, actual={"rate": 995.0, "psnr_db": math.inf})],
        [dict(EVAL_ROW, actual={"rate": 995.0, "psnr_db": 40.0, "lossless": True})],
        [dict(EVAL_ROW, actual={"rate": 995.0, "lossless": True})],
        [dict(EVAL_ROW, actual={"rate": 995.0, "psnr_db": None, "lossless": 1})],
        [dict(EVAL_ROW, be_pct=math.nan)],
        [dict(EVAL_ROW, be_pct="x")],
    ], ids=["no-target", "int-row", "qp-string", "omega-list", "actual-int",
            "actual-rate-string", "psnr-infinity", "lossless-with-psnr",
            "lossless-without-psnr", "lossless-not-true", "be-pct-nan", "be-pct-string"])
    def test_evaluate_rejects_malformed_rows(self, tmp_path, capsys, doc):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--pba", str(report), "--esa", str(report),
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [validation]: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", NOT_QPS + [50], ids=NOT_QP_IDS + ["off-grid"])
    @pytest.mark.parametrize("key", ["qp_g", "qp_c"])
    @pytest.mark.parametrize("shared", [False, True], ids=["unshared", "shared"])
    def test_evaluate_refuses_a_row_qp_off_the_grid(self, tmp_path, capsys, bad, key,
                                                    shared):
        # every row's QPs are checked, not only those of the rows both share
        pba, esa = tmp_path / "pba.json", tmp_path / "esa.json"
        pba.write_text(json.dumps([EVAL_ROW, dict(EVAL_ROW, target=2000.0, **{key: bad})]))
        esa.write_text(json.dumps([EVAL_ROW] + [dict(EVAL_ROW, target=2000.0)] * shared))
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--pba", str(pba), "--esa", str(esa),
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [validation]: {pba} row qp ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_non_utf8_probe_log_is_a_validation_error(self, tmp_path, capsys, command):
        log = tmp_path / "probes.csv"
        log.write_bytes(b"\xff\xfeqp_g,qp_c,r_g_kbpmp,r_c_kbpmp,d_g,d_c\n")
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"probe_log": str(log), "targets": [1000]}))
        argv = {"fit": ["fit", "--probes", str(log), "--omega", "0.5"],
                "simulate": ["simulate", "--spec", str(cfg_path)]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [validation]: probe log ") and err.count("\n") == 1

    @pytest.mark.parametrize("column, value", [
        ("d_g", "-5.0"), ("d_c", "inf"), ("r_c_kbpmp", "0.0"),
        # literal forms int() and float() take, each read as a valid value
        ("qp_g", "3_4"), ("qp_g", " 34 "), ("qp_c", "+35"), ("qp_c", "\uff13\uff15"),
        ("r_g_kbpmp", "1_0"), ("d_c", "1_0"),
    ], ids=["negative-d_g", "infinite-d_c", "zero-r_c", "underscore-qp_g", "blank-qp_g",
            "plus-qp_c", "fullwidth-qp_c", "underscore-r_g", "underscore-d_c"])
    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_bad_probe_log_values_name_the_row(self, tmp_path, capsys, command,
                                               column, value):
        rows = [[r.qp.qp_g, r.qp.qp_c, r.r_g, r.r_c, r.d_g, r.d_c]
                for r in run_probe_schedule(spec_from_dict(WORKED_SPEC))]
        rows[1][PROBE_LOG_HEADER.index(column)] = value
        log = tmp_path / "probes.csv"
        log.write_text("".join(",".join(map(str, row)) + "\n"
                               for row in [PROBE_LOG_HEADER, *rows]))
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"probe_log": str(log), "targets": [1000]}))
        argv = {"fit": ["fit", "--probes", str(log), "--omega", "0.5"],
                "simulate": ["simulate", "--spec", str(cfg_path)]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [validation]: bad probe log row ")
        assert f"'{column}': '{value}'" in err and err.count("\n") == 1


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
                | st.floats(allow_nan=True, allow_infinity=True))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


def _slots(tree, out):
    """Every (container, key) of a JSON tree, containers included."""
    keys = tree.keys() if isinstance(tree, dict) else range(len(tree))
    for key in keys:
        out.append((tree, key))
        if isinstance(tree[key], (dict, list)):
            _slots(tree[key], out)
    return out


@st.composite
def malformed_configs(draw):
    """A random JSON tree, or a valid config with a few slots replaced or deleted."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_TREES)
    config = copy.deepcopy(draw(st.sampled_from([
        worked_config(),
        worked_config(run_exhaustive=False, omegas=[0.25, 0.75],
                      solver={"max_newton_iters": 1000}),
        {"probe_log": "probes.csv", "targets": [1000, 1400], "overhead_kbpmp": 10.0},
    ])))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_slots(config, [])))
        if draw(st.booleans()) and isinstance(container, dict):
            del container[key]
        else:
            container[key] = draw(JSON_TREES | JSON_SCALARS)
    return config


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(malformed_configs())
# a distortion offset so large that the floored fit's squared residual overflows
@example(worked_config(codec=dict(WORKED_SPEC, beta_g=1.7703627518640612e172)))
def test_simulate_survives_malformed_config_trees(config):
    # every bad config gives an error line and an exit code of its category
    spec = SyntheticCodecSpec(rate=RateModel(**WORKED_SPEC["rate"]),
                              **{k: v for k, v in WORKED_SPEC.items() if k != "rate"})
    with tempfile.TemporaryDirectory() as tmp:
        write_probe_log(Path(tmp) / "probes.csv", run_probe_schedule(spec))
        if isinstance(config, dict) and config.get("probe_log") == "probes.csv":
            config["probe_log"] = str(Path(tmp) / "probes.csv")
        cfg_path = Path(tmp) / "sim.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["simulate", "--spec", str(cfg_path),
                     "-o", str(Path(tmp) / "report.json")]) in (0, 2, 3, 4)


HUGE_INTEGERS = st.sampled_from([10**400, -10**400])


@st.composite
def malformed_models(draw):
    """A random JSON tree, or a valid model file with a few slots replaced or deleted."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_TREES)
    model = model_to_dict(*fit_models(run_probe_schedule(spec_from_dict(WORKED_SPEC)), 0.5))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(model, [])
        if not slots:  # both sections deleted
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()) and isinstance(container, dict):
            del container[key]
        else:
            container[key] = draw(JSON_TREES | JSON_SCALARS | HUGE_INTEGERS)
    return model


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(malformed_models())
def test_allocate_survives_malformed_model_trees(model):
    # every bad model file gives an error line and an exit code of its category
    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "model.json"
        model_path.write_text(json.dumps(model))
        assert main(["allocate", "--model", str(model_path), "--target", "1000",
                     "-o", str(Path(tmp) / "alloc.json")]) in (0, 2, 3)


@st.composite
def malformed_reports(draw):
    """A random JSON tree, or a valid report with a few slots replaced or deleted."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_TREES)
    rows = [dict(EVAL_ROW, target=target, qp_g=qp, qp_c=qp - 1,
                 actual={"rate": target - 5.0, "psnr_db": 30.0 + qp / 4})
            for target, qp in ((300.0, 36), (450.0, 32), (700.0, 28), (1000.0, 24))]
    if draw(st.booleans()):
        rows[-1]["actual"].update(psnr_db=None, lossless=True)
    report = copy.deepcopy(draw(st.sampled_from([{"allocations": rows}, rows])))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(report, [])
        if not slots:  # the only key was deleted
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()) and isinstance(container, dict):
            del container[key]
        else:
            container[key] = draw(JSON_TREES | JSON_SCALARS)
    return report


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(malformed_reports(), malformed_reports())
def test_evaluate_survives_malformed_reports(pba, esa):
    # evaluate never raises: a bad report is a validation error, exit 2
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "pba.json", Path(tmp) / "esa.json"]
        for path, doc in zip(paths, (pba, esa)):
            path.write_text(json.dumps(doc))
        assert main(["evaluate", "--pba", str(paths[0]), "--esa", str(paths[1]),
                     "-o", str(Path(tmp) / "eval.json")]) in (0, 2)


# quotes, backslashes, control, non-ASCII and astral characters and a lone surrogate
WRITER_STRINGS = st.text(st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\U0001f600\ud800')
                         | st.characters(), max_size=6)
# JSON trees of finite numbers; a float64 leaf encodes as its float does
FINITE_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | WRITER_STRINGS
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(WRITER_STRINGS, inner,
                                                                max_size=4),
    max_leaves=24)


def layout_lines(payload: dict) -> list[str]:
    """The lines ``json_text`` writes for an object, as its layout describes
    them: the braces, then each key in sorted order on a line of its own,
    the elements of a non-empty list value each on their own line."""
    lines = ["{"]
    for n, (key, value) in enumerate(sorted(payload.items()), 1):
        comma = "," if n < len(payload) else ""
        if isinstance(value, list) and value:
            lines.append(f"{json.dumps(key)}: [")
            lines += [json.dumps(v, sort_keys=True) + ("," if i < len(value) else "")
                      for i, v in enumerate(value, 1)]
            lines.append("]" + comma)
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}{comma}")
    return lines + ["}"]


class TestJsonText:
    """``json_text`` writes sorted keys, one line per top-level key and per
    element of a top-level list, and standard JSON only."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(WRITER_STRINGS, FINITE_TREES, min_size=1, max_size=5))
    @example({"": [], "b": {}, "a": [{}, [[]], [1, "x\ny"]]})
    def test_layout(self, payload):
        text = json_text(payload)
        assert text.endswith("}\n")
        assert text.splitlines() == layout_lines(payload)

    @settings(max_examples=400, deadline=None)
    @given(FINITE_TREES)
    @example([-0.0, 5e-324, 1e16, 10**30, -10**30, "\ud800", {"b": 1, "a": [[]]}])
    def test_round_trips(self, payload):
        text = json_text(payload)
        assert standard_json(text) == payload
        assert text.endswith("\n") and (isinstance(payload, dict) or text.count("\n") == 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("where", ["bare", "value", "row", "nested"])
    def test_refuses_nan_and_infinities(self, bad, where):
        payload = {"bare": bad, "value": {"a": bad}, "row": {"rows": [1.0, bad]},
                   "nested": {"rows": [{"x": [bad]}]}}[where]
        with pytest.raises(ValueError):
            json_text(payload)

    @pytest.mark.parametrize("payload", [{1, 2}, np.int64(1), {"a": [np.int64(1)]}],
                             ids=["set", "numpy-int64", "nested-numpy-int64"])
    def test_refuses_what_json_dumps_refuses(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload)
        with pytest.raises(TypeError):
            json_text(payload)

    def test_refuses_an_int_key(self):
        # json.dumps would write "1"; no document the tools write has such a key
        assert json.dumps({1: "a"}) == '{"1": "a"}'
        with pytest.raises(TypeError):
            json_text({1: "a"})

    @pytest.mark.parametrize("command",
                             ["metric", "fit", "allocate", "simulate", "evaluate"])
    def test_each_command_writes_its_document(self, tmp_path, rng, monkeypatch, command):
        log, model, esa, pba = (tmp_path / name for name in
                                ("probes.csv", "model.json", "esa.json", "pba.json"))
        records = run_probe_schedule(spec_from_dict(DEDUP_CONFIG["codec"]))
        write_probe_log(log, records)
        model.write_text(json.dumps(model_to_dict(*fit_models(records, 0.25))))
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(DEDUP_CONFIG))
        write_report(run_pipeline(DEDUP_CONFIG), esa)
        write_report(run_pipeline(dict(DEDUP_CONFIG, run_exhaustive=False)), pba)
        a = make_cloud(rng, 300, bit_depth=9)
        save_ply(a, tmp_path / "a.ply")
        save_ply(PointCloud(a.positions[::2], a.colors[::2], 9), tmp_path / "b.ply")
        out = tmp_path / "out.json"
        argv = {
            "metric": ["metric", str(tmp_path / "a.ply"), str(tmp_path / "b.ply")],
            "fit": ["fit", "--probes", str(log), "--omega", "0.25"],
            "allocate": ["allocate", "--model", str(model), "--target", "1000"],
            "simulate": ["simulate", "--spec", str(config)],
            "evaluate": ["evaluate", "--pba", str(pba), "--esa", str(esa)],
        }[command]
        written = []
        real = pipeline.json_text

        def recorded(payload):
            written.append(payload)
            return real(payload)

        monkeypatch.setattr(pipeline, "json_text", recorded)
        assert main(argv + ["-o", str(out)]) == 0
        assert len(written) == 1
        text = out.read_text()
        assert standard_json(text) == written[0]
        assert text.splitlines() == layout_lines(written[0])


class TestBdGap:
    ESA = [(300.0, 30.0), (450.0, 31.5), (700.0, 33.0), (1000.0, 34.0)]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_psnr_gives_none(self, bad):
        lossless = self.ESA[:3] + [(1000.0, bad)]
        assert bd_gap(self.ESA, lossless) is None
        assert bd_gap(lossless, self.ESA) is None
        assert bd_gap(self.ESA, self.ESA) == pytest.approx(0.0, abs=1e-12)

    def test_short_curve_gives_none(self):
        assert bd_gap(self.ESA[:3], self.ESA) is None

    def test_rate_unit_does_not_move_the_gap(self):
        # a noisy worked codec and its budgets in rate units up to 1e12 times larger
        targets = [300, 400, 500, 700, 900, 1200, 1500, 1800]
        gaps = []
        for scale in (1.0, 1e-9, 1e-12):
            rate = dict(WORKED_SPEC["rate"], gamma_g=6400.0 * scale, gamma_c=3200.0 * scale)
            codec = dict(WORKED_SPEC, rate=rate, noise_rel=0.02, seed=3)
            report = run_pipeline(worked_config(codec=codec, targets=[t * scale for t in targets]))
            gaps.append(report["evaluation"]["bd_psnr_db"]["0.5"])
        assert gaps[0] is not None
        assert gaps[1:] == pytest.approx(gaps[:1] * 2, rel=0, abs=1e-9)
