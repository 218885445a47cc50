import re
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st

from pcbitalloc import models
from pcbitalloc.errors import (
    DegenerateProbesError,
    NonMonotoneRateError,
    ValidationError,
)
from pcbitalloc.models import (
    DistortionModel,
    ProbePoint,
    ProbeRecord,
    QpPair,
    QuantPair,
    RateModel,
    fit_distortion_model,
    fit_distortion_model_lstsq,
    fit_rate_model,
    fit_rate_model_lstsq,
    kbpmp,
    model_from_dict,
    model_to_dict,
    predict_distortion,
    predict_rate,
    probes_from_records,
    qp_grid,
    qp_to_step,
    read_probe_log,
    step_grid,
    write_probe_log,
)
from pcbitalloc.pipeline import fit_models
from pcbitalloc.simcodec import probe_schedule, random_spec, run_probe_schedule

from conftest import NOT_QP_IDS, NOT_QPS


def probe(qp_g, qp_c, r_g, r_c, d=1.0):
    return ProbePoint(QpPair(qp_g, qp_c), r_g, r_c, d)


def record(qp_g, qp_c, r_g, r_c, d_g, d_c):
    return ProbeRecord(QpPair(int(qp_g), int(qp_c)), r_g, r_c, d_g, d_c)


def probe_at_steps(q_g, q_c, r_g, r_c, d=1.0):
    """ProbePoint lookalike for direct step-domain fitting checks."""
    class _P:
        def __init__(self):
            self.r_g, self.r_c, self.d = r_g, r_c, d
            self.qp = self
        def steps(self):
            return QuantPair(q_g, q_c)
    return _P()


class TestQpToStep:
    def test_paper_endpoint(self):
        assert qp_to_step(22) == 8.0

    def test_exponent_zero(self):
        assert qp_to_step(4) == 1.0

    def test_top_of_grid(self):
        assert qp_to_step(42) == pytest.approx(80.63, abs=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            qp_to_step(-1)

    def test_grid_shape(self):
        assert qp_grid() == tuple(range(22, 43))
        assert len(step_grid()) == 21
        assert step_grid()[0] == 8.0

    @settings(max_examples=40)
    @given(st.integers(0, 60))
    def test_increasing_and_doubles_every_six(self, qp):
        assert qp_to_step(qp + 1) > qp_to_step(qp)
        assert qp_to_step(qp + 6) == pytest.approx(2 * qp_to_step(qp), rel=1e-12)


class TestQpPair:
    @pytest.mark.parametrize("bad", NOT_QPS + [21, 43], ids=NOT_QP_IDS + ["21", "43"])
    def test_refuses_what_is_not_a_grid_qp(self, bad):
        for args in ((bad, 30), (30, bad)):
            with pytest.raises(ValidationError, match=r"^qp (must be an integer, got "
                               r"|\S+ outside grid \[22, 42\]$)"):
                QpPair(*args)

    def test_refuses_numpy_bools_and_floats(self):
        for bad in (np.bool_(True), np.float64(30.0)):
            with pytest.raises(ValidationError, match="must be an integer"):
                QpPair(bad, 30)

    @pytest.mark.parametrize("integer", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
    def test_accepts_numpy_integers(self, integer):
        qp = QpPair(integer(22), integer(42))
        assert qp == QpPair(22, 42)
        assert qp.cell == (0, 20)
        with pytest.raises(ValidationError, match="outside grid"):
            QpPair(integer(43), 30)

    def test_cell_is_the_offset_from_the_grid_start(self):
        cells = [QpPair(g, c).cell for g in qp_grid() for c in qp_grid()]
        assert cells == [(g, c) for g in range(21) for c in range(21)]
        assert all(type(i) is int for cell in cells for i in cell)


class TestKbpmp:
    def test_conversion(self):
        # 1 Mbit over 1M points = 1000 kbpmp
        assert kbpmp(1_000_000, 1_000_000) == 1000.0
        assert kbpmp(500_000, 2_000_000) == 250.0


class TestRateFit:
    def test_exact_power_law_theta_minus_one(self):
        p1 = probe_at_steps(8.0, 8.0, 800.0, 640.0)
        p2 = probe_at_steps(80.0, 64.0, 80.0, 10.0)
        m = fit_rate_model(p1, p2)
        assert m.theta_g == pytest.approx(-1.0, abs=1e-12)
        assert m.gamma_g == pytest.approx(6400.0, rel=1e-12)
        assert m.theta_c == pytest.approx(-2.0, abs=1e-12)
        assert m.gamma_c == pytest.approx(40960.0, rel=1e-12)

    def test_round_trip_through_simcodec(self):
        spec = random_spec(seed=9)
        recs = run_probe_schedule(spec)
        probes = probes_from_records(recs, 0.5)
        m = fit_rate_model(probes[0], probes[1])
        assert m.gamma_g == pytest.approx(spec.rate.gamma_g, rel=1e-9)
        assert m.theta_g == pytest.approx(spec.rate.theta_g, rel=1e-9)
        assert m.gamma_c == pytest.approx(spec.rate.gamma_c, rel=1e-9)
        assert m.theta_c == pytest.approx(spec.rate.theta_c, rel=1e-9)

    def test_probe_order_invariant(self):
        p1 = probe(33, 25, 123.4, 567.8)
        p2 = probe(34, 35, 101.1, 99.9)
        m12 = fit_rate_model(p1, p2)
        m21 = fit_rate_model(p2, p1)
        assert m12.gamma_g == pytest.approx(m21.gamma_g, rel=1e-12)
        assert m12.theta_g == pytest.approx(m21.theta_g, rel=1e-12)
        assert m12.gamma_c == pytest.approx(m21.gamma_c, rel=1e-12)
        assert m12.theta_c == pytest.approx(m21.theta_c, rel=1e-12)

    def test_equal_steps_rejected(self):
        with pytest.raises(DegenerateProbesError):
            fit_rate_model(probe(33, 25, 100, 100), probe(33, 35, 90, 90))

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValidationError):
            probe(33, 25, 0.0, 100.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneRateError, match="geometry rate exponent"):
            fit_rate_model(probe(33, 25, 100, 100), probe(34, 35, 120, 90))
        probes = [probe(33, 25, 100, 100), probe(34, 35, 90, 120), probe(24, 33, 300, 110)]
        with pytest.raises(NonMonotoneRateError, match="color rate exponent"):
            fit_rate_model_lstsq(probes)

    # rates so far apart that the fitted scale gamma leaves the float range;
    # qp 22 and 23 are one step apart, the smallest step ratio on the grid
    @pytest.mark.parametrize("rates", [(1e-300, 1e300), (1e200, 1.0), (1.0, 1e200)],
                             ids=["ratio-underflow", "scale-underflow", "scale-overflow"])
    def test_rates_beyond_the_float_range_refused(self, rates):
        probes = [probe(22, 22, rates[0], 100), probe(23, 35, rates[1], 90)]
        message = f"geometry rates {max(rates):.4g} and {min(rates):.4g} are too far apart"
        with pytest.raises(ValidationError, match=re.escape(message)) as exc:
            fit_rate_model(*probes)
        assert type(exc.value) is ValidationError

    def test_lstsq_matches_exact_on_clean_data(self):
        spec = random_spec(seed=10)
        recs = run_probe_schedule(spec)
        probes = probes_from_records(recs, 0.25)
        m = fit_rate_model_lstsq(probes)
        assert m.gamma_g == pytest.approx(spec.rate.gamma_g, rel=1e-9)
        assert m.theta_c == pytest.approx(spec.rate.theta_c, rel=1e-9)


class TestDistortionFit:
    def test_hand_solvable_system(self):
        p1 = probe_at_steps(8.0, 8.0, 1, 1, d=10.0)
        p2 = probe_at_steps(16.0, 8.0, 1, 1, d=14.0)
        p3 = probe_at_steps(8.0, 16.0, 1, 1, d=12.0)
        m = fit_distortion_model(p1, p2, p3, omega=0.5)
        assert m.a == pytest.approx(0.5, rel=1e-12)
        assert m.b == pytest.approx(0.25, rel=1e-12)
        assert m.c == pytest.approx(4.0, rel=1e-12)
        assert m.omega == 0.5

    def test_exact_recovery(self):
        truth = (0.1, 0.3, 2.0)
        pts = [(8.0, 8.0), (32.0, 10.0), (12.0, 40.0)]
        probes = [probe_at_steps(g, c, 1, 1, d=truth[0] * g + truth[1] * c + truth[2])
                  for g, c in pts]
        m = fit_distortion_model(*probes, omega=0.5)
        assert m.a == pytest.approx(truth[0], abs=1e-12)
        assert m.b == pytest.approx(truth[1], abs=1e-12)
        assert m.c == pytest.approx(truth[2], abs=1e-12)

    def test_paper_schedule_round_trip(self):
        spec = random_spec(seed=11)
        recs = run_probe_schedule(spec)
        probes = probes_from_records(recs, 0.25)
        m = fit_distortion_model(probes[0], probes[1], probes[2], 0.25)
        truth = spec.distortion_model(0.25)
        assert m.a == pytest.approx(truth.a, rel=1e-9)
        assert m.b == pytest.approx(truth.b, rel=1e-9)
        assert m.c == pytest.approx(truth.c, rel=1e-9)

    def test_collinear_probes_rejected(self):
        probes = [probe_at_steps(8.0, 8.0, 1, 1, 5.0),
                  probe_at_steps(16.0, 16.0, 1, 1, 6.0),
                  probe_at_steps(32.0, 32.0, 1, 1, 7.0)]
        with pytest.raises(DegenerateProbesError):
            fit_distortion_model(*probes, omega=0.5)

    def test_negative_slope_refused(self):
        probes = [probe_at_steps(8.0, 8.0, 1, 1, 10.0),
                  probe_at_steps(16.0, 8.0, 1, 1, 8.0),   # distortion drops with q_g
                  probe_at_steps(8.0, 16.0, 1, 1, 12.0)]
        with pytest.raises(ValidationError, match=r"geometry slope a=-0\.25 is negative"):
            fit_distortion_model(*probes, omega=0.5)
        with pytest.raises(ValidationError, match=r"color slope b=-0\.5 is negative"):
            DistortionModel(0.5, -0.5, 4.0, 0.5)

    def test_lstsq_floors_a_negative_slope(self):
        # steps 8 and 16; d_g drops with q_g, d_c = 0.1*q_g + 0.5*q_c + 2
        records = [record(g, c, 1, 1, d_g, 0.1 * qp_to_step(g) + 0.5 * qp_to_step(c) + 2.0)
                   for (g, c), d_g in zip([(22, 22), (28, 22), (22, 28)], [10.0, 8.0, 10.0])]
        with pytest.warns(UserWarning) as caught:
            m = fit_distortion_model_lstsq(records, omega=0.5)
        assert [str(w.message) for w in caught] == [
            "geometry distortion slope a_g=-0.25 from least squares is floored at 0"]
        # d_g is held at its mean, 28/3; d_c is fitted exactly
        assert m.a == pytest.approx(0.5 * 0.1, rel=1e-12)
        assert m.b == pytest.approx(0.5 * 0.5, rel=1e-12)
        assert m.c == pytest.approx(0.5 * 28 / 3 + 0.5 * 2.0, rel=1e-12)

    # the floored fit is an exact non-negative least squares with a free intercept;
    # scipy's NNLS on the centered columns is the reference
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(22, 42), st.integers(22, 42),
                              st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
                    min_size=3, max_size=8))
    def test_lstsq_floor_is_the_nonnegative_optimum(self, rows):
        records = [record(g, c, 1, 1, d_g, d_c) for g, c, d_g, d_c in rows]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fitted = [fit_distortion_model_lstsq(records, omega) for omega in (1.0, 0.0)]
        except DegenerateProbesError:
            assume(False)
        steps = np.array([[qp_to_step(g), qp_to_step(c)] for g, c, _, _ in rows])
        for m, x, y in ((fitted[0], steps[:, :1], [r[2] for r in rows]),
                        (fitted[1], steps, [r[3] for r in rows])):
            y = np.array(y)
            slopes, _ = scipy.optimize.nnls(x - x.mean(0), y - y.mean())
            best = np.sum((y - y.mean() - (x - x.mean(0)) @ slopes) ** 2)
            ours = np.array([m.a, m.b][:x.shape[1]])
            assert min(ours) >= 0
            assert np.sum((y - steps[:, :x.shape[1]] @ ours - m.c) ** 2) <= best * (1 + 1e-9) + 1e-9

    # both fits build the same [q_g, q_c, 1] rows and refuse them by one test
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(22, 42), st.integers(22, 42)),
                    min_size=3, max_size=3))
    def test_exact_and_lstsq_refuse_the_same_grid_triples(self, qps):
        planes = [0.5 * qp_to_step(g) + 0.25 * qp_to_step(c) + 4.0 for g, c in qps]
        probes = [probe(g, c, 1, 1, d) for (g, c), d in zip(qps, planes)]
        records = [record(g, c, 1, 1, d, d) for (g, c), d in zip(qps, planes)]
        refused = []
        for fit in (lambda: fit_distortion_model(*probes, omega=0.5),
                    lambda: fit_distortion_model_lstsq(records, 0.5)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fit()
            except DegenerateProbesError:
                refused.append(True)
            else:
                refused.append(False)
        assert refused[0] == refused[1]

    def test_lstsq_overdetermined(self, rng):
        # d_g = 0.1*q_g + 1 and d_c = 0.3*q_g + 1.2*q_c + 2 weigh to (0.2, 0.6, 1.5) at 0.5
        truth = (0.2, 0.6, 1.5)
        records = []
        for _ in range(12):
            g, c = rng.integers(22, 43, 2)
            q_g, q_c = qp_to_step(g), qp_to_step(c)
            records.append(record(g, c, 1, 1, 0.1 * q_g + 1.0, 0.3 * q_g + 1.2 * q_c + 2.0))
        m = fit_distortion_model_lstsq(records, omega=0.5)
        assert m.a == pytest.approx(truth[0], rel=1e-9)
        assert m.b == pytest.approx(truth[1], rel=1e-9)
        assert m.c == pytest.approx(truth[2], rel=1e-9)


class TestPipelineFit:
    # the one fit that simulate and fit use, on every noise-free codec at the omega ends
    def test_noise_free_fits_are_exact_and_b_is_zero_at_omega_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(200):
                spec = random_spec(seed)
                records = run_probe_schedule(spec)
                for omega in (0.0, 1.0):
                    dm, rm = fit_models(records, omega)
                    truth = spec.distortion_model(omega)
                    for got, want in ((dm.a, truth.a), (dm.c, truth.c),
                                      (rm.gamma_g, spec.rate.gamma_g),
                                      (rm.theta_g, spec.rate.theta_g),
                                      (rm.gamma_c, spec.rate.gamma_c),
                                      (rm.theta_c, spec.rate.theta_c)):
                        assert got == pytest.approx(want, rel=1e-9)
                    assert dm.b == (0.0 if omega == 1.0 else
                                    pytest.approx(truth.b, rel=1e-9))

    def test_noisy_geometry_exponent_beats_the_two_probe_fit(self):
        # the probes (33,25) and (34,35) sit one geometry QP apart, so an exact fit
        # through them turns rate noise of 0.02 into a median theta_g error of ~0.15
        lstsq, two_probe = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(200):
                spec = random_spec(seed, noise_rel=0.02)
                records = run_probe_schedule(spec)
                truth = spec.rate.theta_g
                lstsq.append(abs(fit_models(records, 0.5)[1].theta_g - truth))
                p = probes_from_records(records, 0.5)
                try:
                    two_probe.append(abs(fit_rate_model(p[0], p[1]).theta_g - truth))
                except NonMonotoneRateError:
                    two_probe.append(np.inf)
        assert np.median(two_probe) > 0.13
        assert np.median(lstsq) < 0.02


class TestPrediction:
    def test_point_prediction(self):
        from pcbitalloc.models import DistortionModel
        m = DistortionModel(0.5, 0.25, 4.0, 0.5)
        assert predict_distortion(m, QuantPair(8, 8)) == pytest.approx(10.0)
        assert predict_distortion(m, QuantPair(9.6, 9.6)) == pytest.approx(11.2)

    def test_constant_model(self):
        from pcbitalloc.models import DistortionModel
        m = DistortionModel(0.0, 0.0, 7.5, 0.5)
        assert predict_distortion(m, QuantPair(30, 60)) == 7.5

    def test_affine_increments(self, rng):
        from pcbitalloc.models import DistortionModel
        m = DistortionModel(0.3, 0.7, 2.0, 0.5)
        d = (1.5, 2.5)
        for _ in range(10):
            g, c = rng.uniform(8, 60, 2)
            delta = (predict_distortion(m, QuantPair(g + d[0], c + d[1]))
                     - predict_distortion(m, QuantPair(g, c)))
            assert delta == pytest.approx(0.3 * d[0] + 0.7 * d[1], rel=1e-9)

    def test_rate_prediction(self):
        m = RateModel(6400, -1, 3200, -1)
        assert predict_rate(m, QuantPair(8, 8)) == pytest.approx(1200.0)
        assert predict_rate(m, QuantPair(9.6, 9.6)) == pytest.approx(1000.0)
        # geometry and color terms in that order, so the allocator's bits hold
        assert predict_rate(m, QuantPair(8, 16)) == 6400 * 8**-1 + 3200 * 16**-1

    def test_rate_monotone_spot_values(self):
        m = RateModel(6400, -1.2, 3200, -0.8)
        totals = [predict_rate(m, QuantPair(q, 16.0)) for q in (8, 16, 32)]
        assert totals[0] > totals[1] > totals[2]

    def test_rate_model_invariants(self):
        # each refusal names its stream and the value
        for params, error, match in [
            ((100, 0.5, 100, -1), NonMonotoneRateError, "geometry rate exponent 0.5 is not"),
            ((100, -1, 100, 0.0), NonMonotoneRateError, "color rate exponent 0 is not"),
            ((-1, -1, 100, -1), ValidationError, "geometry rate gamma -1 is not positive"),
            ((100, -1, 0.0, -1), ValidationError, "color rate gamma 0 is not positive"),
        ]:
            with pytest.raises(error, match=match):
                RateModel(*params)


class TestGridTables:
    # fitted from a noisy probe schedule; a fit the models refuse is skipped
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.005, 0.02]),
           st.floats(0.0, 1.0))
    def test_cells_equal_scalar_predictions(self, seed, noise, omega):
        try:
            dm, rm = fit_models(run_probe_schedule(random_spec(seed, noise)), omega)
        except ValidationError:
            assume(False)
        assert rm.grid.shape == dm.grid.shape == (21, 21)
        for i, q_g in enumerate(step_grid()):
            for j, q_c in enumerate(step_grid()):
                q = QuantPair(q_g, q_c)
                assert rm.grid[i, j].hex() == predict_rate(rm, q).hex()
                assert dm.grid[i, j].hex() == predict_distortion(dm, q).hex()

    @pytest.mark.parametrize("build", [
        lambda: RateModel(6400.0, -1.2, 3200.0, -0.8),
        lambda: DistortionModel(0.3, 0.7, 2.0, 0.5),
    ], ids=["rate", "distortion"])
    def test_each_instance_tabulates_once(self, build, monkeypatch):
        tabulated = []
        real = models.step_grid
        monkeypatch.setattr(models, "step_grid", lambda: tabulated.append(1) or real())
        first, second = build(), build()
        assert first == second
        table = first.grid
        assert first.grid is table and len(tabulated) == 1
        # an equal model computes its own table: nothing is shared by value
        assert "grid" not in vars(second)
        assert second.grid is not table and len(tabulated) == 2
        assert np.array_equal(second.grid, table)
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


class TestProbeLog:
    def test_round_trip(self, tmp_path, rng):
        records = [
            ProbeRecord(QpPair(int(g), int(c)), float(rg), float(rc), float(dg), float(dc))
            for g, c, rg, rc, dg, dc in zip(
                rng.integers(22, 43, 8), rng.integers(22, 43, 8),
                rng.uniform(1, 900, 8), rng.uniform(1, 900, 8),
                rng.uniform(0, 30, 8), rng.uniform(0, 30, 8))
        ]
        path = tmp_path / "probes.csv"
        write_probe_log(path, records)
        assert read_probe_log(path) == records

    def test_round_trip_noisy_schedule(self, tmp_path):
        # noisy encodes carry numpy float64 distortions
        records = run_probe_schedule(random_spec(7, noise_rel=0.05))
        path = tmp_path / "probes.csv"
        write_probe_log(path, records)
        assert read_probe_log(path) == records

    def test_append(self, tmp_path):
        r1 = ProbeRecord(QpPair(33, 25), 1.0, 2.0, 3.0, 4.0)
        r2 = ProbeRecord(QpPair(34, 35), 5.0, 6.0, 7.0, 8.0)
        path = tmp_path / "probes.csv"
        write_probe_log(path, [r1])
        write_probe_log(path, [r2], append=True)
        assert read_probe_log(path) == [r1, r2]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "probes.csv"
        path.write_text("qp_g,qp_c,r_g,r_c,d_g,d_c\n33,25,1,2,3,4\n")
        with pytest.raises(ValidationError):
            read_probe_log(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "probes.csv"
        path.write_text("qp_g,qp_c,r_g_kbpmp,r_c_kbpmp,d_g,d_c\n33,25,x,2,3,4\n")
        with pytest.raises(ValidationError):
            read_probe_log(path)

    def test_omega_assembly(self):
        rec = ProbeRecord(QpPair(33, 25), 10.0, 20.0, 4.0, 8.0)
        assert rec.to_probe_point(0.25).d == pytest.approx(0.25 * 4 + 0.75 * 8)
        assert rec.to_probe_point(1.0).d == pytest.approx(4.0)


class TestModelDict:
    def test_round_trip(self):
        dm = DistortionModel(0.1, 0.25, 4.0, 0.75)
        rm = RateModel(6400.5, -1.25, 3200.0, -0.8)
        doc = model_to_dict(dm, rm)
        assert set(doc["distortion"]) == {"a", "b", "c", "omega"}
        assert model_from_dict(doc) == (dm, rm)

    def test_omega_default_and_old_sanity_key_ignored(self):
        doc = model_to_dict(DistortionModel(0.5, 0.25, 4.0, 0.5), RateModel(6400, -1, 3200, -1))
        del doc["distortion"]["omega"]
        doc["distortion"]["sanity"] = ["geometry slope a=-0.1 is negative"]
        dm, _ = model_from_dict(doc)
        assert dm == DistortionModel(0.5, 0.25, 4.0, 0.5)


class TestSchedule:
    def test_paper_schedule(self):
        assert [(p.qp_g, p.qp_c) for p in probe_schedule()] == [(33, 25), (34, 35), (24, 33)]

    def test_schedule_affinely_independent(self):
        pts = [p.steps() for p in probe_schedule()]
        mat = np.array([[p.q_g, p.q_c, 1.0] for p in pts])
        assert abs(np.linalg.det(mat)) > 1.0

    def test_preencode_ratio(self):
        assert len(probe_schedule()) / 441 * 100 == pytest.approx(0.68, abs=0.005)
