import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from pcbitalloc.errors import ValidationError
from pcbitalloc.evaluate import fit_quality
from pcbitalloc.models import QP_MIN, ProbeRecord, QpPair, RateModel, qp_to_step
from pcbitalloc.simcodec import (
    SeparabilityReport,
    SyntheticCodecSpec,
    encode,
    probe_schedule,
    random_spec,
    run_probe_schedule,
    spec_from_dict,
    spec_to_dict,
    validate_separability,
)

from conftest import GRID_REFUSALS, NOT_QP_IDS, NOT_QPS, with_field


def base_spec(**overrides):
    kwargs = dict(alpha_g=0.05, beta_g=0.3, alpha_gc=0.15, alpha_cc=0.6,
                  beta_c=2.0, rate=RateModel(5000, -1.0, 3000, -1.0), seed=42)
    kwargs.update(overrides)
    return SyntheticCodecSpec(**kwargs)


ALL_PAIRS = [QpPair(g, c) for g in range(22, 43) for c in range(22, 43)]

# the grid rule's refusals of a negative noise-free distortion, by field
NEGATIVE_DISTORTION = {
    "beta_g": "codec alpha_g, beta_g make the geometry distortion overflow or "
              "turn negative on the QP grid",
    "beta_c": "codec alpha_gc, alpha_cc, beta_c, coupling make the color distortion "
              "overflow or turn negative on the QP grid",
}
NEGATIVE_DISTORTION["coupling"] = NEGATIVE_DISTORTION["beta_c"]


def scalar_encode(spec, qp):
    """The reference per-pair encode: (r_g, r_c, d_g, d_c) in Python floats."""
    q_g, q_c = qp_to_step(qp.qp_g), qp_to_step(qp.qp_c)
    d_g, d_c = spec.distortions(q_g, q_c)
    r_g = spec.rate.gamma_g * q_g**spec.rate.theta_g
    r_c = spec.rate.gamma_c * q_c**spec.rate.theta_c
    if spec.noise_rel > 0:
        z = spec.noise_table[qp.qp_g - QP_MIN, qp.qp_c - QP_MIN].tolist()
        r_g *= math.exp(spec.noise_rel * z[0])
        r_c *= math.exp(spec.noise_rel * z[1])
        d_g = max(0.0, d_g * (1.0 + spec.noise_rel * z[2]))
        d_c = max(0.0, d_c * (1.0 + spec.noise_rel * z[3]))
    return r_g, r_c, d_g, d_c


def looped_separability(spec, qp_g_values, qp_c_values):
    """The separability report from one encode per QP pair."""
    qg, qc = sorted(set(qp_g_values)), sorted(set(qp_c_values))
    dc = np.array([[encode(spec, QpPair(g, c)).d_c for c in qc] for g in qg])
    grand = dc.mean()
    fit = dc.mean(axis=1, keepdims=True) + dc.mean(axis=0, keepdims=True) - grand
    ss_total = float(((dc - grand) ** 2).sum())
    ss_resid = float(((dc - fit) ** 2).sum())
    rmse = math.sqrt(ss_resid / dc.size)
    if ss_total == 0.0:
        return SeparabilityReport(0.0, 1.0, rmse, (len(qg), len(qc)))
    quality = fit_quality(dc.ravel(), fit.ravel())
    return SeparabilityReport(ss_resid / ss_total, quality.scc, rmse, (len(qg), len(qc)))


def interaction_fraction(surface):
    """Two-way variance decomposition: interaction energy over total energy."""
    grand = surface.mean()
    additive = (surface.mean(axis=1, keepdims=True)
                + surface.mean(axis=0, keepdims=True) - grand)
    return float(((surface - additive) ** 2).sum() / ((surface - grand) ** 2).sum())


class TestEncode:
    def test_clean_geometry_distortion(self):
        spec = base_spec(alpha_g=0.1, beta_g=0.2)
        res = encode(spec, QpPair(22, 22))  # q_g = 8
        assert res.d_g == pytest.approx(1.0, abs=1e-12)

    def test_clean_values_match_models(self):
        spec = base_spec()
        qp = QpPair(30, 34)
        q_g, q_c = qp_to_step(30), qp_to_step(34)
        res = encode(spec, qp)
        assert res.d_g == pytest.approx(spec.alpha_g * q_g + spec.beta_g, rel=1e-12)
        assert res.d_c == pytest.approx(
            spec.alpha_gc * q_g + spec.alpha_cc * q_c + spec.beta_c, rel=1e-12)
        assert res.r_g == pytest.approx(5000 * q_g**-1.0, rel=1e-12)
        assert res.r_c == pytest.approx(3000 * q_c**-1.0, rel=1e-12)
        assert isinstance(res, ProbeRecord) and res.qp == qp

    def test_deterministic_replay(self):
        spec = base_spec(noise_rel=0.05)
        a = encode(spec, QpPair(31, 27))
        b = encode(spec, QpPair(31, 27))
        assert a == b

    def test_noise_changes_with_qp_and_seed(self):
        spec = base_spec(noise_rel=0.05)
        r1 = encode(spec, QpPair(31, 27))
        r2 = encode(spec, QpPair(32, 27))
        r3 = encode(replace(spec, seed=43), QpPair(31, 27))
        assert r1.r_g != r2.r_g
        assert r1.r_g != r3.r_g

    def test_noisy_fields_are_python_floats(self):
        # numpy scalars would differ from noise-free records in type only
        spec = random_spec(3, noise_rel=0.005)
        for qp_g in range(22, 43):
            for qp_c in range(22, 43):
                rec = encode(spec, QpPair(qp_g, qp_c))
                for value in (rec.r_g, rec.r_c, rec.d_g, rec.d_c):
                    assert type(value) is float

    def test_one_generator_per_spec_across_the_grid(self, monkeypatch):
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: built.append(a) or real(*a))
        # random_spec draws its parameters from one generator, the spec's
        # grid its noise from a second, when the spec is built
        spec = random_spec(3, noise_rel=0.005)
        for qp in ALL_PAIRS:
            encode(spec, qp)
        assert built == [(3,), ((3, 1),)]

    def test_noise_table_is_read_only(self):
        table = base_spec(noise_rel=0.05).noise_table
        assert table.shape == (21, 21, 4)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0

    def test_grid_equals_scalar_encodes_bit_for_bit(self):
        specs = [random_spec(seed, noise, coupling) for seed in range(200)
                 for noise in (0.0, 0.005, 0.02, 1.0) for coupling in (0.0, 0.002)]
        # noise factors below 0 turn the zero geometry distortion into -0.0
        specs.append(replace(random_spec(5, 1.0), alpha_g=0.0, beta_g=0.0))
        for spec in specs:
            want = np.array([scalar_encode(spec, qp) for qp in ALL_PAIRS])
            assert spec.grid.tobytes() == want.tobytes(), spec
            assert ("noise_table" in vars(spec)) == (spec.noise_rel > 0)

    def test_grid_is_read_only(self):
        grid = base_spec(noise_rel=0.05).grid
        assert grid.shape == (21, 21, 4)
        with pytest.raises(ValueError):
            grid[0, 0, 0] = 0.0

    @pytest.mark.parametrize("field, value, message", GRID_REFUSALS,
                             ids=[field for field, *_ in GRID_REFUSALS])
    @pytest.mark.parametrize("noise_rel", [0.0, 0.02])
    def test_spec_refuses_a_grid_out_of_range(self, field, value, message, noise_rel):
        valid = base_spec(noise_rel=noise_rel)
        codec = with_field(spec_to_dict(valid), field, value)
        rate = RateModel(**codec["rate"])
        changed = {"rate": rate} if field.startswith("rate.") else {field: value}
        builds = [
            lambda: SyntheticCodecSpec(rate=rate,
                                       **{k: v for k, v in codec.items() if k != "rate"}),
            lambda: replace(valid, **changed),
            lambda: spec_from_dict(codec),
        ]
        for build in builds:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValidationError) as refused:
                    build()
            assert str(refused.value) == message
            assert [str(w.message) for w in caught] == []

    def test_refusal_names_every_stream_out_of_range(self):
        with pytest.raises(ValidationError) as refused:
            base_spec(alpha_g=2.5e306, rate=RateModel(5000, -180.0, 3000, -1.0))
        assert str(refused.value) == (
            "codec rate.gamma_g, rate.theta_g make the geometry rate underflow to 0 or "
            "overflow on the QP grid; codec alpha_g, beta_g make the geometry "
            "distortion overflow or turn negative on the QP grid")

    def test_dict_round_trip_encodes_the_same_bits(self):
        spec = random_spec(8, noise_rel=0.02)
        again = spec_from_dict(spec_to_dict(spec))
        assert [encode(again, qp) for qp in ALL_PAIRS] == [encode(spec, qp) for qp in ALL_PAIRS]

    def test_noise_free_spec_never_draws_the_table(self):
        spec = base_spec()
        for qp in ALL_PAIRS:
            encode(spec, qp)
        assert "noise_table" not in vars(spec)

    def test_noise_is_not_the_parameter_stream(self):
        # SeedSequence drops trailing zero words: (seed, 0) is the stream
        # random_spec(seed) draws the codec's parameters from
        spec = random_spec(4, noise_rel=0.01)
        params = np.random.default_rng(spec.seed).standard_normal(spec.noise_table.shape)
        assert not np.any(spec.noise_table == params)

    def test_noise_is_centered(self):
        spec = base_spec(noise_rel=0.01)
        clean = base_spec()
        ratios = []
        for qp_g in range(22, 43):
            for qp_c in range(22, 43):
                qp = QpPair(qp_g, qp_c)
                ratios.append(encode(spec, qp).r_c / encode(clean, qp).r_c)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.005)

    def test_probe_round_trip_via_fit(self):
        from pcbitalloc.models import (
            fit_distortion_model, fit_rate_model, probes_from_records)
        spec = random_spec(seed=5)
        probes = probes_from_records(run_probe_schedule(spec), 0.5)
        rm = fit_rate_model(probes[0], probes[1])
        dm = fit_distortion_model(probes[0], probes[1], probes[2], 0.5)
        truth = spec.distortion_model(0.5)
        for got, want in [(rm.gamma_g, spec.rate.gamma_g), (rm.theta_g, spec.rate.theta_g),
                          (rm.gamma_c, spec.rate.gamma_c), (rm.theta_c, spec.rate.theta_c),
                          (dm.a, truth.a), (dm.b, truth.b), (dm.c, truth.c)]:
            assert got == pytest.approx(want, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            base_spec(alpha_g=-0.1)
        with pytest.raises(ValidationError):
            base_spec(noise_rel=-1)

    # base_spec's noise-free distortions reach 0 at the ok value, at the
    # finest corner for the offsets and at the coarsest for the coupling. A
    # noisy grid clamps its distortions at 0, so the rule reads the
    # noise-free planes under it too.
    @pytest.mark.parametrize("field, ok, bad", [
        ("beta_g", -0.4, -0.41),
        ("beta_c", -6.0, -6.01),
        ("coupling", -0.0096, -0.0097),
    ])
    def test_negative_clean_distortion_names_the_field(self, field, ok, bad):
        for noise_rel in (0.0, 0.02):
            spec = base_spec(noise_rel=noise_rel, **{field: ok})
            ends = (qp_to_step(22), qp_to_step(42))
            assert min(min(spec.distortions(g, c)) for g in ends for c in ends) >= 0
            with pytest.raises(ValidationError) as refused:
                base_spec(noise_rel=noise_rel, **{field: bad})
            assert str(refused.value) == NEGATIVE_DISTORTION[field]

    def test_grid_rule_refuses_as_the_corner_rule_did(self):
        # The rule the grid rule replaced, kept as the reference: d_g is
        # affine and d_c bilinear in the steps, so their least noise-free
        # values on the grid lie at corners of its step box. Negative offsets
        # and coupling move no rate, and a noisy grid clamps its distortions
        # at 0, so the old grid check refused none of these specs.
        ends = (qp_to_step(22), qp_to_step(42))
        q_min, q_max = ends
        rng = np.random.default_rng(27)
        verdicts = []
        for seed in range(60):
            base = spec_to_dict(random_spec(seed))
            a_g, a_gc, a_cc = base["alpha_g"], base["alpha_gc"], base["alpha_cc"]
            # each field's boundary where the corner rule's verdict flips,
            # its neighbours, and draws on a log scale on both sides of it
            edges = {
                "beta_g": -(a_g * q_min),
                "beta_c": -(a_gc * q_min + a_cc * q_min),
                "coupling": -(a_gc * q_max + a_cc * q_max + base["beta_c"]) / q_max**2,
            }
            for field, edge in edges.items():
                values = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, -math.inf),
                          *(edge * 10 ** rng.uniform(-1.0, 1.0, 4))]
                for value in map(float, values):
                    for noise_rel in (0.0, 0.02, 1.0):
                        codec = dict(base, noise_rel=noise_rel, **{field: value})
                        unchecked = SimpleNamespace(**codec)
                        corners = [SyntheticCodecSpec.distortions(unchecked, g, c)
                                   for g in ends for c in ends]
                        refuse = min(min(corner) for corner in corners) < 0
                        try:
                            spec_from_dict(codec)
                            message = None
                        except ValidationError as exc:
                            message = str(exc)
                        assert message == (NEGATIVE_DISTORTION[field] if refuse else None), \
                            codec
                        verdicts.append(refuse)
        assert 0.25 < np.mean(verdicts) < 0.75

    def test_cell_indexes_the_grid_where_encode_reads(self):
        for spec in (random_spec(6), random_spec(6, 0.02, 0.002)):
            for qp in ALL_PAIRS:
                want = scalar_encode(spec, qp)
                assert spec.grid[qp.cell].tolist() == list(want)
                rec = encode(spec, qp)
                assert (rec.r_g, rec.r_c, rec.d_g, rec.d_c) == want


class TestAdditivity:
    def test_rectangle_identity_without_coupling(self):
        spec = base_spec()
        pairs = [(22, 22), (22, 38), (38, 22), (38, 38)]
        d = {p: encode(spec, QpPair(*p)).d_c for p in pairs}
        lhs = d[(22, 22)] + d[(38, 38)]
        rhs = d[(22, 38)] + d[(38, 22)]
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rectangle_identity_fails_with_coupling(self):
        spec = base_spec(coupling=0.05)
        pairs = [(22, 22), (22, 38), (38, 22), (38, 38)]
        d = {p: encode(spec, QpPair(*p)).d_c for p in pairs}
        assert d[(22, 22)] + d[(38, 38)] != pytest.approx(
            d[(22, 38)] + d[(38, 22)], rel=1e-6)


class TestSeparability:
    GRID = list(range(22, 43, 4))  # 6 values per axis

    def test_additive_noise_free(self):
        rep = validate_separability(base_spec(), self.GRID, self.GRID)
        assert rep.residual_fraction < 1e-10
        assert rep.scc == pytest.approx(1.0, abs=1e-12)
        assert rep.grid_shape == (6, 6)

    def test_ten_percent_coupling_detected(self):
        spec = base_spec()
        steps = np.array([qp_to_step(q) for q in self.GRID])
        G, C = np.meshgrid(steps, steps, indexing="ij")
        clean = spec.alpha_gc * G + spec.alpha_cc * C + spec.beta_c
        # independent calibration: coupling whose cross-term energy is 10%
        eps = scipy.optimize.brentq(
            lambda e: interaction_fraction(clean + e * G * C) - 0.10, 1e-9, 10.0)
        rep = validate_separability(replace(spec, coupling=eps), self.GRID, self.GRID)
        assert 0.05 <= rep.residual_fraction <= 0.15
        assert rep.residual_fraction == pytest.approx(0.10, abs=1e-9)

    def test_noisy_additive_scc_stays_high(self):
        for seed in range(5):
            spec = base_spec(noise_rel=0.01, seed=seed)
            rep = validate_separability(spec, self.GRID, self.GRID)
            assert rep.scc >= 0.96
            assert rep.residual_fraction < 0.04

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValidationError):
            validate_separability(base_spec(), [22, 26, 30], self.GRID)

    def test_off_grid_qp_rejected(self):
        for low, high in ((21, 42), (22, 43)):
            with pytest.raises(ValidationError, match="outside grid"):
                validate_separability(base_spec(), [low, 30, 34, high], self.GRID)

    @pytest.mark.parametrize("bad", NOT_QPS, ids=NOT_QP_IDS)
    def test_non_qp_rejected(self, bad):
        # checked before repeats fold, so 22.0 next to 22 is refused too
        for qp_g, qp_c in ((self.GRID + [bad], self.GRID), (self.GRID, [bad] + self.GRID)):
            with pytest.raises(ValidationError, match="^qp must be an integer, got "):
                validate_separability(base_spec(), qp_g, qp_c)

    def test_fractional_qps_are_not_truncated(self):
        with pytest.raises(ValidationError, match=r"^qp must be an integer, got 22\.9$"):
            validate_separability(base_spec(), [22.9, 26.5, 30.2, 34.99], self.GRID)

    def test_numpy_integers_accepted(self):
        spec = random_spec(4, 0.02)
        assert validate_separability(spec, np.array(self.GRID), np.array(self.GRID, np.int32)) \
            == validate_separability(spec, self.GRID, self.GRID)

    def test_grid_read_equals_per_pair_encodes(self):
        rng = np.random.default_rng(26)
        for seed in range(40):
            spec = random_spec(seed, (0.0, 0.005, 0.02)[seed % 3], (0.0, 0.002)[seed % 2])
            # uneven subsets of 4 to 17 QPs, given unsorted and with repeats
            qp_g, qp_c = (rng.choice(range(22, 43), int(rng.integers(4, 25))).tolist()
                          for _ in range(2))
            assert validate_separability(spec, qp_g, qp_c) == looped_separability(
                spec, qp_g, qp_c)


class TestSpecSerialization:
    def test_dict_round_trip(self):
        spec = base_spec(noise_rel=0.02, coupling=0.01, overhead_kbpmp=3.5)
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec

    def test_bad_dict_rejected(self):
        with pytest.raises(ValidationError):
            spec_from_dict({"alpha_g": 1.0})


class TestSchedule:
    def test_three_pairs(self):
        sched = probe_schedule()
        assert len(sched) == 3
        assert sched[0] == QpPair(33, 25)

    def test_run_probe_schedule_records(self):
        recs = run_probe_schedule(base_spec())
        assert [r.qp for r in recs] == list(probe_schedule())
        assert all(r.r_g > 0 and r.r_c > 0 for r in recs)
