"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Timing-limited criteria assert their own wall-clock budgets.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from pcbitalloc.allocator import (
    AllocationProblem,
    barrier_objective,
    exhaustive_search,
    model_oracle,
    solve_interior_point,
)
from pcbitalloc.evaluate import compute_be, compute_cq, compute_qpe
from pcbitalloc.metrics import symmetric_distortion
from pcbitalloc.models import (
    DistortionModel,
    QuantPair,
    RateModel,
    fit_distortion_model,
    fit_rate_model,
    probes_from_records,
    qp_to_step,
)
from pcbitalloc.simcodec import (
    SyntheticCodecSpec,
    random_spec,
    run_probe_schedule,
    validate_separability,
)

from conftest import brute_symmetric, make_cloud, well_posed_instance


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_exact_model_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        spec = random_spec(seed=5000 + i)
        omega = 0.25 if i % 2 else 0.5
        probes = probes_from_records(run_probe_schedule(spec), omega)
        rm = fit_rate_model(probes[0], probes[1])
        dm = fit_distortion_model(probes[0], probes[1], probes[2], omega)
        truth = spec.distortion_model(omega)
        rel = max(
            abs(dm.a - truth.a) / abs(truth.a),
            abs(dm.b - truth.b) / abs(truth.b),
            abs(dm.c - truth.c) / abs(truth.c),
            abs(rm.gamma_g - spec.rate.gamma_g) / spec.rate.gamma_g,
            abs(rm.theta_g - spec.rate.theta_g) / abs(spec.rate.theta_g),
            abs(rm.gamma_c - spec.rate.gamma_c) / spec.rate.gamma_c,
            abs(rm.theta_c - spec.rate.theta_c) / abs(spec.rate.theta_c),
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-9 and elapsed < 5.0,
           f"100 specs, worst relative error {worst:.3e} (<=1e-9), {elapsed:.2f}s (<5s)")


def worked_problem():
    return AllocationProblem(DistortionModel(0.5, 0.25, 4.0, 0.5),
                             RateModel(6400, -1, 3200, -1), 1000.0)


def test_criterion_2_allocator_optimality():
    alloc = solve_interior_point(worked_problem())
    ok_point = (abs(alloc.continuous.q_g - 9.6) <= 1e-4
                and abs(alloc.continuous.q_c - 9.6) <= 1e-4
                and abs(alloc.predicted_distortion - 11.2) <= 1e-4)

    worst_gap = -math.inf
    qs = np.linspace(8.0, qp_to_step(42), 1000)
    for seed in range(500):
        spec, omega, r_target = well_posed_instance(seed)
        dm = spec.distortion_model(omega)
        rm = spec.rate
        problem = AllocationProblem(dm, rm, r_target)
        got = solve_interior_point(problem)
        dist = dm.a * qs[:, None] + dm.b * qs[None, :] + dm.c
        rate = rm.gamma_g * qs[:, None]**rm.theta_g + rm.gamma_c * qs[None, :]**rm.theta_c
        feasible = rate <= r_target
        best = dist[feasible].min()
        worst_gap = max(worst_gap, got.predicted_distortion - best)
    report(2, ok_point and worst_gap <= 1e-4,
           f"worked optimum ({alloc.continuous.q_g:.6f}, {alloc.continuous.q_c:.6f}), "
           f"D {alloc.predicted_distortion:.6f}; dense-grid gap {worst_gap:.3e} (<=1e-4)")


def test_criterion_3_esa_agreement():
    t0 = time.perf_counter()
    qpes = []
    for seed in range(500):
        spec, omega, r_target = well_posed_instance(seed)
        problem = AllocationProblem(spec.distortion_model(omega), spec.rate, r_target)
        alloc = solve_interior_point(problem)
        esa = exhaustive_search(model_oracle(problem), r_target)
        qpes.append(compute_qpe(alloc.qp, esa))
    qpes = np.array(qpes)
    elapsed = time.perf_counter() - t0
    frac2 = float((qpes <= 2).mean())
    avg = float(qpes.mean())
    report(3, frac2 >= 0.95 and avg <= 1.1 and elapsed < 60.0,
           f"QPE<=2 on {frac2 * 100:.1f}% (>=95%), average {avg:.3f} (<=1.1), "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_4_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    exact = True
    for _ in range(50):
        n1 = int(rng.integers(50, 2001))
        n2 = int(rng.integers(50, 2001))
        depth = int(rng.integers(6, 11))
        a = make_cloud(rng, n1, depth)
        b = make_cloud(rng, n2, depth)
        got = symmetric_distortion(a, b)
        want_g, want_c = brute_symmetric(a, b)
        exact = exact and got.d_g == want_g and got.d_c == want_c
    elapsed = time.perf_counter() - t0
    report(4, exact and elapsed < 30.0,
           f"50 cloud pairs, exact integer-accumulated match, {elapsed:.1f}s (<30s)")


def test_criterion_5_paper_arithmetic():
    be = compute_be(232.7, 240.0)
    cq = compute_cq(364.08, 53342.84)
    step22 = qp_to_step(22)
    ratio = 3 / 441 * 100
    ok = (abs(be - 3.0) <= 0.05 and abs(cq - 0.68) <= 0.01
          and step22 == 8.0 and abs(ratio - 0.68) <= 0.005)
    report(5, ok,
           f"BE(232.7,240)={be:.3f}% (3.0±0.05), CQ={cq:.3f}% (0.68±0.01), "
           f"step(22)={step22}, probe ratio {ratio:.3f}%")


def test_criterion_6_derivative_checks():
    rng = np.random.default_rng(303)
    worst = 0.0
    for n in range(100):
        spec, omega, _ = well_posed_instance(int(rng.integers(0, 10**6)))
        dm = spec.distortion_model(omega)
        rm = spec.rate
        qg, qc = rng.uniform(9, 75, 2)
        rate = rm.gamma_g * qg**rm.theta_g + rm.gamma_c * qc**rm.theta_c
        problem = AllocationProblem(dm, rm, rate * rng.uniform(1.05, 3.0))
        mu = 10.0 ** rng.uniform(-7, -0.5)
        _, grad, _ = barrier_objective(problem, QuantPair(qg, qc), mu)
        for axis, base in ((0, qg), (1, qc)):
            h = 1e-5 * base
            dg, dc = (h, 0.0) if axis == 0 else (0.0, h)
            vp, _, _ = barrier_objective(problem, QuantPair(qg + dg, qc + dc), mu)
            vm, _, _ = barrier_objective(problem, QuantPair(qg - dg, qc - dc), mu)
            fd = (vp - vm) / (2 * h)
            worst = max(worst, abs(fd - grad[axis]) / max(abs(grad[axis]), 1e-12))
    report(6, worst <= 1e-6,
           f"100 interior points, worst gradient mismatch {worst:.2e} (<=1e-6 relative)")


def test_criterion_7_separability():
    base = SyntheticCodecSpec(alpha_g=0.05, beta_g=0.3, alpha_gc=0.15, alpha_cc=0.6,
                              beta_c=2.0, rate=RateModel(5000, -1.0, 3000, -1.0), seed=42)
    grid = list(range(22, 43, 4))
    clean_rep = validate_separability(base, grid, grid)

    steps = np.array([qp_to_step(q) for q in grid])
    G, C = np.meshgrid(steps, steps, indexing="ij")
    surface = base.alpha_gc * G + base.alpha_cc * C + base.beta_c

    def interaction_fraction(m):
        grand = m.mean()
        fit = m.mean(axis=1, keepdims=True) + m.mean(axis=0, keepdims=True) - grand
        return float(((m - fit) ** 2).sum() / ((m - grand) ** 2).sum())

    eps = scipy.optimize.brentq(
        lambda e: interaction_fraction(surface + e * G * C) - 0.10, 1e-9, 10.0)
    coupled_rep = validate_separability(replace(base, coupling=eps), grid, grid)

    noisy_sccs = [validate_separability(replace(base, noise_rel=0.01, seed=s),
                                        grid, grid).scc for s in range(5)]
    ok = (clean_rep.residual_fraction < 1e-10
          and coupled_rep.residual_fraction >= 0.05
          and min(noisy_sccs) >= 0.96)
    report(7, ok,
           f"additive residual {clean_rep.residual_fraction:.2e} (<1e-10), "
           f"10%-coupling residual {coupled_rep.residual_fraction:.3f} (>=0.05), "
           f"noisy SCC min {min(noisy_sccs):.4f} (>=0.96)")


def test_criterion_8_desk_scale_statement():
    # Absolute SCC/RMSE/BE/BD-PSNR numbers from the published TMC2+HEVC runs on
    # the 8i/MVUB sequences need the real codec pipeline; criteria 1-7 stand in
    # for them at desk scale with property-based and arithmetic checks.
    report(8, True, "paper-table absolutes not reproducible without TMC2+HEVC; "
                    "substituted by criteria 1-7")
