import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pcbitalloc.allocator import (
    MAX_NEWTON_ITERS,
    MU,
    POLISH_RADIUS,
    AllocationProblem,
    GridTable,
    barrier_objective,
    exhaustive_search,
    model_oracle,
    polish_rounding,
    round_to_grid,
    solve_interior_point,
)
from pcbitalloc.errors import ConvergenceError, InfeasibleBudgetError, ValidationError
from pcbitalloc.evaluate import compute_qpe
from pcbitalloc.models import (
    DistortionModel, ProbePoint, ProbeRecord, QpPair, QuantPair, RateModel, qp_to_step,
    step_grid,
)
from pcbitalloc.simcodec import random_spec

from conftest import well_posed_instance


def worked_problem(r_target=1000.0):
    dm = DistortionModel(0.5, 0.25, 4.0, 0.5)
    rm = RateModel(6400, -1, 3200, -1)
    return AllocationProblem(dm, rm, r_target)


def least_starting_budget(dm, rm):
    """The least budget whose slack at the coarsest grid pair is positive."""
    coarsest = QpPair(42, 42).steps()
    slack = lambda budget: AllocationProblem(dm, rm, budget).slack(coarsest.q_g, coarsest.q_c)
    budget = AllocationProblem(dm, rm, 1.0).rate(coarsest)
    while slack(budget) > 0:
        budget = math.nextafter(budget, 0.0)
    while slack(budget) <= 0:
        budget = math.nextafter(budget, math.inf)
    return budget


# a budget from the coarsest pair's rate to the finest pair's, or a float
# neighbour of either end or of the least budget the solve starts at
budget_points = st.one_of(
    st.floats(0.0, 1.0),
    st.tuples(st.sampled_from(["coarsest", "start", "finest"]), st.integers(-1, 1)))


def budget_at(dm, rm, where):
    coarsest, finest = QpPair(42, 42).steps(), QpPair(22, 22).steps()
    rate = AllocationProblem(dm, rm, 1.0).rate
    if isinstance(where, float):
        return rate(coarsest) + where * (rate(finest) - rate(coarsest))
    anchor, offset = where
    budget = {"coarsest": rate(coarsest), "finest": rate(finest),
              "start": least_starting_budget(dm, rm)}[anchor]
    return math.nextafter(budget, offset * math.inf) if offset else budget


def scan_step_at_or_above(x):
    """Index of the smallest step at or above x by a scan from the finest
    step, or of the coarsest step when x is beyond the grid."""
    steps = step_grid()
    return next((i for i, q in enumerate(steps) if q >= x), len(steps) - 1)


class TestBarrierObjective:
    def test_unit_slack_reduces_to_linear_part(self):
        p = worked_problem()
        # rate(q,q) = 9600/q, so slack 1 at q = 9600/999
        q = 9600.0 / 999.0
        value, grad, hess = barrier_objective(p, QuantPair(q, q), mu=0.7)
        assert p.slack(q, q) == pytest.approx(1.0, abs=1e-9)
        assert value == pytest.approx(0.75 * q + 4.0, rel=1e-9)

    def test_slack_whose_square_underflows(self):
        # slack 1e-290: its square is 0, the rate derivatives over it are not
        p = AllocationProblem(DistortionModel(0.5, 0.25, 4.0, 0.5),
                              RateModel(1e-300, -1, 1e-300, -1), 1e-290)
        value, grad, hess = barrier_objective(p, QuantPair(80.0, 80.0), mu=MU)
        assert all(map(math.isfinite, (value, *grad, *hess[0], *hess[1])))
        assert np.linalg.eigvalsh(np.array(hess)).min() > 0

    def test_infeasible_point_rejected(self):
        p = worked_problem()
        with pytest.raises(ValidationError):
            barrier_objective(p, QuantPair(8.0, 8.0), mu=0.1)

    def test_gradient_matches_central_differences(self, rng):
        checked = 0
        while checked < 100:
            spec_seed = int(rng.integers(0, 10**6))
            spec, omega, _ = well_posed_instance(spec_seed)
            dm = spec.distortion_model(omega)
            rm = spec.rate
            qg, qc = rng.uniform(9, 75, 2)
            rate = rm.gamma_g * qg**rm.theta_g + rm.gamma_c * qc**rm.theta_c
            p = AllocationProblem(dm, rm, rate * rng.uniform(1.05, 3.0))
            mu = 10.0 ** rng.uniform(-7, -0.5)
            _, grad, _ = barrier_objective(p, QuantPair(qg, qc), mu)
            for axis, base in ((0, qg), (1, qc)):
                h = 1e-5 * base
                dg, dc = (h, 0.0) if axis == 0 else (0.0, h)
                vp, _, _ = barrier_objective(p, QuantPair(qg + dg, qc + dc), mu)
                vm, _, _ = barrier_objective(p, QuantPair(qg - dg, qc - dc), mu)
                fd = (vp - vm) / (2 * h)
                assert fd == pytest.approx(grad[axis], rel=1e-6, abs=1e-9)
            checked += 1

    def test_hessian_positive_definite(self, rng):
        for seed in range(50):
            spec, omega, r_target = well_posed_instance(seed)
            p = AllocationProblem(spec.distortion_model(omega), spec.rate, r_target)
            qg, qc = rng.uniform(60, 80, 2)  # near the coarse corner: feasible
            if p.slack(qg, qc) <= 0:
                continue
            _, _, hess = barrier_objective(p, QuantPair(qg, qc), mu=0.1)
            eigs = np.linalg.eigvalsh(np.array(hess))
            assert (eigs > 0).all()


class TestSolver:
    def test_worked_example_continuous_optimum(self):
        alloc = solve_interior_point(worked_problem())
        assert alloc.continuous.q_g == pytest.approx(9.6, abs=1e-4)
        assert alloc.continuous.q_c == pytest.approx(9.6, abs=1e-4)
        assert alloc.predicted_distortion == pytest.approx(11.2, abs=1e-4)
        assert alloc.predicted_rate == pytest.approx(1000.0, abs=1e-3)

    def test_huge_budget_clamps_to_finest_grid(self):
        alloc = solve_interior_point(worked_problem(1e7))
        assert alloc.qp == QpPair(22, 22)

    def test_infeasible_start_rejected(self):
        with pytest.raises(InfeasibleBudgetError, match="below the rate at the coarsest"):
            solve_interior_point(worked_problem(100.0))

    def test_budget_met_only_by_coarsest_grid_step(self):
        # rate 119.055 at the coarsest step 80.63, a slack far above rounding
        trace = []
        alloc = solve_interior_point(worked_problem(119.07), trace=trace)
        assert trace[0][1:3] == (qp_to_step(42), qp_to_step(42))
        assert alloc.qp == QpPair(42, 42)

    def test_budget_equal_to_the_coarsest_rate(self):
        # the slack there is 0, so that pair is the continuous optimum, and (42, 42) fits
        coarsest = QpPair(42, 42).steps()
        p = worked_problem(worked_problem().rate(coarsest))
        assert p.slack(coarsest.q_g, coarsest.q_c) == 0.0
        alloc = solve_interior_point(p)
        assert alloc.continuous == coarsest
        assert alloc.qp == QpPair(42, 42) == exhaustive_search(model_oracle(p), p.r_target)
        with pytest.raises(InfeasibleBudgetError, match="below the rate at the coarsest"):
            solve_interior_point(worked_problem(math.nextafter(p.r_target, 0.0)))

    def test_flat_rate_returns_a_pair_that_fits(self):
        # rates so flat that every step has the coarsest pair's rate, so the
        # slack is 0 there and the coarsest corner is the continuous optimum
        rm = RateModel(300.0, -1e-300, 300.0, -1e-300)
        p = AllocationProblem(DistortionModel(0.5, 0.25, 4.0, 0.5), rm, 600.0)
        assert p.rate(QuantPair(8.0, 8.0)) == p.r_target
        alloc = solve_interior_point(p)
        assert alloc.continuous == QpPair(42, 42).steps()
        assert alloc.qp == exhaustive_search(model_oracle(p), p.r_target) == QpPair(22, 22)
        assert p.rate(alloc.qp.steps()) <= p.r_target

    def test_negative_slope_model_rejected(self):
        # the model refuses itself, so no problem can be built from it
        with pytest.raises(ValidationError, match="geometry slope a=-0.1 is negative"):
            DistortionModel(-0.1, 0.25, 4.0, 0.5)

    def test_trace_holds_the_root_iterates(self):
        # (u, q_g, q_c, slack) from the U end of the bracket, where both steps
        # are the coarsest, to the returned point, whose slack is MU*e**-u
        p = worked_problem()
        trace = []
        alloc = solve_interior_point(p, trace=trace)
        assert trace[0][1:3] == (qp_to_step(42), qp_to_step(42))
        assert all(slack == p.slack(q_g, q_c) for _, q_g, q_c, slack in trace)
        u, q_g, q_c, slack = trace[-1]
        assert QuantPair(q_g, q_c) == alloc.continuous
        assert slack > 0
        assert slack == pytest.approx(MU * math.exp(-u), rel=1e-6)
        assert alloc.predicted_rate <= 1000.0

    def test_root_iterates_stay_in_the_bracket(self):
        # every u lies in [L, max(U, L)]: L puts MU*e**-u at the coarsest
        # pair's slack, and at U every axis reaches the coarsest step
        coarsest = qp_to_step(42)
        for seed in range(60):
            spec, omega, r_target = well_posed_instance(seed)
            dm, rm = spec.distortion_model(omega), spec.rate
            p = AllocationProblem(dm, rm, r_target)
            trace = []
            solve_interior_point(p, trace=trace)
            lo = math.log(MU / p.slack(coarsest, coarsest))
            up = max((1.0 - theta) * math.log(coarsest) + math.log(slope / (gamma * -theta))
                     for slope, gamma, theta in ((dm.a, rm.gamma_g, rm.theta_g),
                                                 (dm.b, rm.gamma_c, rm.theta_c)))
            assert trace[0][0] == pytest.approx(max(up, lo), rel=1e-12)
            assert all(lo <= u <= trace[0][0] for u, *_ in trace)
            assert len(trace) <= 12

    def test_complementary_slackness(self):
        for seed in range(60):
            spec, omega, r_target = well_posed_instance(seed)
            p = AllocationProblem(spec.distortion_model(omega), spec.rate, r_target)
            alloc = solve_interior_point(p)
            slack = r_target - alloc.predicted_rate
            at_grid_min = (alloc.continuous.q_g <= 8.0 and alloc.continuous.q_c <= 8.0)
            assert slack < 1e-3 * r_target or at_grid_min

    def test_objective_scaling_invariance(self, rng):
        for seed in range(40):
            spec, omega, r_target = well_posed_instance(seed)
            dm = spec.distortion_model(omega)
            p1 = AllocationProblem(dm, spec.rate, r_target)
            a1 = solve_interior_point(p1)
            k = float(rng.uniform(0.05, 20.0))
            dm2 = DistortionModel(dm.a * k, dm.b * k, dm.c * k, omega)
            a2 = solve_interior_point(AllocationProblem(dm2, spec.rate, r_target))
            assert a2.continuous.q_g == pytest.approx(a1.continuous.q_g, rel=1e-5)
            assert a2.continuous.q_c == pytest.approx(a1.continuous.q_c, rel=1e-5)
            assert a2.qp == a1.qp

    # budgets from the coarsest pair's rate to the finest pair's, with the
    # float neighbours of both ends and of the least budget the solve starts at
    @settings(max_examples=300, deadline=None)
    @given(st.floats(300.0, 20000.0), st.floats(-1.8, -0.6),
           st.floats(300.0, 20000.0), st.floats(-1.8, -0.6),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0), budget_points)
    def test_allocation_fits_the_budget(self, gamma_g, theta_g, gamma_c, theta_c,
                                        a, b, where):
        rm = RateModel(gamma_g, theta_g, gamma_c, theta_c)
        dm = DistortionModel(a, b, 4.0, 0.5)
        coarsest = QpPair(42, 42).steps()
        budget = budget_at(dm, rm, where)
        p = AllocationProblem(dm, rm, budget)
        if p.rate(coarsest) > budget:
            with pytest.raises(InfeasibleBudgetError):
                solve_interior_point(p)
            return
        alloc = solve_interior_point(p)
        assert p.rate(alloc.qp.steps()) <= budget
        if p.slack(coarsest.q_g, coarsest.q_c) <= 0:
            # the coarsest pair fits, with no slack left over
            assert alloc.qp == QpPair(42, 42)

    def test_start_one_ulp_inside_the_budget(self):
        dm = DistortionModel(0.5, 0.5, 4.0, 0.5)
        rm = RateModel(300.0, -1.8, 300.0, -1.75)
        coarsest = QpPair(42, 42).steps()
        p = AllocationProblem(dm, rm, least_starting_budget(dm, rm))
        assert p.slack(coarsest.q_g, coarsest.q_c) <= math.ulp(p.r_target)
        assert solve_interior_point(p).qp == QpPair(42, 42)

    # the Lagrangian point of Shoham & Gersho (IEEE Trans. ASSP, 1988): each
    # Q_i(lambda) = (lambda*gamma_i*|theta_i| / a_i)**(1/(1 - theta_i)),
    # clipped to the step box, minimizes a_i*Q + lambda*R_i(Q) there, or is
    # the coarsest step where a_i = 0; the rate falls as lambda grows, and
    # bisection on ln(lambda) meets the budget unless the finest such pair
    # fits it. Budgets are the instance's own, or the coarsest pair's rate
    # and its next 3 floats, where the slack there is 0 or a few ulps. One
    # slope may be zeroed. Seed 427's optimum is clipped: (88.09, 28.75)
    # unclipped, (80.63, 33.44) on the box.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1999), st.one_of(st.none(), st.integers(0, 3)),
           st.sampled_from([None, "a", "b"]))
    @example(427, None, None)
    def test_continuous_point_matches_the_lagrangian_kkt_point(self, seed, floats_above,
                                                               zero):
        spec, omega, budget = well_posed_instance(seed)
        dm, rm = spec.distortion_model(omega), spec.rate
        if zero is not None:
            dm = replace(dm, **{zero: 0.0})
        if floats_above is not None:
            budget = AllocationProblem(dm, rm, 1.0).rate(QpPair(42, 42).steps())
            for _ in range(floats_above):
                budget = math.nextafter(budget, math.inf)
        box = (qp_to_step(22), qp_to_step(42))
        terms = ((dm.a, rm.gamma_g, rm.theta_g), (dm.b, rm.gamma_c, rm.theta_c))

        def steps(ln_lam):
            return [min(max(math.exp((ln_lam + math.log(gamma * -theta / slope))
                                     / (1.0 - theta)), box[0]), box[1]) if slope > 0 else box[1]
                    for slope, gamma, theta in terms]

        def rate(ln_lam):
            return sum(gamma * q**theta for (_, gamma, theta), q in zip(terms, steps(ln_lam)))

        # below lo every Q_i with a_i > 0 is the finest step, above hi the coarsest
        ends = [(1.0 - theta) * math.log(q) + math.log(slope / (gamma * -theta))
                for slope, gamma, theta in terms if slope > 0 for q in box]
        lo, hi = min(ends) - 1.0, max(ends) + 1.0
        assert rate(hi) <= budget
        if rate(lo) <= budget:
            hi = lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rate(mid) > budget else (lo, mid)
        alloc = solve_interior_point(AllocationProblem(dm, rm, budget))
        got = (alloc.continuous.q_g, alloc.continuous.q_c)
        assert got == pytest.approx(steps(hi), rel=1e-6)

    def test_config_validation(self):
        for cap in (1000.0, True, 0, -1, "1000"):
            with pytest.raises(ValidationError, match="max_newton_iters"):
                solve_interior_point(worked_problem(), cap)
        with pytest.raises(ConvergenceError, match="within 1 iterations"):
            solve_interior_point(worked_problem(), 1)


def extreme_problems(n_specs):
    """Flat and extreme problems: each spec's rate model with a huge geometry
    scale (theta_g -1 and -5), a steep geometry exponent, and omega 1 and 0,
    at budgets 5% to 90% of the log-distance from the coarsest pair's rate to
    the finest pair's; then budgets of 1e305 and 1e-290."""
    coarsest, finest = QpPair(42, 42).steps(), QpPair(22, 22).steps()
    for seed in range(n_specs):
        spec = random_spec(seed)
        base = spec.rate
        for rm, omega in ((replace(base, gamma_g=1e300, theta_g=-1.0), 0.5),
                          (replace(base, gamma_g=1e300, theta_g=-5.0), 0.5),
                          (replace(base, gamma_g=1.0, theta_g=-50.0), 0.5),
                          (base, 1.0), (base, 0.0)):
            dm = spec.distortion_model(omega)
            rate = AllocationProblem(dm, rm, 1.0).rate
            ln_lo, ln_hi = math.log(rate(coarsest)), math.log(rate(finest))
            for frac in (0.05, 0.35, 0.65, 0.9):
                yield AllocationProblem(dm, rm, math.exp(ln_lo + frac * (ln_hi - ln_lo)))
    yield worked_problem(1e305)
    yield AllocationProblem(worked_problem().dm, RateModel(1e-300, -1, 1e-300, -1), 1e-290)
    # a color rate slope that underflows to 0 while the geometry step sits
    # at the coarsest, and a geometry rate flat to rounding
    yield AllocationProblem(
        DistortionModel(2.469958246744841e134, 1.0214159126608618e-55, 1.0, 0.5),
        RateModel(3.0560553087128416e49, -1.1667079736633647e-06,
                  8.037454712428674e-271, -1.579579135765518e-184), 3.0560398598545004e49)
    yield AllocationProblem(
        DistortionModel(1.3769504963636326e-197, 8.998049496405067e226, 1.0, 0.5),
        RateModel(1.3228301914130314e-149, -1.10477164523302e-170,
                  1.1889831845614802e-80, -0.25081497271003533), 5.070575274009826e-81)


def dense_oracle(p, n=200):
    """Least modeled distortion over the feasible points of an n x n
    geometric grid on the step box."""
    qs = np.geomspace(qp_to_step(22), qp_to_step(42), n)
    dm, rm = p.dm, p.rm
    rate = rm.gamma_g * qs[:, None] ** rm.theta_g + rm.gamma_c * qs[None, :] ** rm.theta_c
    distortion = dm.a * qs[:, None] + dm.b * qs[None, :] + dm.c
    return distortion[rate <= p.r_target].min()


def test_extreme_scales_solve_within_the_oracle():
    # the root's point is within MU of the box optimum: D(Q) - t*s <= D(Q')
    # for every feasible Q', and t*s = MU at the root
    for p in extreme_problems(100):
        alloc = solve_interior_point(p)
        assert p.rm.grid[alloc.qp.cell] <= p.r_target
        assert alloc.predicted_distortion <= dense_oracle(p) + MU


@pytest.mark.parametrize("target", [450.0, 1000.0, 1800.0])
def test_a_power_of_two_rate_scale_moves_no_allocation(target):
    # rates and budget times 2**-1010 are the same problem; there the
    # coarsest pair's slack is below 1e-300, yet positive, so the root solves it
    k = 2.0**-1010
    p = worked_problem(target)
    scaled = AllocationProblem(p.dm, RateModel(6400 * k, -1, 3200 * k, -1), target * k)
    assert 0 < scaled.slack(qp_to_step(42), qp_to_step(42)) < 1e-300
    want, got = solve_interior_point(p), solve_interior_point(scaled)
    assert got.qp == want.qp
    for field in ("q_g", "q_c"):
        assert getattr(got.continuous, field) == pytest.approx(
            getattr(want.continuous, field), rel=1e-12)
    assert got.predicted_rate / k == pytest.approx(want.predicted_rate, rel=1e-12)
    assert got.predicted_distortion == pytest.approx(want.predicted_distortion, rel=1e-12)


def reference_root(p, max_iters=MAX_NEWTON_ITERS):
    """The root's trace, with psi as a closure over a list of axes that
    builds its terms, slopes and steps as lists. Its two sums are written
    out left to right, the additions that sum() makes before Python 3.12."""
    rm = p.rm
    steps = step_grid()
    ln_finest, ln_coarsest = math.log(steps[0]), math.log(steps[-1])
    ln_mu, ln_budget = math.log(MU), math.log(p.r_target)
    axes = []
    for a, gamma, theta in ((p.dm.a, rm.gamma_g, rm.theta_g), (p.dm.b, rm.gamma_c, rm.theta_c)):
        ln_k = math.log(a) - math.log(gamma) - math.log(-theta) if a > 0 else -math.inf
        e = 1.0 - theta
        axes.append((ln_k, e, theta, math.log(gamma),
                     ln_k + e * ln_finest, ln_k + e * ln_coarsest))

    def psi(u):
        terms, slopes, qs = [ln_mu - u], [-1.0], []
        for ln_k, e, theta, ln_gamma, down, up in axes:
            if u <= down:
                x, d, q = ln_finest, 0.0, steps[0]
            elif u >= up:
                x, d, q = ln_coarsest, 0.0, steps[-1]
            else:
                x = (u - ln_k) / e
                d, q = theta / e, math.exp(x)
            terms.append(ln_gamma + theta * x)
            slopes.append(d)
            qs.append(q)
        top = max(terms)
        w = [math.exp(t - top) for t in terms]
        total = w[0] + w[1] + w[2]
        slope = w[0] * slopes[0] + w[1] * slopes[1] + w[2] * slopes[2]
        return top + math.log(total) - ln_budget, slope / total, qs

    trace = []
    lo = ln_mu - math.log(p.slack(steps[-1], steps[-1]))
    hi = max([lo] + [up for *_, up in axes if up < math.inf])
    u, step = hi, math.inf
    for _ in range(max_iters):
        value, slope, (q_g, q_c) = psi(u)
        trace.append((u, q_g, q_c, p.slack(q_g, q_c)))
        if value == 0 or abs(step) <= 2.0**-40 * max(1.0, abs(u)):
            return trace
        if value > 0:
            lo = u
        else:
            hi = u
        n = u - value / slope if slope < 0 else math.nan
        if not lo < n < hi:
            n = 0.5 * (lo + hi)
        step, u = n - u, n
    raise ConvergenceError(trace)


def root_problems():
    """well_posed_instance seeds 0-199 and 427, whose optimum is clipped, with
    each slope as drawn and zeroed, at their own budget and at the coarsest
    pair's rate and the next float above it; then the extreme problems."""
    for seed in [*range(200), 427]:
        spec, omega, budget = well_posed_instance(seed)
        dm, rm = spec.distortion_model(omega), spec.rate
        for d in (dm, replace(dm, a=0.0), replace(dm, b=0.0)):
            coarsest = AllocationProblem(d, rm, 1.0).rate(QpPair(42, 42).steps())
            for r_target in (budget, coarsest, math.nextafter(coarsest, math.inf)):
                yield AllocationProblem(d, rm, r_target)
    yield from extreme_problems(40)


def test_root_matches_the_reference_bit_for_bit():
    # the continuous point, its predictions and every root iterate equal the
    # reference's to the last bit, on every Python, with iterates clipped to
    # either end of the box and on both sides of an interior step
    coarsest = qp_to_step(42)
    seen = set()
    for p in root_problems():
        trace = []
        alloc = solve_interior_point(p, trace=trace)
        if p.slack(coarsest, coarsest) <= 0:
            assert trace == []
            continue
        want = reference_root(p)
        assert len(trace) == len(want)
        assert trace == want
        continuous = QuantPair(*want[-1][1:3])
        assert alloc.continuous == continuous
        assert alloc.predicted_rate == p.rate(continuous)
        assert alloc.predicted_distortion == p.distortion(continuous)
        seen.update(q for _, q_g, q_c, _ in want for q in (q_g, q_c)
                    if q in (qp_to_step(22), coarsest))
        seen.update("zero slope" for d in (p.dm.a, p.dm.b) if d == 0)
        seen.update("interior" for _, q_g, q_c, _ in want
                    if qp_to_step(22) < q_g < coarsest and qp_to_step(22) < q_c < coarsest)
    assert seen == {qp_to_step(22), coarsest, "zero slope", "interior"}


def test_root_stops_at_the_cap_with_the_reference_trace():
    for seed in range(20):
        spec, omega, budget = well_posed_instance(seed)
        p = AllocationProblem(spec.distortion_model(omega), spec.rate, budget)
        trace = []
        with pytest.raises(ConvergenceError, match="within 2 iterations"):
            solve_interior_point(p, 2, trace)
        with pytest.raises(ConvergenceError) as caught:
            reference_root(p, 2)
        assert trace == caught.value.args[0]


class TestRounding:
    def test_worked_example_rounds_to_qp24(self):
        p = worked_problem()
        assert round_to_grid(p, QuantPair(9.6, 9.6)) == QpPair(24, 24)

    def test_exact_grid_point_is_fixed(self):
        p = worked_problem()
        assert round_to_grid(p, QuantPair(qp_to_step(30), qp_to_step(26))) == QpPair(30, 26)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1999), st.floats(1.0, qp_to_step(42)),
           st.floats(1.0, qp_to_step(42)), st.floats(0.0, 1.0))
    # just inside the budget between two steps and on two grid steps, then
    # below the grid and on its coarsest step
    @example(0, 9.6, 9.6, 1e-15)
    @example(1, qp_to_step(30), qp_to_step(26), 1e-15)
    @example(2, 1.0, qp_to_step(42), 0.5)
    def test_rounded_up_pair_fits(self, seed, x, y, headroom):
        # every rate falls as a step grows, so rounding a pair of the step box
        # up keeps it inside the budget, and no search moves it off the
        # scan's steps
        spec, omega, _ = well_posed_instance(seed)
        p = AllocationProblem(spec.distortion_model(omega), spec.rate, 1.0)
        p = replace(p, r_target=p.rate(QuantPair(x, y)) * (1.0 + headroom))
        assume(p.slack(x, y) > 0)
        qp = round_to_grid(p, QuantPair(x, y))
        assert qp == QpPair(22 + scan_step_at_or_above(x), 22 + scan_step_at_or_above(y))
        assert p.rm.grid[qp.cell] <= p.r_target

    # rate models flat to rounding on one axis, where the root's point sits
    # an ulp or two over the budget and so does the cell above it
    @pytest.mark.parametrize("rm, a, budget", [
        (RateModel(1.3472164335477289e-42, -1.8121511286747768e-117,
                   1.5192871409517064e-57, -0.21871297719453206), 1.0, 1.3472164335477295e-42),
        (RateModel(2.1202432431338897e+228, -1.844360880432741,
                   7.232048904044022e+214, -2.0274294876633516), 0.0, 6.457563491140899e+224),
        (RateModel(2.0141647498818336e+168, -5.457410436294915e-149,
                   5.173775816215044e+158, -3.9120830925127663), 1.0, 2.014164749881893e+168),
    ], ids=["tiny-flat-geometry", "no-geometry-slope", "huge-flat-geometry"])
    def test_overshooting_point_takes_the_grid_pick(self, rm, a, budget):
        p = AllocationProblem(DistortionModel(a, 1.0, 1.0, 0.5), rm, budget)
        alloc = solve_interior_point(p)
        q = alloc.continuous
        above = (scan_step_at_or_above(q.q_g), scan_step_at_or_above(q.q_c))
        assert rm.grid[above] > budget
        best = exhaustive_search(model_oracle(p), budget)
        assert round_to_grid(p, q) == alloc.qp == best
        assert rm.grid[best.cell] <= budget

    def test_grid_exhaustion_raises(self):
        coarsest = worked_problem().rate(QpPair(42, 42).steps())
        # the coarsest pair fits a budget of exactly its rate, and nothing less
        assert round_to_grid(worked_problem(coarsest), QuantPair(9.6, 9.6)) == QpPair(42, 42)
        for budget in (100.0, math.nextafter(coarsest, 0)):
            with pytest.raises(InfeasibleBudgetError, match="coarsest grid steps"):
                round_to_grid(worked_problem(budget), QuantPair(80.0, 80.0))

    def test_out_of_range_continuous_is_clamped(self):
        p = worked_problem(1e7)
        assert round_to_grid(p, QuantPair(0.001, 500.0)) == QpPair(22, 42)

    def test_polish_spends_stranded_budget(self):
        p = worked_problem()
        assert polish_rounding(p, QpPair(24, 24)) == QpPair(24, 23)

    def test_solver_qp_matches_exhaustive_on_worked_example(self):
        p = worked_problem()
        alloc = solve_interior_point(p)
        esa = exhaustive_search(model_oracle(p), 1000.0)
        assert alloc.qp == esa == QpPair(24, 23)

    # the step pairs whose midpoint is an exact floating-point tie, which
    # rounds up to the larger step as every point between two steps does
    @pytest.mark.parametrize("qp_lo", [23, 24, 26, 27, 32, 33, 38, 39])
    def test_tied_midpoint_rounds_to_larger_step(self, qp_lo):
        lo, hi = qp_to_step(qp_lo), qp_to_step(qp_lo + 1)
        mid = (lo + hi) / 2
        assert abs(lo - mid) == abs(hi - mid)
        qp = round_to_grid(worked_problem(1e7), QuantPair(mid, mid))
        assert qp == QpPair(qp_lo + 1, qp_lo + 1)

    # every step and midpoint with both float neighbours, and values below
    # and far above the grid; every cell fits the budget
    def test_bisection_matches_scan_on_grid_edges(self):
        steps = step_grid()
        xs = list(steps) + [(lo + hi) / 2 for lo, hi in zip(steps, steps[1:])]
        xs += [math.nextafter(x, to) for x in list(xs) for to in (0.0, math.inf)]
        xs += [5e-324, 1e-300, 0.5, 1.0, 7.99, 80.64, 100.0, 1e17, 1e300,
               sys.float_info.max]
        p = worked_problem(1e7)
        for x in xs:
            i = scan_step_at_or_above(x)
            assert round_to_grid(p, QuantPair(x, x)) == QpPair(22 + i, 22 + i), x

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, exclude_min=True, allow_infinity=False), st.floats(7.0, 90.0))
    def test_bisection_matches_scan(self, x, y):
        qp = round_to_grid(worked_problem(1e7), QuantPair(x, y))
        assert qp == QpPair(22 + scan_step_at_or_above(x), 22 + scan_step_at_or_above(y))

    # seed 0 at 0.3x its budget: no cell of the (22, 22) window fits
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1999), st.integers(22, 42), st.integers(22, 42),
           st.floats(0.3, 2.0))
    @example(0, 22, 22, 0.3)
    # windows clipped at each corner and along each edge of the grid, each
    # with cells in and out of the budget and a pick that moves the pair
    @example(5, 22, 22, 2.0)
    @example(3, 22, 42, 1.3)
    @example(2, 42, 22, 0.5)
    @example(1, 42, 42, 0.7)
    @example(3, 23, 30, 2.0)
    @example(1, 30, 41, 2.0)
    @example(2, 41, 23, 0.5)
    def test_polish_matches_window_loop(self, seed, qp_g, qp_c, scale):
        spec, omega, r_target = well_posed_instance(seed)
        p = AllocationProblem(spec.distortion_model(omega), spec.rate, r_target * scale)
        qp = QpPair(qp_g, qp_c)
        assert polish_rounding(p, qp) == window_key_search(p, qp)
        q = qp.steps()
        table, cell = model_oracle(p), (qp_g - 22, qp_c - 22)
        assert (table.rate[cell], table.distortion[cell]) == (p.rate(q), p.distortion(q))


def window_key_search(p, qp, radius=POLISH_RADIUS):
    """The reference polish loop: the admissible cell of least
    (distortion, rate, qp_g, qp_c) within radius QPs of qp on each axis,
    or qp itself when no window cell fits."""
    best = None
    for qp_g in range(max(22, qp.qp_g - radius), min(43, qp.qp_g + radius + 1)):
        for qp_c in range(max(22, qp.qp_c - radius), min(43, qp.qp_c + radius + 1)):
            q = QpPair(qp_g, qp_c).steps()
            rate = p.rate(q)
            if rate <= p.r_target:
                key = (p.distortion(q), rate, qp_g, qp_c)
                if best is None or key < best:
                    best = key
    return qp if best is None else QpPair(best[2], best[3])


def tuple_key_search(table, r_target):
    """The reference double loop: the admissible cell of least
    (distortion, rate, qp_g, qp_c), or None when no cell fits."""
    best = None
    for qp_g in range(22, 43):
        for qp_c in range(22, 43):
            cell = (qp_g - 22, qp_c - 22)
            rate, dist = table.rate[cell], table.distortion[cell]
            if rate <= r_target:
                key = (dist, rate, qp_g, qp_c)
                if best is None or key < best:
                    best = key
    return None if best is None else QpPair(best[2], best[3])


class TestExhaustiveSearch:
    def test_infeasible_budget_raises(self):
        p = worked_problem()
        with pytest.raises(InfeasibleBudgetError):
            exhaustive_search(model_oracle(p), 50.0)

    def test_tie_breaks_on_rate_then_qps(self):
        # constant distortion, rate decreasing in qp sum: unique lowest rate
        qps = np.arange(22, 43.0)
        rates = 443.0 - qps[:, None] - qps[None, :]
        table = GridTable(rates, np.ones((21, 21)))
        assert exhaustive_search(table, 400.0) == QpPair(42, 42)
        # fully constant table: lowest qp_g then qp_c wins
        flat = GridTable(np.full((21, 21), 100.0), np.ones((21, 21)))
        assert exhaustive_search(flat, 400.0) == QpPair(22, 22)

    def test_matches_naive_double_loop(self, rng):
        for seed in range(10):
            spec, omega, r_target = well_posed_instance(seed)
            p = AllocationProblem(spec.distortion_model(omega), spec.rate, r_target)
            table = model_oracle(p)
            assert exhaustive_search(table, r_target) == tuple_key_search(table, r_target)

    # few distinct values, so ties on distortion and on rate are frequent;
    # a budget of 0.5 (or below every drawn rate) fits no cell
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 4.0]))
    def test_matches_tuple_key_loop_with_ties(self, seed, n_rates, n_distortions,
                                              r_target):
        rng = np.random.default_rng(seed)
        rates = rng.choice([4.0, 2.5, 2.0, 1.0][:n_rates], size=(21, 21))
        distortions = rng.choice([0.0, 1.0, 1.5, 3.0][:n_distortions], size=(21, 21))
        table = GridTable(rates, distortions)
        want = tuple_key_search(table, r_target)
        if want is None:
            with pytest.raises(InfeasibleBudgetError):
                exhaustive_search(table, r_target)
        else:
            assert exhaustive_search(table, r_target) == want

    def test_infinite_rates_fit_only_an_infinite_budget(self):
        rates = np.full((21, 21), math.inf)
        rates[20, 20] = 5.0
        table = GridTable(rates, np.arange(441.0).reshape(21, 21))
        for budget, want in ((4.0, None), (5.0, QpPair(42, 42)), (math.inf, QpPair(22, 22))):
            assert tuple_key_search(table, budget) == want
            if want is None:
                with pytest.raises(InfeasibleBudgetError):
                    exhaustive_search(table, budget)
            else:
                assert exhaustive_search(table, budget) == want

    def test_signed_zero_distortions_tie(self):
        # 0.0 == -0.0, so rate and then the QPs decide between them
        distortion = np.ones((21, 21))
        distortion[0, 0], distortion[0, 1], distortion[1, 0] = 0.0, -0.0, -0.0
        rates = np.full((21, 21), 2.0)
        table = GridTable(rates, distortion)
        assert exhaustive_search(table, 2.0) == tuple_key_search(table, 2.0) == QpPair(22, 22)
        rates[1, 0] = 1.0
        table = GridTable(rates, distortion)
        assert exhaustive_search(table, 2.0) == tuple_key_search(table, 2.0) == QpPair(23, 22)
        rng = np.random.default_rng(3)
        signed = np.where(rng.random((21, 21)) < 0.5, -0.0, 0.0)
        table = GridTable(rng.choice([1.0, 2.0, 3.0], size=(21, 21)), signed)
        for budget in (1.0, 2.0, 3.0):
            assert exhaustive_search(table, budget) == tuple_key_search(table, budget)

    def test_budget_equal_to_a_cell_rate_admits_it(self):
        table = model_oracle(worked_problem())
        for budget in table.rate.ravel()[::5].tolist():
            qp = exhaustive_search(table, budget)
            assert qp == tuple_key_search(table, budget)
            assert table.rate[qp.qp_g - 22, qp.qp_c - 22] <= budget

    def test_nan_budget_fits_no_cell(self):
        with pytest.raises(InfeasibleBudgetError):
            exhaustive_search(model_oracle(worked_problem()), math.nan)

    def test_table_cells_and_shape(self):
        p = worked_problem()
        table = model_oracle(p)
        q = QpPair(24, 23).steps()
        cell = (24 - 22, 23 - 22)
        assert (table.rate[cell], table.distortion[cell]) == (p.rate(q), p.distortion(q))
        with pytest.raises(ValueError):
            table.rate[0, 0] = 0.0
        with pytest.raises(ValidationError):
            GridTable(np.zeros((21, 20)), np.zeros((21, 20)))
        with pytest.raises(ValidationError):
            GridTable(np.zeros((21, 21)), np.full((21, 21), math.nan))


class TestAgreementStatistics:
    def test_qpe_small_on_random_instances(self):
        qpes = []
        for seed in range(200):
            spec, omega, r_target = well_posed_instance(seed)
            p = AllocationProblem(spec.distortion_model(omega), spec.rate, r_target)
            alloc = solve_interior_point(p)
            esa = exhaustive_search(model_oracle(p), r_target)
            qpes.append(compute_qpe(alloc.qp, esa))
        qpes = np.array(qpes)
        assert (qpes <= 2).mean() >= 0.95
        assert qpes.mean() <= 1.1


WORKED_DM = DistortionModel(0.5, 0.25, 4.0, 0.5)
WORKED_RM = RateModel(6400, -1, 3200, -1)


@pytest.mark.parametrize("build", [
    lambda: AllocationProblem(WORKED_DM, WORKED_RM, math.nan),
    lambda: AllocationProblem(WORKED_DM, WORKED_RM, math.inf),
    lambda: RateModel(math.nan, -1, 3200, -1),
    lambda: RateModel(6400, -1, 3200, -math.inf),
    lambda: DistortionModel(math.nan, 0.25, 4.0, 0.5),
    lambda: DistortionModel(0.5, 0.25, math.inf, 0.5),
    lambda: ProbePoint(QpPair(33, 25), math.nan, 1.0, 1.0),
    lambda: ProbePoint(QpPair(33, 25), 1.0, 1.0, math.inf),
    lambda: ProbeRecord(QpPair(33, 25), 1.0, 1.0, math.nan, 1.0),
    lambda: QuantPair(math.nan, 9.6),
    lambda: QuantPair(9.6, math.inf),
    lambda: barrier_objective(worked_problem(), QuantPair(20.0, 20.0), math.nan),
    lambda: barrier_objective(worked_problem(), QuantPair(20.0, 20.0), math.inf),
], ids=["budget-nan", "budget-inf", "gamma-nan", "theta-inf", "slope-nan",
        "offset-inf", "probe-rate-nan", "probe-distortion-inf", "record-distortion-nan",
        "step-nan", "step-inf", "mu-nan", "mu-inf"])
def test_non_finite_values_rejected(build):
    with pytest.raises(ValidationError, match="finite"):
        build()
