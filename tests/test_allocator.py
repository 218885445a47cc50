import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcbitalloc.allocator import (
    EPS,
    ETA,
    MU0,
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
)

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


class TestBarrierObjective:
    def test_unit_slack_reduces_to_linear_part(self):
        p = worked_problem()
        # rate(q,q) = 9600/q, so slack 1 at q = 9600/999
        q = 9600.0 / 999.0
        value, grad, hess = barrier_objective(p, QuantPair(q, q), mu=0.7)
        assert p.slack(q, q) == pytest.approx(1.0, abs=1e-9)
        assert value == pytest.approx(0.75 * q + 4.0, rel=1e-9)

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
        # rate 120 at the (80, 80) start, 119.055 at the coarsest step 80.63
        trace = []
        alloc = solve_interior_point(worked_problem(119.07), trace=trace)
        assert trace[0][1:3] == (qp_to_step(42), qp_to_step(42))
        assert alloc.qp == QpPair(42, 42)

    def test_budget_equal_to_the_coarsest_rate(self):
        # the slack there is 0, so the barrier has no interior, yet (42, 42) fits
        coarsest = QpPair(42, 42).steps()
        p = worked_problem(worked_problem().rate(coarsest))
        assert p.slack(coarsest.q_g, coarsest.q_c) == 0.0
        alloc = solve_interior_point(p)
        assert alloc.qp == QpPair(42, 42) == exhaustive_search(model_oracle(p), p.r_target)
        assert alloc.continuous == coarsest and alloc.predicted_rate == p.r_target
        with pytest.raises(InfeasibleBudgetError, match="below the rate at the coarsest"):
            solve_interior_point(worked_problem(math.nextafter(p.r_target, 0.0)))

    def test_negative_slope_model_rejected(self):
        # the model refuses itself, so no problem can be built from it
        with pytest.raises(ValidationError, match="geometry slope a=-0.1 is negative"):
            DistortionModel(-0.1, 0.25, 4.0, 0.5)

    def test_iterates_stay_strictly_feasible(self):
        trace = []
        alloc = solve_interior_point(worked_problem(), trace=trace)
        assert trace
        assert all(slack > 0 for _, _, _, slack in trace)
        assert alloc.predicted_rate <= 1000.0 + 1e-6

    def test_two_outer_iterations_with_defaults(self):
        expected = math.ceil(math.log(EPS / MU0) / math.log(ETA))
        assert expected == 2
        trace = []
        solve_interior_point(worked_problem(), trace=trace)
        mus = sorted({mu for mu, *_ in trace}, reverse=True)
        assert mus == [0.1, 0.1 * 1e-6]

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
           st.floats(0.01, 1.0), st.floats(0.01, 1.0),
           st.one_of(st.floats(0.0, 1.0),
                     st.tuples(st.sampled_from(["coarsest", "start", "finest"]),
                               st.integers(-1, 1))))
    def test_allocation_fits_the_budget(self, gamma_g, theta_g, gamma_c, theta_c,
                                        a, b, where):
        rm = RateModel(gamma_g, theta_g, gamma_c, theta_c)
        dm = DistortionModel(a, b, 4.0, 0.5)
        coarsest, finest = QpPair(42, 42).steps(), QpPair(22, 22).steps()
        rate = AllocationProblem(dm, rm, 1.0).rate
        if isinstance(where, float):
            budget = rate(coarsest) + where * (rate(finest) - rate(coarsest))
        else:
            anchor, offset = where
            budget = {"coarsest": rate(coarsest), "finest": rate(finest),
                      "start": least_starting_budget(dm, rm)}[anchor]
            budget = math.nextafter(budget, offset * math.inf) if offset else budget
        p = AllocationProblem(dm, rm, budget)
        if p.rate(coarsest) > budget:
            with pytest.raises(InfeasibleBudgetError):
                solve_interior_point(p)
            return
        start_slack = p.slack(coarsest.q_g, coarsest.q_c)
        try:
            alloc = solve_interior_point(p)
        except ConvergenceError:
            # the known stall of a start only 1-2 ulps inside the budget
            assert 0 < start_slack <= 2 * math.ulp(budget)
            return
        assert p.rate(alloc.qp.steps()) <= budget
        if start_slack <= 0:
            # the coarsest pair fits but leaves no interior to start from
            assert alloc.qp == QpPair(42, 42) and alloc.continuous == coarsest

    @pytest.mark.xfail(raises=ConvergenceError, strict=True,
                       reason="Newton stalls when the start slack is one ulp")
    def test_start_one_ulp_inside_the_budget(self):
        dm = DistortionModel(0.5, 0.5, 4.0, 0.5)
        rm = RateModel(300.0, -1.8, 300.0, -1.75)
        coarsest = QpPair(42, 42).steps()
        p = AllocationProblem(dm, rm, least_starting_budget(dm, rm))
        assert p.slack(coarsest.q_g, coarsest.q_c) <= math.ulp(p.r_target)
        assert solve_interior_point(p).qp == QpPair(42, 42)

    def test_config_validation(self):
        for cap in (1000.0, True, 0, -1, "1000"):
            with pytest.raises(ValidationError, match="max_newton_iters"):
                solve_interior_point(worked_problem(), cap)
        with pytest.raises(ConvergenceError, match="within 1 iterations"):
            solve_interior_point(worked_problem(), 1)


class TestRounding:
    def test_worked_example_rounds_to_qp24(self):
        p = worked_problem()
        assert round_to_grid(p, QuantPair(9.6, 9.6)) == QpPair(24, 24)

    def test_exact_grid_point_is_fixed(self):
        p = worked_problem()
        assert round_to_grid(p, QuantPair(qp_to_step(30), qp_to_step(26))) == QpPair(30, 26)

    def test_repair_single_coarsening_step(self):
        # budget just below the rate of the naively rounded pair (24, 24)
        rate_2424 = worked_problem().rate(QuantPair(qp_to_step(24), qp_to_step(24)))
        p = worked_problem(rate_2424 - 2.0)
        assert round_to_grid(p, QuantPair(9.6, 9.6)) == QpPair(25, 24)

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

    # the step pairs whose midpoint is an exact floating-point tie
    @pytest.mark.parametrize("qp_lo", [23, 24, 26, 27, 32, 33, 38, 39])
    def test_tied_midpoint_rounds_to_larger_step(self, qp_lo):
        lo, hi = qp_to_step(qp_lo), qp_to_step(qp_lo + 1)
        mid = (lo + hi) / 2
        assert abs(lo - mid) == abs(hi - mid)
        qp = round_to_grid(worked_problem(1e7), QuantPair(mid, mid))
        assert qp == QpPair(qp_lo + 1, qp_lo + 1)

    # seed 0 at 0.3x its budget: no cell of the (22, 22) window fits
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1999), st.integers(22, 42), st.integers(22, 42),
           st.floats(0.3, 2.0))
    @example(0, 22, 22, 0.3)
    def test_polish_matches_window_loop(self, seed, qp_g, qp_c, scale):
        spec, omega, r_target = well_posed_instance(seed)
        p = AllocationProblem(spec.distortion_model(omega), spec.rate, r_target * scale)
        qp = QpPair(qp_g, qp_c)
        assert polish_rounding(p, qp) == window_key_search(p, qp)
        q = qp.steps()
        assert model_oracle(p)(qp) == (p.rate(q), p.distortion(q))


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
            rate, dist = table(QpPair(qp_g, qp_c))
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

    def test_table_cells_and_shape(self):
        p = worked_problem()
        table = model_oracle(p)
        q = QpPair(24, 23).steps()
        assert table(QpPair(24, 23)) == (p.rate(q), p.distortion(q))
        assert table.rate[24 - 22, 23 - 22] == table(QpPair(24, 23))[0]
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
], ids=["budget-nan", "budget-inf", "gamma-nan", "theta-inf", "slope-nan",
        "offset-inf", "probe-rate-nan", "probe-distortion-inf", "record-distortion-nan"])
def test_non_finite_values_rejected(build):
    with pytest.raises(ValidationError, match="finite"):
        build()
