"""Joint bit allocation by a log-barrier interior-point method.

The allocation problem minimizes the modeled distortion a*Qg + b*Qc + c
subject to the modeled total rate gamma_g*Qg**theta_g + gamma_c*Qc**theta_c
staying within the budget. Both are convex on Qg, Qc > 0 because the
models refuse theta >= 0 when they are built; they also refuse a, b < 0,
which would leave the objective unbounded toward coarse steps. The
inequality is folded into a logarithmic barrier

    F(Q; mu) = a*Qg + b*Qc + c - mu * ln(budget - R(Q))

which is minimized by damped Newton iterations while the barrier weight
mu is shrunk geometrically (mu <- eta * mu) until it falls below the
accuracy threshold. One evaluator gives F with its gradient and Hessian,
both to ``barrier_objective`` and to the Newton loop, so there is one
copy of the formula; the loop computes each trial point's slack once and
hands it to the evaluator and the trace. The continuous optimum is then
rounded onto the discrete step grid: nearest-step rounding by bisection
on the ascending steps (ties to the larger step), a deterministic
coarsening repair when the rounded pair overshoots the budget, and a
polish over a small QP window that spends stranded budget.
A budget that even the coarsest grid pair overshoots has no allocation
and raises ``InfeasibleBudgetError``; the solver checks this before its
first Newton step, so the pair it returns always fits the budget.
The repair and the polish read the cells of the fitted models' grid
tables (``RateModel.grid``, ``DistortionModel.grid``), which each model
instance tabulates once, so the targets of one omega share one table.

An exhaustive 441-pair grid search over the same QP range serves as the
reference baseline. It reads a ``GridTable``: the (rate, distortion) of
every grid cell as two 21x21 arrays, filled from a codec's grid or, from
the models' grid tables, by ``model_oracle``. The search and the polish
pick their cell the same way: sort the cells by (distortion, rate),
stably so that ties keep row-major order, keep the running minimum rate
along that order, and take the first cell where it fits the budget, found
by bisection. That cell is the admissible one of least (distortion, rate,
qp_g, qp_c). A table sorts its cells once, for all of its budgets; the
polish sorts its window.

The solver's fixed settings are module constants: a solve starts at the
coarsest grid pair, doubling both steps at most ``START_DOUBLINGS`` times
while the slack there is rounding noise; the barrier weight starts at
``MU0`` and shrinks by ``ETA`` while it is at least ``EPS``; each Newton
solve stops once the gradient norm is below ``NEWTON_TOL``; the line
search backtracks by ``BACKTRACK`` under the Armijo factor ``ARMIJO_C``,
and the polish searches ``POLISH_RADIUS`` QPs around the rounded pair.
The grid is ``qp_grid()`` with the steps ``step_grid()``. The one setting
a caller may change is the Newton iteration cap, ``MAX_NEWTON_ITERS`` by
default.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleBudgetError, ValidationError
from .models import (
    DistortionModel,
    QpPair,
    QuantPair,
    RateModel,
    predict_distortion,
    predict_rate,
    qp_grid,
    step_grid,
)

START_DOUBLINGS = 8
MU0 = 0.1
ETA = 1e-6
EPS = 1e-10
NEWTON_TOL = 1e-9
MAX_NEWTON_ITERS = 1000
ARMIJO_C = 1e-4
BACKTRACK = 0.5
POLISH_RADIUS = 2

_QPS = qp_grid()
_STEPS = step_grid()
# Newton decrement floor, relative to 1 + |objective|
_DECREMENT_TOL = 4.0 * sys.float_info.epsilon
# start slack, relative to the budget, below which it is rounding noise
_START_SLACK = math.sqrt(sys.float_info.epsilon)


def check_newton_cap(cap) -> int:
    """A Newton iteration cap: an integer of at least 1; booleans are refused."""
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValidationError(f"max_newton_iters must be a positive integer, got {cap!r}")
    return cap


@dataclass(frozen=True)
class AllocationProblem:
    """The allocation over models that check themselves, at a positive, finite budget."""

    dm: DistortionModel
    rm: RateModel
    r_target: float

    def __post_init__(self):
        if not (math.isfinite(self.r_target) and self.r_target > 0):
            raise ValidationError("rate budget must be positive and finite")

    def rate(self, q: QuantPair) -> float:
        return predict_rate(self.rm, q)

    def distortion(self, q: QuantPair) -> float:
        return predict_distortion(self.dm, q)

    def slack(self, q_g: float, q_c: float) -> float:
        rm = self.rm
        return self.r_target - rm.gamma_g * q_g**rm.theta_g - rm.gamma_c * q_c**rm.theta_c


@dataclass(frozen=True)
class Allocation:
    continuous: QuantPair
    qp: QpPair
    predicted_rate: float
    predicted_distortion: float


def _barrier(p: AllocationProblem, mu: float):
    """The barrier evaluator of one problem at one weight.

    Returns ``evaluate(q_g, q_c, s)`` giving (value, g_g, g_c, h_gg, h_gc,
    h_cc) at a point whose slack ``s`` is positive. The per-problem factors
    are taken once and associated as ``(gamma*theta)*q**(theta-1)`` and
    ``((gamma*theta)*(theta-1))*q**(theta-2)``.
    """
    a, b, c = p.dm.a, p.dm.b, p.dm.c
    rm = p.rm
    # dR/dq = k1 * q**e1 and d2R/dq2 = k2 * q**e2 for each power-law stream
    k1g, e1g, e2g = rm.gamma_g * rm.theta_g, rm.theta_g - 1.0, rm.theta_g - 2.0
    k1c, e1c, e2c = rm.gamma_c * rm.theta_c, rm.theta_c - 1.0, rm.theta_c - 2.0
    k2g, k2c = k1g * e1g, k1c * e1c
    log = math.log

    def evaluate(q_g: float, q_c: float, s: float):
        drg = k1g * q_g**e1g
        drc = k1c * q_c**e1c
        ss = s * s
        return (a * q_g + b * q_c + c - mu * log(s),
                a + mu * drg / s,
                b + mu * drc / s,
                mu * (k2g * q_g**e2g / s + drg * drg / ss),
                mu * drg * drc / ss,
                mu * (k2c * q_c**e2c / s + drc * drc / ss))

    return evaluate


def barrier_objective(p: AllocationProblem, q: QuantPair, mu: float):
    """Barrier value, gradient, and Hessian at a strictly feasible point.

    Returns (value, (g_g, g_c), ((h_gg, h_gc), (h_gc, h_cc))). The Hessian
    is positive definite at interior points of well-posed problems.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise ValidationError("mu must be positive and finite")
    s = p.slack(q.q_g, q.q_c)
    if s <= 0:
        raise ValidationError("point violates the rate budget; barrier undefined")
    value, g_g, g_c, h_gg, h_gc, h_cc = _barrier(p, mu)(q.q_g, q.q_c, s)
    return value, (g_g, g_c), ((h_gg, h_gc), (h_gc, h_cc))


def _newton_minimize(p: AllocationProblem, q_g: float, q_c: float, s: float,
                     mu: float, max_iters: int, trace) -> tuple[float, float, float]:
    """Damped Newton with feasibility-preserving backtracking line search
    from a point of slack ``s > 0``; returns the last point and its slack."""
    evaluate = _barrier(p, mu)
    # AllocationProblem.slack with its factors taken once
    r_target, rm = p.r_target, p.rm
    gamma_g, theta_g, gamma_c, theta_c = rm.gamma_g, rm.theta_g, rm.gamma_c, rm.theta_c
    value, g_g, g_c, h_gg, h_gc, h_cc = evaluate(q_g, q_c, s)
    for _ in range(max_iters):
        if math.hypot(g_g, g_c) < NEWTON_TOL:
            return q_g, q_c, s
        det = h_gg * h_cc - h_gc * h_gc
        if not math.isfinite(det) or det <= 0:
            raise ConvergenceError("barrier Hessian is not positive definite")
        d_g = -(h_cc * g_g - h_gc * g_c) / det
        d_c = -(h_gg * g_c - h_gc * g_g) / det
        descent = g_g * d_g + g_c * d_c
        # Newton decrement rule: when the predicted improvement falls below
        # float resolution of the objective, the remaining gradient is
        # cancellation noise in the slack and no representable step helps.
        if -descent * 0.5 <= _DECREMENT_TOL * (1.0 + abs(value)):
            return q_g, q_c, s
        t = 1.0
        while True:
            n_g, n_c = q_g + t * d_g, q_c + t * d_c
            if n_g > 0 and n_c > 0:
                n_s = r_target - gamma_g * n_g**theta_g - gamma_c * n_c**theta_c
                if n_s > 0:
                    trial = evaluate(n_g, n_c, n_s)
                    if trial[0] <= value + ARMIJO_C * t * descent:
                        break
            t *= BACKTRACK
            if t < 1e-18:
                raise ConvergenceError("line search collapsed to zero step")
        q_g, q_c, s = n_g, n_c, n_s
        value, g_g, g_c, h_gg, h_gc, h_cc = trial
        if trace is not None:
            trace.append((mu, q_g, q_c, s))
    raise ConvergenceError(
        f"Newton did not converge within {max_iters} iterations"
    )


def solve_interior_point(p: AllocationProblem, max_newton_iters: int = MAX_NEWTON_ITERS,
                         trace: list | None = None) -> Allocation:
    """Minimize modeled distortion under the budget and round onto the grid.

    A budget that the coarsest grid cell does not fit, by the test
    ``round_to_grid`` applies, raises ``InfeasibleBudgetError``. The outer
    loop starts at the coarsest grid pair. Where the slack there is below
    ``sqrt(machine epsilon)`` of the budget, as when the budget is within
    rounding of the pair's rate, both steps are doubled until it is not,
    at most ``START_DOUBLINGS`` times, and a slack still not positive
    raises ``ConvergenceError``. The barrier weight then shrinks from
    ``MU0`` by ``ETA`` until it drops below ``EPS``; each weight is handled
    by one damped Newton solve warm started from the previous optimum and
    capped at ``max_newton_iters`` steps.
    """
    check_newton_cap(max_newton_iters)
    if p.rm.grid[-1, -1] > p.r_target:
        raise _below_coarsest(p)
    # a start whose slack is rounding noise would stall Newton: push it outward
    q_g = q_c = _STEPS[-1]
    s = p.slack(q_g, q_c)
    for _ in range(START_DOUBLINGS):
        if s >= _START_SLACK * p.r_target:
            break
        q_g = q_c = 2.0 * q_g
        s = p.slack(q_g, q_c)
    if s <= 0:
        raise ConvergenceError(f"no interior start within {START_DOUBLINGS} doublings "
                               "of the coarsest step")
    if trace is not None:
        trace.append((MU0, q_g, q_c, s))
    mu = MU0
    while mu >= EPS:
        q_g, q_c, s = _newton_minimize(p, q_g, q_c, s, mu, max_newton_iters, trace)
        mu *= ETA
    continuous = QuantPair(q_g, q_c)
    return Allocation(
        continuous=continuous,
        qp=polish_rounding(p, round_to_grid(p, continuous)),
        predicted_rate=p.rate(continuous),
        predicted_distortion=p.distortion(continuous),
    )


def _below_coarsest(p: AllocationProblem) -> InfeasibleBudgetError:
    q = _STEPS[-1]
    return InfeasibleBudgetError(f"budget {p.r_target:.6g} kbpmp is below the rate "
                                 f"at the coarsest grid steps ({q:g}, {q:g})")


def round_to_grid(p: AllocationProblem, continuous: QuantPair) -> QpPair:
    """Map a continuous step pair onto the QP grid, repairing budget overshoot.

    Each component is snapped to the nearest step, found by bisection and
    one comparison of its two neighbours, with a tie going to the larger
    step; values beyond the grid land on its end steps. If the snapped pair
    exceeds the budget, the component whose distortion cost per unit of
    recovered rate is smaller is coarsened one QP at a time until the pair
    fits. When even the coarsest pair overshoots, ``InfeasibleBudgetError``
    is raised.
    """
    i_g, i_c = _nearest_step(continuous.q_g), _nearest_step(continuous.q_c)
    last = len(_STEPS) - 1
    rm = p.rm
    while True:
        if rm.grid[i_g, i_c] <= p.r_target:
            return QpPair(_QPS[i_g], _QPS[i_c])
        if i_g == last and i_c == last:
            raise _below_coarsest(p)
        # marginal distortion added per unit of rate saved by coarsening
        slope_g = -rm.gamma_g * rm.theta_g * _STEPS[i_g] ** (rm.theta_g - 1.0)
        slope_c = -rm.gamma_c * rm.theta_c * _STEPS[i_c] ** (rm.theta_c - 1.0)
        cost_g = p.dm.a / slope_g if i_g < last else math.inf
        cost_c = p.dm.b / slope_c if i_c < last else math.inf
        if cost_g <= cost_c:
            i_g += 1
        else:
            i_c += 1


def _nearest_step(x: float) -> int:
    """Index of the step nearest x, a tie going to the larger step. Clamping
    the bisection point to [1, last] puts x beyond the grid on its end step."""
    i = min(max(bisect_left(_STEPS, x), 1), len(_STEPS) - 1)
    return i if _STEPS[i] - x <= x - _STEPS[i - 1] else i - 1


def polish_rounding(p: AllocationProblem, qp: QpPair) -> QpPair:
    """Best admissible pair within ``POLISH_RADIUS`` QPs of a rounded pair.

    Per-component rounding can strand a few percent of the budget; this
    re-minimizes the modeled distortion over the feasible cells within
    the window, using the same pick as the exhaustive baseline.
    Returns the input pair unchanged when no window cell fits the budget.
    """
    radius = POLISH_RADIUS
    i_g, i_c = qp.cell
    g0, c0 = max(i_g - radius, 0), max(i_c - radius, 0)
    window = (slice(g0, i_g + radius + 1), slice(c0, i_c + radius + 1))
    rate = p.rm.grid[window]
    cell = _pick(_frontier(rate, p.dm.grid[window]), p.r_target)
    if cell is None:
        return qp
    row, column = divmod(cell, rate.shape[1])
    return QpPair(_QPS[g0 + row], _QPS[c0 + column])


def _frontier(rate: np.ndarray, distortion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of a table's cells in (distortion, rate) order, and
    minus the running minimum rate along that order. The sort is stable, so
    tied cells keep their row-major order."""
    rate = rate.ravel()
    order = np.lexsort((rate, distortion.ravel()))
    return order, -np.minimum.accumulate(rate[order])


def _pick(frontier, budget: float) -> int | None:
    """Flat index of the admissible cell of least (distortion, rate, row,
    column), or None when no cell fits the budget.

    That cell is the first along the frontier order whose rate fits, which
    is where the running minimum rate first fits; a NaN budget fits none.
    """
    order, ceiling = frontier
    i = int(np.searchsorted(ceiling, -budget))
    return int(order[i]) if i < len(order) else None


@dataclass(frozen=True, eq=False)
class GridTable:
    """(rate, distortion) of every QP grid cell, indexed by ``QpPair.cell``.

    Both arrays are read-only 21x21 float64. The table sorts its cells once,
    into the frontier that each ``exhaustive_search`` over it reads.
    """

    rate: np.ndarray
    distortion: np.ndarray

    def __post_init__(self):
        shape = (len(_QPS), len(_QPS))
        for name in ("rate", "distortion"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != shape:
                raise ValidationError(f"grid table {name} must have shape {shape}")
            if np.isnan(values).any():
                raise ValidationError(f"grid table {name} must not contain NaN")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "frontier", _frontier(self.rate, self.distortion))


def exhaustive_search(table: GridTable, r_target: float) -> QpPair:
    """The best admissible cell of a grid table.

    Among cells whose rate fits the budget, the lowest distortion wins;
    remaining ties fall to lower rate, then lower qp_g, then lower qp_c,
    the order of the key (distortion, rate, qp_g, qp_c).
    """
    cell = _pick(table.frontier, r_target)
    if cell is None:
        raise InfeasibleBudgetError(
            f"no grid pair fits the budget {r_target:.6g} kbpmp"
        )
    row, column = divmod(cell, len(_QPS))
    return QpPair(_QPS[row], _QPS[column])


def model_oracle(p: AllocationProblem) -> GridTable:
    """Grid table of the fitted models, for grid searches without a codec."""
    return GridTable(p.rm.grid, p.dm.grid)
