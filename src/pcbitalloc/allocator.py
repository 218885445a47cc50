"""Joint bit allocation by a log-barrier interior-point method.

The allocation problem minimizes the modeled distortion a*Qg + b*Qc + c
subject to the modeled total rate gamma_g*Qg**theta_g + gamma_c*Qc**theta_c
staying within the budget, on the box of grid steps [step(22), step(42)].
Both are convex on Qg, Qc > 0 because the models refuse theta >= 0 when
they are built; they also refuse a, b < 0, which would leave the
objective unbounded toward coarse steps. The inequality is folded into a
logarithmic barrier at the fixed weight ``MU``, which ``barrier_objective``
gives with its gradient and Hessian:

    F(Q; mu) = a*Qg + b*Qc + c - mu * ln(budget - R(Q))

F is separable once the multiplier t = mu/s of the slack s is fixed: each
axis minimizes a_i*Q + t*R_i(Q) on the box at Q_i(t), the clipped
(a_i / (t*gamma_i*|theta_i|))**(1/(theta_i - 1)), or step(42) where a_i = 0.
F's minimizer on the box is then the root of one strictly decreasing
equation in u = ln t, psi(u) = ln(R(Q(u)) + mu*e**-u) - ln(budget) = 0, in
[L, max(U, L)]: L = ln mu - ln(budget - R(step(42), step(42))), and at U
every axis with a_i > 0 reaches step(42). This is the Lagrangian method of
Everett and of Shoham & Gersho (IEEE Trans. ASSP, 1988) applied to the
barrier's centering step. Newton's method finds the root from the U end,
bisecting the bracket where a step leaves it; psi and its slope are taken
by log-sum-exp of ln R_g, ln R_c and ln mu - u, so that no rate or
multiplier is formed, at any model scale.

A budget that even the coarsest grid pair overshoots has no allocation,
so the pair a solve returns always fits the budget. The continuous
optimum is rounded onto the discrete step grid, each step up to the
nearest grid step at or above it, which fits the budget as the continuous
pair does because every modelled rate falls as either step grows; a polish
over a small QP window then spends the budget that rounding up strands.
Both read the cells of the fitted models' grid tables (``RateModel.grid``,
``DistortionModel.grid``), which each model instance tabulates once, so the
targets of one omega share one table.

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

The solver's fixed settings are module constants: the barrier weight
``MU``, and ``POLISH_RADIUS``, the QPs the polish searches around the
rounded pair. The grid is ``qp_grid()`` with the steps ``step_grid()``.
The one setting a caller may change is the cap on the root's Newton
steps, ``MAX_NEWTON_ITERS`` by default.
"""

from __future__ import annotations

import math
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

MU = 1e-7
MAX_NEWTON_ITERS = 1000
POLISH_RADIUS = 2

_QPS = qp_grid()
_STEPS = step_grid()
_LN_FINEST, _LN_COARSEST = math.log(_STEPS[0]), math.log(_STEPS[-1])
# root step, relative to max(1, |u|), at which the root has converged
_ROOT_TOL = 2.0**-40


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


def barrier_objective(p: AllocationProblem, q: QuantPair, mu: float):
    """Barrier value, gradient, and Hessian at a strictly feasible point.

    Returns (value, (g_g, g_c), ((h_gg, h_gc), (h_gc, h_cc))). The Hessian
    is positive definite at interior points of well-posed problems. Each
    rate derivative is divided by the slack before it is squared, so a
    slack whose square underflows still gives finite terms.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise ValidationError("mu must be positive and finite")
    q_g, q_c = q.q_g, q.q_c
    s = p.slack(q_g, q_c)
    if s <= 0:
        raise ValidationError("point violates the rate budget; barrier undefined")
    dm, rm = p.dm, p.rm
    # dR/dq / s and d2R/dq2 / s for each power-law stream
    d1g = rm.gamma_g * rm.theta_g * q_g ** (rm.theta_g - 1.0) / s
    d1c = rm.gamma_c * rm.theta_c * q_c ** (rm.theta_c - 1.0) / s
    d2g = rm.gamma_g * rm.theta_g * (rm.theta_g - 1.0) * q_g ** (rm.theta_g - 2.0) / s
    d2c = rm.gamma_c * rm.theta_c * (rm.theta_c - 1.0) * q_c ** (rm.theta_c - 2.0) / s
    h_gc = mu * d1g * d1c
    return (dm.a * q_g + dm.b * q_c + dm.c - mu * math.log(s),
            (dm.a + mu * d1g, dm.b + mu * d1c),
            ((mu * (d2g + d1g * d1g), h_gc), (h_gc, mu * (d2c + d1c * d1c))))


def solve_interior_point(p: AllocationProblem, max_newton_iters: int = MAX_NEWTON_ITERS,
                         trace: list | None = None) -> Allocation:
    """Minimize modeled distortion under the budget and round onto the grid.

    A budget that the coarsest grid cell does not fit raises
    ``InfeasibleBudgetError``; where that cell's slack is 0, it is the
    continuous optimum, and the QP is the grid search's pick. Otherwise the
    optimum is the root of psi, found in at most ``max_newton_iters`` Newton
    or bisection steps, past which ``ConvergenceError`` is raised. A
    ``trace`` list receives (u, q_g, q_c, slack) at each root iterate, from
    the U end of the bracket to the returned point.
    """
    check_newton_cap(max_newton_iters)
    if p.rm.grid[-1, -1] > p.r_target:
        raise _below_coarsest(p)
    continuous = QuantPair(_STEPS[-1], _STEPS[-1])
    s = p.slack(continuous.q_g, continuous.q_c)
    if s > 0:
        continuous = QuantPair(*_barrier_root(p, s, max_newton_iters, trace))
        qp = polish_rounding(p, round_to_grid(p, continuous))
    else:
        qp = exhaustive_search(model_oracle(p), p.r_target)
    return Allocation(
        continuous=continuous,
        qp=qp,
        predicted_rate=p.rate(continuous),
        predicted_distortion=p.distortion(continuous),
    )


def _barrier_root(p: AllocationProblem, coarsest_slack: float, max_iters: int,
                  trace) -> tuple[float, float]:
    """The steps at the root of psi, given the coarsest pair's positive slack."""
    rm = p.rm
    ln_mu, ln_budget = math.log(MU), math.log(p.r_target)
    axes = []
    for a, gamma, theta in ((p.dm.a, rm.gamma_g, rm.theta_g), (p.dm.b, rm.gamma_c, rm.theta_c)):
        # ln Q_i(u) = (u - ln k_i) / (1 - theta_i) before the clip, where
        # k_i = a_i / (gamma_i*|theta_i|); it leaves the box at u <= down and
        # u >= up, both -inf where a_i = 0, so that the axis sits at step(42)
        ln_k = math.log(a) - math.log(gamma) - math.log(-theta) if a > 0 else -math.inf
        e = 1.0 - theta
        axes.append((ln_k, e, theta, math.log(gamma),
                     ln_k + e * _LN_FINEST, ln_k + e * _LN_COARSEST))

    def psi(u):
        """psi(u), its slope, and the steps Q_g(u), Q_c(u)."""
        terms, slopes, steps = [ln_mu - u], [-1.0], []
        for ln_k, e, theta, ln_gamma, down, up in axes:
            if u <= down:
                x, d, q = _LN_FINEST, 0.0, _STEPS[0]
            elif u >= up:
                x, d, q = _LN_COARSEST, 0.0, _STEPS[-1]
            else:
                x = (u - ln_k) / e
                d, q = theta / e, math.exp(x)
            terms.append(ln_gamma + theta * x)
            slopes.append(d)
            steps.append(q)
        top = max(terms)
        weights = [math.exp(t - top) for t in terms]
        total = sum(weights)
        return (top + math.log(total) - ln_budget,
                sum(w * d for w, d in zip(weights, slopes)) / total, steps)

    lo = ln_mu - math.log(coarsest_slack)
    # U = max(up) is +inf only where theta_i is so steep that R_i is 0 on the
    # whole box, wherever axis i sits; such an axis is left out of it
    hi = max([lo] + [up for *_, up in axes if up < math.inf])
    u, step = hi, math.inf
    for _ in range(max_iters):
        value, slope, (q_g, q_c) = psi(u)
        if trace is not None:
            trace.append((u, q_g, q_c, p.slack(q_g, q_c)))
        if value == 0 or abs(step) <= _ROOT_TOL * max(1.0, abs(u)):
            return q_g, q_c
        if value > 0:
            lo = u
        else:
            hi = u
        n = u - value / slope if slope < 0 else math.nan
        if not lo < n < hi:
            n = 0.5 * (lo + hi)
        step, u = n - u, n
    raise ConvergenceError(f"the barrier root did not converge within {max_iters} iterations")


def _below_coarsest(p: AllocationProblem) -> InfeasibleBudgetError:
    q = _STEPS[-1]
    return InfeasibleBudgetError(f"budget {p.r_target:.6g} kbpmp is below the rate "
                                 f"at the coarsest grid steps ({q:g}, {q:g})")


def round_to_grid(p: AllocationProblem, continuous: QuantPair) -> QpPair:
    """Map a continuous step pair onto the QP grid, rounding each step up.

    Each component goes to the smallest grid step at or above it, found by
    bisection, and a step beyond the grid to its end step. Every modelled
    rate falls as either step grows, so the rounded pair fits where the
    continuous pair does; where it does not, that pair sat a few ulps over
    the budget on a rate flat to rounding, and the grid search's pick is
    returned. When even the coarsest pair overshoots,
    ``InfeasibleBudgetError`` is raised.
    """
    last = len(_STEPS) - 1
    i_g = min(bisect_left(_STEPS, continuous.q_g), last)
    i_c = min(bisect_left(_STEPS, continuous.q_c), last)
    if p.rm.grid[i_g, i_c] <= p.r_target:
        return QpPair(_QPS[i_g], _QPS[i_c])
    if p.rm.grid[-1, -1] > p.r_target:
        raise _below_coarsest(p)
    return exhaustive_search(model_oracle(p), p.r_target)


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
