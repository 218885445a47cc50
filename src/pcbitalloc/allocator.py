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
accuracy threshold. The continuous optimum is then rounded onto the
discrete step grid: nearest-step rounding (ties to the larger step), a
deterministic coarsening repair when the rounded pair overshoots the
budget, and a polish over a small QP window that spends stranded budget.
A budget that even the coarsest grid pair overshoots has no allocation
and raises ``InfeasibleBudgetError``; the solver checks this before its
first Newton step, so the pair it returns always fits the budget.

An exhaustive 441-pair grid search over the same QP range serves as the
reference baseline. It reads a ``GridTable``: the (rate, distortion) of
every grid cell as two 21x21 arrays, filled once per codec sweep or, as
outer sums of per-axis model terms, by ``model_oracle``. The search and
the polish pick their cell with the same masked lexicographic argmin.

The solver's fixed settings are module constants: a solve starts at the
step pair ``START`` (80, 80), or at the coarsest grid step when the budget
does not cover the rate at ``START``; the barrier weight starts at ``MU0``
and shrinks by ``ETA`` while it is at least ``EPS``; each Newton solve
stops once the gradient norm is below ``NEWTON_TOL``; the line search
backtracks by ``BACKTRACK`` under the Armijo factor ``ARMIJO_C``, and the
polish searches ``POLISH_RADIUS`` QPs around the rounded pair. The grid is
``qp_grid()`` with the steps ``step_grid()``. The one setting a caller may
change is the Newton iteration cap, ``MAX_NEWTON_ITERS`` by default.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleBudgetError, ValidationError
from .models import (
    QP_MIN,
    DistortionModel,
    QpPair,
    QuantPair,
    RateModel,
    predict_distortion,
    predict_rate,
    qp_grid,
    step_grid,
)

START = QuantPair(80.0, 80.0)
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
    is positive definite at interior points of well-posed problems.
    """
    if mu <= 0:
        raise ValidationError("mu must be positive")
    q_g, q_c = q.q_g, q.q_c
    s = p.slack(q_g, q_c)
    if s <= 0:
        raise ValidationError("point violates the rate budget; barrier undefined")
    dm, rm = p.dm, p.rm
    value = dm.a * q_g + dm.b * q_c + dm.c - mu * math.log(s)
    # dR/dq and d2R/dq2 for each power-law stream
    drg = rm.gamma_g * rm.theta_g * q_g ** (rm.theta_g - 1.0)
    drc = rm.gamma_c * rm.theta_c * q_c ** (rm.theta_c - 1.0)
    d2rg = rm.gamma_g * rm.theta_g * (rm.theta_g - 1.0) * q_g ** (rm.theta_g - 2.0)
    d2rc = rm.gamma_c * rm.theta_c * (rm.theta_c - 1.0) * q_c ** (rm.theta_c - 2.0)
    g_g = dm.a + mu * drg / s
    g_c = dm.b + mu * drc / s
    h_gg = mu * (d2rg / s + drg * drg / (s * s))
    h_cc = mu * (d2rc / s + drc * drc / (s * s))
    h_gc = mu * drg * drc / (s * s)
    return value, (g_g, g_c), ((h_gg, h_gc), (h_gc, h_cc))


def _newton_minimize(p: AllocationProblem, q_g: float, q_c: float, mu: float,
                     max_iters: int, trace) -> tuple[float, float]:
    """Damped Newton with feasibility-preserving backtracking line search."""
    value, grad, hess = barrier_objective(p, QuantPair(q_g, q_c), mu)
    for _ in range(max_iters):
        g_g, g_c = grad
        if math.hypot(g_g, g_c) < NEWTON_TOL:
            return q_g, q_c
        (h_gg, h_gc), (_, h_cc) = hess
        det = h_gg * h_cc - h_gc * h_gc
        if not math.isfinite(det) or det <= 0:
            raise ConvergenceError("barrier Hessian is not positive definite")
        d_g = -(h_cc * g_g - h_gc * g_c) / det
        d_c = -(h_gg * g_c - h_gc * g_g) / det
        descent = g_g * d_g + g_c * d_c
        # Newton decrement rule: when the predicted improvement falls below
        # float resolution of the objective, the remaining gradient is
        # cancellation noise in the slack and no representable step helps.
        if -descent * 0.5 <= 4.0 * sys.float_info.epsilon * (1.0 + abs(value)):
            return q_g, q_c
        t = 1.0
        while True:
            n_g, n_c = q_g + t * d_g, q_c + t * d_c
            if n_g > 0 and n_c > 0 and p.slack(n_g, n_c) > 0:
                n_value, n_grad, n_hess = barrier_objective(
                    p, QuantPair(n_g, n_c), mu
                )
                if n_value <= value + ARMIJO_C * t * descent:
                    break
            t *= BACKTRACK
            if t < 1e-18:
                raise ConvergenceError("line search collapsed to zero step")
        q_g, q_c, value, grad, hess = n_g, n_c, n_value, n_grad, n_hess
        if trace is not None:
            trace.append((mu, q_g, q_c, p.slack(q_g, q_c)))
    raise ConvergenceError(
        f"Newton did not converge within {max_iters} iterations"
    )


def solve_interior_point(p: AllocationProblem, max_newton_iters: int = MAX_NEWTON_ITERS,
                         trace: list | None = None) -> Allocation:
    """Minimize modeled distortion under the budget and round onto the grid.

    The outer loop starts at ``START``, or at the coarsest grid step when
    the budget does not cover the rate at ``START``, and shrinks the
    barrier weight from ``MU0`` by ``ETA`` until it drops below ``EPS``;
    each weight is handled by one damped Newton solve warm
    started from the previous optimum and capped at ``max_newton_iters``
    steps. A budget that cannot even fit the coarsest grid encoding is
    rejected rather than repaired. A budget that the coarsest pair meets
    with no positive slack left, within an ulp or so of its rate, has no
    interior to start from; the coarsest pair is then both the continuous
    point and the QP.
    """
    check_newton_cap(max_newton_iters)
    q_g, q_c = START.q_g, START.q_c
    if p.slack(q_g, q_c) <= 0:
        q_g = q_c = _STEPS[-1]
        if p.slack(q_g, q_c) <= 0:
            # no interior to start from; the coarsest pair may still fit
            # within rounding, by the test round_to_grid applies
            coarsest = QuantPair(q_g, q_c)
            if p.rate(coarsest) > p.r_target:
                raise _below_coarsest(p)
            return Allocation(coarsest, QpPair(_QPS[-1], _QPS[-1]),
                              p.rate(coarsest), p.distortion(coarsest))
    if trace is not None:
        trace.append((MU0, q_g, q_c, p.slack(q_g, q_c)))
    mu = MU0
    while mu >= EPS:
        q_g, q_c = _newton_minimize(p, q_g, q_c, mu, max_newton_iters, trace)
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

    Each component is snapped to the nearest step, scanning from the
    coarsest so that a tie goes to the larger step; values beyond the grid
    land on its end steps. If the snapped pair exceeds the budget, the
    component whose distortion cost per unit of recovered rate is smaller
    is coarsened one QP at a time until the pair fits. When even the
    coarsest pair overshoots, ``InfeasibleBudgetError`` is raised.
    """
    steps = _STEPS
    i_g, i_c = (min(reversed(range(len(steps))), key=lambda i: abs(steps[i] - x))
                for x in (continuous.q_g, continuous.q_c))
    last = len(steps) - 1
    while True:
        q = QuantPair(steps[i_g], steps[i_c])
        if p.rate(q) <= p.r_target:
            return QpPair(_QPS[i_g], _QPS[i_c])
        if i_g == last and i_c == last:
            raise _below_coarsest(p)
        # marginal distortion added per unit of rate saved by coarsening
        slope_g = -p.rm.gamma_g * p.rm.theta_g * q.q_g ** (p.rm.theta_g - 1.0)
        slope_c = -p.rm.gamma_c * p.rm.theta_c * q.q_c ** (p.rm.theta_c - 1.0)
        cost_g = p.dm.a / slope_g if i_g < last else math.inf
        cost_c = p.dm.b / slope_c if i_c < last else math.inf
        if cost_g <= cost_c:
            i_g += 1
        else:
            i_c += 1


def polish_rounding(p: AllocationProblem, qp: QpPair) -> QpPair:
    """Best admissible pair within ``POLISH_RADIUS`` QPs of a rounded pair.

    Per-component rounding can strand a few percent of the budget; this
    re-minimizes the modeled distortion over the feasible cells within
    the window, using the same tie order as the exhaustive baseline.
    Returns the input pair unchanged when no window cell fits the budget.
    """
    radius = POLISH_RADIUS
    i_g, i_c = qp.qp_g - QP_MIN, qp.qp_c - QP_MIN
    g0, c0 = max(i_g - radius, 0), max(i_c - radius, 0)
    rate, distortion = _model_cells(p, _STEPS[g0:i_g + radius + 1],
                                    _STEPS[c0:i_c + radius + 1])
    cell = _best_cell(rate, distortion, rate <= p.r_target)
    if cell is None:
        return qp
    return QpPair(_QPS[g0 + cell[0]], _QPS[c0 + cell[1]])


def _model_cells(p: AllocationProblem, steps_g, steps_c):
    """Modeled (rate, distortion) of the cells steps_g x steps_c as outer sums
    of per-axis terms. Python ``**`` (numpy's can differ in the last bit) and
    the association of ``p.rate``/``p.distortion`` keep each cell bit-exact."""
    rm, dm = p.rm, p.dm
    r_g = np.array([rm.gamma_g * q**rm.theta_g for q in steps_g])
    r_c = np.array([rm.gamma_c * q**rm.theta_c for q in steps_c])
    q_g, q_c = np.array(steps_g), np.array(steps_c)
    return (r_g[:, None] + r_c[None, :],
            (dm.a * q_g[:, None] + dm.b * q_c[None, :]) + dm.c)


def _best_cell(rate, distortion, admissible) -> tuple[int, int] | None:
    """Index of the admissible cell of least (distortion, rate, row, column),
    or None when no cell is admissible."""
    if not admissible.any():
        return None
    best = admissible.copy()
    for values in (distortion, rate):
        best &= values == values[best].min()
    # argmax finds the first remaining cell in row-major order
    return divmod(int(np.argmax(best)), rate.shape[1])


@dataclass(frozen=True, eq=False)
class GridTable:
    """(rate, distortion) of every QP grid cell, indexed [qp_g - 22, qp_c - 22].

    Both arrays are read-only 21x21 float64. A table is also an oracle:
    ``table(qp)`` returns one cell as (rate, distortion).
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

    def __call__(self, qp: QpPair) -> tuple[float, float]:
        cell = (qp.qp_g - QP_MIN, qp.qp_c - QP_MIN)
        return float(self.rate[cell]), float(self.distortion[cell])


def exhaustive_search(table: GridTable, r_target: float) -> QpPair:
    """The best admissible cell of a grid table.

    Among cells whose rate fits the budget, the lowest distortion wins;
    remaining ties fall to lower rate, then lower qp_g, then lower qp_c,
    the order of the key (distortion, rate, qp_g, qp_c).
    """
    cell = _best_cell(table.rate, table.distortion, table.rate <= r_target)
    if cell is None:
        raise InfeasibleBudgetError(
            f"no grid pair fits the budget {r_target:.6g} kbpmp"
        )
    return QpPair(_QPS[cell[0]], _QPS[cell[1]])


def model_oracle(p: AllocationProblem) -> GridTable:
    """Grid table of the fitted models, for grid searches without a codec."""
    return GridTable(*_model_cells(p, _STEPS, _STEPS))
