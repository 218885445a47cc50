"""The log-barrier interior-point solver on a hand-checkable instance.

With D = 0.5*Qg + 0.25*Qc + 4 and R = 6400/Qg + 3200/Qc under a 1000
kbpmp budget, stationarity forces Qg = Qc and the active constraint puts
both at 9.6, for a distortion of 11.2. At a fixed barrier weight mu the
barrier's minimizer is the root of one decreasing scalar equation in the
log-multiplier u; the demo traces its Newton and bisection iterates from
the coarsest pair, then the rounding onto the QP grid.
"""

from pcbitalloc import (
    AllocationProblem,
    DistortionModel,
    RateModel,
    barrier_objective,
    exhaustive_search,
    model_oracle,
    round_to_grid,
    solve_interior_point,
)
from pcbitalloc.allocator import MU

problem = AllocationProblem(
    dm=DistortionModel(a=0.5, b=0.25, c=4.0, omega=0.5),
    rm=RateModel(gamma_g=6400, theta_g=-1, gamma_c=3200, theta_c=-1),
    r_target=1000.0,
)
trace = []
alloc = solve_interior_point(problem, trace=trace)

# the trace opens at the U end of the bracket, where both steps are the coarsest
u, q_g, q_c, _ = trace[0]
print(f"budget {problem.r_target} kbpmp, barrier weight mu={MU}, "
      f"start u={u:.4f} at ({q_g:.4f}, {q_c:.4f})")

print("\nroot iterates (u, q_g, q_c, slack); at the root the slack is mu*e^-u:")
for u, q_g, q_c, slack in trace:
    print(f"  u={u:10.6f}  q=({q_g:10.5f}, {q_c:10.5f})  slack={slack:12.6g}")

_, grad, _ = barrier_objective(problem, alloc.continuous, MU)
print(f"barrier gradient at the root: ({grad[0]:.2e}, {grad[1]:.2e})")

print(f"\ncontinuous optimum ({alloc.continuous.q_g:.6f}, {alloc.continuous.q_c:.6f})")
print(f"predicted distortion {alloc.predicted_distortion:.6f} at rate "
      f"{alloc.predicted_rate:.4f} kbpmp (constraint active)")

# Rounding: each step goes up to the next grid step, QP (24, 24), which
# fits because the rate falls as a step grows; the bounded polish then
# spends the stranded budget, landing on the grid optimum (24, 23).
rounded = round_to_grid(problem, alloc.continuous)
print()
for label, qp in (("rounding up", rounded), ("solver allocation", alloc.qp)):
    print(f"{label}: QP ({qp.qp_g}, {qp.qp_c}), rate {problem.rate(qp.steps()):.2f} kbpmp")

esa = exhaustive_search(model_oracle(problem), problem.r_target)
print(f"exhaustive search over 441 pairs: QP ({esa.qp_g}, {esa.qp_c})")

q_esa = esa.steps()
print(f"grid optimum: distortion {problem.distortion(q_esa):.6f} at rate "
      f"{problem.rate(q_esa):.2f} kbpmp")

# A budget below the coarsest encoding is rejected rather than repaired.
try:
    solve_interior_point(AllocationProblem(problem.dm, problem.rm, 100.0))
except Exception as exc:
    print(f"\ntiny budget: {type(exc).__name__}: {exc}")
