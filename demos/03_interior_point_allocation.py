"""The log-barrier interior-point solver on a hand-checkable instance.

With D = 0.5*Qg + 0.25*Qc + 4 and R = 6400/Qg + 3200/Qc under a 1000
kbpmp budget, stationarity forces Qg = Qc and the active constraint puts
both at 9.6, for a distortion of 11.2. The demo traces the two barrier
phases, the Newton iterates, and the final rounding onto the QP grid.
"""

from pcbitalloc import (
    AllocationProblem,
    DistortionModel,
    QuantPair,
    RateModel,
    barrier_objective,
    exhaustive_search,
    model_oracle,
    round_to_grid,
    solve_interior_point,
)
from pcbitalloc.allocator import EPS, ETA, MU0

problem = AllocationProblem(
    dm=DistortionModel(a=0.5, b=0.25, c=4.0, omega=0.5),
    rm=RateModel(gamma_g=6400, theta_g=-1, gamma_c=3200, theta_c=-1),
    r_target=1000.0,
)
trace = []
alloc = solve_interior_point(problem, trace=trace)

# the trace opens with the start: the coarsest grid pair, strictly inside the budget
_, q_g, q_c, _ = trace[0]
print(f"budget {problem.r_target} kbpmp, start ({q_g:.4f}, {q_c:.4f}), "
      f"mu0={MU0}, eta={ETA}, eps={EPS}")

value, grad, hess = barrier_objective(problem, QuantPair(q_g, q_c), MU0)
print(f"barrier at start: value {value:.4f}, gradient ({grad[0]:.4f}, {grad[1]:.4f})")

print("\nNewton iterates (mu, q_g, q_c, slack):")
last_mu = None
for mu, q_g, q_c, slack in trace:
    marker = "  <- new barrier phase" if mu != last_mu else ""
    print(f"  mu={mu:8.1e}  q=({q_g:10.5f}, {q_c:10.5f})  slack={slack:12.6g}{marker}")
    last_mu = mu

print(f"\ncontinuous optimum ({alloc.continuous.q_g:.6f}, {alloc.continuous.q_c:.6f})")
print(f"predicted distortion {alloc.predicted_distortion:.6f} at rate "
      f"{alloc.predicted_rate:.4f} kbpmp (constraint active)")

# Rounding: per-component nearest snaps to QP (24, 24); the bounded polish
# then spends the stranded budget, landing on the grid optimum (24, 23).
# Both pairs fit the budget.
nearest = round_to_grid(problem, alloc.continuous)
print()
for label, qp in (("nearest rounding", nearest), ("solver allocation", alloc.qp)):
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
