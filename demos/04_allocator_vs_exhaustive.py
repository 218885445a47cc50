"""Model-based allocation against the 441-encode exhaustive baseline.

Runs the full probe -> fit -> allocate pipeline on a synthetic codec for
a ladder of budgets, runs the exhaustive baseline on the same codec, and
reports the accuracy (BE), agreement (QPE), cost ratio (CQ), and BD-PSNR
numbers. Then repeats the comparison over a batch of random codecs.
"""

import collections

import numpy as np

from pcbitalloc import (
    AllocationProblem,
    compute_qpe,
    exhaustive_search,
    model_oracle,
    random_spec,
    run_pipeline,
    solve_interior_point,
)

config = {
    "codec": {
        "alpha_g": 0.6, "beta_g": 4.0, "alpha_gc": 0.4, "alpha_cc": 0.5, "beta_c": 4.0,
        "rate": {"gamma_g": 6400.0, "theta_g": -1.0, "gamma_c": 3200.0, "theta_c": -1.0},
        "noise_rel": 0.0, "coupling": 0.0, "overhead_kbpmp": 0.0, "seed": 1,
    },
    "targets": [300, 450, 700, 1000, 1400],
    "omegas": [0.25, 0.5],
    "run_exhaustive": True,
}

report = run_pipeline(config)
print("target  omega   PBA qp      ESA qp      BE%    QPE   PSNR dB")
for row in report["allocations"]:
    esa = row["esa"]
    print(f"{row['target']:6.0f}  {row['omega']:.2f}   "
          f"({row['qp_g']:2d},{row['qp_c']:2d})     ({esa['qp_g']:2d},{esa['qp_c']:2d})"
          f"     {row['be_pct']:5.2f}  {row['qpe']:3d}   {row['actual']['psnr_db']:7.2f}")

ev = report["evaluation"]
print(f"\nencode calls: PBA {ev['encode_calls']['pba']} vs ESA {ev['encode_calls']['esa']}"
      f" -> CQ {ev['cq_pct']:.2f}%")
print(f"average QPE {ev['average']['qpe']:.2f}, average BE {ev['average']['be_pct']:.2f}%")
print(f"BD-PSNR (PBA relative to ESA): "
      + ", ".join(f"omega {w}: {v:+.3f} dB" for w, v in sorted(ev["bd_psnr_db"].items())))

# Batch study: how often does the rounded allocation match the grid optimum?
rng = np.random.default_rng(99)
qpe_counts = collections.Counter()
n_instances = 300
done = 0
while done < n_instances:
    spec = random_spec(seed=rng.integers(0, 2**31))
    omega = 0.5 if done % 2 == 0 else 0.25
    rm = spec.rate
    qg_t, qc_t = rng.uniform(8.0, 80.0, 2)
    r_target = rm.gamma_g * qg_t**rm.theta_g + rm.gamma_c * qc_t**rm.theta_c
    # the solver refuses a budget below the rate of the coarsest grid cell
    if r_target < rm.grid[-1, -1]:
        continue
    problem = AllocationProblem(spec.distortion_model(omega), rm, r_target)
    alloc = solve_interior_point(problem)
    esa = exhaustive_search(model_oracle(problem), r_target)
    qpe_counts[compute_qpe(alloc.qp, esa)] += 1
    done += 1

print(f"\nQPE over {n_instances} random noise-free codecs:")
for qpe in sorted(qpe_counts):
    bar = "#" * (60 * qpe_counts[qpe] // n_instances)
    print(f"  QPE {qpe}: {qpe_counts[qpe]:4d}  {bar}")
avg = sum(q * c for q, c in qpe_counts.items()) / n_instances
within2 = sum(c for q, c in qpe_counts.items() if q <= 2) / n_instances
print(f"average QPE {avg:.3f}; within 2 QP of the baseline {within2 * 100:.1f}% of runs")
