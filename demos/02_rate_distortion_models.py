"""Fitting the analytic rate and distortion models from probe encodings.

Three pre-encodings at the probe schedule identify the distortion plane
D = a*Qg + b*Qc + c exactly and the two rate power laws R = gamma*Q**theta
exactly. With a full grid sweep we can also score the models the way a
model-accuracy study would: SCC, RMSE, NRMSE against measured data.
"""

import numpy as np

from pcbitalloc import (
    QpPair,
    encode,
    fit_distortion_model,
    fit_quality,
    fit_rate_model,
    predict_distortion,
    predict_rate,
    probe_schedule,
    probes_from_records,
    qp_grid,
    random_spec,
    run_probe_schedule,
)

spec = random_spec(seed=7)
omega = 0.5
truth = spec.distortion_model(omega)
print("ground truth:")
print(f"  distortion a={truth.a:.5f} b={truth.b:.5f} c={truth.c:.5f}")
print(f"  rate gamma_g={spec.rate.gamma_g:.1f} theta_g={spec.rate.theta_g:.4f} "
      f"gamma_c={spec.rate.gamma_c:.1f} theta_c={spec.rate.theta_c:.4f}")

# The three probe pre-encodings.
print("\nprobe schedule:", [(p.qp_g, p.qp_c) for p in probe_schedule()])
records = run_probe_schedule(spec)
for r in records:
    print(f"  qp=({r.qp.qp_g},{r.qp.qp_c}) r_g={r.r_g:8.2f} r_c={r.r_c:8.2f} "
          f"d_g={r.d_g:7.4f} d_c={r.d_c:7.4f}")

probes = probes_from_records(records, omega)
dm = fit_distortion_model(probes[0], probes[1], probes[2], omega)
rm = fit_rate_model(probes[0], probes[1])
print("\nfitted from 3 probes:")
print(f"  distortion a={dm.a:.5f} b={dm.b:.5f} c={dm.c:.5f}")
print(f"  rate gamma_g={rm.gamma_g:.1f} theta_g={rm.theta_g:.4f} "
      f"gamma_c={rm.gamma_c:.1f} theta_c={rm.theta_c:.4f}")
print(f"  worst relative error: "
      f"{max(abs(dm.a - truth.a) / truth.a, abs(rm.theta_c - spec.rate.theta_c) / abs(spec.rate.theta_c)):.2e}")

# Score the fitted models over the whole 21x21 grid, study style.
actual_d, fitted_d, actual_r, fitted_r = [], [], [], []
for qp_g in qp_grid():
    for qp_c in qp_grid():
        res = encode(spec, QpPair(qp_g, qp_c))
        steps = QpPair(qp_g, qp_c).steps()
        actual_d.append(omega * res.d_g + (1 - omega) * res.d_c)
        fitted_d.append(predict_distortion(dm, steps))
        actual_r.append(res.r_g + res.r_c)
        fitted_r.append(predict_rate(rm, steps))

fq_d = fit_quality(actual_d, fitted_d)
fq_r = fit_quality(actual_r, fitted_r)
print("\nmodel accuracy over the full grid (noise-free codec):")
print(f"  distortion model: SCC {fq_d.scc:.4f}  RMSE {fq_d.rmse:.3e}  NRMSE {fq_d.nrmse:.3e}")
print(f"  rate model:       SCC {fq_r.scc:.4f}  RMSE {fq_r.rmse:.3e}  NRMSE {fq_r.nrmse:.3e}")

# The same exercise with measurement noise shows why SCC stays the headline number.
noisy = random_spec(seed=7, noise_rel=0.02)
noisy_records = probes_from_records(run_probe_schedule(noisy), omega)
noisy_dm = fit_distortion_model(*noisy_records, omega)
actual, fitted = [], []
for qp_g in qp_grid():
    for qp_c in qp_grid():
        res = encode(noisy, QpPair(qp_g, qp_c))
        actual.append(omega * res.d_g + (1 - omega) * res.d_c)
        fitted.append(predict_distortion(noisy_dm, QpPair(qp_g, qp_c).steps()))
fq_noisy = fit_quality(actual, fitted)
print(f"  2% noise, 3-probe fit: SCC {fq_noisy.scc:.4f}  RMSE {fq_noisy.rmse:.4f}  "
      f"NRMSE {fq_noisy.nrmse:.4f}")
