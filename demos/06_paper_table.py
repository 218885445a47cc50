"""The paper's headline claim at desk scale: model-based allocation against
the 441-encode exhaustive search, one table row per synthetic codec setting.

Each row runs the same seeded ``random_spec`` codecs through ``run_pipeline``
with the exhaustive baseline, at every omega (0 and 1 included) and six
targets spaced geometrically from 1.5x the codec's true rate at the coarsest
grid pair to 0.9x its rate at the finest. Two rows add codec noise; the last
is noise-free but couples the color distortion to both steps, which stresses
the paper's additive color-distortion model. A run is one codec at one omega;
a run the pipeline refuses is counted, and its rows are left out of every
other column.

BE is the actual rate's error against the budget; QPE is the summed QP
distance from the exhaustive pick; BD-PSNR is each (codec, omega) curve's gap
to the baseline's, over the curves it is defined for. At omega 1 the color
step does not change the distortion, so under noise the baseline's color QP,
and with it the QPE there, follows the noise. CQ is not measured: it is
the ratio of encode calls, 3 probes against the 441-pair sweep.
"""

import numpy as np

from pcbitalloc import random_spec, run_pipeline
from pcbitalloc.errors import PcBitAllocError
from pcbitalloc.models import QP_MAX, QP_MIN, qp_to_step
from pcbitalloc.simcodec import spec_to_dict

SEEDS = range(20)
OMEGAS = (0.0, 0.25, 0.5, 0.75, 1.0)
ROWS = (("noise 0", 0.0, 0.0), ("noise 0.005", 0.005, 0.0),
        ("noise 0.02", 0.02, 0.0), ("coupling 0.002", 0.0, 0.002))


def targets(spec):
    rate = spec.rate
    total = lambda q: rate.gamma_g * q**rate.theta_g + rate.gamma_c * q**rate.theta_c
    lo, hi = 1.5 * total(qp_to_step(QP_MAX)), 0.9 * total(qp_to_step(QP_MIN))
    return [float(t) for t in np.geomspace(lo, hi, 6)]


def run(spec, omegas):
    config = {"codec": spec_to_dict(spec), "targets": targets(spec),
              "omegas": list(omegas), "run_exhaustive": True}
    try:
        return run_pipeline(config)
    except PcBitAllocError:
        return None


def table_row(label, noise, coupling):
    rows, refused, bd, calls = [], 0, [], None
    for seed in SEEDS:
        spec = random_spec(seed, noise, coupling)
        # one run covers every omega; a refused one is retried an omega at a time
        reports = [run(spec, OMEGAS)]
        if reports[0] is None:
            reports = [run(spec, [omega]) for omega in OMEGAS]
        refused += reports.count(None)
        for report in filter(None, reports):
            rows += report["allocations"]
            bd += [v for v in report["evaluation"]["bd_psnr_db"].values() if v is not None]
            calls = report["evaluation"]["encode_calls"]
    be = np.abs([r["be_pct"] for r in rows])
    qpe = np.array([r["qpe"] for r in rows])
    return (f"| {label} | {len(rows)} | {refused} | {be.mean():.2f}% "
            f"| {np.percentile(be, 95):.1f}% | {qpe.mean():.3f} | {np.mean(qpe <= 2):.1%} "
            f"| {np.mean(bd):+.3f} / {min(bd):+.3f} dB "
            f"| {calls['pba']}/{calls['esa']} = {100 * calls['pba'] / calls['esa']:.2f}% |")


print(f"{len(SEEDS)} random_spec codecs x omegas {', '.join(map(str, OMEGAS))} "
      "x 6 targets, against exhaustive search:")
print()
print("| codec | rows | runs refused | mean abs(BE) | p95 abs(BE) | mean QPE | QPE <= 2 "
      "| BD-PSNR mean / worst | CQ (encode calls) |")
print("|---|---|---|---|---|---|---|---|---|")
for setting in ROWS:
    print(table_row(*setting))
