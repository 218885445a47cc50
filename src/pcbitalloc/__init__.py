"""Model-based joint bit allocation between geometry and color for
point cloud compression.

The library fits analytic rate and distortion models from three probe
encodings, solves the budgeted allocation with a log-barrier interior
point method, rounds onto the codec's QP grid, and evaluates the result
against an exhaustive grid-search baseline with the usual quality and
accuracy metrics (point-to-point distortion, PSNR, BE, QPE, CQ, BD-PSNR).
"""

from .allocator import (
    Allocation,
    AllocationProblem,
    GridTable,
    barrier_objective,
    exhaustive_search,
    model_oracle,
    polish_rounding,
    round_to_grid,
    solve_interior_point,
)
from .cloud import PointCloud, load_ply, min_bit_depth, save_ply
from .evaluate import bd_psnr, compute_be, compute_cq, compute_qpe
from .metrics import (
    DistortionPair,
    FitQuality,
    NnIndex,
    build_index,
    fit_quality,
    psnr,
    symmetric_distortion,
)
from .models import (
    DistortionModel,
    ProbePoint,
    ProbeRecord,
    QpPair,
    QuantPair,
    RateModel,
    fit_distortion_model,
    fit_distortion_model_lstsq,
    fit_rate_model,
    fit_rate_model_lstsq,
    kbpmp,
    predict_distortion,
    predict_rate,
    probes_from_records,
    qp_grid,
    qp_to_step,
    read_probe_log,
    step_grid,
    write_probe_log,
)
from .pipeline import run_pipeline, write_report
from .simcodec import (
    ENCODE_TIME_MS,
    SeparabilityReport,
    SyntheticCodecSpec,
    encode,
    probe_schedule,
    random_spec,
    run_probe_schedule,
    validate_separability,
)

__version__ = "0.1.0"
