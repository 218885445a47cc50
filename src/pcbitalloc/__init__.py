"""Model-based joint bit allocation between geometry and color for
point cloud compression.

The library fits analytic rate and distortion models from three probe
encodings, solves the budgeted allocation with a log-barrier interior
point method, rounds onto the codec's QP grid, and evaluates the result
against an exhaustive grid-search baseline with the usual quality and
accuracy metrics (point-to-point distortion, PSNR, BE, QPE, CQ, BD-PSNR).

The public names below are exported lazily (PEP 562): ``import
pcbitalloc`` imports no submodule, and the first access to a name
imports the one module that defines it. So ``pcbitalloc.psnr`` loads
``evaluate`` and its imports, while only ``load_ply``, ``NnIndex`` and the
other point-cloud names load ``cloud`` and ``metrics``. A submodule is
reachable as an attribute too, as in ``pcbitalloc.models.weighted``.
"""

from importlib import import_module

# Each public name, by the submodule that defines it; the keys are also the
# submodules reachable as attributes, such as ``pcbitalloc.errors``.
_EXPORTS = {
    "allocator": (
        "Allocation", "AllocationProblem", "GridTable", "barrier_objective",
        "exhaustive_search", "model_oracle", "polish_rounding", "round_to_grid",
        "solve_interior_point",
    ),
    "cloud": ("PointCloud", "load_ply", "min_bit_depth", "save_ply"),
    "errors": (),
    "evaluate": (
        "FitQuality", "bd_psnr", "compute_be", "compute_cq", "compute_qpe",
        "fit_quality", "psnr",
    ),
    "metrics": ("DistortionPair", "NnIndex", "build_index", "symmetric_distortion"),
    "models": (
        "DistortionModel", "ProbePoint", "ProbeRecord", "QpPair", "QuantPair",
        "RateModel", "fit_distortion_model", "fit_distortion_model_lstsq",
        "fit_rate_model", "fit_rate_model_lstsq", "kbpmp", "predict_distortion",
        "predict_rate", "probes_from_records", "qp_grid", "qp_to_step",
        "read_probe_log", "step_grid", "write_probe_log",
    ),
    "pipeline": ("run_pipeline", "write_report"),
    "simcodec": (
        "SeparabilityReport", "SyntheticCodecSpec", "encode", "probe_schedule",
        "random_spec", "run_probe_schedule", "validate_separability",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
