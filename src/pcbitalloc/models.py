"""Analytic rate and distortion models fitted from probe encodings.

Distortion is affine in the two quantization steps, D = a*Qg + b*Qc + c,
and each bitstream follows a power law in its own step, R = gamma*Q**theta
with theta < 0. Three probe encodings identify the distortion plane
exactly (3x3 linear solve); two probes identify each power law exactly
(2x2 log-linear solve). Overdetermined least-squares variants exist for
model-accuracy studies with longer probe logs.

All fitting happens in the step domain; quantization parameters are
mapped through the standard step = 2**((qp-4)/6) rule first. Bitrates
are kilobits per million points (kbpmp) throughout.

``weighted`` is the one combination of a geometry and a color distortion,
omega*d_g + (1-omega)*d_c, for probes, reports and the metric command
alike. ``predict_rate`` gives the total modeled rate. A model refuses a
negative distortion slope or a rate exponent that is not negative when it
is built, whether by a fit, from a model file or by a caller.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateProbesError, NonMonotoneRateError, ValidationError

QP_MIN = 22
QP_MAX = 42

PROBE_LOG_HEADER = ("qp_g", "qp_c", "r_g_kbpmp", "r_c_kbpmp", "d_g", "d_c")
_RATE_FIELDS = ("gamma_g", "theta_g", "gamma_c", "theta_c")


def qp_to_step(qp) -> float:
    """Quantization step for a quantization parameter: 2**((qp-4)/6)."""
    if qp < 0:
        raise ValidationError("qp must be non-negative")
    return 2.0 ** ((qp - 4) / 6.0)


def qp_grid() -> tuple[int, ...]:
    return tuple(range(QP_MIN, QP_MAX + 1))


def step_grid() -> tuple[float, ...]:
    return tuple(qp_to_step(qp) for qp in qp_grid())


def weighted(omega: float, d_g: float, d_c: float) -> float:
    """The combined distortion omega*d_g + (1-omega)*d_c."""
    if not 0.0 <= omega <= 1.0:
        raise ValidationError("omega must lie in [0, 1]")
    return omega * d_g + (1.0 - omega) * d_c


def finite_number(key: str, x, what: str = "config") -> float:
    """A JSON number as a finite float; booleans, strings and integers
    beyond the float range are refused."""
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not abs(x) <= sys.float_info.max):
        raise ValidationError(f"{what} '{key}' must hold finite numbers, got {x!r}")
    return float(x)


def _check_probe(rates, distortions) -> None:
    if not all(map(math.isfinite, (*rates, *distortions))):
        raise ValidationError("probe rates and distortions must be finite")
    if min(rates) <= 0:
        raise ValidationError("probe bitrates must be positive")
    if min(distortions) < 0:
        raise ValidationError("probe distortions must be non-negative")


def kbpmp(bits: float, n_points: int) -> float:
    """Convert a raw bit count into kilobits per million points."""
    if n_points <= 0:
        raise ValidationError("point count must be positive")
    return (bits / 1000.0) / (n_points / 1e6)


@dataclass(frozen=True)
class QuantPair:
    q_g: float
    q_c: float

    def __post_init__(self):
        if self.q_g <= 0 or self.q_c <= 0:
            raise ValidationError("quantization steps must be positive")


@dataclass(frozen=True, order=True)
class QpPair:
    qp_g: int
    qp_c: int

    def __post_init__(self):
        for qp in (self.qp_g, self.qp_c):
            if not QP_MIN <= qp <= QP_MAX:
                raise ValidationError(f"qp {qp} outside grid [{QP_MIN}, {QP_MAX}]")

    def steps(self) -> QuantPair:
        return QuantPair(qp_to_step(self.qp_g), qp_to_step(self.qp_c))


@dataclass(frozen=True)
class ProbePoint:
    """One pre-encoding observation at a QP pair, with D already combined."""

    qp: QpPair
    r_g: float
    r_c: float
    d: float

    def __post_init__(self):
        _check_probe((self.r_g, self.r_c), (self.d,))


@dataclass(frozen=True)
class ProbeRecord:
    """Raw probe log row; keeps d_g and d_c apart so one log serves any omega."""

    qp: QpPair
    r_g: float
    r_c: float
    d_g: float
    d_c: float

    def __post_init__(self):
        _check_probe((self.r_g, self.r_c), (self.d_g, self.d_c))

    def to_probe_point(self, omega: float) -> ProbePoint:
        return ProbePoint(self.qp, self.r_g, self.r_c,
                          weighted(omega, self.d_g, self.d_c))


@dataclass(frozen=True)
class DistortionModel:
    a: float
    b: float
    c: float
    omega: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.omega))):
            raise ValidationError("distortion model parameters must be finite")
        # a negative slope leaves the barrier objective unbounded toward coarse steps
        for name, slope in (("geometry slope a", self.a), ("color slope b", self.b)):
            if slope < 0:
                raise ValidationError(f"distortion {name}={slope:.4g} is negative")


@dataclass(frozen=True)
class RateModel:
    gamma_g: float
    theta_g: float
    gamma_c: float
    theta_c: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma_g, self.theta_g,
                                       self.gamma_c, self.theta_c))):
            raise ValidationError("rate model parameters must be finite")
        for stream, gamma, theta in (("geometry", self.gamma_g, self.theta_g),
                                     ("color", self.gamma_c, self.theta_c)):
            if gamma <= 0:
                raise ValidationError(f"{stream} rate gamma {gamma:.4g} is not positive")
            if theta >= 0:
                raise NonMonotoneRateError(f"{stream} rate exponent {theta:.4g} is not "
                                           "negative; rate does not decay")


def predict_distortion(m: DistortionModel, q: QuantPair) -> float:
    return m.a * q.q_g + m.b * q.q_c + m.c


def predict_rate(m: RateModel, q: QuantPair) -> float:
    """Total modeled rate, geometry stream plus color stream."""
    return m.gamma_g * q.q_g**m.theta_g + m.gamma_c * q.q_c**m.theta_c


def _fit_power_law(q1: float, r1: float, q2: float, r2: float,
                   label: str) -> tuple[float, float]:
    if q1 == q2:
        raise DegenerateProbesError(f"{label} steps are equal; power law unidentifiable")
    try:
        theta = math.log(r1 / r2) / math.log(q1 / q2)
        return r1 / q1**theta, theta
    except (ArithmeticError, ValueError):  # r1/r2 or q1**theta beyond the float range
        raise ValidationError(f"{label} rates {r1:.4g} and {r2:.4g} are too far "
                              "apart to fit a power law") from None


def fit_rate_model(p1: ProbePoint, p2: ProbePoint) -> RateModel:
    """Exact power-law fit from two probes, separately for geometry and color."""
    s1, s2 = p1.qp.steps(), p2.qp.steps()
    gamma_g, theta_g = _fit_power_law(s1.q_g, p1.r_g, s2.q_g, p2.r_g, "geometry")
    gamma_c, theta_c = _fit_power_law(s1.q_c, p1.r_c, s2.q_c, p2.r_c, "color")
    return RateModel(gamma_g, theta_g, gamma_c, theta_c)


def fit_rate_model_lstsq(probes: Sequence[ProbePoint]) -> RateModel:
    """Log-log least-squares power-law fit over 2+ probes."""
    if len(probes) < 2:
        raise ValidationError("need at least two probes")
    qg = np.array([p.qp.steps().q_g for p in probes])
    qc = np.array([p.qp.steps().q_c for p in probes])
    rg = np.array([p.r_g for p in probes])
    rc = np.array([p.r_c for p in probes])

    def solve(q, r, label):
        if np.ptp(q) == 0:
            raise DegenerateProbesError(f"{label} steps are all equal")
        th, lg = np.polyfit(np.log(q), np.log(r), 1)
        try:
            return math.exp(lg), float(th)
        except OverflowError:
            raise ValidationError(f"{label} rates {r.max():.4g} and {r.min():.4g} are too "
                                  "far apart to fit a power law") from None

    gamma_g, theta_g = solve(qg, rg, "geometry")
    gamma_c, theta_c = solve(qc, rc, "color")
    return RateModel(gamma_g, theta_g, gamma_c, theta_c)


def _plane_system(probes: Sequence[ProbePoint]) -> tuple[np.ndarray, np.ndarray]:
    """The rows [q_g, q_c, 1] and distortions of the probes, for either
    distortion fit; collinear step pairs cannot identify the plane."""
    mat = np.array([[p.qp.steps().q_g, p.qp.steps().q_c, 1.0] for p in probes])
    if np.linalg.cond(mat) > 1e12:
        raise DegenerateProbesError(
            "probe step pairs are collinear; distortion plane unidentifiable"
        )
    return mat, np.array([p.d for p in probes])


def fit_distortion_model(p1: ProbePoint, p2: ProbePoint, p3: ProbePoint,
                         omega: float) -> DistortionModel:
    """Exact affine fit D = a*Qg + b*Qc + c through three probes.

    The 3x3 system is solved by LU elimination with partial pivoting.
    """
    a, b, c = np.linalg.solve(*_plane_system((p1, p2, p3)))
    return DistortionModel(float(a), float(b), float(c), omega)


def fit_distortion_model_lstsq(probes: Sequence[ProbePoint],
                               omega: float) -> DistortionModel:
    """Least-squares affine fit over 3+ probes."""
    if len(probes) < 3:
        raise ValidationError("need at least three probes")
    (a, b, c), *_ = np.linalg.lstsq(*_plane_system(probes), rcond=None)
    return DistortionModel(float(a), float(b), float(c), omega)


def model_to_dict(dm: DistortionModel, rm: RateModel) -> dict:
    """The model-file layout that ``fit`` writes and ``allocate`` reads."""
    return {
        "distortion": {"a": dm.a, "b": dm.b, "c": dm.c, "omega": dm.omega},
        "rate": {name: getattr(rm, name) for name in _RATE_FIELDS},
    }


def model_from_dict(doc) -> tuple[DistortionModel, RateModel]:
    """Inverse of ``model_to_dict``; every numeric field must be a finite real.

    A missing ``omega`` reads as 0.5; a ``sanity`` list that older files
    carry in ``distortion`` is ignored.
    """
    try:
        d, r = doc["distortion"], doc["rate"]
        values = [d["a"], d["b"], d["c"], d.get("omega", 0.5)]
        values += [r[name] for name in _RATE_FIELDS]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"bad model: missing or misplaced field {exc}") from exc
    names = ("a", "b", "c", "omega") + _RATE_FIELDS
    values = [finite_number(name, x, "model") for name, x in zip(names, values)]
    return DistortionModel(*values[:4]), RateModel(*values[4:])


def probes_from_records(records: Sequence[ProbeRecord],
                        omega: float) -> list[ProbePoint]:
    return [r.to_probe_point(omega) for r in records]


def read_probe_log(path) -> list[ProbeRecord]:
    """Read the probe-log CSV (header qp_g,qp_c,r_g_kbpmp,r_c_kbpmp,d_g,d_c)."""
    path = Path(path)
    # undecodable bytes, or a field beyond the csv module's size limit
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != PROBE_LOG_HEADER:
                raise ValidationError(
                    f"probe log must start with header {','.join(PROBE_LOG_HEADER)}"
                )
            records = []
            for row in reader:
                try:
                    qp = QpPair(int(row["qp_g"]), int(row["qp_c"]))
                    records.append(ProbeRecord(
                        qp,
                        float(row["r_g_kbpmp"]), float(row["r_c_kbpmp"]),
                        float(row["d_g"]), float(row["d_c"]),
                    ))
                except (TypeError, ValueError, KeyError, ValidationError) as exc:
                    raise ValidationError(f"bad probe log row {row!r}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"probe log {path} is not CSV text: {exc}") from exc
    return records


def write_probe_log(path, records: Sequence[ProbeRecord],
                    append: bool = False) -> None:
    path = Path(path)
    fresh = not (append and path.exists() and path.stat().st_size > 0)
    mode = "a" if append else "w"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(PROBE_LOG_HEADER)
        for r in records:
            writer.writerow([r.qp.qp_g, r.qp.qp_c] + [
                repr(float(x)) for x in (r.r_g, r.r_c, r.d_g, r.d_c)])
