"""Analytic rate and distortion models fitted from probe encodings.

Geometry distortion is affine in the geometry step and color distortion in
both steps; their omega-weighted plane is D = a*Qg + b*Qc + c. Each bitstream
follows a power law in its own step, R = gamma*Q**theta with theta < 0.
``fit`` and ``simulate`` fit every stream on its own by least squares over
all probes, flooring each distortion slope at 0 with a warning. The exact
fits, a plane through three probes and a power law through two, serve the
noise-free recovery check and the quick start.

All fitting happens in the step domain; quantization parameters are
mapped through the standard step = 2**((qp-4)/6) rule first. Bitrates
are kilobits per million points (kbpmp) throughout.

``weighted`` is the one combination of a geometry and a color distortion,
omega*d_g + (1-omega)*d_c, for probes, reports and the metric command
alike. ``predict_rate`` gives the total modeled rate. A model refuses a
negative distortion slope or a rate exponent that is not negative when it
is built, whether by a fit, from a model file or by a caller.

``QpPair`` is the one rule for a grid QP, an integer in [QP_MIN, QP_MAX]
that is not a bool, and ``QpPair.cell``, (qp_g - QP_MIN, qp_c - QP_MIN),
the one address of its cell in every 21x21 table. Each model instance
tabulates its grid once: ``RateModel.grid`` and ``DistortionModel.grid``
are read-only 21x21 arrays indexed by that cell, computed on first use and
kept on the instance, so they live as long as the model and no longer. Each
cell equals ``predict_rate``/``predict_distortion`` at its step pair bit
for bit.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateProbesError, NonMonotoneRateError, ValidationError

QP_MIN = 22
QP_MAX = 42

PROBE_LOG_HEADER = ("qp_g", "qp_c", "r_g_kbpmp", "r_c_kbpmp", "d_g", "d_c")
_RATE_FIELDS = ("gamma_g", "theta_g", "gamma_c", "theta_c")
_LN_FLOAT_MIN, _LN_FLOAT_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


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


def weighted_distortion_model(omega: float, geometry, color) -> DistortionModel:
    """The omega-weighted plane of d_g = a_g*Qg + c_g and d_c = a_gc*Qg + a_cc*Qc + c_c."""
    (a_g, c_g), (a_gc, a_cc, c_c) = geometry, color
    return DistortionModel(weighted(omega, a_g, a_gc), weighted(omega, 0.0, a_cc),
                           weighted(omega, c_g, c_c), omega)


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
        # NaN fails both comparisons
        if not (0 < self.q_g < math.inf and 0 < self.q_c < math.inf):
            raise ValidationError("quantization steps must be positive and finite")


@dataclass(frozen=True, order=True)
class QpPair:
    qp_g: int
    qp_c: int

    def __post_init__(self):
        for qp in (self.qp_g, self.qp_c):
            # the pairs a run builds hold Python ints, which skip the isinstance call
            if type(qp) is not int and not isinstance(qp, np.integer):
                raise ValidationError(f"qp must be an integer, got {qp!r}")
            if not QP_MIN <= qp <= QP_MAX:
                raise ValidationError(f"qp {qp} outside grid [{QP_MIN}, {QP_MAX}]")

    @property
    def cell(self) -> tuple[int, int]:
        """The pair's [row, column] in every 21x21 grid table."""
        return self.qp_g - QP_MIN, self.qp_c - QP_MIN

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
        if not 0.0 <= self.omega <= 1.0:
            raise ValidationError(f"distortion model omega={self.omega!r} is outside [0, 1]")
        # a negative slope leaves the barrier objective unbounded toward coarse steps
        for name, slope in (("geometry slope a", self.a), ("color slope b", self.b)):
            if slope < 0:
                raise ValidationError(f"distortion {name}={slope:.4g} is negative")

    @cached_property
    def grid(self) -> np.ndarray:
        """Modeled distortion of every grid cell, associated as
        ``predict_distortion``: (a*q_g + b*q_c) + c."""
        q = np.array(step_grid())
        return _read_only((self.a * q[:, None] + self.b * q[None, :]) + self.c)


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

    @cached_property
    def grid(self) -> np.ndarray:
        """Modeled total rate of every grid cell, the outer sum of per-axis
        terms. Python ``**`` (numpy's can differ in the last bit) keeps each
        term, and so each cell, equal to ``predict_rate``'s."""
        steps = step_grid()
        r_g = np.array([self.gamma_g * q**self.theta_g for q in steps])
        r_c = np.array([self.gamma_c * q**self.theta_c for q in steps])
        return _read_only(r_g[:, None] + r_c[None, :])


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def predict_distortion(m: DistortionModel, q: QuantPair) -> float:
    return m.a * q.q_g + m.b * q.q_c + m.c


def predict_rate(m: RateModel, q: QuantPair) -> float:
    """Total modeled rate, geometry stream plus color stream."""
    return m.gamma_g * q.q_g**m.theta_g + m.gamma_c * q.q_c**m.theta_c


def fit_rate_model(p1: ProbePoint, p2: ProbePoint) -> RateModel:
    """Exact power-law fit through two probes: the least-squares fit of two points."""
    return fit_rate_model_lstsq((p1, p2))


def fit_rate_model_lstsq(probes: Sequence[ProbeRecord | ProbePoint]) -> RateModel:
    """Log-log least-squares power-law fit over 2+ probes, each stream in its own step.

    Only ``qp``, ``r_g`` and ``r_c`` are read. Rates so far apart that the
    fitted scale leaves the float range are refused."""
    if len(probes) < 2:
        raise ValidationError("need at least two probes")
    steps = [p.qp.steps() for p in probes]

    def solve(q, r, label):
        if min(q) == max(q):
            raise DegenerateProbesError(f"{label} steps are all equal")
        th, lg = np.linalg.lstsq(np.vander(np.log(q), 2), np.log(r), rcond=None)[0]
        # the scale gamma = exp(lg) must neither overflow nor underflow
        if not _LN_FLOAT_MIN <= lg <= _LN_FLOAT_MAX:
            raise ValidationError(f"{label} rates {max(r):.4g} and {min(r):.4g} are too "
                                  "far apart to fit a power law")
        return math.exp(lg), float(th)

    gamma_g, theta_g = solve([s.q_g for s in steps], [p.r_g for p in probes], "geometry")
    gamma_c, theta_c = solve([s.q_c for s in steps], [p.r_c for p in probes], "color")
    return RateModel(gamma_g, theta_g, gamma_c, theta_c)


def _plane_rows(probes) -> np.ndarray:
    """The probes' rows [q_g, q_c, 1]; collinear step pairs cannot identify a plane."""
    mat = np.array([(s.q_g, s.q_c, 1.0) for s in (p.qp.steps() for p in probes)])
    if np.linalg.cond(mat) > 1e12:
        raise DegenerateProbesError("probe step pairs are collinear; "
                                    "distortion plane unidentifiable")
    return mat


def fit_distortion_model(p1: ProbePoint, p2: ProbePoint, p3: ProbePoint,
                         omega: float) -> DistortionModel:
    """Exact affine fit D = a*Qg + b*Qc + c through three probes, by an LU solve."""
    a, b, c = np.linalg.solve(_plane_rows((p1, p2, p3)), [p1.d, p2.d, p3.d])
    return DistortionModel(float(a), float(b), float(c), omega)


def _floored_lstsq(mat: np.ndarray, y, slopes: Sequence[str]) -> list[float]:
    """Least squares y ~ mat with each slope (every column but the last, the
    intercept) floored at 0, exactly: the best fit over the subsets of kept
    slopes whose slopes are all non-negative. A floored slope warns."""
    n, fits = len(slopes), []
    for keep in itertools.product((1, 0), repeat=n):  # every slope kept first
        cols = np.flatnonzero(keep + (1,))
        fits.append(np.zeros(n + 1))
        fits[-1][cols] = np.linalg.lstsq(mat[:, cols], y, rcond=None)[0]
        if min(fits[0][:n]) >= 0:  # the plain fit needs no floor
            return fits[0].tolist()
    best = min((c for c in fits if min(c[:n]) >= 0), key=lambda c: math.hypot(*(mat @ c - y)))
    for name, value, kept in zip(slopes, fits[0], best):
        if kept == 0:
            warnings.warn(f"{name}={value:.4g} from least squares is floored at 0")
    return best.tolist()


def fit_distortion_model_lstsq(probes: Sequence[ProbeRecord],
                               omega: float) -> DistortionModel:
    """Least squares over 3+ probes, d_g in Q_g and d_c in (Q_g, Q_c), slopes floored at 0."""
    if len(probes) < 3:
        raise ValidationError("need at least three probes")
    mat = _plane_rows(probes)
    geometry = _floored_lstsq(mat[:, 0::2], [p.d_g for p in probes],
                              ["geometry distortion slope a_g"])
    color = _floored_lstsq(mat, [p.d_c for p in probes],
                           ["color distortion slope a_gc", "color distortion slope a_cc"])
    return weighted_distortion_model(omega, geometry, color)


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
