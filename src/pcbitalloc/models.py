"""Analytic rate and distortion models fitted from probe encodings.

Geometry distortion is affine in the geometry step and color distortion in
both steps; their omega-weighted plane is D = a*Qg + b*Qc + c. Each bitstream
follows a power law in its own step, R = gamma*Q**theta with theta < 0.
``fit`` and ``simulate`` fit every stream on its own by least squares over
all probes, flooring each distortion slope at 0 with a warning. The exact
fits, a plane through three probes and a power law through two, serve the
noise-free recovery check and the quick start. Every fit is one
``least_squares``, solved exactly in integers and rounded once, so no BLAS
or SIMD kernel moves a bit of a model.

All fitting happens in the step domain; quantization parameters are
mapped through the standard step = 2**((qp-4)/6) rule first. Bitrates
are kilobits per million points (kbpmp) throughout.

``weighted`` is the one combination of a geometry and a color distortion,
omega*d_g + (1-omega)*d_c, for probes, reports and the metric command
alike. ``predict_rate`` gives the total modeled rate. A model or a probe
checks its own fields when it is built, by a fit, from a model file or by a
caller: each a float by ``finite_number``, the one number rule (a numpy
scalar as its Python value), no distortion slope negative, each rate
exponent negative, probe rates positive and probe distortions non-negative.

``whole_number`` is the one integer rule, a Python or numpy integer that
is not a bool, as an int; ``QpPair`` holds two in [QP_MIN, QP_MAX], and
``QpPair.cell``, (qp_g - QP_MIN, qp_c - QP_MIN), is the one address of
its cell in every 21x21 table. Each model instance
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
from dataclasses import dataclass, fields
from functools import cache, cached_property
from operator import mul
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError

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


def _shown(x) -> str:
    """``repr(x)`` for a refusal message; an integer too long for ``repr``
    by its digit count, and a container of one by its type."""
    try:
        return repr(x)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        if not isinstance(x, int):
            return f"a {type(x).__name__} holding an integer too long to show"
        digits = int(x.bit_length() * math.log10(2))
        return f"an integer of {digits + (abs(x) >= 10**digits)} digits"


def finite_number(key: str, x, what: str = "config") -> float:
    """A JSON number as a finite float; booleans, strings and integers
    beyond the float range are refused."""
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not abs(x) <= sys.float_info.max):
        raise ValidationError(f"{what} '{key}' must hold finite numbers, got {_shown(x)}")
    return float(x)


def whole_number(name: str, x, least: int | None = None) -> int:
    """A Python or numpy integer, not a bool, of at least ``least`` if given, as an int."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {_shown(x)}")
    if least is not None and x < least:
        raise ValidationError(f"{name} must be an integer of at least {least}, "
                              f"got {_shown(x)}")
    return int(x)


@cache
def _float_fields(cls) -> tuple[str, ...]:
    # each field's type is a string, as the module defers its annotations
    return tuple(f.name for f in fields(cls) if f.type == "float")


def _own_floats(obj, what: str) -> None:
    """Store each float field of a frozen dataclass as ``finite_number`` gives it."""
    for name in _float_fields(type(obj)):
        x = getattr(obj, name)
        x = x.item() if isinstance(x, np.generic) else x
        object.__setattr__(obj, name, finite_number(name, x, what))


def _check_probe(rates, distortions) -> None:
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
        # the pairs a run builds hold Python ints, which skip the integer rule
        if type(self.qp_g) is not int or type(self.qp_c) is not int:
            object.__setattr__(self, "qp_g", whole_number("qp", self.qp_g))
            object.__setattr__(self, "qp_c", whole_number("qp", self.qp_c))
        for qp in (self.qp_g, self.qp_c):
            if not QP_MIN <= qp <= QP_MAX:
                raise ValidationError(f"qp {_shown(qp)} outside grid [{QP_MIN}, {QP_MAX}]")

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
        _own_floats(self, "probe")
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
        _own_floats(self, "probe")
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
        _own_floats(self, "distortion model")
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
        _own_floats(self, "rate model")
        for stream, gamma, theta in (("geometry", self.gamma_g, self.theta_g),
                                     ("color", self.gamma_c, self.theta_c)):
            if gamma <= 0:
                raise ValidationError(f"{stream} rate gamma {gamma:.4g} is not positive")
            if theta >= 0:
                raise ValidationError(f"{stream} rate exponent {theta:.4g} is not "
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


def _quotient(p: int, q: int) -> float:
    """p/q for integers, q > 0, rounded once; +-inf past the float range, where ``/`` raises."""
    try:
        return p / q
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _integers(values) -> tuple[list[int], int]:
    """Floats as integers over one power of two: (the integers, its exponent)."""
    ratios = [v.as_integer_ratio() for v in values]
    top = max(d for _, d in ratios).bit_length()
    return [p << top - d.bit_length() for p, d in ratios], top - 1


def _solve_normal(m: list[list[int]]) -> tuple[int, list[int]]:
    """The exact solution of integer normal equations [G | b], G positive
    definite, by fraction-free (Bareiss) elimination: det(G) and det(G)
    times the solution, integers by Cramer's rule. Overwrites m."""
    n, det = len(m), 1
    for k, top in enumerate(m):  # each pivot is a leading minor of G, 0 only when singular
        if top[k] == 0:
            raise ValidationError("least-squares columns are linearly dependent")
        for row in m[k + 1:]:
            row[k + 1:] = [(u * top[k] - row[k] * v) // det for u, v in zip(row[k + 1:], top[k + 1:])]
        det = top[k]
    x = [0] * n
    for k in reversed(range(n)):
        x[k] = (det * m[k][n] - sum(map(mul, m[k][k + 1:n], x[k + 1:]))) // m[k][k]
    return det, x


def least_squares(columns, y) -> tuple[list[float], float]:
    """y's least-squares coefficients on the columns and the residual's 2-norm,
    exact arithmetic's answers rounded once. Each float is an integer over a
    power of two, so over the largest such power the normal equations are in
    integers and solve exactly: no BLAS, SIMD kernel or order of sums moves a bit."""
    flat, k = _integers([v for col in (*columns, y) for v in col])
    n, rows = len(columns), len(y)
    a = [flat[i:i + rows] for i in range(0, len(flat), rows)]
    m = [[sum(map(mul, u, v)) for v in a] for u in a[:n]]
    aty = [row[n] for row in m]
    det, x = _solve_normal(m)
    sse, scale = sum(map(mul, a[n], a[n])) * det - sum(map(mul, aty, x)), det << 2 * k
    e = (sse.bit_length() - scale.bit_length()) // 4  # the squared norm sse/scale is near 16**e
    root = math.sqrt((sse << max(-4 * e, 0)) / (scale << max(4 * e, 0)))
    return [_quotient(v, det) for v in x], root * 2.0**e * 2.0**e


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
            raise ValidationError(f"{label} steps are all equal")
        (th, lg), _ = least_squares([[*map(math.log, q)], [1.0] * len(q)], [*map(math.log, r)])
        # the scale gamma = exp(lg) must neither overflow nor underflow
        if not _LN_FLOAT_MIN <= lg <= _LN_FLOAT_MAX:
            raise ValidationError(f"{label} rates {max(r):.4g} and {min(r):.4g} are too "
                                  "far apart to fit a power law")
        return math.exp(lg), th

    gamma_g, theta_g = solve([s.q_g for s in steps], [p.r_g for p in probes], "geometry")
    gamma_c, theta_c = solve([s.q_c for s in steps], [p.r_c for p in probes], "color")
    return RateModel(gamma_g, theta_g, gamma_c, theta_c)


def _plane_rows(probes) -> np.ndarray:
    """The probes' rows [q_g, q_c, 1]; collinear step pairs cannot identify a plane."""
    mat = np.array([(s.q_g, s.q_c, 1.0) for s in (p.qp.steps() for p in probes)])
    if np.linalg.cond(mat) > 1e12:
        raise ValidationError("probe step pairs are collinear; "
                              "distortion plane unidentifiable")
    return mat


def fit_distortion_model(p1: ProbePoint, p2: ProbePoint, p3: ProbePoint,
                         omega: float) -> DistortionModel:
    """Exact affine fit D = a*Qg + b*Qc + c through three probes."""
    (a, b, c), _ = least_squares(_plane_rows((p1, p2, p3)).T.tolist(), [p1.d, p2.d, p3.d])
    return DistortionModel(a, b, c, omega)


def _floored_lstsq(columns, y, slopes: Sequence[str]) -> list[float]:
    """Least squares of y on the columns with each slope (every column but
    the last, the intercept) floored at 0, exactly: the best fit over the
    subsets of kept slopes whose slopes are all non-negative. A floored slope warns."""
    n, fits = len(slopes), []
    for keep in itertools.product((1, 0), repeat=n):  # every slope kept first
        coefficients, residual = least_squares([*itertools.compress(columns, keep + (1,))], y)
        fit = [coefficients.pop(0) if k else 0.0 for k in keep + (1,)]
        if not fits and min(fit[:n]) >= 0:  # the plain fit needs no floor
            return fit
        fits.append((fit, residual))
    best = min((f for f in fits if min(f[0][:n]) >= 0), key=lambda f: f[1])[0]
    for name, value, kept in zip(slopes, fits[0][0], best):
        if kept == 0:
            warnings.warn(f"{name}={value:.4g} from least squares is floored at 0")
    return best


def fit_distortion_streams(probes: Sequence[ProbeRecord]) -> tuple[list[float], list[float]]:
    """Least squares over 3+ probes, slopes floored at 0: (a_g, c_g) of d_g in Q_g
    and (a_gc, a_cc, c_c) of d_c in (Q_g, Q_c), for ``weighted_distortion_model``."""
    if len(probes) < 3:
        raise ValidationError("need at least three probes")
    columns = _plane_rows(probes).T.tolist()
    return (_floored_lstsq(columns[0::2], [p.d_g for p in probes],
                           ["geometry distortion slope a_g"]),
            _floored_lstsq(columns, [p.d_c for p in probes],
                           ["color distortion slope a_gc", "color distortion slope a_cc"]))


def fit_distortion_model_lstsq(probes: Sequence[ProbeRecord],
                               omega: float) -> DistortionModel:
    """The omega-weighted model of ``fit_distortion_streams``."""
    return weighted_distortion_model(omega, *fit_distortion_streams(probes))


def model_to_dict(dm: DistortionModel, rm: RateModel) -> dict:
    """The model-file layout that ``fit`` writes and ``allocate`` reads."""
    return {
        "distortion": {"a": dm.a, "b": dm.b, "c": dm.c, "omega": dm.omega},
        "rate": {name: getattr(rm, name) for name in _RATE_FIELDS},
    }


def model_from_dict(doc) -> tuple[DistortionModel, RateModel]:
    """Inverse of ``model_to_dict``; the models check their own fields.

    A missing ``omega`` reads as 0.5; a ``sanity`` list that older files
    carry in ``distortion`` is ignored.
    """
    try:
        d, r = doc["distortion"], doc["rate"]
        dm = DistortionModel(d["a"], d["b"], d["c"], d.get("omega", 0.5))
        return dm, RateModel(*(r[name] for name in _RATE_FIELDS))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"bad model: missing or misplaced field {exc}") from exc


def probes_from_records(records: Sequence[ProbeRecord],
                        omega: float) -> list[ProbePoint]:
    return [r.to_probe_point(omega) for r in records]


def _log_qp(text) -> int:
    """A probe log QP field: ASCII digits only, not the signs, blanks and
    ``_`` that ``int`` also takes."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError(f"QP {text!r} is not a string of digits")
    return int(text)


def _log_number(text) -> float:
    """A probe log rate or distortion field, as ``float`` reads it but without ``_``."""
    if "_" in text:
        raise ValueError(f"{text!r} is not a plain number")
    return float(text)


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
                    qp = QpPair(*(_log_qp(row[k]) for k in PROBE_LOG_HEADER[:2]))
                    records.append(ProbeRecord(
                        qp, *(_log_number(row[k]) for k in PROBE_LOG_HEADER[2:])))
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
