import math
from fractions import Fraction

import numpy as np
import pytest

from pcbitalloc.errors import ValidationError
from pcbitalloc.evaluate import bd_psnr, compute_be, compute_cq, compute_qpe
from pcbitalloc.models import QpPair


class TestBitrateError:
    def test_paper_andrew_240(self):
        assert compute_be(232.7, 240.0) == pytest.approx(3.0, abs=0.05)

    def test_exact_hit(self):
        assert compute_be(500.0, 500.0) == 0.0

    def test_paper_loot_96(self):
        assert abs(compute_be(94.8, 96.0) - 1.2) <= 0.05 + 1e-12

    def test_bad_target(self):
        with pytest.raises(ValidationError):
            compute_be(100.0, 0.0)


class TestQpError:
    def test_identical(self):
        assert compute_qpe(QpPair(27, 33), QpPair(27, 33)) == 0

    def test_paper_ricardo_70(self):
        assert compute_qpe(QpPair(32, 32), QpPair(36, 31)) == 5

    def test_paper_loot_70(self):
        assert compute_qpe(QpPair(40, 40), QpPair(42, 40)) == 2


class TestComplexityQuotient:
    def test_paper_andrew(self):
        assert compute_cq(364.08, 53342.84) == pytest.approx(0.68, abs=0.01)

    def test_equal_times(self):
        assert compute_cq(12.0, 12.0) == 100.0

    def test_probe_count_ratio(self):
        assert compute_cq(3 * 1000.0, 441 * 1000.0) == pytest.approx(0.68, abs=0.01)

    def test_bad_denominator(self):
        with pytest.raises(ValidationError):
            compute_cq(1.0, 0.0)


def synthetic_curve(rates, fn):
    return [(r, fn(r)) for r in rates]


class TestBdPsnr:
    RATES = [100.0, 200.0, 400.0, 800.0, 1600.0]

    def test_identical_curves(self):
        curve = synthetic_curve(self.RATES, lambda r: 30 + 3 * np.log10(r))
        assert bd_psnr(curve, curve) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift(self):
        a = synthetic_curve(self.RATES, lambda r: 30 + 3 * np.log10(r))
        b = [(r, q + 1.0) for r, q in a]
        assert bd_psnr(a, b) == pytest.approx(1.0, abs=1e-9)
        assert bd_psnr(b, a) == pytest.approx(-1.0, abs=1e-9)

    def test_matches_dense_numerical_integration(self):
        rng = np.random.default_rng(5150)
        for _ in range(5):
            ra = np.sort(rng.uniform(50, 2000, 5))
            rb = np.sort(rng.uniform(50, 2000, 5))
            qa = np.sort(rng.uniform(28, 45, 5))
            qb = np.sort(rng.uniform(28, 45, 5))
            curve_a = list(zip(ra, qa))
            curve_b = list(zip(rb, qb))
            try:
                got = bd_psnr(curve_a, curve_b)
            except ValidationError:
                continue
            la, lb = np.log10(ra), np.log10(rb)
            pa = np.polyfit(la, qa, 3)
            pb = np.polyfit(lb, qb, 3)
            lo, hi = max(la.min(), lb.min()), min(la.max(), lb.max())
            xs = np.linspace(lo, hi, 10_001)
            diff = np.polyval(pb, xs) - np.polyval(pa, xs)
            want = np.trapezoid(diff, xs) / (hi - lo)
            assert got == pytest.approx(want, abs=1e-4)

    @staticmethod
    def polyfit_gap(curve_a, curve_b):
        """The classic form: numpy cubics in log10(rate), integrated by polyint."""
        (ra, qa), (rb, qb) = np.array(curve_a).T, np.array(curve_b).T
        la, lb = np.log10(ra), np.log10(rb)
        lo, hi = max(la.min(), lb.min()), min(la.max(), lb.max())
        ia, ib = np.polyint(np.polyfit(la, qa, 3)), np.polyint(np.polyfit(lb, qb, 3))
        gap = (np.polyval(ib, hi) - np.polyval(ib, lo)) - (np.polyval(ia, hi) - np.polyval(ia, lo))
        return gap / (hi - lo)

    # rates spread as a rate-distortion curve's are, where the classic form is accurate
    @pytest.mark.parametrize("n_points", [4, 7, 32])
    def test_matches_the_polyfit_form(self, rng, n_points):
        for _ in range(25):
            ra, rb = (np.geomspace(50, 2000, n_points) * rng.uniform(0.95, 1.05, n_points)
                      for _ in "ab")
            curves = [list(zip(r, 25 + 6 * np.log10(r) + rng.normal(0, 0.3, n_points)))
                      for r in (ra, rb)]
            assert bd_psnr(*curves) == pytest.approx(self.polyfit_gap(*curves), abs=1e-9)

    @staticmethod
    def exact_mean(logs, quality, lo, hi):
        """The least-squares cubic's mean over [lo, hi], in rational arithmetic."""
        x = [Fraction(v) for v in logs]
        rows = [[sum(v ** (i + j) for v in x) for j in range(4)]
                + [sum(v ** i * Fraction(q) for v, q in zip(x, quality))] for i in range(4)]
        for k in range(4):
            for i in range(4):
                if i != k:
                    f = rows[i][k] / rows[k][k]
                    rows[i] = [u - f * v for u, v in zip(rows[i], rows[k])]
        return sum(row[4] / row[i] * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
                   for i, row in enumerate(rows)) / (hi - lo)

    # clustered rates make the cubics ill-conditioned; numpy's form is then
    # off by up to ~2e-5 dB on these curves, the exact fit by nothing
    def test_matches_rational_arithmetic(self, rng):
        for n_points in (4, 5, 8):
            for _ in range(20):
                curves = [sorted(zip(rng.uniform(50, 2000, n_points),
                                     rng.uniform(28, 45, n_points))) for _ in "ab"]
                logs = [[math.log10(r) for r, _ in c] for c in curves]
                lo = Fraction(max(min(v) for v in logs))
                hi = Fraction(min(max(v) for v in logs))
                if hi <= lo:
                    continue
                (la, lb), (qa, qb) = logs, ([q for _, q in c] for c in curves)
                want = self.exact_mean(lb, qb, lo, hi) - self.exact_mean(la, qa, lo, hi)
                assert bd_psnr(*curves) == float(want)

    # the cubic's coefficients pass the float max; the exact gap does not
    def test_psnrs_near_the_float_max_give_the_exact_gap(self):
        line = [(1.0, 30.0), (2.0, 31.0), (3.0, 32.0), (4.0, 33.0)]
        wild = [(1.0, 1e308), (2.0, -1e308), (3.0, 1e308), (4.0, 1.7e308)]
        logs = [math.log10(r) for r, _ in line]
        lo, hi = Fraction(logs[0]), Fraction(logs[-1])
        want = (self.exact_mean(logs, [q for _, q in wild], lo, hi)
                - self.exact_mean(logs, [q for _, q in line], lo, hi))
        assert bd_psnr(line, wild) == float(want)

    # log10 rounds rates one ulp apart to one value, leaving 2 or 3 distinct
    # abscissae, too few for a unique cubic
    @pytest.mark.parametrize("rates", [[1e10, "ulp", 1e11, "ulp"], [1e10, "ulp", 2e10, 1e11]])
    def test_rates_equal_in_log10_are_refused(self, rates):
        rates = [math.nextafter(rates[i - 1], math.inf) if r == "ulp" else r
                 for i, r in enumerate(rates)]
        a = [(r, 30.0 + i) for i, r in enumerate(rates)]
        b = synthetic_curve([1e10, 2e10, 5e10, 1e11], lambda r: 20 + np.log10(r))
        with pytest.raises(ValidationError, match="curve_a needs 4 distinct log10 rates"):
            bd_psnr(a, b)

    def test_too_few_points(self):
        short = synthetic_curve(self.RATES[:3], lambda r: 30.0 + r / 1000)
        full = synthetic_curve(self.RATES, lambda r: 30.0 + r / 1000)
        with pytest.raises(ValidationError):
            bd_psnr(short, full)

    def test_non_overlapping(self):
        a = synthetic_curve([10, 20, 30, 40], lambda r: 30.0 + r)
        b = synthetic_curve([100, 200, 300, 400], lambda r: 30.0 + r / 10)
        with pytest.raises(ValidationError):
            bd_psnr(a, b)

    @pytest.mark.parametrize("bad", [(800.0, float("inf")), (800.0, float("nan")),
                                     (float("inf"), 33.0)])
    def test_non_finite_point_rejected(self, bad):
        a = synthetic_curve(self.RATES[:3], lambda r: 30.0 + r / 1000) + [bad]
        b = synthetic_curve(self.RATES[:4], lambda r: 30.0 + r / 1000)
        with pytest.raises(ValidationError, match="finite"):
            bd_psnr(a, b)
        with pytest.raises(ValidationError, match="finite"):
            bd_psnr(b, a)

    def test_unsorted_rejected(self):
        a = [(200.0, 31.0), (100.0, 30.0), (400.0, 32.0), (800.0, 33.0)]
        b = synthetic_curve(self.RATES[:4], lambda r: 30.0 + r / 1000)
        with pytest.raises(ValidationError):
            bd_psnr(a, b)
