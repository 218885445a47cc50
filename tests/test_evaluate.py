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
