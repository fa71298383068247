import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from stopsum import (
    ConfigurationError,
    EmpiricalCdf,
    dkw_halfwidth,
    kolmogorov_distance,
    std_normal_cdf,
)

mpmath.mp.dps = 40


def mp_phi(x):
    return float(mpmath.ncdf(mpmath.mpf(x)))


class TestStdNormalCdf:
    def test_median(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_far_tail_saturates(self):
        assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15

    def test_975_quantile(self):
        assert abs(std_normal_cdf(1.959963984540054) - 0.975) <= 1e-14

    def test_against_high_precision_oracle(self):
        xs = np.concatenate([np.linspace(-8, 8, 161), [-20.0, -12.0, 12.0, 20.0]])
        for x in xs:
            assert abs(std_normal_cdf(float(x)) - mp_phi(x)) <= 1e-14

    def test_symmetry(self):
        xs = np.linspace(-8, 8, 1601)
        total = std_normal_cdf(xs) + std_normal_cdf(-xs)
        assert np.max(np.abs(total - 1.0)) <= 1e-14

    def test_monotone_on_fine_grid(self):
        # 1e-6 spacing around the center and both shoulders
        for center in (-3.0, 0.0, 3.0):
            xs = center + 1e-6 * np.arange(200_001)
            vals = std_normal_cdf(xs)
            assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                std_normal_cdf(bad)
        with pytest.raises(ValueError):
            std_normal_cdf(np.array([0.0, math.nan, 1.0]))

    def test_scalar_in_float_out(self):
        for x in (0.3, np.float64(-2.0), np.array(1.5), 7):
            assert type(std_normal_cdf(x)) is float
        assert std_normal_cdf(np.zeros((2, 3))).shape == (2, 3)


def assert_same_bits(xs):
    xs = np.asarray(xs, dtype=float)
    got, want = std_normal_cdf(xs), ndtr(xs)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def ulp_walk(center, steps=500):
    """center and the `steps` doubles on each side of it."""
    out = [center]
    lo = hi = center
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.array(out)


class TestNdtrBits:
    """std_normal_cdf ports the Cephes ndtr that scipy.special compiles;
    the report bytes rest on it giving SciPy's bits everywhere."""

    MAXLOG = 709.782712893384

    def test_normal_draws(self):
        rng = np.random.default_rng(20)
        assert_same_bits(rng.normal(size=1_000_000))
        assert_same_bits(6.0 * rng.normal(size=200_000))

    def test_dense_grid(self):
        assert_same_bits(np.linspace(-45.0, 45.0, 900_001))

    def test_zeros_and_subnormals(self):
        tiny = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                         1e-300, 1e-20])
        assert_same_bits(np.concatenate([tiny, -tiny]))

    @pytest.mark.parametrize("edge", [
        math.sqrt(2.0),                # |x| = 1: erf to erfc
        8.0 * math.sqrt(2.0),          # |x| = 8: P/Q to R/S
        math.sqrt(2.0 * MAXLOG),       # x^2 = MAXLOG: erfc underflows to 0
    ])
    def test_branch_edges(self, edge):
        xs = ulp_walk(edge)
        assert_same_bits(np.concatenate([xs, -xs]))

    def test_underflow_band(self):
        # exp(-x^2) is subnormal here, where Cephes returns 0
        assert_same_bits(np.linspace(-38.7, -37.5, 100_001))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-50.0, 50.0))
    def test_property(self, x):
        want = float(ndtr(x))
        got = std_normal_cdf(x)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestDkwHalfwidth:
    def test_exact_arithmetic_case(self):
        # delta = 2/e^2 makes ln(2/delta) = 2
        assert abs(dkw_halfwidth(8, 2 / math.e**2) - math.sqrt(2 / 16)) <= 1e-16

    def test_large_r(self):
        assert abs(dkw_halfwidth(10**6, 0.05) - 0.0013581015157406195) <= 1e-15

    def test_rejects_bad_delta(self):
        for delta in (2.0, 0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ConfigurationError, match="delta must lie"):
                dkw_halfwidth(100, delta)

    def test_rejects_delta_whose_two_over_delta_overflows(self):
        assert math.isfinite(dkw_halfwidth(100, 1.2e-308))
        for delta in (1e-320, 5e-324):
            with pytest.raises(ConfigurationError, match="2/delta overflows"):
                dkw_halfwidth(100, delta)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            dkw_halfwidth(0, 0.05)


def brute_force_sup(samples, cdf):
    """Independent oracle: scan sample points and midpoints, evaluating the
    empirical CDF from both sides by counting."""
    samples = np.sort(np.asarray(samples, dtype=float))
    r = samples.size
    grid = set(samples)
    grid.update((a + b) / 2 for a, b in zip(samples[:-1], samples[1:]))
    best = 0.0
    for g in sorted(grid):
        at = np.count_nonzero(samples <= g) / r
        below = np.count_nonzero(samples < g) / r
        f = cdf(g)
        best = max(best, abs(at - f), abs(below - f))
    return best


class TestKolmogorovDistance:
    def test_single_atom_at_median(self):
        res = kolmogorov_distance(EmpiricalCdf.from_samples([0.0]), std_normal_cdf)
        assert res.d_sup == 0.5

    def test_two_symmetric_points(self):
        res = kolmogorov_distance(EmpiricalCdf.from_samples([-1.0, 1.0]),
                                  std_normal_cdf)
        assert abs(res.d_sup - 0.3413447460685429) <= 1e-15

    def test_quantile_construction(self):
        r = 1000
        qs = ndtri((np.arange(1, r + 1) - 0.5) / r)
        res = kolmogorov_distance(EmpiricalCdf.from_samples(qs), std_normal_cdf)
        assert res.d_sup <= 0.0005 + 1e-12

    def test_duplication_invariance(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=200)
        d1 = kolmogorov_distance(EmpiricalCdf.from_samples(xs), std_normal_cdf)
        d2 = kolmogorov_distance(
            EmpiricalCdf.from_samples(np.repeat(xs, 2)), std_normal_cdf
        )
        assert abs(d1.d_sup - d2.d_sup) <= 1e-15

    def test_argmax_is_a_sample_point(self):
        xs = np.random.default_rng(4).normal(size=57)
        res = kolmogorov_distance(EmpiricalCdf.from_samples(xs), std_normal_cdf)
        assert res.argmax_x in xs

    def test_dkw_halfwidth_attached(self):
        xs = np.arange(50.0)
        res = kolmogorov_distance(EmpiricalCdf.from_samples(xs), std_normal_cdf,
                                  delta=0.1)
        assert res.dkw_halfwidth == dkw_halfwidth(50, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-6, 6), min_size=1, max_size=40))
    def test_matches_brute_force(self, samples):
        res = kolmogorov_distance(EmpiricalCdf.from_samples(samples),
                                  std_normal_cdf)
        assert abs(res.d_sup - brute_force_sup(samples, std_normal_cdf)) <= 1e-12


def per_element_scan(xs, cdf):
    """The scan with the CDF at every sorted sample, ties included."""
    xs = np.sort(np.asarray(xs, dtype=float))
    r = xs.size
    f = np.array([cdf(float(x)) for x in xs])
    i = np.arange(1, r + 1)
    gaps = np.maximum(i / r - f, f - (i - 1) / r)
    k = int(np.argmax(gaps))
    return float(gaps[k]), float(xs[k])


class TestDistinctValueScan:
    """kolmogorov_distance calls the CDF on distinct sample values only and
    repeats each value over its run of ties."""

    def tie_heavy(self):
        # sums of 16 +-1 steps over sqrt(16): 17 values among 5000 samples
        rng = np.random.default_rng(8)
        steps = rng.choice([-1.0, 1.0], size=(5000, 16))
        return steps.sum(axis=1) / 4.0

    def test_array_cdf_sees_distinct_values(self):
        xs = self.tie_heavy()
        calls = []

        def counting(x):
            calls.append(np.array(x, copy=True))
            return std_normal_cdf(x)

        res = kolmogorov_distance(EmpiricalCdf.from_samples(xs), counting)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.unique(xs))
        d_sup, argmax_x = per_element_scan(xs, std_normal_cdf)
        assert res.d_sup == d_sup and res.argmax_x == argmax_x
        assert res.dkw_halfwidth == dkw_halfwidth(xs.size)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.25, 3.0]),
                    min_size=1, max_size=60))
    def test_matches_per_element_scan(self, samples):
        res = kolmogorov_distance(EmpiricalCdf.from_samples(samples),
                                  std_normal_cdf)
        assert (res.d_sup, res.argmax_x) == per_element_scan(samples,
                                                             std_normal_cdf)


class TestEmpiricalCdf:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([])

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(ValueError):
            EmpiricalCdf(samples=np.array([1.0, 0.0]), count=2)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            EmpiricalCdf(samples=np.array([0.0, 1.0]), count=3)
