import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stopsum import (
    CfProbe,
    DistanceResult,
    InequalityCheck,
    ModelSpec,
    esseen_numeric,
    estimate_a_n,
    make_t_grid,
    probe_from_batch,
    rate_fit,
    report_from_batch,
    sample_stopped_batch,
    theorem_bound_F,
    theorem_bound_H,
)
from stopsum import harness
from stopsum.harness import _Key, _Paths, _unique
from stopsum.models import KINDS
from stopsum.sampling import StoppedBatch

mpmath.mp.dps = 40

IID = ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0})
REGIME = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})


def mp_bound(n, a, second):
    n = mpmath.mpf(n)
    a = mpmath.mpf(a)
    q = n ** mpmath.mpf("0.25")
    return float(
        (mpmath.sqrt(a) / (mpmath.pi * q))
        * (11 + mpmath.mpf(second) / q + 2 / (9 * q**2) + 1 / (8 * q**3))
    )


class TestTheoremBounds:
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096, 10**4, 10**8])
    @pytest.mark.parametrize("a", [1.0, 2.0, 16.0])
    def test_against_high_precision_oracle(self, n, a):
        assert theorem_bound_F(n, a) == pytest.approx(
            mp_bound(n, a, "3/4"), rel=1e-14
        )
        assert theorem_bound_H(n, a) == pytest.approx(
            mp_bound(n, a, "9/4"), rel=1e-14
        )

    def test_a_scaling(self):
        # quadrupling a_n doubles both bounds exactly
        assert theorem_bound_F(100.0, 4.0) == pytest.approx(
            2 * theorem_bound_F(100.0, 1.0), rel=1e-14
        )

    def test_n_scaling_dominant_term(self):
        # 16x n halves the bound, up to the subdominant correction terms
        for n, lo in ((1e4, 0.498), (1e8, 0.4998)):
            ratio = theorem_bound_F(16 * n, 1.0) / theorem_bound_F(n, 1.0)
            assert lo < ratio <= 0.5

    def test_f_below_h(self):
        for n in (10.0, 100.0, 1e5):
            for a in (1.0, 3.0):
                assert theorem_bound_F(n, a) < theorem_bound_H(n, a)

    def test_difference_identity(self):
        for n in (64.0, 4096.0):
            for a in (1.0, 2.5):
                expected = (math.sqrt(a) / (math.pi * n**0.25)) * (6 / (4 * n**0.25))
                got = theorem_bound_H(n, a) - theorem_bound_F(n, a)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_n_and_a(self):
        ns = np.geomspace(10, 1e8, 30)
        vals = [theorem_bound_F(n, 1.0) for n in ns]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        a_grid = np.linspace(1.0, 50.0, 30)
        vals = [theorem_bound_F(1e4, a) for a in a_grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theorem_bound_F(0.0, 1.0)
        with pytest.raises(ValueError):
            theorem_bound_F(10.0, 0.5)


class TestEstimateAn:
    def test_constant_one(self):
        assert estimate_a_n(np.ones(100)) == (1.0, 0.0)

    def test_constant_two(self):
        a, se = estimate_a_n(np.full(100, 2.0))
        assert a == 4.0
        assert se == 0.0

    def test_half_and_half(self):
        a, se = estimate_a_n(np.array([1.0, 2.0] * 500))
        assert a == pytest.approx(math.sqrt(8.5), rel=1e-12)
        assert se > 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_a_n(np.array([]))


def sampled_report(spec, n, r, seed):
    return report_from_batch(sample_stopped_batch(spec, n, r, seed))


def sampled_probe(spec, n, r, t, seed):
    batch = sample_stopped_batch(spec, n, r, seed)
    return probe_from_batch(batch, report_from_batch(batch), np.array(t))


class TestReportFromBatch:
    def test_iid_a_is_one_exactly(self):
        rep = sampled_report(IID, 64.0, 5000, seed=4)
        assert rep.a_n_hat == 1.0
        assert rep.a_n_stderr == 0.0
        assert rep.y_smoothing == pytest.approx(64.0**0.25, rel=1e-12)
        assert rep.passed

    def test_regime_a_is_four_exactly(self):
        rep = sampled_report(REGIME, 64.0, 5000, seed=4)
        assert rep.a_n_hat == 4.0  # constant Y = 2, E Y^4 = 16

    def test_cutoff_is_the_cf_grids(self):
        # Y_nu varies for the product kind, so a_n_eval > a_n_hat
        n = 256.0
        batch = sample_stopped_batch(ModelSpec("product", {}), n, 5000, 4)
        rep = report_from_batch(batch)
        assert rep.a_n_stderr > 0.0
        assert rep.y_smoothing == (n / rep.a_n_eval**2) ** 0.25
        # the probe takes a grid up to that cutoff and rejects one beyond
        probe_from_batch(batch, rep, make_t_grid(rep.y_smoothing))
        with pytest.raises(ValueError):
            probe_from_batch(batch, rep, make_t_grid(rep.y_smoothing * 1.01))

    def test_reads_the_batch_threshold(self):
        batch = sample_stopped_batch(REGIME, 64, 5000, 4)
        rep = report_from_batch(batch)
        assert type(rep.n) is float and rep.n == batch.n == 64.0
        assert rep.bound_f == theorem_bound_F(64.0, rep.a_n_eval)
        assert rep.bound_h == theorem_bound_H(64.0, rep.a_n_eval)

    def test_margins_match_fields(self):
        rep = sampled_report(IID, 64.0, 5000, seed=4)
        row_f, row_h = rep.rows()
        assert (row_f.check, row_h.check) == ("distance_F", "distance_H")
        assert row_f.margin == pytest.approx(
            rep.bound_f - (rep.d_f.d_sup + rep.d_f.dkw_halfwidth), abs=1e-15
        )
        assert (row_f.bound, row_h.bound) == (rep.bound_f, rep.bound_h)
        assert rep.bound_f < rep.bound_h


class TestTGrid:
    def test_shape_and_symmetry(self):
        g = make_t_grid(5.0)
        assert g.size == 129
        assert g[64] == 0.0
        assert g[0] == -5.0 and g[-1] == 5.0
        np.testing.assert_allclose(g, -g[::-1], atol=0)
        assert np.all(np.diff(g) > 0)


class TestCfProbe:
    def test_zero_t_exact(self):
        probe = sampled_probe(IID, 64.0, 2000, [0.0], seed=8)
        assert probe.c3[0] == 1.0 + 0.0j
        for chk in probe.checks:
            assert chk.lhs <= 1e-15
            assert chk.ok

    def test_symmetric_model_real_cf(self):
        probe = sampled_probe(IID, 256.0, 20_000, [0.5, 1.0, 2.0], seed=8)
        for i in range(probe.t_grid.size):
            assert abs(probe.c3[i].imag) <= 4.0 * probe.se3[i] + 1e-12

    def test_t_outside_range_rejected(self):
        with pytest.raises(ValueError):
            sampled_probe(IID, 64.0, 2000, [10.0], seed=8)  # y ~ 2.83

    def test_report_of_another_batch_rejected(self):
        batch = sample_stopped_batch(IID, 64.0, 2000, 8)
        t_grid = np.array([0.5])
        for other in (sample_stopped_batch(IID, 256.0, 2000, 8),   # n
                      sample_stopped_batch(IID, 64.0, 1000, 8)):   # r
            with pytest.raises(ValueError, match="the report is of"):
                probe_from_batch(batch, report_from_batch(other), t_grid)
        probe_from_batch(batch, report_from_batch(batch), t_grid)

    def test_empty_t_grid_named(self):
        batch = sample_stopped_batch(IID, 64.0, 200, 8)
        for grid in ([], np.array([])):
            with pytest.raises(ValueError, match="the t grid is empty"):
                probe_from_batch(batch, report_from_batch(batch), grid)
            with pytest.raises(ValueError, match="the t grid is empty"):
                CfProbe.from_samples(np.zeros(10), grid)

    def test_resolution_limited_flagged_not_failed(self):
        # r = 200 cannot resolve the O(t^2/n) right-hand side of (9)
        probe = sampled_probe(IID, 1024.0, 200, [0.25], seed=8)
        chk = [c for c in probe.checks if c.name == "cf9"][0]
        assert chk.resolution_limited
        assert chk.ok

    def test_inequalities_hold_moderate_scale(self):
        probe = sampled_probe(REGIME, 256.0, 50_000, [-2.0, -0.5, 0.5, 2.0],
                            seed=8)
        assert probe.passed

    @pytest.mark.parametrize("kind,n,r,bound", [
        ("iid_bounded", 4096.0, 20_000, 86),
        ("product", 256.0, 10**5, 124),
    ])
    def test_memory_per_path(self, kind, n, r, bound):
        """The tracemalloc peak of one probe call, in bytes per path: the
        column keys and the joint key (none for the product kind, whose
        values are mostly distinct), the temporaries of one key's sort or
        count, and then one (k, r) buffer and the block's tables."""
        batch = sample_stopped_batch(ModelSpec(kind, {}), n, r, 1)
        report = report_from_batch(batch)
        t_grid = make_t_grid(report.y_smoothing)
        tracemalloc.start()
        try:
            probe_from_batch(batch, report, t_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * r


def cf_rows(*checks):
    """The rows of a probe that holds only the given checks."""
    return CfProbe(t_grid=np.zeros(0), c3=np.zeros(0), se3=np.zeros(0),
                   checks=tuple(InequalityCheck(*c) for c in checks)).rows()


class TestCfRows:
    """A CF row reads its worst point, the smallest rhs + 4 stderr - lhs,
    and is flagged only where Monte-Carlo resolution explains it."""

    def test_first_tied_worst_point_binds(self):
        # upper - lhs: 1, then 0.25 three times (the 2nd by its stderr)
        row, = cf_rows(("cf9", 0.0, 0.0, 1.0, 0.0, False),
                       ("cf9", 0.5, 0.25, 0.5, 0.0, False),
                       ("cf9", 1.0, 0.0, 0.125, 0.03125, False),
                       ("cf9", 2.0, 0.5, 0.75, 0.0, False))
        assert (row.check, row.estimate, row.stderr, row.bound) == (
            "cf9", 0.25, 0.0, 0.5)
        assert (row.margin, row.passed, row.resolution_limited) == (
            0.25, True, False)

    def test_rows_in_the_order_of_the_checks(self):
        rows = cf_rows(("cf8", 0.5, 0.0, 1.0, 0.0, False),
                       ("cf7", 0.5, 0.0, 1.0, 0.0, False),
                       ("cf8", 1.0, 0.5, 1.0, 0.0, False))
        assert [r.check for r in rows] == ["cf8", "cf7"]
        assert rows[0].estimate == 0.5

    @pytest.mark.parametrize("limited,flagged", [
        ((True, True, False), True),    # every failing point is limited
        ((True, False, True), False),   # one failing point is resolved
        ((False, False, True), False),
    ])
    def test_fail_row_flagged_only_if_every_failure_is(self, limited,
                                                       flagged):
        # two failing points (lhs above rhs + 4 stderr), then one passing
        row, = cf_rows(("cf7", 0.5, 2.0, 1.0, 0.0, limited[0]),
                       ("cf7", 1.0, 3.0, 1.0, 0.0, limited[1]),
                       ("cf7", 2.0, 0.0, 1.0, 0.0, limited[2]))
        assert not row.passed
        assert row.resolution_limited is flagged
        assert (row.estimate, row.margin) == (3.0, -2.0)

    @pytest.mark.parametrize("limited,flagged", [
        ((False, True), True), ((True, False), True), ((False, False), False),
    ])
    def test_pass_row_flagged_if_any_point_is(self, limited, flagged):
        # the second point passes only through its 4-stderr band
        row, = cf_rows(("cf_combined", 0.5, 0.0, 1.0, 0.0, limited[0]),
                       ("cf_combined", 1.0, 1.5, 1.0, 0.25, limited[1]))
        assert row.passed
        assert row.resolution_limited is flagged
        assert (row.estimate, row.margin) == (1.5, -0.5)

    def test_probe_without_checks_has_no_rows(self):
        assert CfProbe.from_samples(np.zeros(10), [0.5]).rows() == ()


def reference_moments(w):
    """np.mean of a complex sample, and the stderr of its magnitude from
    np.std(ddof=1) of each part, as the probe defines them."""
    mean = complex(np.mean(w))
    if w.size < 2:
        return mean, 0.0
    return mean, math.hypot(np.std(w.real, ddof=1) / math.sqrt(w.size),
                            np.std(w.imag, ddof=1) / math.sqrt(w.size))


def reference_probe(batch, n, t_grid):
    """The CF probe as one loop over every t and every path: the reference
    the probe must match bit for bit."""
    a_hat, a_se = estimate_a_n(batch.y_nu)
    a = a_hat + 3.0 * a_se
    sqrt_n = math.sqrt(n)
    phase_f = batch.s_nu / sqrt_n
    phase_h = batch.s_prime_nu / sqrt_n
    c3 = np.empty(t_grid.size, dtype=complex)
    se3 = np.empty(t_grid.size)
    checks = []
    for i, t in enumerate(t_grid):
        w3 = np.exp(1j * t * phase_f)
        w4 = np.exp(1j * t * phase_h)
        growth = np.exp((t * t / (2.0 * n)) * batch.v_before)
        w1 = growth * w3
        w2 = math.exp(t * t / 2.0) * w3
        c1, se1 = reference_moments(w1)
        c3[i], se3[i] = reference_moments(w3)
        d12, se12 = reference_moments(w1 - w2)
        d34, se34 = reference_moments(w3 - w4)
        abs_t = abs(t)
        e_half = math.exp(t * t / 2.0)
        rhs7 = a * e_half * (
            abs_t / (3.0 * sqrt_n)
            + t * t / (4.0 * n)
            + a * abs_t**3 / (3.0 * n**1.5)
            + a * t**4 / (4.0 * n * n)
        )
        rhs8 = a * t * t / (2.0 * n) * e_half
        rhs9 = 3.0 * a * t * t / (2.0 * n)
        rhs_comb = a * (
            abs_t / (3.0 * sqrt_n)
            + 3.0 * t * t / (4.0 * n)
            + a * abs_t**3 / (3.0 * n**1.5)
            + a * t**4 / (4.0 * n * n)
        )
        for name, lhs, rhs, se in (
            ("cf7", abs(c1 - 1.0), rhs7, se1),
            ("cf8", abs(d12), rhs8, se12),
            ("cf9", abs(d34), rhs9, se34),
            ("cf_combined", abs(c3[i] - math.exp(-t * t / 2.0)), rhs_comb,
             se3[i]),
        ):
            checks.append(InequalityCheck(
                name=name, t=float(t), lhs=float(lhs), rhs=float(rhs),
                stderr=float(se), resolution_limited=bool(rhs < se),
            ))
    return c3, se3, tuple(checks)


def check_fields(check):
    return [getattr(check, f.name) for f in dataclasses.fields(check)]


PROBE_N = 300.0  # y > 2 for every kind; not a power of two, so t^2/2n rounds
PROBE_SPECS = [ModelSpec(kind, {}) for kind in KINDS] + [REGIME]


@pytest.fixture(scope="module", params=PROBE_SPECS,
                ids=lambda spec: f"{spec.kind}-{sorted(spec.params.items())}")
def probe_batch(request):
    return sample_stopped_batch(request.param, PROBE_N, 3000, 17)


def assert_same_complex(got, want):
    """Equal arrays, down to the sign of every zero part."""
    assert np.array_equal(got, want), (got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def assert_probe_is_reference(batch, t_grid):
    probe = probe_from_batch(batch, report_from_batch(batch), t_grid)
    c3, se3, checks = reference_probe(batch, batch.n, t_grid)
    assert_same_complex(probe.c3, c3)
    assert np.array_equal(probe.se3, se3)
    assert len(probe.checks) == len(checks) == 4 * t_grid.size
    for got, want in zip(probe.checks, checks):
        for a, b in zip(check_fields(got), check_fields(want)):
            assert np.array_equal(a, b), (got, want)


def make_batch(s_nu, s_prime_nu, v_before, y_nu=1.0):
    """A batch at n = PROBE_N holding the columns the CF probe reads."""
    s_nu = np.asarray(s_nu, dtype=float)
    ones = np.ones_like(s_nu)
    return StoppedBatch(
        n=PROBE_N, nu=np.ones(s_nu.size, dtype=np.int64), gamma=ones,
        s_nu=s_nu, s_prime_nu=np.asarray(s_prime_nu, dtype=float),
        y_nu=y_nu * ones,
        v_before=np.asarray(v_before, dtype=float) * ones, sigma_nu_sq=ones)


# y_nu = 1 gives a = 1 and y = PROBE_N^(1/4) > 4
EDGE_GRID = np.array([-3.5, -1.25, -0.5, 0.0, 0.5, 1.25, 2.0, 4.0])
LATTICE = [-1.5, -0.5, -0.0, 0.0, 0.25, 0.5, 2.0]


@st.composite
def lattice_batches(draw):
    """Small batches on a lattice holding both zeros, so values repeat."""
    r = draw(st.integers(2, 40))
    column = st.lists(st.sampled_from(LATTICE), min_size=r, max_size=r)
    v_before = st.lists(st.sampled_from([0.0, 1.0, 150.0, 299.0]),
                        min_size=r, max_size=r)
    return make_batch(draw(column), draw(column), draw(v_before))


@pytest.fixture(params=[1, 2, 7, None],
                ids=["block1", "block2", "block7", "whole-grid"])
def t_block(request, monkeypatch):
    """Blocks of this many |t| (the whole grid if None) for r paths."""
    def use(r, t_grid):
        k = request.param or t_grid.size
        monkeypatch.setattr(harness, "_BLOCK_VALUES", k * r)
        values = np.unique(np.abs(t_grid)).size
        assert harness._AbsTGrid(t_grid).blocks(r)[0].stop == min(k, values)
    return use


class TestProbeMatchesPerTLoop:
    """Evaluating once per |t| and once per distinct sample value, in
    blocks of |t|, gives the floats of the per-t, per-path loop."""

    @pytest.mark.parametrize("grid", ["symmetric", "positive", "negative"])
    def test_bit_for_bit(self, probe_batch, grid, t_block):
        y = report_from_batch(probe_batch).y_smoothing
        t_grid = {
            "symmetric": make_t_grid(y),
            "positive": np.array([0.5, 1.0, 2.0]),
            "negative": np.array([-1.5]),
        }[grid]
        t_block(probe_batch.size, t_grid)
        assert_probe_is_reference(probe_batch, t_grid)

    def test_all_distinct_batch(self, t_block):
        rng = np.random.default_rng(11)
        batch = make_batch(rng.normal(size=3000), rng.normal(size=3000),
                           rng.uniform(280.0, 299.0, size=3000))
        assert probe_paths(batch)._joint is None
        t_block(batch.size, EDGE_GRID)
        assert_probe_is_reference(batch, EDGE_GRID)

    def test_regime_few_s_many_s_prime(self):
        # S lies on a lattice, S' = S + sqrt(gamma) X does not
        n = 30.0
        spec = ModelSpec("regime_switch", {"v_lo": 1 / 3, "v_hi": 0.7})
        batch = sample_stopped_batch(spec, n, 3000, 5)
        paths = probe_paths(batch)
        s, s_h, _ = paths.columns
        assert 2 * s.codes.size <= batch.size < 2 * s_h.codes.size
        assert paths._joint is None
        assert_probe_is_reference(batch, make_t_grid(2.0))

    @pytest.mark.parametrize("kind", ["iid_bounded", "distinct"])
    def test_rows_longer_than_a_reduction_buffer(self, kind, t_block):
        # numpy's iterators buffer 8192 elements; a row is reduced whole
        r = 20000
        if kind == "distinct":
            rng = np.random.default_rng(5)
            batch = make_batch(rng.normal(size=r), rng.normal(size=r),
                               rng.uniform(280.0, 299.0, size=r))
        else:
            batch = sample_stopped_batch(IID, PROBE_N, r, 3)
        t_block(r, EDGE_GRID)
        assert_probe_is_reference(batch, EDGE_GRID)

    def test_signed_zeros(self, t_block):
        s = np.array([0.0, -0.0, -0.0, 0.5, 0.0, -0.5] * 50)
        batch = make_batch(s, -s[::-1], np.where(s == 0.0, 0.0, 2.0))
        t_block(batch.size, EDGE_GRID)
        assert_probe_is_reference(batch, EDGE_GRID)
        all_negative_zero = make_batch(np.full(9, -0.0), np.full(9, -0.0), 0.0)
        assert_probe_is_reference(all_negative_zero, EDGE_GRID)

    def test_two_paths(self):
        assert_probe_is_reference(make_batch([0.5, -1.5], [0.25, -0.0], 3.0),
                                  EDGE_GRID)

    @settings(max_examples=150, deadline=None)
    @given(lattice_batches())
    def test_lattice_batches(self, batch):
        assert_probe_is_reference(batch, EDGE_GRID)

    def test_negative_t_rows_mirror_positive(self, probe_batch):
        report = report_from_batch(probe_batch)
        t_grid = make_t_grid(report.y_smoothing)
        probe = probe_from_batch(probe_batch, report, t_grid)
        rows = {(c.name, c.t): c for c in probe.checks}
        mirrored = 0
        for (name, t), row in rows.items():
            if t < 0:
                twin = rows[(name, -t)]
                assert dataclasses.replace(row, t=-t) == twin
                mirrored += 1
        assert mirrored == 4 * (t_grid.size // 2)
        neg = t_grid < 0
        assert np.array_equal(probe.c3[neg], np.conj(probe.c3[::-1][neg]))

    def test_from_samples_bit_for_bit(self, t_block):
        samples = np.round(np.random.default_rng(3).normal(size=5000), 2)
        t_block(samples.size, make_t_grid(10.0))
        assert_from_samples_is_reference(samples)

    @pytest.mark.parametrize("samples", [
        np.random.default_rng(3).normal(size=500),
        np.array([0.0, -0.0, 0.0, 1.5, -0.0]),
        np.array([-0.75]),
    ], ids=["all-distinct", "signed-zeros", "one-sample"])
    def test_from_samples_edge_cases(self, samples, t_block):
        t_block(samples.size, make_t_grid(10.0))
        probe = assert_from_samples_is_reference(samples)
        if samples.size == 1:
            assert np.all(probe.se3 == 0.0)


def assert_from_samples_is_reference(samples):
    t_grid = make_t_grid(10.0)
    probe = CfProbe.from_samples(samples, t_grid)
    for i, t in enumerate(t_grid):
        c, se = reference_moments(np.exp(1j * t * samples))
        assert_same_complex(probe.c3[i], c)
        assert probe.se3[i] == se
    return probe


def probe_paths(batch):
    """The _Paths of a batch's (S, S', V), as probe_from_batch keys them."""
    sqrt_n = math.sqrt(batch.n)
    return _Paths([batch.s_nu / sqrt_n, batch.s_prime_nu / sqrt_n,
                   batch.v_before])


def lattice_columns(counts, r, seed):
    """Columns of r paths in random order, each path in one of r // 2
    states s: column j is (s mod counts[j]) / 2, so it takes counts[j]
    values and the paths at most r // 2 joint values."""
    state = np.random.default_rng(seed).permutation(np.arange(r) % (r // 2))
    return [(state % k) * 0.5 for k in counts]


def assert_joint_is_unique(paths, columns):
    """The joint key groups the paths as np.unique over their bit patterns
    does, in its order."""
    bits = np.stack(columns, axis=1).view(np.int64)
    keys, inverse = np.unique(bits, axis=0, return_inverse=True)
    assert paths._joint.codes.size == len(keys)
    assert np.array_equal(paths._joint.inverse, inverse.reshape(-1))


def assert_columns_read_per_path(paths, columns):
    """Each column's values read at the joint keys gather to the column."""
    for j, (key, x) in enumerate(zip(paths.columns, columns)):
        out = np.empty((1, x.size))
        got = paths.gather(paths.at(j, key.values[None, :]), out)[0]
        assert np.array_equal(got.view(np.int64), x.view(np.int64))


class TestPaths:
    def test_column_is_keyed_by_bits(self):
        x = np.array([0.5, -0.0, 0.5, 0.0, 0.5, 0.5])
        key = _Key(x)
        # -0.0 and 0.0 are two keys
        assert key.values.size == 3
        assert np.array_equal(key.values[key.inverse].view(np.int64),
                              x.view(np.int64))

    # the first fold's grid of (S, S') cells is counted up to 4 cells per
    # path, and sorted above that
    @pytest.mark.parametrize("counts,r,counted", [
        ((1, 150, 1), 1000, True),      # one-key columns, as V of iid
        ((150, 1, 1), 1000, True),
        ((1, 1, 1), 50, True),          # one key in all
        ((40, 50, 1), 500, True),       # a grid at the cut
        ((40, 50, 1), 499, False),      # just above it
        ((60, 70, 3), 1000, False),
        ((12, 1, 40), 3000, True),
    ])
    def test_joint_key_is_unique_over_bit_triples(self, monkeypatch, counts,
                                                   r, counted):
        columns = lattice_columns(counts, r, sum(counts) + r)
        spans = []
        monkeypatch.setattr(harness, "_unique", lambda codes, span=None:
                            spans.append(span) or _unique(codes, span))
        paths = _Paths(columns)
        assert spans[:3] == [None] * 3 and len(spans) == 5
        assert (spans[3] <= harness._COUNTED_CELLS * r) == counted
        assert_joint_is_unique(paths, columns)
        assert_columns_read_per_path(paths, columns)

    def test_signed_zeros_are_two_joint_keys(self):
        columns = [np.array([0.0, -0.0] * 4), np.repeat([1.0, 2.0], 4),
                   np.zeros(8)]
        paths = _Paths(columns)
        assert_joint_is_unique(paths, columns)
        assert paths._joint.codes.size == 4
        assert_columns_read_per_path(paths, columns)

    @pytest.mark.parametrize("columns", [
        [[1.0, 1.0, 2.0, 3.0]],             # three keys for four paths
        [[0.0, 1.0] * 4, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]],
        [[0.0, 1.0] * 4, np.arange(8.0), [5.0] * 8],
    ], ids=["one-column", "pairs", "distinct-column"])
    def test_mostly_distinct_keys_are_the_paths(self, columns):
        columns = [np.array(x) for x in columns]
        paths = _Paths(columns)
        assert paths._joint is None
        table = np.ones((2, columns[0].size), dtype=complex)
        assert paths.gather(table, None) is table
        assert_columns_read_per_path(paths, columns)

    def test_half_distinct_is_keyed(self):
        columns = [np.array([1.0, 1.0, 2.0, 2.0]), np.array([3.0] * 4)]
        paths = _Paths(columns)
        assert paths._joint.codes.size == 2
        assert_columns_read_per_path(paths, columns)

    def test_a_mostly_distinct_column_stops_the_fold(self, monkeypatch):
        spans = []
        monkeypatch.setattr(harness, "_unique", lambda codes, span=None:
                            spans.append(span) or _unique(codes, span))
        lattice = np.array([0.0, 1.0] * 4)
        distinct, zeros = np.arange(8.0), np.zeros(8)
        _Paths([distinct, lattice, zeros])
        assert spans == [None] * 3              # no joint codes
        del spans[:]
        _Paths([lattice, distinct, zeros])      # (S, S') and no more
        assert spans == [None] * 3 + [2 * 8]

    @pytest.mark.parametrize("keys_a,keys_b,r", [
        (1, 150, 1000),     # a one-key column, as V of the iid kind
        (150, 1, 1000),
        (1, 1, 50),         # one key in all
        (40, 50, 500),      # a grid at the cut: 4 cells per path, counted
        (40, 50, 499),      # just above it: sorted
        (30, 30, 3000),
    ])
    def test_unique_by_counting_equals_np_unique(self, monkeypatch, keys_a,
                                                 keys_b, r):
        rng = np.random.default_rng(keys_a * keys_b + r)
        a, b = (_Key(rng.permutation(np.arange(r) % k).astype(float))
                for k in (keys_a, keys_b))
        codes = a.inverse * b.codes.size + b.inverse
        span = a.codes.size * b.codes.size
        assert span == keys_a * keys_b
        want = np.unique(codes, return_inverse=True)
        sorted_, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *args, **kw:
                            sorted_.append(1) or unique(*args, **kw))
        got = _unique(codes, span)
        assert bool(sorted_) == (span > harness._COUNTED_CELLS * r)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestEsseen:
    def test_smoothing_term_formula(self):
        grid = make_t_grid(10.0)
        probe = CfProbe.from_samples(np.random.default_rng(0).normal(size=200),
                                     grid)
        res10 = esseen_numeric(probe, 10.0)
        assert res10.smoothing_term == pytest.approx(
            24.0 / (math.pi * math.sqrt(2 * math.pi) * 10.0), rel=1e-14
        )
        # doubling y halves the smoothing term exactly
        grid20 = make_t_grid(20.0)
        probe20 = CfProbe.from_samples(
            np.random.default_rng(0).normal(size=200), grid20
        )
        res20 = esseen_numeric(probe20, 20.0)
        assert res20.smoothing_term == pytest.approx(
            res10.smoothing_term / 2.0, rel=1e-14
        )

    def test_gaussian_injection(self):
        samples = np.random.default_rng(5).normal(size=20_000)
        probe = CfProbe.from_samples(samples, make_t_grid(10.0))
        res = esseen_numeric(probe, 10.0)
        assert res.total == pytest.approx(0.30476945248435665, abs=0.03)
        assert res.integral >= 0.0

    def test_upper_bounds_the_distance(self):
        n = 256.0
        batch = sample_stopped_batch(IID, n, 20_000, 6)
        rep = report_from_batch(batch)
        y = rep.y_smoothing
        probe = probe_from_batch(batch, rep, make_t_grid(y))
        res = esseen_numeric(probe, y)
        assert res.total >= rep.d_f.d_sup - rep.d_f.dkw_halfwidth - 0.02

    def test_row_allows_the_dkw_band_and_the_slack(self):
        res = harness.EsseenResult(total=0.25, integral=0.0,
                                   smoothing_term=0.25)
        at = DistanceResult(0.25 + (0.125 + harness.ESSEEN_SLACK), 0.0, 0.125)
        row = res.row(at)
        assert (row.check, row.estimate, row.stderr, row.bound) == (
            "esseen", at.d_sup, 0.125, 0.25)
        assert row.passed and row.margin == 0.0
        above = DistanceResult(math.nextafter(at.d_sup, 1.0), 0.0, 0.125)
        assert not res.row(above).passed

    def test_grid_coverage_required(self):
        probe = CfProbe.from_samples(np.zeros(10), make_t_grid(5.0))
        with pytest.raises(ValueError):
            esseen_numeric(probe, 10.0)

    def test_grid_density_required(self):
        # every other point of the grid: 65 points that still span [-y, y]
        probe = CfProbe.from_samples(np.zeros(10), make_t_grid(10.0)[::2])
        with pytest.raises(ValueError):
            esseen_numeric(probe, 10.0)


def fake_report(n, d):
    return SimpleNamespace(n=n, d_f=SimpleNamespace(d_sup=d))


def assert_same_float(got, want):
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    assert np.signbit(got) == np.signbit(want), (got, want)


def assert_fit_is_linregress(ns, ds):
    """rate_fit gives linregress's slope, stderr and intercept bit for bit."""
    fit = rate_fit([fake_report(n, d) for n, d in zip(ns, ds)])
    want = stats.linregress(np.log(np.array(ns, dtype=float)),
                            np.log(np.array(ds, dtype=float)))
    assert_same_float(fit.slope, float(want.slope))
    assert_same_float(fit.stderr, float(want.stderr))
    assert_same_float(fit.intercept, float(want.intercept))
    return fit


@st.composite
def rate_points(draw):
    """4 to 12 points with strictly increasing n and positive d."""
    ns = draw(st.lists(st.floats(2.0, 1e9), min_size=4, max_size=12,
                       unique=True).map(sorted))
    ds = draw(st.lists(st.floats(1e-300, 1.0), min_size=len(ns),
                       max_size=len(ns)))
    return ns, ds


class TestRateFit:
    def test_exact_half_slope(self):
        ns = [64, 256, 1024, 4096]
        fit = assert_fit_is_linregress(ns, [3.0 * n**-0.5 for n in ns])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.stderr <= 1e-12

    def test_exact_quarter_slope(self):
        ns = [64, 256, 1024, 4096]
        fit = assert_fit_is_linregress(ns, [3.0 * n**-0.25 for n in ns])
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(rate_points())
    def test_matches_linregress(self, points):
        assert_fit_is_linregress(*points)

    def test_rounded_r_is_clipped(self):
        # here r rounds to -1 - 2^-52; unclipped, 1 - r^2 < 0 and the
        # stderr would be nan
        ns = [64, 256, 1024, 4096]
        fit = assert_fit_is_linregress(ns, [2.0 * n**-0.5 for n in ns])
        assert fit.stderr == 0.0

    def test_equal_distances(self):
        # ssym = ssxym = 0: linregress takes r = nan, so the stderr is nan
        fit = assert_fit_is_linregress([64, 256, 1024, 4096], [0.05] * 4)
        assert fit.slope == 0.0
        assert math.isnan(fit.stderr)

    def test_default_threshold_is_rate_bound(self):
        at = harness.RateFit(harness.RATE_BOUND, 0.0, 0.0)
        above = harness.RateFit(math.nextafter(harness.RATE_BOUND, 0.0),
                                0.0, 0.0)
        assert at.row().passed and not above.row().passed

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            rate_fit([fake_report(64, 0.1), fake_report(256, 0.05)])

    def test_needs_increasing_n(self):
        reps = [fake_report(n, 0.1) for n in (64, 256, 128, 512)]
        with pytest.raises(ValueError):
            rate_fit(reps)
