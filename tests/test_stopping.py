import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stopsum import (
    ConfigurationError,
    DegenerateStartError,
    ModelSpec,
    PathOverflowError,
    compute_gamma,
    derive_seed,
    init_model,
    lemma1_check,
    models,
    run_path,
    sample_stopped_batch,
    step_model,
    stopping,
)
from stopsum.cli import LEMMA1_T_GRID, build_config, run_experiment

mpmath.mp.dps = 40

IID = ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0})


def constant_variance_oracle(v, n):
    """Hand enumeration of the partial sums v, 2v, 3v, ... for the stopping
    time.  With a constant term the exactly-rounded partial sum is the
    rounded product (k+1)*v, which matches compensated accumulation."""
    k = 1
    while (k + 1) * v < n:
        k += 1
    return k, (n - k * v) / v


class TestComputeGamma:
    def test_exact_hit(self):
        assert compute_gamma(9.0, 1.0, 10.0) == 1.0

    def test_half(self):
        assert compute_gamma(4.0, 2.0, 5.0) == 0.5

    def test_other_half(self):
        assert compute_gamma(9.5, 1.0, 10.0) == 0.5

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DegenerateStartError):
            compute_gamma(1.0, 0.0, 2.0)

    def test_rejects_threshold_outside_window(self):
        with pytest.raises(DegenerateStartError):
            compute_gamma(5.0, 1.0, 4.0)   # n <= v_before
        with pytest.raises(DegenerateStartError):
            compute_gamma(1.0, 1.0, 3.0)   # n > v_before + sigma^2

    def test_many_paths(self):
        gamma = compute_gamma(np.array([9.0, 8.0, 9.5]),
                              np.array([1.0, 4.0, 1.0]), 10.0)
        assert gamma.tolist() == [1.0, 0.5, 0.5]
        with pytest.raises(DegenerateStartError):   # one path out of window
            compute_gamma(np.array([9.0, 10.0]), np.array([1.0, 1.0]), 10.0)


class TestRunPath:
    def test_unit_variance_example(self):
        sample = run_path(init_model(IID, 42), 10.0)
        assert sample.nu == 9
        assert sample.gamma == 1.0
        assert sample.v_before == 9.0

    def test_gamma_one_means_plain_longer_sum(self):
        # with gamma = 1, S'_nu must equal S_{nu+1} bit for bit
        sample = run_path(init_model(IID, 42), 10.0)
        state = init_model(IID, 42)
        s10 = sum(step_model(state).x for _ in range(10))
        assert sample.s_prime_nu == s10

    def test_constant_variance_two(self):
        spec = ModelSpec("iid_bounded", {"m": 2.0, "v": 2.0})
        sample = run_path(init_model(spec, 1), 5.0)
        assert sample.nu == 2
        assert sample.v_before == 4.0
        assert sample.gamma == 0.5

    @pytest.mark.parametrize("v", [1.0, 2.0, 0.25])
    def test_closed_forms_all_small_n(self, v):
        spec = ModelSpec("iid_bounded", {"m": max(1.0, math.sqrt(v)), "v": v})
        lo = int(math.floor(2 * v)) + 1
        for n in range(lo, 201):
            nu_exp, gamma_exp = constant_variance_oracle(v, float(n))
            assert nu_exp == max(1, math.ceil(n / v) - 1)
            sample = run_path(init_model(spec, n), float(n))
            assert sample.nu == nu_exp
            assert abs(sample.gamma - gamma_exp) <= 1e-12

    @pytest.mark.parametrize("kind,params", [
        ("iid_bounded", {"m": 1.0, "v": 1.0}),
        ("product", {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.1}),
        ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}),
    ])
    def test_residual_and_minimality(self, kind, params):
        spec = ModelSpec(kind, params)
        for seed in range(50):
            s = run_path(init_model(spec, seed), 100.0)
            assert abs(s.v_before + s.gamma * s.sigma_nu_sq - 100.0) <= 1e-12 * 100.0
            assert s.v_before < 100.0 <= s.v_before + s.sigma_nu_sq
            assert 0.0 < s.gamma <= 1.0
            assert s.nu >= 1

    def test_degenerate_threshold_rejected(self):
        spec = ModelSpec("iid_bounded", {"m": 2.0, "v": 4.0})
        with pytest.raises(DegenerateStartError):
            run_path(init_model(spec, 0), 6.0)  # n < 2 sigma_0^2 = 8

    def test_prefix_retention(self):
        sample = run_path(init_model(IID, 3), 12.0)
        prefix = sample.sigma_prefix
        assert prefix.shape == (sample.nu,)
        assert prefix[-1] == sample.v_before
        assert np.all(np.diff(prefix, prepend=0.0) == 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        v=st.floats(0.1, 4.0),
        n=st.floats(10.0, 500.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_constant_variance_property(self, v, n, seed):
        spec = ModelSpec("iid_bounded", {"m": max(1.0, 2.0 * math.sqrt(v)),
                                         "v": v})
        nu_exp, gamma_exp = constant_variance_oracle(v, n)
        # skip knife-edge ties where one ulp of accumulation order flips nu
        assume(all(abs(j * v - n) > 1e-9 * n for j in range(1, nu_exp + 3)))
        sample = run_path(init_model(spec, seed), n)
        assert sample.nu == nu_exp
        assert abs(sample.gamma - gamma_exp) <= 1e-9
        assert abs(sample.s_nu) <= sample.nu * math.sqrt(v) + 1e-12


class TestTies:
    """n = k v exactly, in the rounded product or in the summed variances."""

    def test_reported_tie(self):
        spec = ModelSpec("iid_bounded", {"m": 1.0, "v": 1 / 3})
        sample = run_path(init_model(spec, 0), 423.0)
        assert sample.v_before < 423.0 <= sample.v_before + sample.sigma_nu_sq
        assert 0.0 < sample.gamma <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        v=st.sampled_from([1 / 3, 0.1, 0.7, 0.3, 1 / 7]) | st.floats(0.1, 4.0),
        k=st.integers(2, 1500),
        summed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ties_keep_the_invariants(self, v, k, summed, seed):
        n = k * v
        if summed:
            n = 0.0
            for _ in range(k):
                n += v
        spec = ModelSpec("iid_bounded", {"m": max(1.0, 2.0 * math.sqrt(v)),
                                         "v": v})
        scalar = run_path(init_model(spec, seed), n)
        batch = sample_stopped_batch(spec, n, 2, seed)
        for nu, gamma, v_before, sigma_sq in (
            (scalar.nu, scalar.gamma, scalar.v_before, scalar.sigma_nu_sq),
            (batch.nu[0], batch.gamma[0], batch.v_before[0],
             batch.sigma_nu_sq[0]),
        ):
            assert nu >= 1
            assert 0.0 < gamma <= 1.0
            assert v_before < n <= v_before + sigma_sq
        assert batch.nu[0] == scalar.nu
        assert batch.gamma[0] == scalar.gamma
        assert batch.v_before[0] == scalar.v_before
        # rounding moves the crossing by at most one step from exact arithmetic
        exact = 1
        while (exact + 1) * Fraction(v) < Fraction(n):
            exact += 1
        assert abs(scalar.nu - exact) <= 1


    @pytest.mark.parametrize("kind,params", [
        ("regime_switch", {"v_lo": 1 / 3, "v_hi": 0.7}),
        ("product", {"a_lo": 1.1, "a_hi": 1.3, "p_growth": 0.5}),
    ])
    def test_block_samplers_keep_gamma_at_most_one(self, kind, params):
        # n = k v_lo with non-dyadic variances: the float sum can land on n
        # a rounding step above n - v_before = sigma^2_nu
        spec = ModelSpec(kind, params)
        for k in range(3, 40):
            n = k * spec.law.variance_floor
            batch = sample_stopped_batch(spec, n, 500, k)
            assert np.all((batch.gamma > 0.0) & (batch.gamma <= 1.0)), k
            assert np.all((batch.v_before < n)
                          & (n <= batch.v_before + batch.sigma_nu_sq)), k


class TestLemma1:
    def test_zero_t(self):
        sample = run_path(init_model(IID, 5), 10.0)
        res = lemma1_check([sample], [0.0])
        assert res.lhs.tolist() == [[0.0]]
        assert res.rhs.tolist() == [[1.0]]
        assert res.ok.all()

    def test_unit_variance_closed_form(self):
        # sigma^2 = 1, n = 10, nu = 9: LHS is the geometric sum
        # sum_{j=1}^{9} e^{j/20} / 20
        sample = run_path(init_model(IID, 5), 10.0)
        res = lemma1_check([sample], [1.0])
        q = mpmath.e ** (mpmath.mpf(1) / 20)
        lhs_oracle = float(q * (q**9 - 1) / (q - 1) / 20)
        rhs_oracle = float(mpmath.e ** mpmath.mpf("0.5") * mpmath.mpf("1.1"))
        assert abs(res.lhs[0, 0] - lhs_oracle) <= 1e-12
        assert abs(res.rhs[0, 0] - rhs_oracle) <= 1e-12
        assert res.ok[0, 0]

    @pytest.mark.parametrize("kind,params", [
        ("iid_bounded", {"m": 1.0, "v": 1.0}),
        ("product", {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.1}),
        ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}),
    ])
    def test_holds_on_sampled_paths(self, kind, params):
        spec = ModelSpec(kind, params)
        for seed in range(25):
            sample = run_path(init_model(spec, seed), 64.0)
            res = lemma1_check([sample], (0.5, 1.0, 2.0, 5.0, 10.0))
            assert res.lhs.shape == (1, 5)
            assert res.ok.all(), (kind, seed, res)

    def test_rejects_non_finite_t(self):
        sample = run_path(init_model(IID, 5), 10.0)
        with pytest.raises(ValueError):
            lemma1_check([sample], [1.0, math.inf])

    def test_rejects_empty_t(self):
        sample = run_path(init_model(IID, 5), 10.0)
        with pytest.raises(ValueError, match="t must be a nonempty"):
            lemma1_check([sample], [])

    def test_rejects_no_path_set(self):
        with pytest.raises(ValueError, match="no path set"):
            lemma1_check([], [1.0])
        with pytest.raises(ValueError, match="no path set"):
            lemma1_check(stopping.run_lockstep(IID, 0, 0, 10.0), [1.0])


class TestThreshold:
    """Every engine's result carries the n its paths were stopped at, as a
    float, and lemma1_check checks each path set at its own n."""

    SPEC = ModelSpec("product", {})     # Y_nu takes several values

    @pytest.mark.parametrize("n", [16, np.int64(16), 16.0, 40.5])
    def test_engines_carry_n_as_a_float(self, monkeypatch, n):
        monkeypatch.setattr(stopping, "_lanes_per_chunk", lambda spec, cap: 16)
        chunks = list(stopping.run_lockstep(self.SPEC, 0, 40, n))
        assert len(chunks) == 3
        for result in chunks + [run_path(init_model(self.SPEC, 0), n)]:
            assert type(result.n) is float and result.n == n

    @pytest.mark.parametrize("n", [16, 16.0])
    def test_run_path_sample_keeps_its_lemma1_arrays(self, n):
        # the arrays that lemma1_check(paths, t, n) gave with n = 16 passed
        # apart from the paths
        sample = run_path(init_model(self.SPEC, 3), n)
        assert (sample.nu, sample.y_nu) == (10, 1.5)
        res = lemma1_check([sample], LEMMA1_T_GRID)
        assert res.lhs.tolist() == [[
            0.1251908466294752, 0.6151689647079268, 6.240363613498056,
            260871.12973432324, 1.6031360844679582e+21]]
        assert res.rhs.tolist() == [[
            1.172985703369957, 1.8805726993923337, 11.545400154579141,
            1211710.5594458238, 7.809462702434277e+22]]

    def test_each_path_set_at_its_own_n(self):
        # a path of n = 16, a chunk of n = 64 and a path of n = 40.5, in
        # one check: each row is the single-path formula at its path's n
        seeds = [derive_seed(5, p) for p in range(4)]
        sets = [run_path(init_model(self.SPEC, 3), 16.0),
                next(stopping.run_lockstep(self.SPEC, 5, 4, 64.0)),
                run_path(init_model(self.SPEC, 7), 40.5)]
        paths = [(3, 16.0), *((seed, 64.0) for seed in seeds), (7, 40.5)]
        res = lemma1_check(sets, LEMMA1_T_GRID)
        assert res.lhs.shape == (6, len(LEMMA1_T_GRID))
        for i, (seed, n) in enumerate(paths):
            sample = run_path(init_model(self.SPEC, seed), n)
            for j, t in enumerate(LEMMA1_T_GRID):
                oracle = _lemma1_oracle(sample.sigma_prefix, sample.y_nu, t, n)
                assert (res.lhs[i, j], res.rhs[i, j]) == oracle, (i, t)


class TestZeroLedSum:
    """lemma1_check sums each path's terms by np.add.reduceat over a
    segment led by 0.0; reduceat adds a segment's first value to the
    pairwise sum of the rest, so the segment gives np.sum's bits."""

    LENGTHS = [*range(1, 601), 4097, 10_000]

    def test_equals_np_sum_per_segment(self):
        rng = np.random.default_rng(11)
        lengths = np.array(self.LENGTHS)
        # per length, a segment of positive terms and one of zeros (t = 0)
        sizes = np.repeat(lengths + 1, 2)
        starts = np.cumsum(sizes) - sizes
        flat = np.exp(rng.uniform(-30.0, 30.0, (2, sizes.sum())))
        flat[:, starts] = 0.0
        zero = starts[1::2]
        for start, size in zip(zero.tolist(), sizes[1::2].tolist()):
            flat[:, start:start + size] = 0.0
        got = np.add.reduceat(flat, starts, axis=1)           # 2-D form
        assert np.array_equal(got[1], np.add.reduceat(flat[1], starts))
        want = np.array([[np.sum(row[start + 1:start + size])
                          for start, size in zip(starts.tolist(),
                                                 sizes.tolist())]
                         for row in flat])
        mismatched = np.flatnonzero((got != want).any(axis=0))
        assert mismatched.size == 0, np.repeat(lengths, 2)[mismatched]
        assert not np.signbit(got[:, 1::2]).any()       # +0.0, as np.sum


def _lemma1_oracle(prefix, y, t, n):
    """The single-path Lemma-1 formula: one 1-D np.sum over the prefix."""
    c = t * t / (2.0 * n)
    lhs = float(np.sum(np.exp(c * prefix) * c * np.diff(prefix, prepend=0.0)))
    return lhs, math.exp(t * t / 2.0) * (1.0 + y**2 * t * t / n)


def _lockstep(spec, seed, count, n):
    """Concatenated columns of run_lockstep, each path's prefix rebuilt
    from its variance levels, and the Lemma-1 check of all the chunks."""
    chunks = list(stopping.run_lockstep(spec, seed, count, n))
    cols = {name: np.concatenate([getattr(paths, name) for paths in chunks])
            for name in ("nu", "gamma", "s_nu", "s_prime_nu", "y_nu",
                         "v_before", "sigma_nu_sq")}
    prefixes = [np.cumsum(paths.variances[levels[:nu]])
                for paths in chunks
                for levels, nu in zip(paths.levels, paths.nu)]
    res = lemma1_check(chunks, LEMMA1_T_GRID)
    return cols, prefixes, res.lhs, res.rhs


class TestLockstep:
    """run_lockstep replays each path of run_path bit for bit."""

    @pytest.mark.parametrize("kind,params,n,n_paths", [
        ("iid_bounded", {}, 64.0, 40),
        ("iid_bounded", {"m": 1.0, "v": 0.25}, 1100.0, 6),   # nu > 4096
        ("product", {}, 64.0, 40),
        ("product", {"a_lo": 1.0, "a_hi": 1.1, "p_growth": 0.5}, 5200.0, 6),
        ("product", {"a_lo": 1.1, "a_hi": 1.3, "p_growth": 0.5}, 90.0, 40),
        ("regime_switch", {}, 64.0, 40),
        ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}, 128.0, 40),
        ("regime_switch", {"v_lo": 1 / 3, "v_hi": 0.7}, 1500.0, 6),
    ])
    def test_agrees_with_run_path(self, monkeypatch, kind, params, n, n_paths):
        # several chunks
        monkeypatch.setattr(stopping, "_lanes_per_chunk", lambda spec, cap: 16)
        spec = ModelSpec(kind, params)
        seeds = [derive_seed(29, path) for path in range(n_paths)]
        cols, prefixes, lhs, rhs = _lockstep(spec, 29, n_paths, n)
        if n > 1000:
            assert cols["nu"].max() > 4096   # a second block of draws
        for i, seed in enumerate(seeds):
            sample = run_path(init_model(spec, seed), n)
            for name, col in cols.items():
                assert col[i] == getattr(sample, name), (i, name)
            assert np.array_equal(prefixes[i], sample.sigma_prefix), i
            for j, t in enumerate(LEMMA1_T_GRID):
                oracle = _lemma1_oracle(sample.sigma_prefix, sample.y_nu, t, n)
                assert (lhs[i, j], rhs[i, j]) == oracle, (i, t)

    def test_small_slabs(self, monkeypatch):
        # 8-cell slabs: a path longer than a slab, slabs of mixed nu and a
        # last slab that the paths leave partial; each slab's prefix is
        # run_path's and each LHS the single-path formula's
        monkeypatch.setattr(stopping, "_lanes_per_chunk", lambda spec, cap: 16)
        monkeypatch.setattr(stopping, "_SLAB_VALUES", 8)
        slabs, seen = stopping.StoppedPaths.slabs, set()
        prefixes = []                           # of each chunk's paths

        def spied(paths):
            prefixes.append({})
            for rows, prefix, starts in slabs(paths):
                nu = paths.nu[rows]
                if np.unique(nu).size > 1:
                    seen.add("mixed nu")
                if prefix.size > 8:
                    seen.add("longer path")
                for path, start, size in zip(rows.tolist(), starts.tolist(),
                                             (nu + 1).tolist()):
                    prefixes[-1][path] = prefix[start:start + size].copy()
                yield rows, prefix, starts
            if (rows.size + 1) * (nu.max() + 1) <= 8:
                seen.add("partial last")

        monkeypatch.setattr(stopping.StoppedPaths, "slabs", spied)
        for kind, params in (
                ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}),
                ("product", {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.5})):
            spec, n = ModelSpec(kind, params), 3.0
            seeds = [derive_seed(29, path) for path in range(40)]
            prefixes.clear()
            res = lemma1_check(stopping.run_lockstep(spec, 29, len(seeds), n),
                               LEMMA1_T_GRID)
            got = [chunk[i] for chunk in prefixes for i in range(len(chunk))]
            for prefix, lhs, seed in zip(got, res.lhs, seeds, strict=True):
                sample = run_path(init_model(spec, seed), n)
                assert prefix[0] == 0.0
                assert np.array_equal(prefix[1:], sample.sigma_prefix), seed
                for j, t in enumerate(LEMMA1_T_GRID):
                    oracle = _lemma1_oracle(sample.sigma_prefix,
                                            sample.y_nu, t, n)
                    assert lhs[j] == oracle[0], (kind, seed, t)
        assert seen == {"mixed nu", "longer path", "partial last"}

    @pytest.mark.parametrize("seeds", [
        [0, 1, 2**32 - 1],                              # one entropy word
        [2**32, 2**63, 2**64 - 1],                      # two
        [np.uint64(2**40 + 3), np.int64(7)],            # numpy integers
    ])
    def test_any_seed_in_uint64(self, seeds):
        # path p of a seed runs on derive_seed(seed, p), for every seed
        # in [0, 2^64) and every integer type the seed comes as
        spec = ModelSpec("product", {"p_growth": 0.5})
        for seed in seeds:
            cols, prefixes, _, _ = _lockstep(spec, seed, 3, 40.0)
            for p in range(3):
                path_seed = derive_seed(int(seed), p)
                sample = run_path(init_model(spec, path_seed), 40.0)
                for name, col in cols.items():
                    assert col[p] == getattr(sample, name), (seed, p, name)
                assert np.array_equal(prefixes[p], sample.sigma_prefix)

    @pytest.mark.parametrize("seeds,error", [
        ((-1, 3), ValueError),
        ((2**64, 3), ValueError),
        ((4, 2**32 + 1), ValueError),        # more paths than derive_seeds
        ((1.0, 3), TypeError),
    ])
    def test_seeds_outside_uint64_raise(self, seeds, error):
        # seeds = (seed, count): the paths' seeds are checked before a draw
        with pytest.raises(error):
            next(stopping.run_lockstep(IID, *seeds, 10.0))

    def test_same_threshold_rule(self, monkeypatch):
        with pytest.raises(DegenerateStartError):   # n < 2 sigma_0^2
            next(stopping.run_lockstep(IID, 0, 1, 1.5))
        monkeypatch.setattr(models, "MAX_STEPS", 63)
        with pytest.raises(PathOverflowError):      # nu would be 63
            next(stopping.run_lockstep(IID, 0, 1, 64.0))
        monkeypatch.setattr(models, "MAX_STEPS", 64)
        assert next(stopping.run_lockstep(IID, 0, 1, 64.0)).nu[0] == 63

    def test_chunks_stay_within_budget(self):
        regime = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})
        product = ModelSpec("product", {})
        for spec, n in ((regime, 128.0), (product, 4096.0), (IID, 1e6)):
            cap = spec.step_cap(n)
            size = stopping._lanes_per_chunk(spec, cap)
            assert size == 1 or size * cap <= stopping._LOCKSTEP_BYTES
        # the CLI's 1000 paths at n = 128 run as one chunk
        chunks = list(stopping.run_lockstep(regime, 0, 1000, 128.0))
        assert [paths.nu.size for paths in chunks] == [1000]

    @pytest.mark.parametrize("kind,params,n", [
        ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}, 256.0),
        ("product", {"a_lo": 1.0, "a_hi": 4.0, "p_growth": 0.05}, 512.0),
    ])
    def test_stopped_lanes_leave_the_tiles(self, monkeypatch, kind, params,
                                           n):
        # nu spreads over several tiles, so most paths of the chunk stop
        # long before its last one
        lanes_per_call = []
        words = models.philox_words

        def counting(keys, first, blocks):
            lanes_per_call.append(keys.shape[1])
            return words(keys, first, blocks)

        monkeypatch.setattr(models, "philox_words", counting)
        spec = ModelSpec(kind, params)
        seeds = [derive_seed(31, path) for path in range(200)]
        cols, prefixes, _, _ = _lockstep(spec, 31, len(seeds), n)
        # a tile starting at step k is drawn for the paths with nu >= k,
        # once for the signs and, for product, once more for the uniforms
        starts = range(0, int(cols["nu"].max()) + 1, models._TILE)
        calls = 1 + spec.law.uniforms
        want = [np.count_nonzero(cols["nu"] >= k) for k in starts]
        assert lanes_per_call == [m for m in want for _ in range(calls)]
        assert want[0] == 200 and want[-1] < 50
        for i, seed in enumerate(seeds):
            sample = run_path(init_model(spec, seed), n)
            for name, col in cols.items():
                assert col[i] == getattr(sample, name), (i, name)
            assert np.array_equal(prefixes[i], sample.sigma_prefix), i

    def test_shapes_follow_the_inputs(self):
        # (paths, t) arrays over the path sets, one row for a StoppedSample;
        # t is a sequence
        spec = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})
        paths = next(stopping.run_lockstep(spec, 0, 5, 32.0))
        sample = run_path(init_model(spec, 0), 32.0)
        for checked, rows in (([paths], 5), ([sample], 1),
                              ([paths, sample], 6)):
            for t in (LEMMA1_T_GRID, [2.0]):
                res = lemma1_check(checked, t)
                shape = (rows, len(t))
                assert res.lhs.shape == res.rhs.shape == shape
                assert res.margin.shape == res.ok.shape == shape
            with pytest.raises(ValueError):
                lemma1_check(checked, 2.0)


# lemma1 rows at R = 500, seed 3, n = 16 and 64, as the path-by-path engine
# printed them: (estimate, bound, margin) per threshold.
_DEFAULT_ROWS = (
    (0.12481651914939823, 1.1508538976459954, 1.0260373784965973),
    (0.13106534260737887, 1.1375748142116187, 1.0065094716042398),
)


class TestUnreachableThreshold:
    """An n above the gate's bound on the float sum of sigma^2_0 and
    cap - 1 variances raises the overflow before any engine draws a step;
    n = sigma^2_0 + (cap - 1) M passes, M the largest sigma^2."""

    CAP = 1000
    REGIME = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(models, "MAX_STEPS", self.CAP)

    def bound(self, spec):
        law = spec.law
        reach = law.sigma0_sq_max + (self.CAP - 1) * float(law.variances.max())
        return reach * (1.0 + 4.0 * self.CAP * 2.0**-53)

    def assert_raises_before_a_step(self, monkeypatch, spec, n):
        def stepped(*args, **kwargs):
            raise AssertionError("a step was drawn")
        for module in (models, stopping):
            monkeypatch.setattr(module, "_run_rows", stepped)
            monkeypatch.setattr(module, "step_model", stepped)
        monkeypatch.setattr(models, "_constant_crossing", stepped)
        monkeypatch.setattr(models.Product, "_step_rows", stepped)
        assert spec.step_cap(n) == self.CAP
        with pytest.raises(PathOverflowError):
            sample_stopped_batch(spec, n, 10, 1)
        with pytest.raises(PathOverflowError):
            next(stopping.run_lockstep(spec, 0, 2, n))
        with pytest.raises(PathOverflowError):
            run_path(init_model(spec, 0), n)

    @pytest.mark.parametrize("spec", [IID, REGIME, ModelSpec("product", {})],
                             ids=lambda spec: spec.kind)
    def test_above_the_bound_raises_before_a_step(self, monkeypatch, spec):
        n = math.nextafter(self.bound(spec), math.inf)
        self.assert_raises_before_a_step(monkeypatch, spec, n)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_non_finite_n_is_a_configuration_error(self, n):
        engines = (lambda: sample_stopped_batch(IID, n, 10, 1),
                   lambda: next(stopping.run_lockstep(IID, 0, 2, n)),
                   lambda: run_path(init_model(IID, 0), n))
        for engine in engines:
            with pytest.raises(ConfigurationError,
                               match=f"n = {n} must be finite"):
                engine()

    def test_largest_reachable_sum_passes(self, monkeypatch):
        n = float(self.CAP)         # IID: sigma^2_0 = M = 1, paths reach n
        assert models._check_threshold(IID, n) == self.CAP
        assert sample_stopped_batch(IID, n, 10, 1).nu[0] == self.CAP - 1
        assert run_path(init_model(IID, 0), n).nu == self.CAP - 1
        # regime takes step 0 at v_lo, so cap M is beyond its paths
        reach = 0.25 + (self.CAP - 1) * 4.0
        assert models._check_threshold(self.REGIME, reach) == self.CAP
        self.assert_raises_before_a_step(monkeypatch, self.REGIME,
                                         4.0 * self.CAP)


class TestLemma1Row:
    """Lemma1Result.row() over all the path sets of a threshold: the first
    smallest rhs - lhs in (path, t) order binds, and the row passes iff no
    path has lhs > rhs.  The LHS of each path is replaced here, so that
    margins tie exactly: with rhs in [1, 2), lhs = rhs - 1.0 and
    rhs - lhs are exact, and every such margin is 1.0."""

    SPEC = ModelSpec("product", {})     # Y_nu takes several values
    T, N = [0.5], 16.0

    def samples(self):
        """Two paths whose Y_nu, and so whose rhs, differ, and the rhs."""
        paths = {}
        for seed in range(100):
            sample = run_path(init_model(self.SPEC, seed), self.N)
            paths.setdefault(sample.y_nu, sample)
            if len(paths) == 2:
                break
        a, b = paths.values()
        rhs = [float(lemma1_check([p], self.T).rhs[0, 0])
               for p in (a, b)]
        assert 1.0 <= min(rhs) and max(rhs) < 2.0 and rhs[0] != rhs[1]
        return (a, rhs[0]), (b, rhs[1])

    def row(self, monkeypatch, sets, lhs):
        """The row of lemma1_check over the path sets, the LHS of their
        paths, in order, replaced by ``lhs``."""
        values = iter(lhs)
        monkeypatch.setattr(
            stopping, "_lemma1_lhs", lambda prefix, starts, c, scratch:
            np.array([[next(values)] for _ in starts.tolist()]))
        return lemma1_check(sets, self.T).row()

    def test_tie_across_path_sets_binds_the_earlier(self, monkeypatch):
        for (first, r1), (second, r2) in itertools.permutations(
                self.samples()):
            # the first set's margin is r1 > 1.0; the next two tie at 1.0
            row = self.row(monkeypatch, [first, first, second],
                           [0.0, r1 - 1.0, r2 - 1.0])
            assert (row.estimate, row.bound, row.margin) == (r1 - 1.0, r1, 1.0)
            assert row.stderr == 0.0 and row.passed

    def test_lhs_above_rhs_fails_and_equal_passes(self, monkeypatch):
        (a, ra), (b, rb) = self.samples()
        at = self.row(monkeypatch, [a, b], [0.0, rb])
        assert (at.estimate, at.bound, at.margin) == (rb, rb, 0.0)
        assert at.passed
        above = self.row(monkeypatch, [a, b], [0.0, math.nextafter(rb, 3.0)])
        assert above.margin < 0.0 and not above.passed

    def test_cli_record_does_not_depend_on_chunks(self, monkeypatch,
                                                  tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "regime_switch",
                                    "v_lo": 0.25, "v_hi": 4.0}))
        config = build_config(["--config", str(path), "--n-list", "128",
                               "--reps", "200", "--seed", "3",
                               "--checks", "lemma1"])
        seed = derive_seed(3, 1, 0)
        records = []
        for size in (None, 16):
            if size:
                monkeypatch.setattr(stopping, "_lanes_per_chunk",
                                    lambda spec, cap: size)
            chunks = stopping.run_lockstep(config.model, seed, 200, 128.0)
            assert len(list(chunks)) == (13 if size else 1)
            records.append(run_experiment(config)[1])
        assert records[0] == records[1]


class TestLemma1Records:
    @pytest.mark.parametrize("params,rows", [
        ({"model": "iid_bounded"}, _DEFAULT_ROWS),
        ({"model": "product"}, _DEFAULT_ROWS),
        ({"model": "regime_switch"}, _DEFAULT_ROWS),
        ({"model": "regime_switch", "v_lo": 0.25, "v_hi": 4.0}, (
            (0.1325560736439386, 1.203970231383503, 1.0714141577395644),
            (0.13308695996123837, 1.1508538976459954, 1.0177669376847571),
        )),
    ])
    def test_pinned_rows(self, tmp_path, params, rows):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(params))
        config = build_config(["--config", str(path), "--n-list", "16,64",
                               "--reps", "500", "--seed", "3",
                               "--checks", "lemma1"])
        status, records, _ = run_experiment(config)
        assert status == 0
        got = [(r["estimate"], r["bound"], r["margin"]) for r in records]
        assert got == list(rows)

    def test_record_memory_within_stated_bound(self, tmp_path):
        """The tracemalloc peak of one record, 1000 regime paths at n = 128
        (one chunk), after a first one: at most the chunk's int8 levels, a
        byte a step of the cap, the slab buffers and temporaries, (t + 3)
        floats a cell of _SLAB_VALUES, and 512 KiB for the rest, the lanes'
        tile draws and the stopped columns and results.  It reads about
        1050 KiB against a bound of 1270 KiB."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "regime_switch",
                                    "v_lo": 0.25, "v_hi": 4.0}))
        config = build_config(["--config", str(path), "--n-list", "128",
                               "--reps", "1000", "--seed", "3",
                               "--checks", "lemma1"])
        n = config.n_list[0]
        bound = (1000 * config.model.step_cap(n)
                 + (len(LEMMA1_T_GRID) + 3) * 8 * stopping._SLAB_VALUES
                 + (512 << 10))
        run_experiment(config)              # imports what numpy loads lazily
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
