import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stopsum import (
    DegenerateStartError,
    ModelSpec,
    PathOverflowError,
    compute_gamma,
    derive_seed,
    init_model,
    lemma1_check,
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
        sample = run_path(init_model(IID, 3), 12.0, keep_prefix=True)
        prefix = sample.sigma_prefix
        assert prefix.shape == (sample.nu,)
        assert prefix[-1] == sample.v_before
        assert np.all(np.diff(prefix, prepend=0.0) == 1.0)

    def test_prefix_absent_by_default(self):
        assert run_path(init_model(IID, 3), 12.0).sigma_prefix is None

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
            n = k * spec.variance_floor
            batch = sample_stopped_batch(spec, n, 500, k)
            assert np.all((batch.gamma > 0.0) & (batch.gamma <= 1.0)), k
            assert np.all((batch.v_before < n)
                          & (n <= batch.v_before + batch.sigma_nu_sq)), k


class TestLemma1:
    def test_zero_t(self):
        sample = run_path(init_model(IID, 5), 10.0, keep_prefix=True)
        res = lemma1_check(sample, 0.0, 10.0)
        assert res.lhs == 0.0
        assert res.rhs == 1.0
        assert res.ok

    def test_unit_variance_closed_form(self):
        # sigma^2 = 1, n = 10, nu = 9: LHS is the geometric sum
        # sum_{j=1}^{9} e^{j/20} / 20
        sample = run_path(init_model(IID, 5), 10.0, keep_prefix=True)
        res = lemma1_check(sample, 1.0, 10.0)
        q = mpmath.e ** (mpmath.mpf(1) / 20)
        lhs_oracle = float(q * (q**9 - 1) / (q - 1) / 20)
        rhs_oracle = float(mpmath.e ** mpmath.mpf("0.5") * mpmath.mpf("1.1"))
        assert abs(res.lhs - lhs_oracle) <= 1e-12
        assert abs(res.rhs - rhs_oracle) <= 1e-12
        assert res.ok

    @pytest.mark.parametrize("kind,params", [
        ("iid_bounded", {"m": 1.0, "v": 1.0}),
        ("product", {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.1}),
        ("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}),
    ])
    def test_holds_on_sampled_paths(self, kind, params):
        spec = ModelSpec(kind, params)
        for seed in range(25):
            sample = run_path(init_model(spec, seed), 64.0, keep_prefix=True)
            for t in (0.5, 1.0, 2.0, 5.0, 10.0):
                res = lemma1_check(sample, t, 64.0)
                assert res.ok, (kind, seed, t, res)

    def test_requires_prefix(self):
        sample = run_path(init_model(IID, 5), 10.0)
        with pytest.raises(ValueError):
            lemma1_check(sample, 1.0, 10.0)

    def test_rejects_non_finite_t(self):
        sample = run_path(init_model(IID, 5), 10.0, keep_prefix=True)
        with pytest.raises(ValueError):
            lemma1_check(sample, math.inf, 10.0)


def _lemma1_oracle(prefix, y, t, n):
    """The single-path Lemma-1 formula: one 1-D np.sum over the prefix."""
    c = t * t / (2.0 * n)
    lhs = float(np.sum(np.exp(c * prefix) * c * np.diff(prefix, prepend=0.0)))
    return lhs, math.exp(t * t / 2.0) * (1.0 + y**2 * t * t / n)


def _lockstep(spec, seeds, n):
    """Concatenated columns and per-path prefixes of run_lockstep."""
    cols = {name: [] for name in ("nu", "gamma", "s_nu", "s_prime_nu", "y_nu",
                                  "v_before", "sigma_nu_sq")}
    prefixes, checks = [], []
    for paths in stopping.run_lockstep(spec, seeds, n):
        for name in cols:
            cols[name].append(getattr(paths, name))
        by_row = {}
        for rows, prefix in paths.prefixes():
            by_row.update(zip(rows.tolist(), prefix))
        prefixes += [by_row[i] for i in range(paths.nu.size)]
        checks.append(lemma1_check(paths, LEMMA1_T_GRID, n))
    cols = {name: np.concatenate(vals) for name, vals in cols.items()}
    lhs = np.concatenate([res.lhs for res in checks])
    rhs = np.concatenate([res.rhs for res in checks])
    return cols, prefixes, lhs, rhs


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
        cols, prefixes, lhs, rhs = _lockstep(spec, seeds, n)
        if n > 1000:
            assert cols["nu"].max() > 4096   # a second block of draws
        for i, seed in enumerate(seeds):
            sample = run_path(init_model(spec, seed), n, keep_prefix=True)
            for name, col in cols.items():
                assert col[i] == getattr(sample, name), (i, name)
            assert np.array_equal(prefixes[i], sample.sigma_prefix), i
            for j, t in enumerate(LEMMA1_T_GRID):
                oracle = _lemma1_oracle(sample.sigma_prefix, sample.y_nu, t, n)
                assert (lhs[i, j], rhs[i, j]) == oracle, (i, t)

    @pytest.mark.parametrize("seeds", [
        [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1],    # Python ints
        np.array([5, 2**40 + 3], dtype=np.uint64),
        np.array([7, 11], dtype=np.int64),
    ])
    def test_any_seed_in_uint64(self, seeds):
        spec = ModelSpec("product", {"p_growth": 0.5})
        cols, prefixes, _, _ = _lockstep(spec, seeds, 40.0)
        for i, seed in enumerate(int(s) for s in seeds):
            sample = run_path(init_model(spec, seed), 40.0, keep_prefix=True)
            for name, col in cols.items():
                assert col[i] == getattr(sample, name), (i, name)
            assert np.array_equal(prefixes[i], sample.sigma_prefix), i

    def test_same_threshold_rule(self):
        with pytest.raises(DegenerateStartError):   # n < 2 sigma_0^2
            next(stopping.run_lockstep(IID, [0], 1.5))
        small = ModelSpec("iid_bounded", {}, max_steps=63)
        with pytest.raises(PathOverflowError):      # nu would be 63
            next(stopping.run_lockstep(small, [0], 64.0))
        fits = ModelSpec("iid_bounded", {}, max_steps=64)
        assert next(stopping.run_lockstep(fits, [0], 64.0)).nu[0] == 63

    @pytest.mark.parametrize("seeds,error", [
        ([-1], ValueError),
        ([3, 2**64], ValueError),
        (np.array([4, -2]), ValueError),
        ([1.0], TypeError),
    ])
    def test_seeds_outside_uint64_raise(self, seeds, error):
        with pytest.raises(error):
            next(stopping.run_lockstep(IID, seeds, 10.0))

    def test_chunks_stay_within_budget(self):
        regime = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})
        product = ModelSpec("product", {})
        for spec, n in ((regime, 128.0), (product, 4096.0), (IID, 1e6)):
            cap = spec.step_cap(n)
            size = stopping._lanes_per_chunk(spec, cap)
            assert size == 1 or size * cap <= stopping._LOCKSTEP_BYTES
        # the CLI's 1000 paths at n = 128 run as one chunk
        chunks = list(stopping.run_lockstep(regime, range(1000), 128.0))
        assert [paths.nu.size for paths in chunks] == [1000]

    def test_shapes_follow_the_inputs(self):
        spec = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})
        paths = next(stopping.run_lockstep(spec, range(5), 32.0))
        assert lemma1_check(paths, LEMMA1_T_GRID, 32.0).lhs.shape == (5, 5)
        assert lemma1_check(paths, 2.0, 32.0).lhs.shape == (5,)
        sample = run_path(init_model(spec, 0), 32.0, keep_prefix=True)
        assert lemma1_check(sample, LEMMA1_T_GRID, 32.0).lhs.shape == (5,)
        assert isinstance(lemma1_check(sample, 2.0, 32.0).lhs, float)


# lemma1 rows at R = 500, seed 3, n = 16 and 64, as the path-by-path engine
# printed them: (estimate, bound, margin) per threshold.
_DEFAULT_ROWS = (
    (0.12481651914939823, 1.1508538976459954, 1.0260373784965973),
    (0.13106534260737887, 1.1375748142116187, 1.0065094716042398),
)


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
