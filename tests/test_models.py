import math

import numpy as np
import pytest

from stopsum import (
    KINDS,
    ConfigurationError,
    ModelSpec,
    PathOverflowError,
    derive_seed,
    init_model,
    models,
    step_model,
)
from stopsum.models import Lanes, Law

IID = ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0})
PRODUCT = ModelSpec("product", {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.05})
REGIME = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})
ALL_SPECS = (IID, PRODUCT, REGIME)
# every kind's defaults, and a regime and a non-dyadic product law
TABLE_SPECS = tuple(ModelSpec(kind, {}) for kind in KINDS) + (
    REGIME, ModelSpec("product", {"a_lo": 1.1, "a_hi": 1.3, "p_growth": 0.5}))


def take(spec, seed, k):
    state = init_model(spec, seed)
    return [step_model(state) for _ in range(k)]


def block_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def table_law(rising, variances, sds, ys):
    """A Law with no parameters whose table is (variances, sds, ys)."""

    class Table(Law):
        defaults = {}

        def __init__(self):
            self._table(variances, sds, ys)

    Table.rising = rising
    return Table


def record_steps(law, monkeypatch):
    """The (sign, level, S_k) arrays of each step law takes from now on."""
    steps = []

    def step(state):
        s_k = np.array(state.running_sum, ndmin=1)
        sign, level = type(law).step(law, state)
        # copies: a regime block's signs are a view of its refill buffer
        steps.append([np.array(col, ndmin=1)
                      for col in np.broadcast_arrays(sign, level, s_k)])
        return sign, level

    monkeypatch.setattr(law, "step", step)
    return steps


def assert_fair(steps):
    """The signs of X_{k+1}, +/-1, over (sign, level, S_k) arrays: at each
    level, and times g = sign(S_k) (+1 at S_k = 0), their mean lies within
    4 standard errors of 0, 1/sqrt(count) for fair signs."""
    sign, level, s_k = (np.concatenate(col) for col in zip(*steps))
    assert np.all(np.abs(sign) == 1.0)
    groups = [sign[level == lv] for lv in np.unique(level)]
    for x in groups + [np.where(s_k >= 0.0, sign, -sign)]:
        assert abs(x.mean()) <= 4.0 / math.sqrt(x.size), (x.size, x.mean())


class TestConfiguration:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("brownian", {})

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            ModelSpec("iid_bounded", {"mu": 3.0})

    @pytest.mark.parametrize("kind,params", [
        ("iid_bounded", {"m": 0.5}),
        ("iid_bounded", {"m": 1.0, "v": 2.0}),   # v > M^2
        ("iid_bounded", {"v": 0.0}),
        ("product", {"a_lo": 0.5}),
        ("product", {"a_lo": 2.0, "a_hi": 1.0}),
        ("product", {"p_growth": 1.5}),
        ("regime_switch", {"v_lo": 0.0}),
        ("regime_switch", {"v_lo": 2.0, "v_hi": 1.0}),
        ("regime_switch", {"v_lo": True}),          # a bool is no number
        ("product", {"p_growth": False}),
        ("regime_switch", {"v_hi": np.True_}),      # nor is numpy's
    ])
    def test_invalid_parameters(self, kind, params):
        with pytest.raises(ConfigurationError):
            ModelSpec(kind, params)

    # a_n's estimate sums up to MAX_REPS values of Y^8: Y = 4e37 keeps that
    # finite and Y = 5e37 does not
    @pytest.mark.parametrize("kind,param,square", [
        ("iid_bounded", "m", False),
        ("product", "a_hi", False),
        ("regime_switch", "v_hi", True),    # Y = sqrt(v_hi)
    ])
    def test_largest_y_at_the_a_n_overflow_boundary(self, kind, param, square):
        def spec(y):
            return ModelSpec(kind, {param: y * y if square else y})

        assert spec(4e37).law.ys.max() == pytest.approx(4e37)
        with pytest.raises(ConfigurationError, match="Y\\^8 overflows"):
            spec(5e37)

    def test_defaults_fill_in(self):
        spec = ModelSpec("iid_bounded", {})
        assert spec.params == {"m": 1.0, "v": 1.0}

    def test_variance_floor(self):
        assert IID.law.variance_floor == 1.0
        assert PRODUCT.law.variance_floor == 1.0
        assert REGIME.law.variance_floor == 0.25

    def test_sigma0_max(self):
        assert IID.law.sigma0_sq_max == 1.0
        assert PRODUCT.law.sigma0_sq_max == 1.0
        # S_0 = 0 selects the low regime
        assert REGIME.law.sigma0_sq_max == 0.25


class TestDeterminism:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_replay_identical(self, spec):
        a = take(spec, 42, 300)
        b = take(spec, 42, 300)
        assert a == b

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_different_seeds_differ(self, spec):
        a = [o.x for o in take(spec, 1, 64)]
        b = [o.x for o in take(spec, 2, 64)]
        assert a != b

    def test_derive_seed_is_stable(self):
        assert derive_seed(7, 0, 3) == derive_seed(7, 0, 3)
        assert derive_seed(7, 0, 3) != derive_seed(7, 0, 4)


class TestStepSemantics:
    def test_iid_two_point_law(self):
        for out in take(IID, 5, 500):
            assert out.x in (-1.0, 1.0)
            assert out.sigma_sq == 1.0
            assert out.y == 1.0

    def test_iid_scaled(self):
        spec = ModelSpec("iid_bounded", {"m": 2.0, "v": 2.0})
        for out in take(spec, 5, 200):
            assert abs(out.x) == math.sqrt(2.0)
            assert out.sigma_sq == 2.0
            assert out.y == 2.0

    def test_product_increment_magnitude(self):
        # Rademacher zeta: |X_{k+1}| equals |A_k| exactly
        for out in take(PRODUCT, 9, 500):
            assert abs(out.x) == out.y
            assert out.sigma_sq == out.y * out.y

    def test_product_degenerates_to_rademacher(self):
        spec = ModelSpec("product", {"a_lo": 1.0, "a_hi": 1.0})
        for out in take(spec, 3, 200):
            assert out.x in (-1.0, 1.0)
            assert out.sigma_sq == 1.0

    def test_product_a_bounded_and_nondecreasing(self):
        outs = take(PRODUCT, 11, 2000)
        ys = [o.y for o in outs]
        assert all(1.0 <= y <= 2.0 for y in ys)
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert ys[-1] > ys[0]  # the counting process actually moves

    def test_product_amplitude_same_in_every_engine(self):
        # non-dyadic a_lo, a_hi: A_N = a_hi - (a_hi - A_{N-1}) / 2 differs
        # from the closed form in the last bit at N = 3, 5, 7
        spec = ModelSpec("product", {"a_lo": 1.1, "a_hi": 1.3,
                                     "p_growth": 0.5})
        growth = np.arange(61)
        scalar = []
        for g in growth.tolist():
            state = init_model(spec, 0)
            state.growth = g
            scalar.append(step_model(state).sigma_sq)
        lanes = Lanes(spec, np.arange(61, dtype=np.uint64))
        lanes.growth = growth
        lane = spec.law.variances.take(spec.law.step(lanes)[1])
        block = spec.law.amplitude(growth.astype(np.int32))  # block counts
        assert lane.tolist() == scalar == (block * block).tolist()
        assert set(scalar) == set(spec.law.variances.tolist())

    @pytest.mark.parametrize(
        "spec", TABLE_SPECS,
        ids=lambda s: "-".join([s.kind, *map(str, s.params.values())]))
    def test_level_table(self, spec, monkeypatch):
        law = spec.law
        assert law.variance_floor == law.variances.min()
        assert law.sigma0_sq_max == law.variances[0]
        steps = []                      # (sign, level) of each step

        def step(state):
            steps.append(type(law).step(law, state))
            return steps[-1]

        monkeypatch.setattr(law, "step", step)
        state = init_model(spec, 5)
        for _ in range(300):
            out = step_model(state)
            sign, level = steps[-1]
            sigma_sq, sd, y = law.levels[level]
            assert (sigma_sq, sd, y) == (law.variances.take(level),
                                         law.sds.take(level),
                                         law.ys.take(level))
            assert (out.x, out.sigma_sq, out.y) == (sign * sd, sigma_sq, y)
        if spec.kind == "product":
            state.growth = 60           # past N = 54, where A_N = a_hi
            out = step_model(state)
            assert steps[-1][1] == 54
            assert out.y == law.a_hi and out.sigma_sq == law.a_hi * law.a_hi

    def test_every_variance_is_listed(self):
        for spec in ALL_SPECS:
            for out in take(spec, 17, 2000):
                assert out.sigma_sq in spec.law.variances

    def test_regime_switch_variances(self):
        outs = take(REGIME, 13, 2000)
        seen = set()
        for out in outs:
            assert out.sigma_sq in (0.25, 4.0)
            assert abs(out.x) == math.sqrt(out.sigma_sq)
            assert out.y == 2.0
            seen.add(out.sigma_sq)
        assert seen == {0.25, 4.0}

    def test_regime_degenerate(self):
        spec = ModelSpec("regime_switch", {"v_lo": 1.0, "v_hi": 1.0})
        for out in take(spec, 3, 100):
            assert out.sigma_sq == 1.0

    def test_step_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(models, "MAX_STEPS", 5)
        state = init_model(IID, 0)
        for _ in range(5):
            step_model(state)
        with pytest.raises(PathOverflowError):
            step_model(state)


class TestHypotheses:
    """ModelSpec checks the paper's hypotheses on every level of a kind's
    table, and Y_k nondecreasing along the steps the law allows."""

    @pytest.mark.parametrize("rising,variances,sds,ys,match", [
        (True, (1.0, 0.0), (1.0, 0.0), (1.0, 1.0),
         r"level 1 .* breaks sigma\^2 > 0"),
        (False, (0.25,), (0.5,), (0.5,), r"level 0 .* breaks Y >= 1"),
        (False, (4.0,), (2.0,), (1.5,), r"level 0 .* breaks sigma <= Y"),
        # sigma^2 <= Y^2, but sigma^2 sigma = 2 > Y sigma^2 = 1, as sigma > Y
        (True, (1.0, 1.0), (1.0, 2.0), (1.0, 1.0),
         r"level 1 .* breaks sigma <= Y"),
        # a level that can fall: level 1 may step back to level 0
        (False, (1.0, 1.0), (1.0, 1.0), (1.0, 2.0),
         r"level 1 has Y = 2.0 and level 0 Y = 1.0"),
        (True, (1.0,) * 3, (1.0,) * 3, (1.0, 2.0, 1.5),
         r"level 2 has Y = 1.5 and level 1 Y = 2.0"),
    ], ids=["sigma2", "y", "sigma2-y2", "third-moment", "falls", "rising"])
    def test_broken_table_raises(self, monkeypatch, rising, variances, sds,
                                 ys, match):
        law = table_law(rising, variances, sds, ys)
        monkeypatch.setitem(models.LAWS, "regime_switch", law)
        with pytest.raises(ConfigurationError,
                           match="^regime_switch " + match):
            ModelSpec("regime_switch", {})

    @pytest.mark.parametrize("rising,ys", [(True, (1.0, 1.5, 2.0)),
                                           (False, (2.0, 2.0, 2.0))])
    def test_boundary_tables_pass(self, monkeypatch, rising, ys):
        # sigma^2 = 4 at Y = 2 has zero slack: sigma^3 = 8 = Y sigma^2
        law = table_law(rising, (1.0, 2.25, 4.0), (1.0, 1.5, 2.0), ys)
        monkeypatch.setitem(models.LAWS, "regime_switch", law)
        assert ModelSpec("regime_switch", {}).law.levels[2][0] == 4.0

    @pytest.mark.parametrize("v_lo", [0.25, 3.0])
    def test_rounded_sqrt_y_passes(self, v_lo):
        # Y = sqrt(3) rounded squares to 2.9999999999999996 < sigma^2 = 3,
        # but sigma = Y: the hypotheses hold with zero slack
        law = ModelSpec("regime_switch", {"v_lo": v_lo, "v_hi": 3.0}).law
        sigma_sq, sd, y = law.levels[1]
        assert y * y < sigma_sq == 3.0 and sd == y


class TestSignBalance:
    """Every draw layer that makes a sign of X_{k+1} makes fair ones, at
    fixed seeds: at each level, and against g = sign(S_k) (assert_fair)."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_model_state(self, spec, monkeypatch):
        steps = record_steps(spec.law, monkeypatch)
        for path in range(64):
            state = init_model(spec, derive_seed(17, path))
            for _ in range(128):
                step_model(state)
        assert_fair(steps)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_lanes(self, spec, monkeypatch):
        steps = record_steps(spec.law, monkeypatch)
        lanes = Lanes(spec, np.arange(1000, dtype=np.uint64))
        models._run_rows(spec.law, lanes, 256.0, spec.step_cap(256.0))
        assert_fair(steps)

    def test_regime_block_rows(self, monkeypatch):
        steps = record_steps(REGIME.law, monkeypatch)
        REGIME.law.sample_block(256.0, 4096, block_rng(17),
                                REGIME.step_cap(256.0))
        assert_fair(steps)

    def test_product_tiles(self, monkeypatch):
        # each sub-chunk reads its growth bits and then its 0/1 signs, an
        # (m, cap) matrix each, from the block's reader
        cap = PRODUCT.step_cap(256.0)
        grows, signs = [], []
        real_grows, real_signs = (models._BlockStream.grows,
                                  models._BlockStream.signs)

        def grow(stream, p, out):
            real_grows(stream, p, out)
            grows.append(out.reshape(-1, cap).copy())

        def sign(stream, out):
            real_signs(stream, out)
            signs.append(2 * out.reshape(-1, cap).astype(np.int8) - 1)

        monkeypatch.setattr(models._BlockStream, "grows", grow)
        monkeypatch.setattr(models._BlockStream, "signs", sign)
        law = PRODUCT.law
        law.sample_block(256.0, 1000, block_rng(17), cap)
        draws = list(zip(signs, grows))
        assert len(signs) == len(grows)
        steps = []
        for zeta, grow in draws:            # column k holds step k's draws
            level = np.minimum(np.cumsum(grow, axis=1) - grow, 54)  # N_k
            x = zeta * law.sds.take(level)
            s_k = np.cumsum(x, axis=1) - x
            steps.append([col.ravel() for col in (zeta, level, s_k)])
        assert len(draws) > 1
        assert_fair(steps)

    def test_iid_block_next_signs(self):
        cols = IID.law.sample_block(64.0, 20_000, block_rng(17),
                                    IID.step_cap(64.0))
        assert np.all(cols["gamma"] == 1.0)   # S'_nu - S_nu = X_{nu+1}
        x = cols["s_prime_nu"] - cols["s_nu"]
        assert_fair([(x, np.zeros(x.size, int), cols["s_nu"])])


class TestPathwiseInvariants:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_branch_table_moments(self, spec):
        # each emitted sigma_sq comes from the symmetric law +/- sigma,
        # whose first two conditional moments are 0 and sigma^2 by algebra
        for out in take(spec, 8, 200):
            sigma = math.sqrt(out.sigma_sq)
            branches = (+sigma, -sigma)
            assert sum(branches) == 0.0
            assert sum(b * b for b in branches) / 2 == pytest.approx(
                out.sigma_sq, abs=0.0, rel=1e-15
            )
            assert abs(out.x) == pytest.approx(sigma, rel=1e-15)
