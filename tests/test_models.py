import math

import numpy as np
import pytest

from stopsum import (
    KINDS,
    ConfigurationError,
    ModelInvalidError,
    ModelSpec,
    PathOverflowError,
    derive_seed,
    init_model,
    models,
    step_model,
    validate_model,
)
from stopsum.models import Lanes

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


class TestPathwiseInvariants:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_hypotheses_hold_exactly(self, spec):
        prev_y = 1.0
        total = 0.0
        outs = take(spec, 21, 1000)
        for out in outs:
            assert out.y >= 1.0
            assert out.y >= prev_y
            assert 0.0 < out.sigma_sq <= out.y * out.y
            # two-point conditional law: E(|X|^3 | F) = sigma^3 <= Y sigma^2
            assert out.sigma_sq * math.sqrt(out.sigma_sq) <= out.y * out.sigma_sq
            prev_y = out.y
            total += out.sigma_sq
        assert total >= len(outs) * spec.law.variance_floor

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


class TestValidateModel:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_passes_for_valid_models(self, spec):
        report = validate_model(spec, seed=17, n_paths=1000, path_len=64)
        assert report.passed
        assert report.steps_checked == 64_000
        for name, mean, stderr, ok in report.martingale_checks:
            assert ok, (name, mean, stderr)

    def test_requires_enough_paths(self):
        with pytest.raises(ValueError):
            validate_model(IID, seed=0, n_paths=10)

    def test_boundary_equality_case(self):
        # regime_switch at sigma^2 = 4, Y = 2: E(|X|^3|F) = 8 = Y sigma^2,
        # equality must pass with zero slack
        assert 4.0 * math.sqrt(4.0) == 2.0 * 4.0
        report = validate_model(REGIME, seed=23, n_paths=1000, path_len=32)
        assert report.passed

    def test_detects_broken_generator(self, monkeypatch):
        import stopsum.models as models_mod

        real = models_mod.step_model

        def broken(state):
            out = real(state)
            return type(out)(x=out.x, sigma_sq=out.sigma_sq, y=0.5)

        monkeypatch.setattr(models_mod, "step_model", broken)
        with pytest.raises(ModelInvalidError):
            models_mod.validate_model(IID, seed=0, n_paths=1000, path_len=4)
