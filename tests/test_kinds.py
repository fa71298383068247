"""Contract that every registered model kind meets, whatever its law."""

import math

import numpy as np
import pytest

from stopsum import (
    KINDS,
    LAWS,
    DegenerateStartError,
    ModelSpec,
    PathOverflowError,
    init_model,
    models,
    run_path,
    sample_stopped_batch,
    step_model,
)
from stopsum.stopping import run_lockstep


@pytest.fixture(params=KINDS)
def spec(request):
    return ModelSpec(request.param, {})


def test_registry_names_every_kind():
    assert KINDS == tuple(LAWS)
    for kind, law in LAWS.items():
        assert ModelSpec(kind, {}).params == law.defaults


def test_first_variance_is_sigma0_max(spec):
    for seed in range(20):
        sigma_sq = step_model(init_model(spec, seed)).sigma_sq
        assert sigma_sq == spec.law.sigma0_sq_max


def test_variances_respect_the_floor(spec):
    for seed in range(20):
        state = init_model(spec, seed)
        for _ in range(300):
            assert step_model(state).sigma_sq >= spec.law.variance_floor


def test_batch_and_scalar_agree_in_mean(spec):
    n = 64.0
    batch = sample_stopped_batch(spec, n, 20_000, 11)
    scalar = [run_path(init_model(spec, 10_000 + i), n) for i in range(2000)]
    for name in ("nu", "s_nu"):
        bvals = getattr(batch, name).astype(float)
        svals = np.array([getattr(s, name) for s in scalar], dtype=float)
        se = math.hypot(np.std(bvals) / math.sqrt(bvals.size),
                        np.std(svals) / math.sqrt(svals.size))
        assert abs(np.mean(bvals) - np.mean(svals)) <= 6.0 * se + 1e-12, name


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_block_sampler_rejects_n_at_most_sigma0(spec, scale):
    # the k = 0 step never stops, so the first stop has v_before >= n
    n = scale * spec.law.sigma0_sq_max
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises(DegenerateStartError):
        spec.law.sample_block(n, 8, rng, spec.step_cap(n))


# the three engines: block sampler, single path, lockstep Lemma-1 paths
ENGINES = {
    "batch": lambda spec, n: sample_stopped_batch(spec, n, 64, 0),
    "scalar": lambda spec, n: run_path(init_model(spec, 0), n),
    "lockstep": lambda spec, n: next(run_lockstep(spec, 0, 1, n)),
}


class TestStepCapOverflow:
    """nu must stay below step_cap(n); otherwise every engine raises."""

    def test_batch_raises(self, spec, monkeypatch):
        monkeypatch.setattr(models, "MAX_STEPS", 5)
        with pytest.raises(PathOverflowError):
            sample_stopped_batch(spec, 64.0, 64, 0)

    def test_scalar_raises(self, spec, monkeypatch):
        monkeypatch.setattr(models, "MAX_STEPS", 5)
        with pytest.raises(PathOverflowError):
            run_path(init_model(spec, 0), 64.0)

    @staticmethod
    def messages(error, spec, n):
        out = {}
        for name, engine in ENGINES.items():
            with pytest.raises(error) as info:
                engine(spec, n)
            out[name] = str(info.value)
        return out

    def test_every_engine_gives_one_overflow_message(self, spec, monkeypatch):
        monkeypatch.setattr(models, "MAX_STEPS", 5)
        got = self.messages(PathOverflowError, spec, 64.0)
        want = f"no stop after 5 steps (n = 64.0, kind = {spec.kind})"
        assert got == dict.fromkeys(ENGINES, want)

    def test_every_engine_gives_one_threshold_message(self, spec):
        n = 1.5 * spec.law.sigma0_sq_max    # below the n >= 2 sigma^2_0 gate
        got = self.messages(DegenerateStartError, spec, n)
        assert len(set(got.values())) == 1, got
        assert got["batch"].startswith(f"n = {n} < 2 * max sigma^2_0")

    def test_unreachable_threshold_raises_before_any_draw(self, spec,
                                                          monkeypatch):
        # 10 steps at the largest variance reach less than half of n
        monkeypatch.setattr(models, "MAX_STEPS", 10)
        n = 21.0 * float(spec.law.variances.max())

        def drawn(*args):
            raise AssertionError("a step or block was drawn")

        monkeypatch.setattr(spec.law, "sample_block", drawn)
        monkeypatch.setattr(spec.law, "step", drawn)
        got = self.messages(PathOverflowError, spec, n)
        want = f"no stop after 10 steps (n = {n}, kind = {spec.kind})"
        assert got == dict.fromkeys(ENGINES, want)

    @pytest.mark.parametrize("cap,fits", [(64, True), (63, False)])
    def test_same_boundary_in_both_engines(self, monkeypatch, cap, fits):
        # unit variance at n = 64 stops at nu = 63
        monkeypatch.setattr(models, "MAX_STEPS", cap)
        spec = ModelSpec("iid_bounded", {})
        if fits:
            assert sample_stopped_batch(spec, 64.0, 8, 0).nu[0] == 63
            assert run_path(init_model(spec, 0), 64.0).nu == 63
        else:
            with pytest.raises(PathOverflowError):
                sample_stopped_batch(spec, 64.0, 8, 0)
            with pytest.raises(PathOverflowError):
                run_path(init_model(spec, 0), 64.0)
