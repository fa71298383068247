"""Adapted martingale-difference generators.

Each model emits, at step k, the triple (X_{k+1}, sigma^2_k, Y_k): the
conditional variance and the dominating sequence are computed from the
history *before* the next increment is drawn.  All conditional laws are
symmetric two-point laws, so conditional moments are available in closed
form and the hypothesis checks are exact rather than statistical.

A model kind is one ``Law`` subclass, registered by name in ``LAWS``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ModelInvalidError, PathOverflowError

__all__ = [
    "KINDS",
    "LAWS",
    "ModelSpec",
    "ModelState",
    "StepOutput",
    "ValidationReport",
    "init_model",
    "step_model",
    "validate_model",
]


class Law:
    """One model kind: parameter ``defaults`` checked in ``__init__``, the
    bounds ``variance_floor`` and ``sigma0_sq_max``, ``step`` giving (X_{k+1},
    sigma^2_k, Y_k), and ``sample_block`` giving the StoppedBatch columns of
    paths stopped at nu < cap, or raising PathOverflowError."""

    def start(self, state):
        """Set the per-path state of a fresh ModelState."""


class IidBounded(Law):
    """X = +/- sqrt(v), constant variance v <= M^2, Y = max(M, 1)."""

    defaults = {"m": 1.0, "v": 1.0}

    def __init__(self, m, v):
        if m < 1.0:
            raise ConfigurationError("iid_bounded requires M >= 1")
        if not 0.0 < v <= m ** 2:
            raise ConfigurationError("iid_bounded requires 0 < v <= M^2")
        self.v = self.variance_floor = self.sigma0_sq_max = v
        self._x, self._y = math.sqrt(v), max(m, 1.0)

    def step(self, state):
        return state._sign() * self._x, self.v, self._y

    def sample_block(self, n, size, rng, cap):
        nu, v_before = _constant_crossing(self.v, n, cap)   # same on every path
        gamma = min(1.0, (n - v_before) / self.v)
        ones = np.ones(size)
        s_nu = self._x * (2.0 * rng.binomial(nu, 0.5, size=size) - nu)
        x_next = self._x * (2.0 * rng.integers(0, 2, size=size) - 1.0)
        return {
            "nu": np.full(size, nu, dtype=np.int64),
            "gamma": gamma * ones,
            "s_nu": s_nu,
            "s_prime_nu": s_nu + math.sqrt(gamma) * x_next,
            "y_nu": self._y * ones,
            "v_before": v_before * ones,
            "sigma_nu_sq": self.v * ones,
        }


@functools.lru_cache(maxsize=64)
def _constant_crossing(v, n, cap):
    """(nu, v_before) by the float sums and stopping rule of run_path."""
    nu, v_before = 1, v                 # the k = 0 step never stops
    while v_before + v < n and nu < cap:
        nu, v_before = nu + 1, v_before + v
    if nu >= cap:
        raise _overflow(cap, n, "iid_bounded")
    return nu, v_before


def _overflow(cap, n, kind):
    return PathOverflowError(f"no stop after {cap} steps (n = {n}, {kind})")


_PRODUCT_CHUNK = 512  # rows per dense matrix; keeps peak memory modest


class Product(Law):
    """X_{k+1} = A_k * zeta_{k+1} with Rademacher zeta and
    A_k = a_lo + (a_hi - a_lo) * (1 - 2^{-N_k}) driven by a nondecreasing
    Bernoulli(p_growth) counting process N_k; Y_k = A_k."""

    defaults = {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.05}

    def __init__(self, a_lo, a_hi, p_growth):
        if a_lo < 1.0 or a_hi < a_lo:
            raise ConfigurationError("product requires 1 <= a_lo <= a_hi")
        if not 0.0 <= p_growth <= 1.0:
            raise ConfigurationError("product requires p_growth in [0, 1]")
        self.a_lo, self.a_hi, self.p_growth = a_lo, a_hi, p_growth
        # A_k >= a_lo on every path, and A_0 = a_lo since N_0 = 0
        self.variance_floor = self.sigma0_sq_max = a_lo ** 2

    def start(self, state):
        state.a_current = self.a_lo

    def step(self, state):
        a = state.a_current
        x = state._sign() * a
        # advance the counting process for the next step
        if state._uniform() < self.p_growth and self.a_hi > self.a_lo:
            state.a_current = self.a_hi - 0.5 * (self.a_hi - a)
        return x, a * a, max(1.0, a)

    def sample_block(self, n, size, rng, cap):
        a_lo, a_hi, q = self.a_lo, self.a_hi, self.p_growth
        chunks = []
        for start in range(0, size, _PRODUCT_CHUNK):
            sz = min(_PRODUCT_CHUNK, size - start)
            grow = rng.random((sz, cap)) < q        # N_k increments, k = 1..cap
            counts = np.cumsum(grow, axis=1, dtype=np.int32)
            a = np.empty((sz, cap))
            a[:, 0] = a_lo                          # A_0: N_0 = 0
            a[:, 1:] = a_lo + (a_hi - a_lo) * (
                1.0 - np.exp2(-counts[:, :-1].astype(float))
            )
            zeta = 2.0 * rng.integers(0, 2, size=(sz, cap)) - 1.0  # zeta_{k+1}
            sigma_sq = a * a
            csum = np.cumsum(sigma_sq, axis=1)
            if not np.all(csum[:, -1] >= n):
                raise _overflow(cap, n, "product")
            nu = np.argmax(csum >= n, axis=1)       # first hit is >= 1 (n >= 2 sigma0^2)
            rows = np.arange(sz)
            v_before = csum[rows, nu - 1]
            sig_nu = sigma_sq[rows, nu]
            gamma = (n - v_before) / sig_nu
            x = a * zeta                            # column k holds X_{k+1}
            mask = np.arange(cap)[None, :] < nu[:, None]
            s_nu = np.sum(x * mask, axis=1)
            chunks.append({
                "nu": nu.astype(np.int64),
                "gamma": gamma,
                "s_nu": s_nu,
                "s_prime_nu": s_nu + np.sqrt(gamma) * x[rows, nu],
                "y_nu": a[rows, nu],                # max(1, A) = A since a_lo >= 1
                "v_before": v_before,
                "sigma_nu_sq": sig_nu,
            })
        if len(chunks) == 1:
            return chunks[0]
        return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}


class RegimeSwitch(Law):
    """sigma^2_k in {v_lo, v_hi} selected by the sign of the running sum;
    X_{k+1} = +/- sigma_k; Y = max(1, sqrt(v_hi))."""

    defaults = {"v_lo": 1.0, "v_hi": 1.0}

    def __init__(self, v_lo, v_hi):
        if not 0.0 < v_lo <= v_hi:
            raise ConfigurationError("regime_switch requires 0 < v_lo <= v_hi")
        self.v_lo, self.v_hi = v_lo, v_hi
        # S_0 = 0 selects the low regime
        self.variance_floor = self.sigma0_sq_max = v_lo
        self._y = max(1.0, math.sqrt(v_hi))

    def step(self, state):
        sigma_sq = self.v_hi if state.running_sum > 0 else self.v_lo
        return state._sign() * math.sqrt(sigma_sq), sigma_sq, self._y

    def sample_block(self, n, size, rng, cap):
        v_lo, v_hi = self.v_lo, self.v_hi
        out = {
            "nu": np.zeros(size, dtype=np.int64),
            "gamma": np.zeros(size),
            "s_nu": np.zeros(size),
            "s_prime_nu": np.zeros(size),
            "y_nu": np.full(size, self._y),
            "v_before": np.zeros(size),
            "sigma_nu_sq": np.zeros(size),
        }
        s = np.zeros(size)
        v = np.zeros(size)
        active = np.arange(size)
        for k in range(cap):
            sigma_sq = np.where(s[active] > 0, v_hi, v_lo)
            x = np.sqrt(sigma_sq) * (2.0 * rng.integers(0, 2, size=active.size) - 1.0)
            v_new = v[active] + sigma_sq
            stop = v_new >= n if k >= 1 else np.zeros(active.size, dtype=bool)
            if stop.any():
                idx = active[stop]
                gamma = (n - v[idx]) / sigma_sq[stop]
                out["nu"][idx] = k
                out["gamma"][idx] = gamma
                out["s_nu"][idx] = s[idx]
                out["s_prime_nu"][idx] = s[idx] + np.sqrt(gamma) * x[stop]
                out["v_before"][idx] = v[idx]
                out["sigma_nu_sq"][idx] = sigma_sq[stop]
            cont = ~stop
            keep = active[cont]
            s[keep] += x[cont]
            v[keep] = v_new[cont]
            active = keep
            if active.size == 0:
                return out
        raise _overflow(cap, n, "regime_switch")


LAWS = {"iid_bounded": IidBounded, "product": Product,
        "regime_switch": RegimeSwitch}
KINDS = tuple(LAWS)


@dataclass(frozen=True)
class ModelSpec:
    """Model kind plus its flat parameter set and a hard step cap."""

    kind: str
    params: dict
    max_steps: int = 10_000_000
    law: Law = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        merged = dict(LAWS[self.kind].defaults)
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ConfigurationError(
                f"unknown parameters for {self.kind}: {sorted(unknown)}"
            )
        merged.update({k: float(v) for k, v in self.params.items()})
        object.__setattr__(self, "params", merged)
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be positive")
        object.__setattr__(self, "law", LAWS[self.kind](**merged))

    @property
    def variance_floor(self):
        """Lower bound on sigma^2_k, valid on every path."""
        return self.law.variance_floor

    @property
    def sigma0_sq_max(self):
        """Largest possible first conditional variance sigma^2_0."""
        return self.law.sigma0_sq_max

    def step_cap(self, n):
        """Worst-case path length for threshold n, clamped by max_steps."""
        return min(self.max_steps, math.ceil(n / self.variance_floor) + 2)


@dataclass(frozen=True)
class StepOutput:
    x: float        # the increment X_{k+1}
    sigma_sq: float  # sigma^2_k, known before X_{k+1} is drawn
    y: float        # Y_k >= 1, nondecreasing


@dataclass
class ModelState:
    """Exclusively-owned mutable path state; replay is exact per (spec, seed)."""

    spec: ModelSpec
    step: int
    rng: np.random.Generator
    running_sum: float = 0.0   # S_k, drives the regime_switch variance
    a_current: float = 1.0     # product model: A_k, set by Product.start
    _bits: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    _bit_pos: int = 0
    _unif: np.ndarray = field(default_factory=lambda: np.empty(0, float))
    _unif_pos: int = 0

    def _sign(self):
        if self._bit_pos >= self._bits.size:
            self._bits = self.rng.integers(0, 2, size=4096, dtype=np.int8)
            self._bit_pos = 0
        b = self._bits[self._bit_pos]
        self._bit_pos += 1
        return 1.0 if b else -1.0

    def _uniform(self):
        if self._unif_pos >= self._unif.size:
            self._unif = self.rng.random(4096)
            self._unif_pos = 0
        u = self._unif[self._unif_pos]
        self._unif_pos += 1
        return u


def init_model(spec, seed):
    """Deterministic state: the same (spec, seed) replays the same path."""
    if not isinstance(spec, ModelSpec):
        raise ConfigurationError("spec must be a ModelSpec")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    state = ModelState(spec=spec, step=0, rng=rng)
    spec.law.start(state)
    return state


def step_model(state):
    """Advance one step, emitting (X_{k+1}, sigma^2_k, Y_k).

    sigma^2 and Y are computed from the history alone; the sign driving
    X_{k+1} is drawn afterwards.
    """
    spec = state.spec
    if state.step >= spec.max_steps:
        raise PathOverflowError(
            f"step cap {spec.max_steps} reached for kind {spec.kind}"
        )
    x, sigma_sq, y = spec.law.step(state)
    state.running_sum += x
    state.step += 1
    return StepOutput(x=x, sigma_sq=sigma_sq, y=y)


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    n_paths: int
    path_len: int
    steps_checked: int
    martingale_checks: tuple  # (name, mean, stderr, ok) per test function
    passed: bool


def validate_model(spec, seed, n_paths=1000, path_len=128):
    """Check the theorem hypotheses on sampled paths.

    Exact, per step: Y >= 1 and nondecreasing, 0 < sigma^2 <= Y^2, and the
    closed-form third-moment domination E(|X|^3 | F) = sigma^3 <= Y sigma^2
    (all three kinds have conditionally two-point laws with |X| = sigma).
    Any violation raises ModelInvalidError.

    Statistical: for history-measurable g in {1, sign(S_k)} the average of
    g * X_{k+1} must sit within 4 standard errors of zero.
    """
    if n_paths < 1000:
        raise ValueError("validate_model requires n_paths >= 1000")
    g_names = ("constant", "sign_running_sum")
    sums = np.zeros(2)
    sq_sums = np.zeros(2)
    count = 0
    for path in range(n_paths):
        state = init_model(spec, derive_seed(seed, path))
        prev_y = 1.0
        s = 0.0
        for _ in range(path_len):
            out = step_model(state)
            if not out.sigma_sq > 0.0:
                raise ModelInvalidError(f"sigma_sq = {out.sigma_sq} <= 0")
            if out.y < 1.0:
                raise ModelInvalidError(f"Y = {out.y} < 1")
            if out.y < prev_y:
                raise ModelInvalidError(f"Y decreased: {prev_y} -> {out.y}")
            if out.sigma_sq > out.y * out.y:
                raise ModelInvalidError(
                    f"sigma_sq = {out.sigma_sq} exceeds Y^2 = {out.y * out.y}"
                )
            third = out.sigma_sq * math.sqrt(out.sigma_sq)
            if third > out.y * out.sigma_sq:
                raise ModelInvalidError(
                    f"E(|X|^3|F) = {third} exceeds Y*sigma^2 = "
                    f"{out.y * out.sigma_sq}"
                )
            g = (1.0, 1.0 if s >= 0 else -1.0)
            for k in range(2):
                gx = g[k] * out.x
                sums[k] += gx
                sq_sums[k] += gx * gx
            prev_y = out.y
            s += out.x
            count += 1
    checks = []
    for k, name in enumerate(g_names):
        mean = sums[k] / count
        var = sq_sums[k] / count - mean * mean
        stderr = math.sqrt(max(var, 0.0) / count)
        checks.append((name, mean, stderr, abs(mean) <= 4.0 * stderr))
    return ValidationReport(
        kind=spec.kind,
        n_paths=n_paths,
        path_len=path_len,
        steps_checked=count,
        martingale_checks=tuple(checks),
        passed=all(check[3] for check in checks),
    )


def derive_seed(seed, *key):
    """Counter-style child seed: a pure function of (seed, key)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])

