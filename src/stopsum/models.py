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

from .errors import (
    ConfigurationError,
    DegenerateStartError,
    ModelInvalidError,
    PathOverflowError,
)
from .streams import coins, doubles, philox_keys, philox_words

__all__ = [
    "KINDS",
    "LAWS",
    "Lanes",
    "ModelSpec",
    "ModelState",
    "StepOutput",
    "ValidationReport",
    "compute_gamma",
    "init_model",
    "step_model",
    "validate_model",
]


class Law:
    """One model kind: parameter ``defaults`` checked in ``__init__``, the
    bounds ``variance_floor`` and ``sigma0_sq_max``, the sorted array
    ``variances`` of every value sigma^2_k can take, ``step`` giving
    (X_{k+1}, sigma^2_k, Y_k), and ``sample_block`` giving the StoppedBatch
    columns of paths stopped at nu < cap, or raising PathOverflowError.

    ``step`` is written once for a ModelState (floats, drawn by numpy's
    Generator) and for Lanes (one array entry per path, drawn from the same
    streams evaluated counter-based): it uses only arithmetic and
    comparisons, and draws one sign per step and then, if ``uniforms``, one
    uniform."""

    uniforms = False


def _pick(flag, if_one, if_zero):
    """Exact select for flag in {0.0, 1.0}, on floats and arrays alike:
    the unselected term is 0.0 * finite = 0.0."""
    return flag * if_one + (1.0 - flag) * if_zero


def compute_gamma(v_before, sigma_nu_sq, n):
    """Fraction of the final conditional variance that lands the total on n,
    for one path (floats) or many (arrays)."""
    v, s = np.broadcast_arrays(np.atleast_1d(v_before), sigma_nu_sq)
    ok = (v < n) & (n <= v + s)
    if not ok.all():
        i = int(np.argmin(ok))
        raise DegenerateStartError(
            f"need v_before < n <= v_before + sigma_nu_sq, got "
            f"({v[i]}, {n}, {v[i] + s[i]})"
        )
    # rounding can put n above the exact sum by half an ulp of n
    return np.minimum(1.0, (n - v_before) / sigma_nu_sq)


class IidBounded(Law):
    """X = +/- sqrt(v), constant variance v <= M^2, Y = max(M, 1)."""

    defaults = {"m": 1.0, "v": 1.0}

    def __init__(self, m, v):
        if m < 1.0:
            raise ConfigurationError("iid_bounded requires M >= 1")
        if not 0.0 < v <= m ** 2:
            raise ConfigurationError("iid_bounded requires 0 < v <= M^2")
        self.v = self.variance_floor = self.sigma0_sq_max = v
        self.variances = np.array([v])
        self._x, self._y = math.sqrt(v), max(m, 1.0)

    def step(self, state):
        return state._sign() * self._x, self.v, self._y

    def sample_block(self, n, size, rng, cap):
        nu, v_before = _constant_crossing(self.v, n, cap)   # same on every path
        gamma = compute_gamma(v_before, self.v, n)
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


_REFILL = 4096  # draws per buffer refill, for signs and uniforms alike
_PRODUCT_CHUNK = 512  # rows per dense matrix; keeps peak memory modest
_PRODUCT_TILE = 256   # columns per arithmetic tile
# 1 - 2^-N rounds to 1.0 from N = 54 on, so A_k takes at most 55 values
_PRODUCT_LEVELS = 55


class Product(Law):
    """X_{k+1} = A_k * zeta_{k+1} with Rademacher zeta and
    A_k = a_lo + (a_hi - a_lo) * (1 - 2^{-N_k}) driven by a nondecreasing
    Bernoulli(p_growth) counting process N_k; Y_k = A_k.  Every engine keeps
    the integer N_k and evaluates A_k by ``amplitude``."""

    defaults = {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.05}
    uniforms = True

    def __init__(self, a_lo, a_hi, p_growth):
        if a_lo < 1.0 or a_hi < a_lo:
            raise ConfigurationError("product requires 1 <= a_lo <= a_hi")
        if not 0.0 <= p_growth <= 1.0:
            raise ConfigurationError("product requires p_growth in [0, 1]")
        self.a_lo, self.a_hi, self.p_growth = a_lo, a_hi, p_growth
        # A_k >= a_lo on every path, and A_0 = a_lo since N_0 = 0
        self.variance_floor = self.sigma0_sq_max = a_lo ** 2
        self.variances = np.array(sorted(
            {a * a for a in map(self.amplitude, range(_PRODUCT_LEVELS))}))

    def amplitude(self, growth):
        """A_k for the growth count N_k (an int or an integer array)."""
        return self.a_lo + (self.a_hi - self.a_lo) * (1.0 - np.ldexp(1.0, -growth))

    def step(self, state):
        a = self.amplitude(state.growth)
        x = state._sign() * a
        # advance the counting process for the next step
        state.growth = state.growth + (state._uniform() < self.p_growth)
        return x, a * a, a        # Y_k = max(1, A_k) = A_k since a_lo >= 1

    def sample_block(self, n, size, rng, cap):
        """Draw order, which the report bytes rest on: per chunk of at most
        512 rows, sz*cap uniforms and then sz*cap signs, each a row-major
        (sz, cap) matrix whose column k drives step k.  The arithmetic runs
        in column tiles and stops at the chunk's last crossing."""
        q = self.p_growth
        # A_k by growth count; N_k < cap, and the lookup equals amplitude(N_k)
        amp = self.amplitude(np.arange(cap))
        # masked increments X_{k+1} 1{k < nu}, summed over all cap columns
        # so that np.sum keeps the pairwise tree of a dense row
        inc = np.zeros((min(size, _PRODUCT_CHUNK), cap))
        written = 0                                 # columns the last chunk wrote
        chunks = []
        for start in range(0, size, _PRODUCT_CHUNK):
            sz = min(_PRODUCT_CHUNK, size - start)
            unif = rng.random((sz, cap))            # column k drives N_{k+1}
            zeta = rng.integers(0, 2, size=(sz, cap), dtype=np.int32)
            nu = np.full(sz, cap)                   # cap: not crossed yet
            v_before, sig_nu, y_nu, x_nu = (np.empty(sz) for _ in range(4))
            growth = np.zeros(sz, dtype=np.int32)   # N_k at the tile's first k
            v = np.zeros(sz)                        # sum of sigma^2_j, j < k
            for c0 in range(0, cap, _PRODUCT_TILE):
                c1 = min(c0 + _PRODUCT_TILE, cap)
                counts = np.empty((sz, c1 - c0), dtype=np.int32)
                counts[:, 0] = growth
                counts[:, 1:] = unif[:, c0:c1 - 1] < q
                np.cumsum(counts, axis=1, out=counts)          # N_k
                growth = counts[:, -1] + (unif[:, c1 - 1] < q)
                a = amp[counts]
                sigma_sq = a * a
                # csum[:, j] = sum of sigma^2 over steps < c0 + j
                csum = np.empty((sz, c1 - c0 + 1))
                csum[:, 0] = v
                csum[:, 1:] = sigma_sq
                np.cumsum(csum, axis=1, out=csum)
                v = csum[:, -1]
                hit = csum[:, 1:] >= n
                if c0 == 0:
                    hit[:, 0] = False               # the k = 0 step never stops
                j = np.argmax(hit, axis=1)
                rows = np.flatnonzero((nu == cap) & hit[np.arange(sz), j])
                j = j[rows]
                x = a * (2.0 * zeta[:, c0:c1] - 1.0)   # column k holds X_{k+1}
                nu[rows] = c0 + j
                v_before[rows] = csum[rows, j]
                sig_nu[rows] = sigma_sq[rows, j]
                y_nu[rows] = a[rows, j]             # max(1, A) = A since a_lo >= 1
                x_nu[rows] = x[rows, j]
                np.multiply(x, np.arange(c0, c1) < nu[:, None],
                            out=inc[:sz, c0:c1])
                if np.all(nu < cap):
                    break
            else:
                raise _overflow(cap, n, "product")
            inc[:sz, c1:written] = 0.0
            written = c1
            gamma = compute_gamma(v_before, sig_nu, n)
            s_nu = np.sum(inc[:sz], axis=1)
            chunks.append({
                "nu": nu.astype(np.int64),
                "gamma": gamma,
                "s_nu": s_nu,
                "s_prime_nu": s_nu + np.sqrt(gamma) * x_nu,
                "y_nu": y_nu,
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
        self.variances = np.array(sorted({v_lo, v_hi}))
        self._sd_lo, self._sd_hi = math.sqrt(v_lo), math.sqrt(v_hi)
        self._y = max(1.0, math.sqrt(v_hi))

    def step(self, state):
        high = (state.running_sum > 0) * 1.0
        sigma_sq = _pick(high, self.v_hi, self.v_lo)
        x = state._sign() * _pick(high, self._sd_hi, self._sd_lo)
        return x, sigma_sq, self._y

    def sample_block(self, n, size, rng, cap):
        """Draw order, which the report bytes rest on: one sign per live row
        at each step, in row order, taken from 32-bit draws in 4096-sign
        refills; the stream is the same however the draws are split."""
        v_lo, v_hi, sd_lo, sd_hi = self.v_lo, self.v_hi, self._sd_lo, self._sd_hi
        out = {
            "nu": np.zeros(size, dtype=np.int64),
            "s_nu": np.zeros(size),
            "y_nu": np.full(size, self._y),
            "v_before": np.zeros(size),
            "sigma_nu_sq": np.zeros(size),
        }
        x_nu = np.zeros(size)                       # X_{nu+1}
        live = np.arange(size)                      # rows not yet stopped
        s = np.zeros(size)                          # S_k of each live row
        v = np.zeros(size)                          # sum of sigma^2_j, j < k
        signs, pos = np.empty(0), 0
        for k in range(cap):
            m = live.size
            if pos + m > signs.size:
                bits = rng.integers(0, 2, size=max(_REFILL, m), dtype=np.int32)
                signs, pos = np.concatenate((signs[pos:], 2.0 * bits - 1.0)), 0
            high = s > 0
            sigma_sq = np.where(high, v_hi, v_lo)
            x = np.where(high, sd_hi, sd_lo) * signs[pos:pos + m]
            pos += m
            v_new = v + sigma_sq
            stop = v_new >= n
            if k == 0 or not stop.any():            # the k = 0 step never stops
                s += x
                v = v_new
                continue
            idx = live[stop]
            out["nu"][idx] = k
            out["s_nu"][idx] = s[stop]
            out["v_before"][idx] = v[stop]
            out["sigma_nu_sq"][idx] = sigma_sq[stop]
            x_nu[idx] = x[stop]
            cont = ~stop
            live = live[cont]
            s = s[cont] + x[cont]
            v = v_new[cont]
            if live.size == 0:
                out["gamma"] = compute_gamma(out["v_before"],
                                             out["sigma_nu_sq"], n)
                out["s_prime_nu"] = out["s_nu"] + np.sqrt(out["gamma"]) * x_nu
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
    """Floats for a ModelState; for Lanes x is one entry per lane,
    sigma_sq and y are that or one float for every lane."""

    x: float        # the increment X_{k+1}
    sigma_sq: float  # sigma^2_k, known before X_{k+1} is drawn
    y: float        # Y_k >= 1, nondecreasing


def _draw_signs(rng):
    return rng.integers(0, 2, size=_REFILL, dtype=np.int8)


def _draw_uniforms(rng):
    return rng.random(_REFILL)


@dataclass
class ModelState:
    """Exclusively-owned mutable path state; replay is exact per (spec, seed)."""

    spec: ModelSpec
    step: int
    rng: np.random.Generator
    running_sum: float = 0.0   # S_k, drives the regime_switch variance
    growth: int = 0            # product model: the growth count N_k
    _bits: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    _bit_pos: int = 0
    _unif: np.ndarray = field(default_factory=lambda: np.empty(0, float))
    _unif_pos: int = 0

    def _sign(self):
        if self._bit_pos >= self._bits.size:
            self._bits = _draw_signs(self.rng)
            self._bit_pos = 0
        b = self._bits[self._bit_pos]
        self._bit_pos += 1
        return 1.0 if b else -1.0

    def _uniform(self):
        if self._unif_pos >= self._unif.size:
            self._unif = _draw_uniforms(self.rng)
            self._unif_pos = 0
        u = self._unif[self._unif_pos]
        self._unif_pos += 1
        return u


_TILE = 32    # steps whose draws lanes compute at once: one block of signs


class Lanes:
    """Paths of one spec stepped together, one array entry (lane) per path;
    lane i draws what ``init_model(spec, seeds[i])`` draws, evaluated from
    the stream's counter rather than by a Generator.

    A ModelState refills 4096 signs and then, if ``law.uniforms``, 4096
    uniforms at the steps k = 0, 4096, 8192, ..., so refill b starts at
    64-bit output b*512, or b*4608 with uniforms.  int8 ``integers(0, 2)``
    keeps bit 7 of each byte of its 32-bit draws, low byte first, so the
    sign of step k is bit 7 of byte k mod 4096 of the refill's 512 sign
    words; ``random`` gives (word >> 11) * 2^-53 from the 4096 words that
    follow.  The draws are computed _TILE steps at a time."""

    def __init__(self, spec, seeds, cap):
        self.spec, self.cap, self.step = spec, cap, 0
        self._keys = philox_keys(seeds)
        size = self._keys.shape[1]
        self.running_sum = np.zeros(size)
        self.growth = np.zeros(size, dtype=np.int64)
        self._tile_end = 0
        self._bits = self._unif = None

    def _draw_tile(self):
        refill, pos = divmod(self.step, _REFILL)   # the step is a tile start
        uniforms = self.spec.law.uniforms
        base = refill * (_REFILL // 8 + uniforms * _REFILL)  # in 64-bit words
        self._bits = coins(philox_words(self._keys, (base + pos // 8) // 4,
                                        _TILE // 32))
        if uniforms:
            first = (base + _REFILL // 8 + pos) // 4
            self._unif = doubles(philox_words(self._keys, first, _TILE // 4))
        self._tile_end = self.step + _TILE

    def _row(self):
        if self.step >= self._tile_end:
            self._draw_tile()
        return self.step % _TILE

    def _sign(self):
        row = self._row()
        return 2.0 * self._bits[row] - 1.0

    def _uniform(self):
        row = self._row()
        return self._unif[row]


def init_model(spec, seed):
    """Deterministic state: the same (spec, seed) replays the same path."""
    if not isinstance(spec, ModelSpec):
        raise ConfigurationError("spec must be a ModelSpec")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    return ModelState(spec=spec, step=0, rng=rng)


def step_model(state):
    """Advance one step of a ModelState or of Lanes, emitting
    (X_{k+1}, sigma^2_k, Y_k), as floats or as one array entry per lane.

    sigma^2 and Y are computed from the history alone; the sign driving
    X_{k+1} is drawn afterwards.
    """
    spec = state.spec
    if state.step >= spec.max_steps:
        raise PathOverflowError(
            f"step cap {spec.max_steps} reached for kind {spec.kind}"
        )
    x, sigma_sq, y = spec.law.step(state)
    state.running_sum = state.running_sum + x   # a new array: S_k stays valid
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

