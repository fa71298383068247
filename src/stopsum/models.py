"""Adapted martingale-difference generators.

Each model emits, at step k, the triple (X_{k+1}, sigma^2_k, Y_k): the
conditional variance and the dominating sequence are computed from the
history *before* the next increment is drawn.  All conditional laws are
symmetric two-point laws, so conditional moments are available in closed
form: ``ModelSpec`` checks the paper's hypotheses exactly, once, on every
level of the kind's table (``_check_hypotheses``).

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
    PathOverflowError,
)
from .streams import coins, doubles, philox_keys, philox_words

__all__ = [
    "KINDS",
    "LAWS",
    "Lanes",
    "MAX_REPS",
    "MAX_STEPS",
    "ModelSpec",
    "ModelState",
    "StepOutput",
    "compute_gamma",
    "init_model",
    "step_model",
]


class Law:
    """One model kind: parameter ``defaults``, checked in ``__init__`` only
    where its arithmetic needs them, the level table of ``_table``,
    ``rising``, whether a path's level never falls, ``step`` giving the
    sign of X_{k+1} and the level of (sigma^2_k, sigma_k, Y_k), so
    X_{k+1} = sign * sigma_k, and ``sample_block`` giving the StoppedBatch
    columns of paths stopped at nu < cap, or raising PathOverflowError.
    ``ModelSpec`` checks the paper's hypotheses on the table and ``rising``
    (``_check_hypotheses``), so a kind states none of them itself.
    ``step`` is written once for a ModelState (floats, drawn by numpy's
    Generator) and for the rows that ``_run_rows`` steps (arrays); it
    draws one sign and then, if ``uniforms``, one uniform.  The ``rng`` of
    ``sample_block`` is the block's fresh stream, which the product and
    regime samplers read by ``_BlockStream``.  ``kind`` names it in LAWS."""

    uniforms = False
    rising = False

    def _table(self, variances, sds, ys):
        """Level i = (sigma^2, sigma, Y) as ``levels[i]``, floats, and as
        arrays ``variances``, ``sds``, ``ys``; level 0 is step 0's."""
        cols = [np.array(col, dtype=float) for col in (variances, sds, ys)]
        self.variances, self.sds, self.ys = cols
        self.levels = tuple(zip(*(col.tolist() for col in cols)))
        self.variance_floor = float(self.variances.min())
        self.sigma0_sq_max = self.levels[0][0]


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


def _stopped(n, nu, s_nu, x_next, y_nu, v_before, sigma_nu_sq):
    """The StoppedBatch columns of paths stopped at nu, for one path
    (floats) or many (arrays): gamma by compute_gamma and
    S'_nu = S_nu + sqrt(gamma) * X_{nu+1}."""
    gamma = compute_gamma(v_before, sigma_nu_sq, n)
    return {
        "nu": nu,
        "gamma": gamma,
        "s_nu": s_nu,
        "s_prime_nu": s_nu + np.sqrt(gamma) * x_next,
        "y_nu": y_nu,
        "v_before": v_before,
        "sigma_nu_sq": sigma_nu_sq,
    }


def _concat(parts):
    """Stopped-column dicts joined column by column, in order."""
    if len(parts) == 1:
        return parts[0]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _check_threshold(spec, n):
    """The start gate of every engine; it returns n's step cap.  n finite;
    n >= 2 sigma^2_0, so that a stop at nu = 1, where v_before = sigma^2_0,
    still has gamma > 0; and n within reach of the step cap, so that an n
    no path reaches raises the overflow before a step is drawn."""
    if not math.isfinite(n):
        raise ConfigurationError(f"n = {n} must be finite")
    sigma0_sq = spec.law.sigma0_sq_max
    if n < 2.0 * sigma0_sq:
        raise DegenerateStartError(
            f"n = {n} < 2 * max sigma^2_0 = {2.0 * sigma0_sq}; "
            "the nu = 1 edge could make gamma nonpositive"
        )
    # Every kind takes step 0 at level 0, so a path reaches at most the
    # float sum, from 0, of sigma^2_0 and cap - 1 variances of at most M,
    # the largest sigma^2: cap - 1 roundings, B (1 + u)^(cap - 1) <=
    # B (1 + 2 (cap - 1) u), B = sigma^2_0 + (cap - 1) M, u = 2^-53.  The
    # bound below, B (1 + 4 cap u), loses at most a factor (1 - u)^4 to
    # rounding, less than its extra 2 (cap + 1) u, so no path reaches an n
    # above it; n = B passes.  Only a cap that MAX_STEPS clamps can fail,
    # as an unclamped one exceeds n / (least sigma^2).
    cap = spec.step_cap(n)
    reach = sigma0_sq + (cap - 1) * float(spec.law.variances.max())
    if n > reach * (1.0 + 4.0 * cap * 2.0**-53):
        raise _overflow(cap, n, spec.kind)
    return cap


# a threshold holds its whole batch and the CF probe's temporaries at once,
# about 120 bytes per path at peak, 155 for the product kind, whose sample
# values are mostly distinct (1.2 to 1.55 GB at this ceiling)
MAX_REPS = 10**7
# the hard step cap of every path, whatever n and the variance floor
MAX_STEPS = 10_000_000


def _largest_y(y):
    """y, a law's largest Y_k, if MAX_REPS * y^8 is finite: the estimate of
    a_n = (E Y_nu^4)^(1/2) and its standard error sum up to MAX_REPS values
    of Y^4 and of their squared deviations, so y may reach about 4.5e37;
    checked before a law squares its parameters."""
    y4 = y * y * y * y                  # y ** 8 would raise OverflowError
    if not math.isfinite(MAX_REPS * y4 * y4):
        raise ConfigurationError(
            f"{MAX_REPS} * Y^8 overflows for the largest Y = {y}")
    return y


def _overflow(cap, n, kind):
    """The error of every engine whose paths do not stop within cap steps."""
    return PathOverflowError(
        f"no stop after {cap} steps (n = {n}, kind = {kind})")


def _run_rows(law, rows, n, cap, levels=None):
    """Stopped columns of the paths of a row state (per live row the
    ``running_sum`` and what else ``law.step`` reads and draws, ``step``,
    and ``keep(live)`` to keep only the rows at the indices ``live``), each
    stepped to its first k >= 1 with v_before + sigma^2_k >= n;
    ``levels[path, k]``, if given, gets the level of step k, and
    sigma^2_nu and Y_nu are read at the end."""
    size = rows.running_sum.size
    nu, level_nu = np.zeros(size, np.int64), np.zeros(size, np.int8)
    s_nu, x_nu, v_before = (np.zeros(size) for _ in range(3))
    paths = np.arange(size)                 # the path of each live row
    v = np.zeros(size)                      # sum of sigma^2_j, j < k
    for k in range(cap):
        sign, level = law.step(rows)        # level of step k, sign of X_{k+1}
        rows.step += 1
        if levels is not None:
            levels[paths, k] = level
        x = sign * law.sds.take(level)      # X_{k+1}
        total = v + law.variances.take(level)
        stop = total >= n
        if k == 0 or not stop.any():        # the k = 0 step never stops
            rows.running_sum += x
            v = total
            continue
        at = np.flatnonzero(stop)
        done = paths[at]
        nu[done] = k
        if np.ndim(level):                  # iid: level is one 0
            level_nu[done] = level[at]
        s_nu[done] = rows.running_sum[at]
        x_nu[done] = x[at]
        v_before[done] = v[at]
        if done.size == paths.size:
            return _stopped(n, nu, s_nu, x_nu, law.ys.take(level_nu),
                            v_before, law.variances.take(level_nu))
        live = np.flatnonzero(~stop)
        rows.running_sum += x
        rows.keep(live)
        paths, v = paths.take(live), total.take(live)
    raise _overflow(cap, n, law.kind)


class IidBounded(Law):
    """X = +/- sqrt(v), constant variance v, Y = M."""

    kind = "iid_bounded"
    defaults = {"m": 1.0, "v": 1.0}

    def __init__(self, m, v):
        if not v > 0.0:
            raise ConfigurationError("iid_bounded requires v > 0")
        self._table((v,), (math.sqrt(v),), (_largest_y(m),))

    def step(self, state):
        return state._sign(), 0

    def sample_block(self, n, size, rng, cap):
        v, sd, y = self.levels[0]
        nu, v_before = _constant_crossing(v, n, cap)   # same on every path
        ones = np.ones(size)
        s_nu = sd * (2.0 * rng.binomial(nu, 0.5, size=size) - nu)
        x_next = sd * (2.0 * rng.integers(0, 2, size=size) - 1.0)
        return _stopped(n, np.full(size, nu, dtype=np.int64), s_nu, x_next,
                        y * ones, v_before * ones, v * ones)


@functools.lru_cache(maxsize=64)
def _constant_crossing(v, n, cap):
    """(nu, v_before) by the float sums and stopping rule of run_path."""
    nu, v_before = 1, v                 # the k = 0 step never stops
    while v_before + v < n and nu < cap:
        nu, v_before = nu + 1, v_before + v
    if nu >= cap:
        raise _overflow(cap, n, IidBounded.kind)
    return nu, v_before


# draws per ModelState buffer refill, for signs and uniforms alike; Lanes
# reads the streams in the same layout
_REFILL = 4096
# raw Philox outputs of a product draw piece, and of a regime refill at
# least: 64 KiB, below glibc's 128 KiB mmap threshold, so each fresh array
# that random_raw returns reuses the heap
_RAW_PIECE = 1 << 13
_PRODUCT_CHUNK = 512  # rows whose uniforms all precede their signs
# bytes of a sub-chunk's draws, at least one row: a bool growth draw and an
# int8 sign a cell, cap cells a row
_PRODUCT_BUDGET = 640 << 10
_PRODUCT_CELL_BYTES = 2
# cells of a column tile, whose buffers take 17 bytes a cell; a tile's
# fewest columns unless the rows are shorter
_PRODUCT_TILE_CELLS = 1 << 15
_PRODUCT_TILE = 256
# numpy's pairwise summation adds at most 128 values in one unrolled loop
# and splits a longer run at n2 = n // 2 - (n // 2) % 8
_PAIRWISE_LEAF = 128
# 1 - 2^-N rounds to 1.0 from N = 54 on, so A_k takes at most 55 values
_PRODUCT_LEVELS = 55


class Product(Law):
    """X_{k+1} = A_k * zeta_{k+1} with Rademacher zeta and
    A_k = a_lo + (a_hi - a_lo) * (1 - 2^{-N_k}) driven by a nondecreasing
    Bernoulli(p_growth) counting process N_k; Y_k = A_k.  Every engine keeps
    N_k and reads A_k = ``amplitude(N_k)`` at level min(N_k, 54)."""

    kind = "product"
    defaults = {"a_lo": 1.0, "a_hi": 2.0, "p_growth": 0.05}
    uniforms = True
    rising = True                   # N_k never decreases

    def __init__(self, a_lo, a_hi, p_growth):
        if not 0.0 <= p_growth <= 1.0:
            raise ConfigurationError("product requires p_growth in [0, 1]")
        _largest_y(max(abs(a_lo), abs(a_hi)))   # |A_k| <= max(|a_lo|, |a_hi|)
        self.a_lo, self.a_hi, self.p_growth = a_lo, a_hi, p_growth
        a = self.amplitude(np.arange(_PRODUCT_LEVELS))
        self._table(a * a, a, a)

    def amplitude(self, growth):
        """A_k for the growth count N_k (an int or an integer array)."""
        return self.a_lo + (self.a_hi - self.a_lo) * (1.0 - np.ldexp(1.0, -growth))

    def step(self, state):
        sign = state._sign()
        level = np.minimum(state.growth, _PRODUCT_LEVELS - 1)
        # advance the counting process for the next step
        state.growth = state.growth + (state._uniform() < self.p_growth)
        return sign, level

    def sample_block(self, n, size, rng, cap):
        """Draw order, which the report bytes rest on: per chunk of at most
        512 rows, sz*cap uniforms and then sz*cap signs, each a row-major
        (sz, cap) matrix whose column k drives step k, both read by
        ``_BlockStream``.  Its cursor sz*cap outputs ahead draws the signs,
        so a chunk is drawn and stepped a sub-chunk of rows at a time; a
        sub-chunk keeps its draws as bits, 2 bytes a cell, and the
        arithmetic runs in column tiles, the leaves of np.sum's pairwise
        tree over a row (``_pairwise``), up to the sub-chunk's last
        crossing.  The buffers are allocated once a block."""
        rows, width = _sub_chunk(size, cap)
        buf = _TileBuffers(rows, cap, min(cap, max(width, _PAIRWISE_LEAF)))
        nu = np.full(size, cap, dtype=np.int64)     # cap: not crossed yet
        # S_nu, X_{nu+1}, Y_nu, v_before and sigma^2_nu
        out = [np.empty(size) for _ in range(5)]
        stream = _BlockStream(rng.bit_generator)
        for start in range(0, size, _PRODUCT_CHUNK):
            end = min(start + _PRODUCT_CHUNK, size)
            cursor = stream.ahead((end - start) * cap)
            for r0 in range(start, end, rows):
                r1 = min(r0 + rows, end)
                stream.grows(self.p_growth, buf.grow[:r1 - r0].reshape(-1))
                zeta = buf.zeta[:r1 - r0].reshape(-1)
                cursor.signs(zeta.view(bool))
                zeta += zeta
                zeta -= 1                           # -1 or +1
                self._step_rows(n, cap, width, buf, nu[r0:r1],
                                *(col[r0:r1] for col in out))
            stream = cursor                         # past the chunk's signs
        return _stopped(n, nu, *out)

    def _step_rows(self, n, cap, width, buf, nu, s_nu, x_nu, y_nu,
                   v_before, sig_nu):
        """The stopped columns, without gamma and S'_nu, of the rows drawn
        into buf, written into nu, ..., sig_nu.  S_nu is np.sum over a
        dense row of cap masked increments X_{k+1} 1{k < nu}, taken along
        its pairwise tree by ``_pairwise``: each tile, left to right, sums
        its increments by np.add.reduce, or to 0.0 once every row has
        crossed, which gives np.sum's bits."""
        m = nu.size
        grow, zeta = buf.grow[:m], buf.zeta[:m]
        growth = np.zeros(m, dtype=np.intp)         # N_k at the tile's first k
        v = np.zeros(m)                             # sum of sigma^2_j, j < k

        def tile(c0, c1):
            nonlocal growth, v
            if np.all(nu < cap):                    # never at the first tile
                return 0.0
            w = c1 - c0
            counts = buf.tile(buf.counts, m, w)     # dead once a is read
            counts[:, 0] = growth
            counts[:, 1:] = grow[:, c0:c1 - 1]
            np.cumsum(counts, axis=1, out=counts)              # N_k
            growth = counts[:, -1] + grow[:, c1 - 1]
            a = buf.tile(buf.amp, m, w)
            self.sds.take(counts, out=a, mode="clip")  # level min(N_k, 54)
            # csum[:, j] = sum of sigma^2 over steps < c0 + j
            csum = buf.tile(buf.csum, m, w + 1)
            csum[:, 0] = v
            np.multiply(a, a, out=csum[:, 1:])
            np.cumsum(csum, axis=1, out=csum)
            v = csum[:, -1].copy()              # the next tile reuses csum
            # csum never decreases, so hit = 1{k >= nu} once nu is set
            hit = buf.tile(buf.hit, m, w)
            np.greater_equal(csum[:, 1:], n, out=hit)
            if c0 == 0:
                hit[:, 0] = False               # the k = 0 step never stops
            j = np.argmax(hit, axis=1)
            rows = np.flatnonzero((nu == cap) & hit[np.arange(m), j])
            j = j[rows]
            nu[rows] = c0 + j
            v_before[rows] = csum[rows, j]
            y = a[rows, j]                      # Y = A
            y_nu[rows] = y
            sig_nu[rows] = y * y
            np.multiply(a, zeta[:, c0:c1], out=a)  # column k holds X_{k+1}
            x_nu[rows] = a[rows, j]
            # X_{k+1} 1{k < nu}, a signed zero from k = nu on
            np.multiply(a, 0.0, out=a, where=hit)
            return np.add.reduce(a, axis=1)

        total = _pairwise(0, cap, width, tile)
        if not np.all(nu < cap):
            raise _overflow(cap, n, self.kind)
        s_nu[:] = total


class _TileBuffers:
    """What one product block reuses for each sub-chunk: its draws, a bool
    growth bit and an int8 sign a cell; a tile's amplitudes, variance sums
    and hits, with the growth counts (intp) in the variance sums' buffer,
    which they leave before it is written: 17 bytes a cell of a tile of
    at most ``cols`` columns.  Allocated once a block, since fresh arrays
    of 128 KiB or more are mapped anew on every call."""

    def __init__(self, rows, cap, cols):
        self.grow = np.empty((rows, cap), dtype=bool)
        self.zeta = np.empty((rows, cap), dtype=np.int8)
        self.amp = np.empty(rows * cols)
        self.csum = np.empty(rows * (cols + 1))
        self.counts = self.csum.view(np.intp)
        self.hit = np.empty(rows * cols, dtype=bool)

    @staticmethod
    def tile(flat, m, w):
        """A contiguous (m, w) view of a flat tile buffer: ``take`` copies
        into an ``out`` that is not contiguous."""
        return flat[:m * w].reshape(m, w)


def _sub_chunk(size, cap):
    """(rows, width) of the product sampler.  A chunk is split into equal
    sub-chunks, the last one smaller, of at most as many rows as the draw
    budget holds at 2 bytes a cell (one at least) and a 2^15-cell tile of
    min(cap, 256) columns holds: 128 from cap 256 on.  Width columns hold
    2^15 cells; a tile is a leaf of the pairwise tree of at most
    max(width, 128) columns (``_pairwise``)."""
    chunk = min(size, _PRODUCT_CHUNK)
    most = max(1, min(chunk, _PRODUCT_BUDGET // (_PRODUCT_CELL_BYTES * cap),
                      _PRODUCT_TILE_CELLS // min(cap, _PRODUCT_TILE)))
    rows = -(-chunk // -(-chunk // most))
    return rows, _PRODUCT_TILE_CELLS // rows


def _pairwise(c0, c1, width, tile):
    """A row's sum over columns c0..c1 with np.add.reduce's bits: a run
    longer than max(width, 128) splits at n2 = n//2 - (n//2) % 8, as
    numpy splits it, into halves summed left first, so ``tile(c0, c1)``
    sees the shorter runs, its tiles, left to right, and each returns
    np.add.reduce's sum over its columns or 0.0 (x + 0.0 has the bits of
    x plus a +0.0 array)."""
    size = c1 - c0
    if size <= max(width, _PAIRWISE_LEAF):
        return tile(c0, c1)
    half = size // 2 - size // 2 % 8
    left = _pairwise(c0, c0 + half, width, tile)
    return left + _pairwise(c0 + half, c1, width, tile)


def _growth_test(p, x, out):
    """out = 1{Generator.random() < p} of the raw Philox outputs x:
    random() = (x >> 11) 2^-53 lies below p iff x >> 11 < T = ceil(p 2^53),
    iff x < T 2^11, and every x does at p = 1, where T 2^11 = 2^64."""
    bound = math.ceil(p * 2.0 ** 53) << 11
    if bound >> 64:
        return np.less_equal(x, np.uint64(bound - 1), out=out)
    return np.less(x, np.uint64(bound), out=out)


class _BlockStream:
    """A block's Philox bit generator ``bits`` read by raw outputs, at most
    _RAW_PIECE a call: the one map from them to numpy Generator's draws."""

    def __init__(self, bits):
        self.bits = bits
        self._half = None       # the sign of a 32-bit half drawn, not read

    def signs(self, out):
        """Fill out with the next out.size int32 ``integers(0, 2)``: bit 31
        of each 32-bit half, low half first (Lemire's method gives (2x) >>
        32 of a 32-bit draw x, and (2^32 - 2) mod 2 = 0 rejects none).  An
        odd count holds the half after its last for the next call."""
        i = 0
        if out.size and self._half is not None:
            out[0], i, self._half = self._half, 1, None
        while i < out.size:
            words = min(_RAW_PIECE, (out.size - i + 1) // 2)
            halves = np.asarray(self.bits.random_raw(words),
                                dtype="<u8").view("<u4")
            k = min(halves.size, out.size - i)
            np.greater_equal(halves[:k], 1 << 31, out=out[i:i + k])
            if k < halves.size:
                self._half = bool(halves[k] >> 31)
            i += k

    def grows(self, p, out):
        """Fill out with the next out.size ``random() < p``, one output each."""
        for i in range(0, out.size, _RAW_PIECE):
            raw = self.bits.random_raw(min(_RAW_PIECE, out.size - i))
            _growth_test(p, raw, out[i:i + raw.size])

    def ahead(self, skip):
        """A _BlockStream on a copy of the stream, ``skip`` raw outputs
        ahead.  ``advance`` skips whole blocks of 4 outputs, so the stream
        must hold no output of its 4-output buffer and no 32-bit half: a
        fresh stream holds none, nor does a product chunk start, as a full
        chunk draws 512*cap growth and 256*cap sign outputs."""
        state = self.bits.state
        held = self._half is not None or state["has_uint32"]
        if held or state["buffer_pos"] < 4:
            raise ValueError("a cursor needs the stream at a block's start")
        bits = np.random.Philox(key=state["state"]["key"])
        bits.state = state
        bits.advance(skip // 4)
        bits.random_raw(skip % 4)
        return _BlockStream(bits)


class RegimeSwitch(Law):
    """sigma^2_k = v_lo (level 0, as at S_0 = 0) or v_hi (level 1, if the
    running sum is positive); X_{k+1} = +/- sigma_k; Y = max(1, sqrt(v_hi))."""

    kind = "regime_switch"
    defaults = {"v_lo": 1.0, "v_hi": 1.0}

    def __init__(self, v_lo, v_hi):
        if not 0.0 < v_lo <= v_hi:
            raise ConfigurationError("regime_switch requires 0 < v_lo <= v_hi")
        sds = (math.sqrt(v_lo), math.sqrt(v_hi))
        y = _largest_y(max(1.0, sds[1]))
        self._table((v_lo, v_hi), sds, (y, y))

    def step(self, state):
        return state._sign(), state.running_sum > 0

    def sample_block(self, n, size, rng, cap):
        """Draw order, which the report bytes rest on: one sign per live row
        at each step, in row order, the signs of ``rng.integers(0, 2,
        dtype=np.int32)`` drawn however the calls are split."""
        return _run_rows(self, _BlockRows(rng, size), n, cap)


class _BlockRows:
    """A regime block's rows for ``_run_rows``, with its signs in order,
    refilled into one buffer that holds the signs left over and a refill:
    max(_RAW_PIECE, (rows + 1) // 2) whole raw outputs of the block's fresh
    stream read by ``_BlockStream.signs``, as float +/-1 signs."""

    def __init__(self, rng, size):
        self.running_sum, self.step = np.zeros(size), 0
        self._stream = _BlockStream(rng.bit_generator)
        self._signs = np.empty(size + 2 * max(_RAW_PIECE, (size + 1) // 2))
        self._pos = self._end = 0

    def _sign(self):
        m, pos, signs = self.running_sum.size, self._pos, self._signs
        if pos + m > self._end:
            left = self._end - pos
            signs[:left] = signs[pos:self._end]
            self._end = left + 2 * max(_RAW_PIECE, (m + 1) // 2)
            fresh = signs[left:self._end]
            self._stream.signs(fresh)
            fresh += fresh
            fresh -= 1.0
            pos = 0
        self._pos = pos + m
        return signs[pos:pos + m]

    def keep(self, live):
        self.running_sum = self.running_sum.take(live)


LAWS = {law.kind: law for law in (IidBounded, Product, RegimeSwitch)}
KINDS = tuple(LAWS)


def _check_hypotheses(kind, law):
    """The hypotheses of the rate bounds on every level of law's table,
    exactly: sigma^2 > 0, Y >= 1 and sigma <= Y, which, as |X| = sigma,
    is both sigma^2 <= Y^2 and E(|X|^3 | F_k) = sigma^3 <= Y sigma^2; and
    Y_k nondecreasing along every step the law allows.  sigma, not
    sigma^2, is compared with Y: a Y of sqrt(v) rounded may square to
    less than v (sqrt(3) ** 2 < 3), and for sigma = sqrt(sigma^2)
    rounded, sigma <= Y holds whenever the float sigma^2 <= Y * Y does.
    A rising law steps from a level to higher ones only, so its Y must not
    fall in level order; a level that can fall may follow any other, so
    every level must have level 0's Y.  A broken hypothesis raises
    ConfigurationError naming the kind and the level."""
    ys = law.ys.tolist()
    for i, (v, sd, y) in enumerate(law.levels):
        for holds, name in ((v > 0.0, "sigma^2 > 0"), (y >= 1.0, "Y >= 1"),
                            (sd <= y, "sigma <= Y")):
            if not holds:
                raise ConfigurationError(
                    f"{kind} level {i} (sigma^2, sigma, Y) = {(v, sd, y)} "
                    f"breaks {name}")
        j = i - 1 if law.rising else 0          # the level compared with
        if i and (y < ys[j] if law.rising else y != ys[j]):
            raise ConfigurationError(
                f"{kind} level {i} has Y = {y} and level {j} Y = {ys[j]}: "
                "a step between them breaks Y_k nondecreasing")


@dataclass(frozen=True)
class ModelSpec:
    """Model kind plus its flat parameter set."""

    kind: str
    params: dict
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
        for k, v in self.params.items():
            if isinstance(v, (bool, np.bool_)):
                raise ConfigurationError(f"{k} must be float, got {v!r}")
        merged.update({k: float(v) for k, v in self.params.items()})
        if not all(map(math.isfinite, merged.values())):
            raise ConfigurationError(f"{self.kind} parameters must be finite")
        object.__setattr__(self, "params", merged)
        object.__setattr__(self, "law", LAWS[self.kind](**merged))
        _check_hypotheses(self.kind, self.law)

    def step_cap(self, n):
        """Worst-case path length for threshold n, clamped by MAX_STEPS;
        the quotient is clamped first, so an inf one gives MAX_STEPS."""
        steps = min(n / self.law.variance_floor, MAX_STEPS)
        return min(MAX_STEPS, math.ceil(steps) + 2)


@dataclass(frozen=True)
class StepOutput:
    """One step of a ModelState."""

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


_TILE = 128   # steps whose draws lanes compute at once: four blocks of signs


class Lanes:
    """Paths of one spec stepped together, one array entry (lane) per path;
    lane i draws what ``init_model(spec, seeds[i])`` draws, seeds a uint64
    array, evaluated from the stream's counter rather than by a Generator.

    A ModelState refills 4096 signs and then, if ``law.uniforms``, 4096
    uniforms at the steps k = 0, 4096, 8192, ..., so refill b starts at
    64-bit output b*512, or b*4608 with uniforms.  int8 ``integers(0, 2)``
    keeps bit 7 of each byte of its 32-bit draws, low byte first, so the
    sign of step k is bit 7 of byte k mod 4096 of the refill's 512 sign
    words; ``random`` gives (word >> 11) * 2^-53 from the 4096 words that
    follow.  The draws are computed _TILE steps (four Philox blocks of
    signs) at a time, for the lanes live at the tile's first step, and the
    signs kept as int8 -1 or +1."""

    def __init__(self, spec, seeds):
        self.spec, self.step = spec, 0
        self._keys = philox_keys(seeds)
        size = self._keys.shape[1]
        self.running_sum = np.zeros(size)
        self.growth = np.zeros(size, dtype=np.int64)
        self._tile_end = 0
        self._draws = []        # the tile's signs and, if drawn, uniforms
        self._cols = None       # the tile column of each live lane, or all

    def _draw_tile(self):
        if self._cols is not None:              # the live lanes' keys
            self._keys = self._keys.take(self._cols, axis=1)
        refill, pos = divmod(self.step, _REFILL)   # the step is a tile start
        uniforms = self.spec.law.uniforms
        base = refill * (_REFILL // 8 + uniforms * _REFILL)  # in 64-bit words
        self._draws = []        # dropped before the next tile is computed
        signs = coins(philox_words(self._keys, (base + pos // 8) // 4,
                                   _TILE // 32)).view(np.int8)
        signs += signs
        signs -= 1                              # -1 or +1
        self._draws = [signs]
        if uniforms:
            first = (base + _REFILL // 8 + pos) // 4
            self._draws.append(
                doubles(philox_words(self._keys, first, _TILE // 4)))
        self._tile_end, self._cols = self.step + _TILE, None

    def _row(self, draws):
        """The current step's draws of each live lane."""
        if self.step >= self._tile_end:
            self._draw_tile()
        row = self._draws[draws][self.step % _TILE]
        return row if self._cols is None else row.take(self._cols)

    def _sign(self):
        # a float copy: an int8 factor makes each product a buffered cast
        return self._row(0).astype(np.float64)

    def _uniform(self):
        return self._row(1)

    def keep(self, live):
        """Keep only the lanes at the indices ``live``; the tile's draws
        stay and are read at the live lanes' columns, and the keys are
        gathered at the next tile.  ``growth`` is kept only for a law that
        reads it, one that draws uniforms."""
        self.running_sum = self.running_sum.take(live)
        if self.spec.law.uniforms:
            self.growth = self.growth.take(live)
        self._cols = live if self._cols is None else self._cols.take(live)


def init_model(spec, seed):
    """Deterministic state: the same (spec, seed) replays the same path."""
    if not isinstance(spec, ModelSpec):
        raise ConfigurationError("spec must be a ModelSpec")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    return ModelState(spec=spec, step=0, rng=rng)


def step_model(state):
    """Advance a ModelState one step, emitting (X_{k+1}, sigma^2_k, Y_k):
    the level that the history selects, then X_{k+1} = sign * sigma_k."""
    spec = state.spec
    if state.step >= MAX_STEPS:
        raise PathOverflowError(
            f"step cap {MAX_STEPS} reached for kind {spec.kind}"
        )
    sign, level = spec.law.step(state)
    sigma_sq, sd, y = spec.law.levels[level]
    x = sign * sd
    state.running_sum = state.running_sum + x
    state.step += 1
    return StepOutput(x=x, sigma_sq=sigma_sq, y=y)


def derive_seed(seed, *key):
    """Counter-style child seed: a pure function of (seed, key)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])

