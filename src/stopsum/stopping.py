"""Stopped-sum construction on the per-path streams of ``init_model``.

A path is stepped until the accumulated conditional variance reaches the
threshold n, which every engine's result carries as a float (``n``).
Indexing contract (the one off-by-one hazard, stated once): model step i
emits (X_{i+1}, sigma^2_i, Y_i); nu is the smallest k >= 1 with
v_before + sigma^2_k >= n, v_before = sum_{i<k} sigma^2_i summed in order
in floats by every engine, so the step at which the threshold is crossed
already carries the extra increment X_{nu+1} used by S'_nu.

``run_path`` steps one path of a ModelState, whose draws come from numpy's
Generator; it is the oracle.  ``run_lockstep`` steps the paths p < count
of one spec and one seed together in ``models._run_rows``, path p on the
stream of ``derive_seed(seed, p)`` (``Lanes``) evaluated counter-based,
and gives, path by path, the same floats.

``lemma1_check`` takes path sets in path order (``run_lockstep``'s
chunks, or ``run_path``'s samples), checks each at its own n, rebuilds
their prefixes a slab at a time (``StoppedPaths.slabs``), laid out flat
with a 0.0 before each path, and sums every path's terms of a slab with
one np.add.reduceat, which gives the bits of np.sum over that path alone;
a StoppedSample is one slab.  ``Lemma1Result.row()`` is the lemma1 row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harness import Row
from .models import (
    _TILE,
    Lanes,
    _check_threshold,
    _overflow,
    _run_rows,
    _stopped,
    compute_gamma,
    step_model,
)
from .sampling import StoppedBatch
from .streams import derive_seeds

__all__ = [
    "StoppedSample",
    "StoppedPaths",
    "Lemma1Result",
    "run_path",
    "run_lockstep",
    "compute_gamma",
    "lemma1_check",
]

_LOCKSTEP_BYTES = 4 << 20   # bound on the draws and levels one chunk keeps
_SLAB_VALUES = 1 << 12      # bound on the prefix cells of a slab


@dataclass(frozen=True)
class StoppedSample(StoppedBatch):
    """One path of ``run_path``: the columns of StoppedBatch as floats (nu
    an int), and the partial sums of sigma^2 up to v_before."""

    sigma_prefix: np.ndarray

    def slabs(self):
        """The path's prefix as one slab of ``StoppedPaths.slabs``."""
        start = np.zeros(1, dtype=np.intp)
        yield start, np.concatenate(([0.0], self.sigma_prefix)), start


@dataclass(frozen=True)
class StoppedPaths(StoppedBatch):
    """Paths run together by ``run_lockstep``: the columns of StoppedBatch,
    and each path's variance history stored as int8 levels of the law's
    table, sigma^2_k = variances[levels[path, k]] for k < nu."""

    levels: np.ndarray
    variances: np.ndarray

    def slabs(self):
        """Yield (rows, prefix, starts): from starts[i] on, the flat prefix
        holds 0.0 and then P_j, j = 1..nu, of path rows[i], the partial
        sums of sigma^2 in order, as run_path keeps them.  Paths go in
        order of nu (stable), a slab of them at a time: at most
        _SLAB_VALUES cells when each is padded to the slab's longest,
        unless one path alone is longer.  One cumsum over the slab's
        variances rebuilds it, in a buffer that the next slab reuses: each
        path's first cell holds the negated v_before of the path before
        it, which P_nu of that path equals, so the sum restarts at 0.0
        exactly."""
        order = np.argsort(self.nu, kind="stable")
        nus = self.nu[order]
        sizes = nus + 1
        ends = np.cumsum(sizes)                 # one past each path's P_nu
        values = np.empty(_slab_width(nus))
        cols = np.arange(int(nus[-1]) + 1)
        lo = 0
        while lo < nus.size:
            # sizes[lo] is the slab's least, so it holds at most this many
            ahead = sizes[lo:lo + _SLAB_VALUES // int(sizes[lo])]
            area = ahead * np.arange(1, ahead.size + 1)   # up to each path
            hi = lo + max(1, int(np.searchsorted(area, _SLAB_VALUES, "right")))
            rows, nu, width = order[lo:hi], nus[lo:hi], int(sizes[hi - 1])
            last = ends[lo:hi] - (ends[lo - 1] if lo else 0) - 1
            starts = last - nu
            # the levels of steps 0..nu of each path, the last one of
            # which lands on the next path's first cell
            steps = self.levels[rows, :width][cols[:width] <= nu[:, None]]
            prefix = values[:steps.size]
            prefix[0] = 0.0
            self.variances.take(steps[:-1], out=prefix[1:])
            v_before = self.v_before[rows]
            prefix[starts[1:]] = -v_before[:-1]
            np.cumsum(prefix, out=prefix)
            if not np.array_equal(prefix[last], v_before):
                raise RuntimeError("variance levels do not rebuild v_before")
            yield rows, prefix, starts
            lo = hi


def _slab_width(nu):
    """Cells of a slab's buffers: _SLAB_VALUES, or one path's 0.0 and P_nu
    if it is longer."""
    return max(_SLAB_VALUES, int(np.max(nu)) + 1)


def run_path(state, n):
    """Run one model path to its stopping time, keeping its prefix."""
    spec = state.spec
    cap = _check_threshold(spec, n)
    n = float(n)
    v_before = s = 0.0
    prefix = []
    for k in range(cap):
        out = step_model(state)  # (X_{k+1}, sigma^2_k, Y_k)
        total = v_before + out.sigma_sq
        if k >= 1 and total >= n:
            cols = _stopped(n, k, s, out.x, out.y, v_before, out.sigma_sq)
            return StoppedSample(n=n, **cols, sigma_prefix=np.asarray(prefix))
        prefix.append(total)
        s += out.x
        v_before = total
    raise _overflow(cap, n, spec.kind)


def _lanes_per_chunk(spec, cap):
    """Paths per chunk: each keeps cap int8 levels, a 16-byte Philox key
    and one tile of draws, an int8 sign and, if the law draws them, an
    8-byte uniform per step.  The next tile is computed next to it, from
    the live lanes' keys gathered once a tile, as 64-bit words as large
    and the cipher's six scratch arrays of half their size
    (``philox_words``), so a lane holds about five times a tile's bytes
    at once; six are counted, and the key is not."""
    per_step = 1 + 8 * spec.law.uniforms
    return max(1, _LOCKSTEP_BYTES // (cap + 6 * per_step * _TILE))


def run_lockstep(spec, seed, count, n):
    """Run paths p < count of ``spec``, path p on the seed
    ``derive_seed(seed, p)``, to their stopping times, a chunk of paths at
    a time, yielding one StoppedPaths per chunk in path order.

    Path by path, nu, the sums, gamma, Y_nu, v_before, sigma^2_nu and the
    prefix equal those of ``run_path(init_model(spec, derive_seed(seed,
    p)), n)``: the lanes draw each path's stream, and every float is
    computed by the same operations in the same order.
    """
    cap = _check_threshold(spec, n)
    n = float(n)
    seeds = derive_seeds(seed, count)
    size = _lanes_per_chunk(spec, cap)
    for start in range(0, count, size):
        lanes = Lanes(spec, seeds[start:start + size])
        levels = np.empty((lanes.running_sum.size, cap), dtype=np.int8)
        cols = _run_rows(spec.law, lanes, n, cap, levels)
        yield StoppedPaths(n=n, **cols, levels=levels,
                           variances=spec.law.variances)


def _lemma1_lhs(prefix, starts, c, scratch):
    """LHS for each path of a slab (``StoppedPaths.slabs``) and each c, as
    a (paths, c) array, in ``scratch``'s (c.size + 1) * prefix.size floats.
    The terms take the elementwise operations of np.sum(exp(c * P) * c *
    sigma) over one path, in order; np.add.reduceat adds a segment's first
    value, here the 0.0 term of a path's start, to np.add.reduce's
    pairwise sum of the rest, so each path's sum has np.sum's bits."""
    size = prefix.size
    sigmas = scratch[:size]                 # P_j - P_{j-1}, P_0 = 0.0
    np.subtract(prefix[1:], prefix[:-1], out=sigmas[1:])
    sigmas[starts] = 0.0                    # 0.0 terms at each start
    terms = scratch[size:size * (c.size + 1)].reshape(c.size, size)
    np.multiply(c[:, None], prefix, out=terms)
    np.exp(terms, out=terms)
    terms *= c[:, None]
    terms *= sigmas
    return np.add.reduceat(terms, starts, axis=1).T


@dataclass(frozen=True)
class Lemma1Result:
    """The (paths, t) arrays of ``lemma1_check``, paths in order."""

    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray

    @property
    def ok(self):
        return self.lhs <= self.rhs

    def row(self):
        """The lemma1 row at the first smallest rhs - lhs in (path, t)
        order, stderr 0.0; it passes if no path has lhs > rhs."""
        k = int(np.argmin(self.margin))
        return Row("lemma1", float(self.lhs.flat[k]), 0.0,
                   float(self.rhs.flat[k]), float(self.margin.flat[k]),
                   bool(self.ok.all()))


def lemma1_check(paths, t):
    """Deterministic pathwise inequality on the stopped prefix.

    LHS = sum_{j=1}^{nu} exp((t^2/2n) * P_j) * (t^2/2n) * sigma^2_{j-1}
    with P_j = sum_{p=0}^{j-1} sigma^2_p, against
    RHS = exp(t^2/2) * (1 + Y_nu^2 t^2 / n).

    ``paths`` is path sets in path order, at least one, each a
    StoppedPaths or a StoppedSample checked at the n it was stopped at
    (its ``n``), and ``t`` a nonempty sequence; the arrays have the shape
    (paths, t).  Each LHS is np.sum over exactly its path's nu terms
    (pairwise summation, whose rounding depends on the count) and each RHS
    is evaluated in floats, so a path's result does not depend on the
    other paths checked with it, nor on how they are split into sets.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or not t.size or not np.all(np.isfinite(t)):
        raise ValueError("t must be a nonempty sequence of finite values")
    parts = [(_check_part(part, t), np.full(np.size(part.nu), part.n),
              np.atleast_1d(part.y_nu)) for part in paths]
    if not parts:
        raise ValueError("no path set to check")
    lhs, n, y = (np.concatenate(col) for col in zip(*parts))
    # one RHS per distinct (n, Y_nu, t) over all sets; Y_nu takes few values
    keys, which = np.unique(np.stack([n, y], axis=1), axis=0,
                            return_inverse=True)
    rhs = np.array([[math.exp(tj * tj / 2.0) * (1.0 + v**2 * tj * tj / nk)
                     for tj in t.tolist()] for nk, v in keys.tolist()])
    rhs = rhs[which.reshape(-1)]        # NumPy 2.0.0 gives a 2-D inverse
    return Lemma1Result(lhs=lhs, rhs=rhs, margin=rhs - lhs)


def _check_part(paths, t):
    """LHS of one path set at its own n, a (paths, t) array."""
    c = t * t / (2.0 * paths.n)
    lhs = np.empty((np.size(paths.nu), c.size))
    scratch = np.empty((c.size + 1) * _slab_width(paths.nu))
    for rows, prefix, starts in paths.slabs():
        lhs[rows] = _lemma1_lhs(prefix, starts, c, scratch)
    return lhs
