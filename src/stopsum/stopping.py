"""Stopped-sum construction on the per-path streams of ``init_model``.

A path is stepped until the accumulated conditional variance reaches the
threshold n.  Indexing contract (the one off-by-one hazard, stated once):
model step i emits (X_{i+1}, sigma^2_i, Y_i); nu is the smallest k >= 1
with v_before + sigma^2_k >= n, v_before = sum_{i<k} sigma^2_i summed in
order in floats by every engine, so the step at which the threshold is
crossed already carries the extra increment X_{nu+1} used by S'_nu.

``run_path`` steps one path of a ModelState, whose draws come from numpy's
Generator; it is the oracle.  ``run_lockstep`` steps many paths of one
spec together in ``models._run_rows``, each on its seed's stream (``Lanes``)
evaluated counter-based, and gives, path by path, the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
from .streams import seed_array

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
_PREFIX_VALUES = 1 << 11    # bound on the prefix values rebuilt at once


@dataclass(frozen=True)
class StoppedSample(StoppedBatch):
    """One path of ``run_path``: the columns of StoppedBatch as floats (nu
    an int), and the partial sums of sigma^2 up to v_before."""

    sigma_prefix: np.ndarray

    def prefixes(self):
        """The path's prefix as one group of ``StoppedPaths.prefixes``."""
        yield np.zeros(1, dtype=np.int64), self.sigma_prefix[None, :]


@dataclass(frozen=True)
class StoppedPaths(StoppedBatch):
    """Paths run together by ``run_lockstep``: the columns of StoppedBatch,
    and each path's variance history stored as int8 levels of the law's
    table, sigma^2_k = variances[levels[path, k]] for k < nu."""

    levels: np.ndarray
    variances: np.ndarray

    def prefixes(self):
        """Yield (rows, P) with P[i, j - 1] = P_j, j = 1..nu, of path rows[i]:
        the partial sums of sigma^2 in order, as run_path keeps them.  All
        rows of a group share nu; a group holds at most _PREFIX_VALUES
        values unless nu alone is longer."""
        order = np.argsort(self.nu, kind="stable")  # rows in order per nu
        nus = self.nu[order]
        starts = np.flatnonzero(np.diff(nus, prepend=0)).tolist()  # nu >= 1
        for lo, hi in zip(starts, starts[1:] + [nus.size]):
            same, nu = order[lo:hi], int(nus[lo])
            per_group = max(1, _PREFIX_VALUES // nu)
            for start in range(0, same.size, per_group):
                rows = same[start:start + per_group]
                prefix = np.cumsum(self.variances[self.levels[rows, :nu]],
                                   axis=1)
                if not np.array_equal(prefix[:, -1], self.v_before[rows]):
                    raise RuntimeError("variance levels do not rebuild v_before")
                yield rows, prefix


def run_path(state, n):
    """Run one model path to its stopping time, keeping its prefix."""
    spec = state.spec
    _check_threshold(spec, n)
    cap = spec.step_cap(n)
    v_before = s = 0.0
    prefix = []
    for k in range(cap):
        out = step_model(state)  # (X_{k+1}, sigma^2_k, Y_k)
        total = v_before + out.sigma_sq
        if k >= 1 and total >= n:
            return StoppedSample(
                **_stopped(n, k, s, out.x, out.y, v_before, out.sigma_sq),
                sigma_prefix=np.asarray(prefix),
            )
        prefix.append(total)
        s += out.x
        v_before = total
    raise _overflow(cap, n, spec.kind)


def _lanes_per_chunk(spec, cap):
    """Paths per chunk: each keeps cap int8 levels and one tile of draws, a
    sign byte and, if the law draws them, an 8-byte uniform per step.  The
    next tile is computed next to it from 64-bit words as large and the
    cipher's six scratch arrays of half their size (``philox_words``), so
    a lane holds about five times a tile's bytes at once; six are counted."""
    per_step = 1 + 8 * spec.law.uniforms
    return max(1, _LOCKSTEP_BYTES // (cap + 6 * per_step * _TILE))


def run_lockstep(spec, seeds, n):
    """Run the paths of ``spec`` with the given seeds, integers in
    [0, 2^64), to their stopping times, a chunk of paths at a time,
    yielding one StoppedPaths per chunk in seed order.

    Path by path, nu, the sums, gamma, Y_nu, v_before, sigma^2_nu and the
    prefix equal those of ``run_path(init_model(spec, seed), n)``: the
    lanes draw each seed's stream, and every float is computed by the same
    operations in the same order.
    """
    seeds = seed_array(seeds)
    _check_threshold(spec, n)
    cap = spec.step_cap(n)
    size = _lanes_per_chunk(spec, cap)
    for start in range(0, seeds.size, size):
        lanes = Lanes(spec, seeds[start:start + size])
        levels = np.empty((lanes.running_sum.size, cap), dtype=np.int8)
        cols = _run_rows(spec.law, lanes, n, cap, spec.kind, levels)
        yield StoppedPaths(**cols, levels=levels, variances=spec.law.variances)


def _lemma1_lhs(prefix, c):
    """LHS for each row of the (paths, nu) prefix matrix and each c."""
    sigmas = prefix.copy()                   # P_1 and P_j - P_{j-1}
    np.subtract(prefix[:, 1:], prefix[:, :-1], out=sigmas[:, 1:])
    terms = c[:, None] * prefix[:, None, :]      # (paths, c, nu), C order
    np.exp(terms, out=terms)
    terms *= c[:, None]
    terms *= sigmas[:, None, :]
    return terms.sum(axis=2)


@dataclass(frozen=True)
class Lemma1Result:
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray

    @property
    def ok(self):
        return self.lhs <= self.rhs


def lemma1_check(paths, t, n):
    """Deterministic pathwise inequality on the stopped prefix.

    LHS = sum_{j=1}^{nu} exp((t^2/2n) * P_j) * (t^2/2n) * sigma^2_{j-1}
    with P_j = sum_{p=0}^{j-1} sigma^2_p, against
    RHS = exp(t^2/2) * (1 + Y_nu^2 t^2 / n).

    ``paths`` is a StoppedSample (one row) or a StoppedPaths, and ``t`` a
    sequence; the result's arrays have the shape (paths, t).  Each LHS is
    np.sum over exactly its path's nu terms (pairwise summation, whose
    rounding depends on the count) and each RHS is evaluated in floats, so
    a path's result does not depend on the other paths checked with it.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise ValueError("t must be a sequence of finite values")
    c = t * t / (2.0 * n)
    y_nu = np.atleast_1d(paths.y_nu)
    lhs = np.empty((y_nu.size, t.size))
    for rows, prefix in paths.prefixes():
        lhs[rows] = _lemma1_lhs(prefix, c)
    # Y_nu takes few values (one per variance level at most)
    ys, which = np.unique(y_nu, return_inverse=True)
    rhs = np.array([[math.exp(tj * tj / 2.0) * (1.0 + y**2 * tj * tj / n)
                     for tj in t.tolist()] for y in ys.tolist()])[which]
    return Lemma1Result(lhs=lhs, rhs=rhs, margin=rhs - lhs)
