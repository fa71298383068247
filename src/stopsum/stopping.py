"""Stopped-sum construction on the per-path streams of ``init_model``.

A path is stepped until the accumulated conditional variance reaches the
threshold n.  Indexing contract (the one off-by-one hazard, stated once):
model step i emits (X_{i+1}, sigma^2_i, Y_i); nu is the smallest k >= 1
with v_before + sigma^2_k >= n, v_before = sum_{i<k} sigma^2_i summed in
order in floats by every engine, so the step at which the threshold is
crossed already carries the extra increment X_{nu+1} used by S'_nu.

``run_path`` steps one path of a ModelState, whose draws come from numpy's
Generator; it is the oracle.  ``run_lockstep`` steps many paths of one
spec together, given their seeds, evaluates each path's Philox stream from
its counter (``models.Lanes``) and gives, path by path, the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStartError, PathOverflowError
from .models import _TILE, Lanes, compute_gamma, step_model
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
class StoppedSample:
    nu: int
    gamma: float
    s_nu: float
    s_prime_nu: float
    y_nu: float
    v_before: float          # sum_{i=0}^{nu-1} sigma^2_i
    sigma_nu_sq: float
    sigma_prefix: np.ndarray | None = None  # partial sums up to v_before

    def prefixes(self):
        """The path's prefix as one group of ``StoppedPaths.prefixes``."""
        if self.sigma_prefix is None:
            raise ValueError(
                "run the path with keep_prefix=True for Lemma-1 checks")
        yield np.zeros(1, dtype=np.int64), self.sigma_prefix[None, :]


@dataclass(frozen=True)
class StoppedPaths:
    """Paths run together by ``run_lockstep``: the columns of StoppedSample
    with one entry per path, and each path's variance history stored as
    int8 levels, sigma^2_k = variances[levels[path, k]] for k < nu."""

    nu: np.ndarray
    gamma: np.ndarray
    s_nu: np.ndarray
    s_prime_nu: np.ndarray
    y_nu: np.ndarray
    v_before: np.ndarray
    sigma_nu_sq: np.ndarray
    levels: np.ndarray
    variances: np.ndarray

    def prefixes(self):
        """Yield (rows, P) with P[i, j - 1] = P_j, j = 1..nu, of path rows[i]:
        the partial sums of sigma^2 in order, as run_path keeps them.  All
        rows of a group share nu; a group holds at most _PREFIX_VALUES
        values unless nu alone is longer."""
        for nu in sorted(set(self.nu.tolist())):
            same = np.flatnonzero(self.nu == nu)
            per_group = max(1, _PREFIX_VALUES // nu)
            for start in range(0, same.size, per_group):
                rows = same[start:start + per_group]
                prefix = np.cumsum(self.variances[self.levels[rows, :nu]],
                                   axis=1)
                if not np.array_equal(prefix[:, -1], self.v_before[rows]):
                    raise RuntimeError("variance levels do not rebuild v_before")
                yield rows, prefix


def _check_threshold(spec, n):
    if n < 2.0 * spec.sigma0_sq_max:
        raise DegenerateStartError(
            f"n = {n} < 2 * max sigma^2_0 = {2.0 * spec.sigma0_sq_max}; "
            "the nu = 1 edge could make gamma nonpositive"
        )


def run_path(state, n, keep_prefix=False):
    """Run one model path to its stopping time."""
    _check_threshold(state.spec, n)
    cap = state.spec.step_cap(n)
    v_before = s = 0.0
    prefix = [] if keep_prefix else None
    for k in range(cap):
        out = step_model(state)  # (X_{k+1}, sigma^2_k, Y_k)
        total = v_before + out.sigma_sq
        if k >= 1 and total >= n:
            gamma = compute_gamma(v_before, out.sigma_sq, n)
            return StoppedSample(
                nu=k,
                gamma=gamma,
                s_nu=s,
                s_prime_nu=s + math.sqrt(gamma) * out.x,
                y_nu=out.y,
                v_before=v_before,
                sigma_nu_sq=out.sigma_sq,
                sigma_prefix=None if prefix is None else np.asarray(prefix),
            )
        if prefix is not None:
            prefix.append(total)
        s += out.x
        v_before = total
    raise PathOverflowError(
        f"no stop after {cap} steps (n = {n}, kind = {state.spec.kind})"
    )


def _lanes_per_chunk(spec, cap):
    """Paths per chunk: each keeps cap int8 levels and one tile of draws, a
    sign byte and, if the law draws them, an 8-byte uniform per step,
    counted four times over for the temporaries that compute them."""
    per_step = 1 + 8 * spec.law.uniforms
    return max(1, _LOCKSTEP_BYTES // (cap + 4 * per_step * _TILE))


def run_lockstep(spec, seeds, n):
    """Run the paths of ``spec`` with the given seeds, integers in
    [0, 2^64), to their stopping times, a chunk of paths at a time,
    yielding one StoppedPaths per chunk in seed order.

    Path by path, nu, the sums, gamma, Y_nu, v_before, sigma^2_nu and the
    prefix equal those of ``run_path(init_model(spec, seed), n,
    keep_prefix=True)``: the lanes draw each seed's stream, and every float
    is computed by the same operations in the same order.
    """
    seeds = seed_array(seeds)
    _check_threshold(spec, n)
    cap = spec.step_cap(n)
    size = _lanes_per_chunk(spec, cap)
    for start in range(0, seeds.size, size):
        yield _run_lanes(Lanes(spec, seeds[start:start + size], cap), n)


def _run_lanes(lanes, n):
    spec, cap = lanes.spec, lanes.cap
    size = lanes.running_sum.size
    nu = np.zeros(size, dtype=np.int64)
    s_nu, x_nu, y_nu = np.zeros(size), np.zeros(size), np.zeros(size)
    v_before, sigma_nu_sq = np.zeros(size), np.zeros(size)
    levels = np.empty((size, cap), dtype=np.int8)
    variances = spec.law.variances
    v = np.zeros(size)                  # v_before of the current step
    running = np.ones(size, dtype=bool)
    for k in range(cap):
        s = lanes.running_sum           # S_k; step_model rebinds it
        out = step_model(lanes)         # (X_{k+1}, sigma^2_k, Y_k) per lane
        levels[:, k] = np.searchsorted(variances, out.sigma_sq)
        total = v + out.sigma_sq        # sigma^2 and Y may be one float
        if k >= 1:
            stop = running & (total >= n)
            if stop.any():
                nu[stop] = k
                s_nu[stop] = s[stop]
                x_nu[stop] = out.x[stop]
                y_nu[stop] = np.broadcast_to(out.y, (size,))[stop]
                v_before[stop] = v[stop]
                sigma_nu_sq[stop] = np.broadcast_to(out.sigma_sq, (size,))[stop]
                running &= ~stop
                if not running.any():
                    break
        v = total
    else:
        raise PathOverflowError(
            f"no stop after {cap} steps (n = {n}, kind = {spec.kind})"
        )
    gamma = compute_gamma(v_before, sigma_nu_sq, n)
    return StoppedPaths(
        nu=nu,
        gamma=gamma,
        s_nu=s_nu,
        s_prime_nu=s_nu + np.sqrt(gamma) * x_nu,
        y_nu=y_nu,
        v_before=v_before,
        sigma_nu_sq=sigma_nu_sq,
        levels=levels,
        variances=variances,
    )


def _lemma1_lhs(prefix, c):
    """LHS for each row of the (paths, nu) prefix matrix and each c."""
    sigmas = np.diff(prefix, axis=1, prepend=0.0)
    terms = c[:, None] * prefix[:, None, :]      # (paths, c, nu), C order
    np.exp(terms, out=terms)
    terms *= c[:, None]
    terms *= sigmas[:, None, :]
    return terms.sum(axis=2)


@dataclass(frozen=True)
class Lemma1Result:
    lhs: float
    rhs: float
    margin: float

    @property
    def ok(self):
        return self.lhs <= self.rhs


def lemma1_check(paths, t, n):
    """Deterministic pathwise inequality on the stopped prefix.

    LHS = sum_{j=1}^{nu} exp((t^2/2n) * P_j) * (t^2/2n) * sigma^2_{j-1}
    with P_j = sum_{p=0}^{j-1} sigma^2_p, against
    RHS = exp(t^2/2) * (1 + Y_nu^2 t^2 / n).

    ``paths`` is a StoppedSample kept with its prefix or a StoppedPaths;
    ``t`` is a float or a sequence.  The result's arrays have the shape
    (paths, t) with either axis dropped for a single path or a float t,
    and floats when both are.  Each LHS is np.sum over exactly its path's
    nu terms (pairwise summation, whose rounding depends on the count) and
    each RHS is evaluated in floats, so a path's result does not depend on
    the other paths checked with it.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    ts = t.reshape(-1)
    c = ts * ts / (2.0 * n)
    y_nu = np.atleast_1d(paths.y_nu)
    lhs = np.empty((y_nu.size, ts.size))
    for rows, prefix in paths.prefixes():
        lhs[rows] = _lemma1_lhs(prefix, c)
    # Y_nu takes few values (one per variance level at most)
    ys, which = np.unique(y_nu, return_inverse=True)
    rhs = np.array([[math.exp(tj * tj / 2.0) * (1.0 + y**2 * tj * tj / n)
                     for tj in ts.tolist()] for y in ys.tolist()])[which]
    shape = np.shape(paths.y_nu) + t.shape
    lhs, rhs = lhs.reshape(shape), rhs.reshape(shape)
    if not shape:
        lhs, rhs = float(lhs), float(rhs)
    return Lemma1Result(lhs=lhs, rhs=rhs, margin=rhs - lhs)
