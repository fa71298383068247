"""Single-path stopped-sum construction.

A path is stepped until the accumulated conditional variance reaches the
threshold n.  Indexing contract (the one off-by-one hazard, stated once):
model step i emits (X_{i+1}, sigma^2_i, Y_i); nu is the smallest k >= 1
with v_before + sigma^2_k >= n, v_before = sum_{i<k} sigma^2_i summed in
order in floats by every engine, so the step at which the threshold is
crossed already carries the extra increment X_{nu+1} used by S'_nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStartError, PathOverflowError
from .models import step_model

__all__ = [
    "StoppedSample",
    "Lemma1Result",
    "run_path",
    "compute_gamma",
    "lemma1_check",
]


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


def compute_gamma(v_before, sigma_nu_sq, n):
    """Fraction of the final conditional variance that lands the total on n."""
    if not v_before < n <= v_before + sigma_nu_sq:
        raise DegenerateStartError(
            f"need v_before < n <= v_before + sigma_nu_sq, got "
            f"({v_before}, {n}, {v_before + sigma_nu_sq})"
        )
    # rounding can put n above the exact sum by half an ulp of n
    return min(1.0, (n - v_before) / sigma_nu_sq)


def run_path(state, n, keep_prefix=False):
    """Run one model path to its stopping time."""
    if n < 2.0 * state.spec.sigma0_sq_max:
        raise DegenerateStartError(
            f"n = {n} < 2 * max sigma^2_0 = {2.0 * state.spec.sigma0_sq_max}; "
            "the nu = 1 edge could make gamma nonpositive"
        )
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


@dataclass(frozen=True)
class Lemma1Result:
    lhs: float
    rhs: float
    margin: float

    @property
    def ok(self):
        return self.lhs <= self.rhs


def lemma1_check(sample, t, n):
    """Deterministic pathwise inequality on the stopped prefix.

    LHS = sum_{j=1}^{nu} exp((t^2/2n) * P_j) * (t^2/2n) * sigma^2_{j-1}
    with P_j = sum_{p=0}^{j-1} sigma^2_p, against
    RHS = exp(t^2/2) * (1 + Y_nu^2 t^2 / n).
    """
    if sample.sigma_prefix is None:
        raise ValueError("run the path with keep_prefix=True for Lemma-1 checks")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    prefix = sample.sigma_prefix  # P_j for j = 1..nu, P_nu = v_before
    sigmas = np.diff(prefix, prepend=0.0)
    c = t * t / (2.0 * n)
    lhs = float(np.sum(np.exp(c * prefix) * c * sigmas))
    rhs = math.exp(t * t / 2.0) * (1.0 + sample.y_nu**2 * t * t / n)
    return Lemma1Result(lhs=lhs, rhs=rhs, margin=rhs - lhs)
