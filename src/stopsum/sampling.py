"""Vectorized stopped-path sampling for the Monte-Carlo harness.

Replications are partitioned into fixed-size blocks; block b draws from
Philox seeded by SeedSequence(seed, spawn_key=(b,)), so the stream layout
is a pure function of (spec, n, seed).  Blocks run in order on the calling
thread and their columns are joined in that order.  The kind's
``law.sample_block`` draws a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .models import ModelSpec, _check_threshold, _concat

__all__ = ["StoppedBatch", "sample_stopped_batch", "BLOCK_SIZE"]

BLOCK_SIZE = 4096


@dataclass(frozen=True)
class StoppedBatch:
    """Column-oriented stopped samples: the threshold n they were stopped
    at, a float, and the columns that every engine gives, one per path."""

    n: float
    nu: np.ndarray
    gamma: np.ndarray
    s_nu: np.ndarray
    s_prime_nu: np.ndarray
    y_nu: np.ndarray
    v_before: np.ndarray        # sum of sigma^2_i over i < nu
    sigma_nu_sq: np.ndarray

    @property
    def size(self):
        return np.size(self.nu)


def sample_stopped_batch(spec, n, r, seed):
    """Draw r independent stopped paths of the given model.

    Returns a StoppedBatch whose row order is fixed by (spec, n, r, seed).
    """
    if not isinstance(spec, ModelSpec):
        raise ConfigurationError("spec must be a ModelSpec")
    if r < 1:
        raise ValueError("r must be >= 1")
    cap = _check_threshold(spec, n)
    n = float(n)
    results = []
    for b, start in enumerate(range(0, r, BLOCK_SIZE)):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=(b,)))
        )
        results.append(spec.law.sample_block(
            n, min(BLOCK_SIZE, r - start), rng, cap))
    return StoppedBatch(n=n, **_concat(results))

