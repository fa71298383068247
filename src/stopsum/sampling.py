"""Vectorized stopped-path sampling for the Monte-Carlo harness.

Replications are partitioned into fixed-size blocks; block b draws from
Philox seeded by SeedSequence(seed, spawn_key=(b,)), so the stream layout
is a pure function of (spec, n, seed) and never of the worker count.
Blocks may execute on a thread pool, but results are stored by block index
and reduced in that fixed order, which keeps every reported digit
independent of scheduling.  The kind's ``law.sample_block`` draws a block.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .models import ModelSpec, _check_threshold, _concat

__all__ = ["StoppedBatch", "sample_stopped_batch", "BLOCK_SIZE", "worker_count"]

BLOCK_SIZE = 4096
WORKERS_ENV = "STOPSUM_WORKERS"


def worker_count():
    """Threads for block execution, at most the CPUs this process may use."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    try:
        return max(1, min(int(os.environ.get(WORKERS_ENV, "")), cpus))
    except ValueError:
        return 1


@dataclass(frozen=True)
class StoppedBatch:
    """Column-oriented collection of stopped samples: the columns that
    every engine gives, one entry per path."""

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
    _check_threshold(spec, n)
    n = float(n)
    blocks = [(b, min(BLOCK_SIZE, r - b * BLOCK_SIZE))
              for b in range((r + BLOCK_SIZE - 1) // BLOCK_SIZE)]
    cap = spec.step_cap(n)

    def run_block(args):
        b, size = args
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=(b,)))
        )
        return spec.law.sample_block(n, size, rng, cap)

    w = worker_count()
    if w > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=w) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(args) for args in blocks]

    return StoppedBatch(**_concat(results))

