"""Span recorder for the traced benchmark run.

The recorder wraps, for the duration of one pass, the layer functions that
``stopsum.cli`` calls through its own module namespace, plus the two
``stopsum.normal`` entry points that ``stopsum.harness`` calls.  Package
source is never edited: the wrappers replace module attributes and are
removed again when the pass ends.

A span is ``[name, start, end, parent]``, where ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory; the caller writes them out
when the benchmark ends.  Every wrapped call happens on the calling thread
(the sampling layer's worker threads run below ``sample_stopped_batch``),
so one stack gives the parent of each span.

``models.step_model`` is deliberately not wrapped: it runs about ten
million times per full Lemma-1 run and a wrapper would cost more than the
work it measures.  Its time is part of ``stopping.run_path``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

def _path(args, out):
    """(n, nu, gamma, v_before, sigma^2_nu) of one path or of a batch."""
    return args[1], out.nu, out.gamma, out.v_before, out.sigma_nu_sq


def _batch(args, batch):
    return _path(args, batch) + (args[0].step_cap(args[1]),)


def _probe(args, probe):
    batch, _, t_grid = args
    flagged = sum(check.resolution_limited for check in probe.checks)
    return batch.size * len(t_grid) * 3, flagged, len(probe.checks)


def _ecdf(args, ecdf):
    return ecdf.count


# (module, attribute, span name, summary kept of each call or None).  The
# summaries hold only what the counts and invariant checks need: keeping a
# call's arguments would keep every path's model state and RNG alive.
_TARGETS = (
    ("cli", "sample_stopped_batch", "sampling", _batch),
    ("cli", "report_from_batch", "harness.report", None),
    ("cli", "probe_from_batch", "harness.cf_probe", _probe),
    ("cli", "esseen_numeric", "harness.esseen", None),
    ("cli", "rate_fit", "harness.rate_fit", None),
    ("cli", "run_path", "stopping.run_path", _path),
    ("cli", "lemma1_check", "stopping.lemma1_check", None),
    ("cli", "init_model", "models.seed", None),
    ("cli", "derive_seed", "models.seed", None),
    ("cli", "emit_report", "cli.emit", None),
    ("harness", "kolmogorov_distance", "normal", None),
)


# Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "sampling.s": "s",
    "sampling.rows": "count",
    "sampling.steps": "count",
    "sampling.steps_per_s": "1/s",
    "sampling.useful_frac": "ratio",
    "sampling.nu_headroom": "ratio",
    "stopping.run_path.s": "s",
    "stopping.paths": "count",
    "stopping.steps": "count",
    "stopping.steps_per_s": "1/s",
    "stopping.lemma1_check.s": "s",
    "stopping.lemma1_check.calls": "count",
    "models.seed.s": "s",
    "models.seed.calls": "count",
    "harness.cf_probe.s": "s",
    "harness.cf_probe.exp_evals": "count",
    "harness.cf_probe.resolution_limited_frac": "ratio",
    "harness.report.self_s": "s",
    "harness.esseen.s": "s",
    "harness.rate_fit.s": "s",
    "normal.s": "s",
    "normal.samples": "count",
    "cli.self_s": "s",
    "cli.emit.s": "s",
    "cli.bytes_written": "bytes",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
}

# Exact counts and ratios computed from returned batches, samples, probes,
# files and span counts rather than timed; they repeat for a given seed.
COMPUTED = {name for name, unit in UNITS.items() if unit in ("count", "bytes")}
COMPUTED |= {"sampling.useful_frac", "sampling.nu_headroom",
             "harness.cf_probe.resolution_limited_frac"}


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.spans = []
        self.calls = []     # (span name, summary) of summarised calls
        self._stack = []

    def reset(self):
        self.spans = []
        self.calls = []
        self._stack = []

    def wrap(self, name, fn, keep=None):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                self.calls.append((name, keep(args, result)))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Route the layer calls of ``stopsum.cli`` through span wrappers."""
        from stopsum import cli, harness
        from stopsum.normal import EmpiricalCdf

        modules = {"cli": cli, "harness": harness}
        saved = [(modules[mod], attr, getattr(modules[mod], attr))
                 for mod, attr, _, _ in _TARGETS]
        from_samples = vars(EmpiricalCdf)["from_samples"]
        try:
            for (mod, attr, fn), (_, _, name, keep) in zip(saved, _TARGETS):
                setattr(mod, attr, self.wrap(name, fn, keep))
            EmpiricalCdf.from_samples = classmethod(
                self.wrap("normal", from_samples.__func__, _ecdf)
            )
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            EmpiricalCdf.from_samples = from_samples

    def times(self):
        """Total and self seconds per span name over the recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_s = {}, {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        return total, self_s


def layer_metrics(tracer):
    """Per-layer times and exact counts of one traced pass.

    Counts are computed from what the wrapped calls returned, so they
    repeat exactly for a given seed.
    """
    total, self_s = tracer.times()
    rows = steps = capacity = paths = path_steps = 0
    exp_evals = flagged = probed = samples = 0
    headroom = 0.0
    for name, summary in tracer.calls:
        if name == "sampling":
            nu, cap = summary[1], summary[5]
            rows += nu.size
            steps += int(nu.sum()) + nu.size
            capacity += nu.size * cap
            headroom = max(headroom, int(nu.max()) / cap)
        elif name == "stopping.run_path":
            paths += 1
            path_steps += summary[1] + 1
        elif name == "harness.cf_probe":
            exp_evals += summary[0]
            flagged += summary[1]
            probed += summary[2]
        elif name == "normal":
            samples += summary
    sampling_s = total.get("sampling", 0.0)
    run_path_s = total.get("stopping.run_path", 0.0)
    return {
        "sampling.s": sampling_s,
        "sampling.rows": rows,
        "sampling.steps": steps,
        "sampling.steps_per_s": steps / sampling_s if sampling_s else 0.0,
        "sampling.useful_frac": steps / capacity if capacity else 0.0,
        "sampling.nu_headroom": headroom,
        "stopping.run_path.s": run_path_s,
        "stopping.paths": paths,
        "stopping.steps": path_steps,
        "stopping.steps_per_s": path_steps / run_path_s if run_path_s else 0.0,
        "stopping.lemma1_check.s": total.get("stopping.lemma1_check", 0.0),
        "stopping.lemma1_check.calls": _count(tracer, "stopping.lemma1_check"),
        "models.seed.s": total.get("models.seed", 0.0),
        "models.seed.calls": _count(tracer, "models.seed"),
        "harness.cf_probe.s": total.get("harness.cf_probe", 0.0),
        "harness.cf_probe.exp_evals": exp_evals,
        "harness.cf_probe.resolution_limited_frac":
            flagged / probed if probed else 0.0,
        "harness.report.self_s": self_s.get("harness.report", 0.0),
        "harness.esseen.s": total.get("harness.esseen", 0.0),
        "harness.rate_fit.s": total.get("harness.rate_fit", 0.0),
        "normal.s": total.get("normal", 0.0),
        "normal.samples": samples,
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.emit.s": total.get("cli.emit", 0.0),
    }


def _count(tracer, name):
    return sum(1 for span in tracer.spans if span[0] == name)


def invariant_misses(calls):
    """Stopped paths that break nu >= 1, gamma in (0, 1] or
    v_before < n <= v_before + sigma^2_nu, over batches and single paths."""
    misses = 0
    for name, summary in calls:
        if name not in ("sampling", "stopping.run_path"):
            continue
        n, nu, gamma, v_before, sigma_sq = map(np.asarray, summary[:5])
        ok = ((nu >= 1) & (gamma > 0.0) & (gamma <= 1.0)
              & (v_before < n) & (n <= v_before + sigma_sq))
        misses += int(ok.size - np.count_nonzero(ok))
    return misses
