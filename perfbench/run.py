#!/usr/bin/env python3
"""End-to-end benchmark of the stopsum CLI.

Run from the repository root:

    python3 perfbench/run.py --workload full_regime --seed 7 --seconds 30 --trace 0

A workload is a fixed list of CLI configurations.  The benchmark imports
``stopsum`` from ``src/`` next to this directory, builds each configuration
with ``stopsum.cli.build_config`` (the workload seed becomes ``--seed``) and
calls ``stopsum.cli.run_experiment`` in this process, pass after pass, until
``--seconds`` have elapsed.  A pass runs every configuration once; an
operation is one ``run_experiment`` call.

Every operation is checked: exit status 0, every row PASS, the expected
number of rows, and report bytes equal to the reference.  The reference is
the operation's SHA-256 digest in ``perfbench/reference.json``, recorded on
the commit that defined this benchmark, when that file holds the workload
and seed; otherwise it is the digest of the first pass.  Timed passes run
on one sampling thread.  A workload with check_workers > 1 ends
with one more, untimed pass on that many sampling threads, whose report must
also match: the report may not depend on the worker count.  In a traced
pass every stopped path is also checked against nu >= 1, gamma in (0, 1]
and v_before < n <= v_before + sigma^2_nu.

``--trace 0`` measures the end-to-end metrics with tracing off.  After
each timed pass it times one set-up in a fresh interpreter (at least
SETUP_SAMPLES in all), so that set-up samples see the same drift in host
speed as the passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``perfbench/spans.py``.  The last line on stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
full result, with the environment and, when traced, the spans of the last
traced pass, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKERS_ENV = "STOPSUM_WORKERS"
SETUP_SAMPLES = 5
# Scalar Lemma-1 paths per threshold that the CLI runs (cli.LEMMA1_MAX_PATHS
# when this benchmark was defined).  Fixed here so that paths_per_s keeps
# one meaning when the CLI changes how it checks Lemma 1.
LEMMA1_PATHS = 10_000
ROWS_PER_N = {"distance": 2, "cf": 4, "esseen": 1, "lemma1": 1, "rate": 0}
BATCH_CHECKS = {"distance", "cf", "esseen", "rate"}

# Time to import the package and build every configuration, measured in a
# fresh interpreter, as a user of the CLI pays it on every run.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from stopsum.cli import build_config
for argv in json.loads(sys.argv[2]):
    build_config(argv)
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Config:
    model: str
    n_list: str
    reps: int
    checks: str
    params: dict = field(default_factory=dict)
    out: bool = False           # write the report and plot files with --out


@dataclass(frozen=True)
class Workload:
    configs: tuple
    check_workers: int = 1      # threads of the final, untimed check pass


REGIME = {"v_lo": 0.25, "v_hi": 4.0}
ALL_CHECKS = "distance,cf,lemma1,esseen,rate"
# Why each workload exists (see also BENCHMARK.json):
# full_regime  - every check; the scalar Lemma-1 paths (stopping, models)
#                carry the run.  At thresholds 16..128 and R = 1000 the
#                statistical rate check passed on 100 of 100 seeds; at
#                64..512 it needs several thousand paths per threshold.
# sample_dense - product and regime samplers only; bypasses Lemma 1 and
#                the CF probe.  R = 8192 is two 4096-row sampling blocks,
#                one per thread in the two-thread check pass.
# stats_wide   - closed-form iid sampling, so the CF probe, the ECDF scan
#                and report emission (--out) carry the run.
WORKLOADS = {
    "full_regime": Workload((
        Config("regime_switch", "16,32,64,128", 1000, ALL_CHECKS, REGIME),
    )),
    "sample_dense": Workload((
        Config("product", "1024,2048", 8192, "distance"),
        Config("regime_switch", "512,1024", 8192, "distance", REGIME),
    ), check_workers=2),
    "stats_wide": Workload((
        Config("iid_bounded", "64,256,1024,4096", 20000,
               "distance,cf,esseen,rate", out=True),
    )),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int,
                        help="replace every configuration's R (smoke runs)")
    return parser.parse_args(argv)


def import_package():
    """Import stopsum from this checkout's src/, never from elsewhere."""
    package = SRC / "stopsum"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stopsum package at {package}")
    sys.path.insert(0, str(SRC))
    import stopsum
    if Path(stopsum.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported stopsum from {stopsum.__file__}")


def op_argvs(workload, seed, reps, work):
    """CLI argument lists of the workload's operations."""
    argvs = []
    for i, cfg in enumerate(workload.configs):
        argv = ["--model", cfg.model, "--n-list", cfg.n_list,
                "--reps", str(reps or cfg.reps), "--seed", str(seed),
                "--checks", cfg.checks]
        if cfg.params:
            params = work / f"params{i}.json"
            params.write_text(json.dumps(cfg.params), encoding="utf-8")
            argv = ["--config", str(params)] + argv
        if cfg.out:
            argv += ["--out", str(work / f"report{i}"), "--format", "csv"]
        argvs.append(argv)
    return argvs


def measure_setup(argvs):
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(argvs)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def committed_reference(workload, seed, reps):
    """Digests recorded for this workload and seed, or None."""
    if reps is not None or not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def expected_rows(config):
    per_n = sum(ROWS_PER_N[check] for check in config.checks)
    return len(config.n_list) * per_n + ("rate" in config.checks)


def stopped_paths(config):
    """Batch rows plus scalar Lemma-1 paths that one operation finishes."""
    per_n = 0
    if BATCH_CHECKS & set(config.checks):
        per_n += config.reps
    if "lemma1" in config.checks:
        per_n += min(config.reps, LEMMA1_PATHS)
    return len(config.n_list) * per_n


def run_pass(configs, tracer=None):
    """Run every configuration once.

    Returns (wall s, CPU s, [(result or exception, calls mark)]); only the
    run_experiment calls are timed.  The mark is the tracer's call count
    after the operation, so operation i owns calls[mark_{i-1}:mark_i].
    """
    from stopsum import cli

    run = cli.run_experiment
    if tracer is not None:
        run = tracer.wrap("cli", run)
    outcomes = []
    wall = cpu = 0.0
    with tracer.installed() if tracer else contextlib.nullcontext():
        for config in configs:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = run(config)
            except Exception as exc:  # a raising operation is a failed one
                result = exc
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            outcomes.append((result, len(tracer.calls) if tracer else 0))
    return wall, cpu, outcomes


def report_digest(records, files, scratch):
    """SHA-256 of the CSV report of the records and of every output file."""
    from stopsum.cli import emit_report

    digest = hashlib.sha256(Path(emit_report(records, "csv", scratch))
                            .read_bytes())
    for path in files:
        digest.update(Path(path).name.encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class Checker:
    """Checks operations against the reference digest of each configuration.

    Without a committed reference the first digest seen is the reference.
    ``digests`` keeps the first digest seen of each configuration.
    """

    def __init__(self, configs, scratch, reference=None):
        self.configs = configs
        self.scratch = scratch
        self.committed = reference is not None
        self.reference = list(reference or [None] * len(configs))
        self.digests = [None] * len(configs)
        self.attempted = 0
        self.failed = 0

    def check(self, outcomes, calls=None):
        mark = 0
        for i, (config, (result, end)) in enumerate(zip(self.configs, outcomes)):
            self.attempted += 1
            ok = not isinstance(result, Exception)
            if ok:
                status, records, files = result
                digest = report_digest(records, files, self.scratch)
                if self.digests[i] is None:
                    self.digests[i] = digest
                if self.reference[i] is None:
                    self.reference[i] = digest
                ok = (status == 0
                      and len(records) == expected_rows(config)
                      and all(rec["verdict"] == "PASS" for rec in records)
                      and digest == self.reference[i])
            if calls is not None and spans.invariant_misses(calls[mark:end]):
                ok = False
            mark = end
            self.failed += not ok


def output_bytes(outcomes):
    return sum(Path(path).stat().st_size
               for result, _ in outcomes if not isinstance(result, Exception)
               for path in result[2])


def measure(configs, seconds, trace, checker, argvs):
    """Timed passes until `seconds` have elapsed.

    Returns the per-pass rows, the set-up samples and the tracer.
    """
    os.environ[WORKERS_ENV] = "1"
    tracer = spans.Tracer() if trace else None
    rows = []
    setup = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rows) % 2 == 1
        if traced:
            tracer.reset()
        wall, cpu, outcomes = run_pass(configs, tracer if traced else None)
        checker.check(outcomes, tracer.calls if traced else None)
        row = {"traced": traced, "run_s": wall, "cpu_s": cpu}
        if traced:
            row["layers"] = spans.layer_metrics(tracer)
            row["layers"]["cli.bytes_written"] = output_bytes(outcomes)
        rows.append(row)
        if not trace:
            setup.append(measure_setup(argvs))
        done = time.perf_counter() - start >= seconds
        if done and (len(rows) >= 2 if trace else len(setup) >= SETUP_SAMPLES):
            return rows, setup, tracer


def end_to_end_metrics(rows, configs, setup, peak_rss_mb):
    run_s = statistics.median(row["run_s"] for row in rows)
    paths = sum(stopped_paths(config) for config in configs)
    return {
        "run_s": (run_s, "s"),
        "paths_per_s": (paths / run_s, "paths/s"),
        "cpu_s": (statistics.median(row["cpu_s"] for row in rows), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer_metrics(rows):
    """Medians over the traced passes.

    Traced passes alternate with untraced ones, so the tracing overhead is
    the median ratio of each traced pass to the untraced pass just before
    it, which cancels drift in host speed between distant passes.
    """
    traced = [i for i, row in enumerate(rows) if row["traced"]]
    values = {
        "trace.run_s": statistics.median(rows[i]["run_s"] for i in traced),
        "trace.overhead_frac": statistics.median(
            rows[i]["run_s"] / rows[i - 1]["run_s"] for i in traced) - 1.0,
    }
    for name in rows[traced[0]]["layers"]:
        values[name] = statistics.median_low(
            rows[i]["layers"][name] for i in traced)
    return {name: (values[name], unit) for name, unit in spans.UNITS.items()}


def environment(args, workload):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # the benchmark may run from an export
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "stopsum").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps_override": args.reps,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        WORKERS_ENV: 1,
        "check_workers": workload.check_workers,
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from stopsum.cli import build_config

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        argvs = op_argvs(workload, args.seed, args.reps, work)
        configs = [build_config(argv) for argv in argvs]
        checker = Checker(configs, work / "check.csv", committed_reference(
            args.workload, args.seed, args.reps))
        rows, setup, tracer = measure(configs, args.seconds, args.trace,
                                      checker, argvs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload.check_workers > 1:
            os.environ[WORKERS_ENV] = str(workload.check_workers)
            checker.check(run_pass(configs)[2])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = (per_layer_metrics(rows) if args.trace
               else end_to_end_metrics(rows, configs, setup, peak_rss_mb))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment(args, workload)
    record = dict(result, env=env, passes=rows, setup_s=setup,
                  digests=checker.digests,
                  reference="committed" if checker.committed else "first pass")
    if tracer is not None:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = [[name, round(start - t0, 7), round(end - t0, 7),
                            parent]
                           for name, start, end, parent in tracer.spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record), encoding="utf-8")

    timed = [row for row in rows if not row["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(rows)} "
          f"({len(timed)} untraced)  operations per pass {len(configs)}")
    for metric, (value, unit) in metrics.items():
        label = " (computed)" if metric in spans.COMPUTED else ""
        print(f"  {metric:42s} {value:.6g} {unit}{label}")
    print(f"  {'error_rate':42s} {checker.failed / checker.attempted:.6g} "
          f"ratio ({checker.failed} failed / {checker.attempted} attempted)")
    print(f"report bytes checked against the "
          f"{'committed reference' if checker.committed else 'first pass'}; "
          f"digests {' '.join(d[:12] if d else '-' for d in checker.digests)}")
    print(f"env {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
