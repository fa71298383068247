"""Command-line front end.

Experiments are described by a flat JSON config file, optionally overridden
by flags; the same config and master seed always produce byte-identical
report files, whatever the worker count.

Config keys: model, n_list, reps, seed, delta, checks, out, format, plus the
parameters of the model kind (the ``defaults`` of its class in
``stopsum.models.LAWS``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PathOverflowError
from .harness import (
    esseen_numeric,
    make_t_grid,
    probe_from_batch,
    rate_fit,
    report_from_batch,
)
from .models import KINDS, LAWS, ModelSpec, derive_seed, init_model
from .sampling import sample_stopped_batch
# init_model and run_path stay importable here although the CLI no longer
# calls them: the benchmark tracer (perfbench/spans.py) wraps cli.run_path,
# cli.lemma1_check, cli.init_model and cli.derive_seed
from .stopping import lemma1_check, run_lockstep, run_path
from .streams import derive_seeds

__all__ = ["ExperimentConfig", "run_experiment", "emit_report", "main"]

CHECKS = ("distance", "cf", "lemma1", "esseen", "rate")
CSV_COLUMNS = (
    "check", "model", "n", "R", "seed", "estimate",
    "stderr_or_halfwidth", "bound", "margin", "verdict", "resolution_limited",
)
LEMMA1_T_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)
LEMMA1_MAX_PATHS = 10_000
# a threshold holds its whole batch and the CF probe's temporaries at once,
# about 180 bytes per path at peak (1.8 GB at this ceiling)
MAX_REPS = 10**7
ESSEEN_SLACK = 0.02  # quadrature-and-MC allowance on top of the DKW band

_MODEL_PARAM_KEYS = tuple(dict.fromkeys(
    key for law in LAWS.values() for key in law.defaults))


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    n_list: tuple
    reps: int
    master_seed: int
    delta: float
    checks: tuple
    out: str | None
    format: str

    def __post_init__(self):
        if not self.n_list:
            raise ConfigurationError("n_list must be nonempty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigurationError("n_list must be strictly increasing")
        floor = 2.0 * self.model.sigma0_sq_max
        for n in self.n_list:
            if not floor <= n < math.inf:
                raise ConfigurationError(
                    f"n = {n} must be finite and >= 2 * max sigma^2_0 = {floor}"
                )
        if not 2 <= self.reps <= MAX_REPS:
            raise ConfigurationError(f"reps must lie in [2, {MAX_REPS}]")
        if self.master_seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        bad = set(self.checks) - set(CHECKS)
        if bad:
            raise ConfigurationError(f"unknown checks: {sorted(bad)}")
        if not self.checks:
            raise ConfigurationError("at least one check is required")
        if "rate" in self.checks and len(self.n_list) < 4:
            raise ConfigurationError("rate check needs >= 4 values of n")
        if self.format not in ("csv", "json"):
            raise ConfigurationError("format must be csv or json")


def _record(check, config, n, seed, estimate, stderr, bound, margin,
            verdict, resolution_limited=False):
    return {
        "check": check,
        "model": config.model.kind,
        "n": float(n),
        "R": int(config.reps),
        "seed": int(seed),
        "estimate": float(estimate),
        "stderr_or_halfwidth": float(stderr),
        "bound": float(bound),
        "margin": float(margin),
        "verdict": "PASS" if verdict else "FAIL",
        "resolution_limited": bool(resolution_limited),
    }


def run_experiment(config):
    """Execute the configured checks; returns (exit_status, records, files)."""
    records = []
    files = []
    reports = []
    for i, n in enumerate(config.n_list):
        seed_n = derive_seed(config.master_seed, 0, i)
        needs_batch = bool({"distance", "cf", "esseen", "rate"} & set(config.checks))
        batch = (
            sample_stopped_batch(config.model, n, config.reps, seed_n)
            if needs_batch else None
        )
        report = (
            report_from_batch(batch, n, delta=config.delta)
            if needs_batch else None
        )
        if report is not None:
            reports.append(report)

        if "distance" in config.checks:
            for tag, dist, bound in (
                ("distance_F", report.d_f, report.bound_f),
                ("distance_H", report.d_h, report.bound_h),
            ):
                records.append(_record(
                    tag, config, n, seed_n,
                    estimate=dist.d_sup, stderr=dist.dkw_halfwidth,
                    bound=bound, margin=bound - (dist.d_sup + dist.dkw_halfwidth),
                    verdict=dist.d_sup - dist.dkw_halfwidth <= bound,
                ))
            if config.out:
                files.append(_emit_ecdf(config, n, batch))

        probe = None
        if {"cf", "esseen"} & set(config.checks):
            y = (n / report.a_n_eval**2) ** 0.25
            probe = probe_from_batch(batch, n, make_t_grid(y))

        if "cf" in config.checks:
            by_name = {}
            for chk in probe.checks:
                by_name.setdefault(chk.name, []).append(chk)
            for name in ("cf7", "cf8", "cf9", "cf_combined"):
                group = by_name[name]
                worst = min(group, key=lambda c: c.rhs + 4.0 * c.stderr - c.lhs)
                failing = [c for c in group if not c.ok]
                # a FAIL row is flagged only if all its failing points are
                limited = [c.resolution_limited for c in failing or group]
                records.append(_record(
                    name, config, n, seed_n,
                    estimate=worst.lhs, stderr=worst.stderr, bound=worst.rhs,
                    margin=worst.rhs - worst.lhs, verdict=not failing,
                    resolution_limited=all(limited) if failing else any(limited),
                ))
            if config.out:
                files.append(_emit_cf_detail(config, n, probe))

        if "esseen" in config.checks:
            y = (n / report.a_n_eval**2) ** 0.25
            ess = esseen_numeric(probe, y)
            slack = report.d_f.dkw_halfwidth + ESSEEN_SLACK
            records.append(_record(
                "esseen", config, n, seed_n,
                estimate=report.d_f.d_sup, stderr=report.d_f.dkw_halfwidth,
                bound=ess.total,
                margin=ess.total + slack - report.d_f.d_sup,
                verdict=report.d_f.d_sup <= ess.total + slack,
            ))

        if "lemma1" in config.checks:
            records.append(_lemma1_record(config, n, i))

    if "rate" in config.checks:
        fit = rate_fit(reports)
        records.append(_record(
            "rate", config, config.n_list[-1], config.master_seed,
            estimate=fit.slope, stderr=fit.stderr, bound=-0.15,
            margin=-0.15 - fit.slope, verdict=fit.passes(),
        ))

    if config.out:
        files.append(emit_report(records, config.format,
                                 f"{config.out}.{config.format}"))
    failed = [rec for rec in records
              if rec["verdict"] == "FAIL" and not rec["resolution_limited"]]
    return (1 if failed else 0), records, files


def _lemma1_record(config, n, n_index):
    """Worst Lemma-1 point over paths, then t: the first strict minimum of
    the margin, as a path-by-path scan finds it."""
    n_paths = min(config.reps, LEMMA1_MAX_PATHS)
    seed = derive_seed(config.master_seed, 1, n_index)
    worst_lhs = 0.0
    worst_rhs = math.inf
    min_margin = math.inf
    violations = 0
    for paths in run_lockstep(config.model, derive_seeds(seed, n_paths), n):
        res = lemma1_check(paths, LEMMA1_T_GRID, n)
        worst = np.unravel_index(np.argmin(res.margin), res.margin.shape)
        if res.margin[worst] < min_margin:
            min_margin = res.margin[worst]
            worst_lhs, worst_rhs = res.lhs[worst], res.rhs[worst]
        violations += np.count_nonzero(~res.ok)
    return _record(
        "lemma1", config, n, seed,
        estimate=worst_lhs, stderr=0.0, bound=worst_rhs, margin=min_margin,
        verdict=violations == 0,
    )


# --------------------------------------------------------------------------
# serialization: 17 significant digits everywhere, single formatting path
# --------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_report(records, format, path):
    """Write the record table as CSV or JSON with identical numeric text."""
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_fmt(rec[col]) for col in CSV_COLUMNS)
                  for rec in records]
        text = "\n".join(lines) + "\n"
    elif format == "json":
        text = _records_to_json(records)
    else:
        raise ConfigurationError("format must be csv or json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _json_value(value):
    if isinstance(value, str):
        return json.dumps(value)
    return _fmt(value)


def _records_to_json(records):
    rows = []
    for rec in records:
        fields = ", ".join(
            f"{json.dumps(col)}: {_json_value(rec[col])}" for col in CSV_COLUMNS
        )
        rows.append("  {" + fields + "}")
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def _emit_ecdf(config, n, batch, points=512):
    """Quantile plot data for the normalized stopped sums."""
    path = f"{config.out}_ecdf_n{_ntag(n)}.csv"
    sqrt_n = math.sqrt(n)
    f = np.sort(batch.s_nu) / sqrt_n
    h = np.sort(batch.s_prime_nu) / sqrt_n
    take = np.linspace(0, batch.size - 1, min(points, batch.size)).astype(int)
    lines = ["rank_fraction,quantile_F,quantile_H"]
    lines += [
        f"{_fmt((i + 1) / batch.size)},{_fmt(float(f[i]))},{_fmt(float(h[i]))}"
        for i in take
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _emit_cf_detail(config, n, probe):
    """Per-t residuals for the characteristic-function inequalities."""
    path = f"{config.out}_cf_n{_ntag(n)}.csv"
    lines = ["inequality,t,lhs,rhs,stderr,ok,resolution_limited"]
    lines += [
        f"{c.name},{_fmt(c.t)},{_fmt(c.lhs)},{_fmt(c.rhs)},{_fmt(c.stderr)},"
        f"{_fmt(c.ok)},{_fmt(c.resolution_limited)}"
        for c in probe.checks
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _ntag(n):
    return str(int(n)) if float(n).is_integer() else _fmt(float(n)).replace(".", "p")


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def build_config(argv):
    parser = argparse.ArgumentParser(
        prog="stopsum",
        description="Monte-Carlo verification of stopped-sum CLT rate bounds",
    )
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--model", choices=KINDS)
    parser.add_argument("--n-list", help="comma-separated thresholds, increasing")
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--checks", help="comma-separated subset of "
                                         + ",".join(CHECKS))
    parser.add_argument("--out", help="output base path (no extension)")
    parser.add_argument("--format", choices=("csv", "json"))
    args = parser.parse_args(argv)

    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must hold a JSON object")
    for key, val in (
        ("model", args.model), ("n_list", args.n_list), ("reps", args.reps),
        ("seed", args.seed), ("delta", args.delta), ("checks", args.checks),
        ("out", args.out), ("format", args.format),
    ):
        if val is not None:
            raw[key] = val

    kind = raw.get("model")
    if kind is None:
        raise ConfigurationError("a model kind is required (--model or config)")
    params = {k: raw[k] for k in _MODEL_PARAM_KEYS if k in raw}
    n_list = raw.get("n_list", [])
    if isinstance(n_list, str):
        n_list = [float(tok) for tok in n_list.split(",") if tok.strip()]
    checks = raw.get("checks", ["distance"])
    if isinstance(checks, str):
        checks = [tok.strip() for tok in checks.split(",") if tok.strip()]
    return ExperimentConfig(
        model=ModelSpec(kind=kind, params=params),
        n_list=tuple(float(n) for n in n_list),
        reps=int(raw.get("reps", 10_000)),
        master_seed=int(raw.get("seed", 0)),
        delta=float(raw.get("delta", 0.01)),
        checks=tuple(checks),
        out=raw.get("out"),
        format=raw.get("format", "csv"),
    )


def main(argv=None):
    try:
        config = build_config(argv if argv is not None else sys.argv[1:])
    except (ConfigurationError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"stopsum: invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        status, records, _files = run_experiment(config)
    except ConfigurationError as exc:
        print(f"stopsum: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except PathOverflowError as exc:
        print(f"stopsum: path overflow: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        flag = " [resolution-limited]" if rec["resolution_limited"] else ""
        print(f"{rec['verdict']:4s} {rec['check']:12s} n={rec['n']:g} "
              f"estimate={rec['estimate']:.6g} bound={rec['bound']:.6g}"
              f"{flag}")
    if status != 0:
        failing = [r["check"] for r in records if r["verdict"] == "FAIL"
                   and not r["resolution_limited"]]
        print(f"stopsum: FAILED checks: {', '.join(failing)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
