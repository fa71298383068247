"""Command-line front end.

Experiments are described by a flat JSON config file, optionally overridden
by flags; the same config and master seed always produce byte-identical
report files.

Config keys: model, n_list, reps, seed, delta, checks, out, format (the
CLI's own, ``_DEFAULTS``); every other top-level key is a parameter of the
model kind (the ``defaults`` of its class in ``stopsum.models.LAWS``), and
``ModelSpec`` rejects one that the kind does not have.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .errors import ConfigurationError, OutputPathError, PathOverflowError
from .harness import (
    esseen_numeric,
    make_t_grid,
    probe_from_batch,
    rate_fit,
    report_from_batch,
)
from .models import (KINDS, MAX_REPS, ModelSpec, _check_threshold,
                     derive_seed, init_model)
from .normal import DEFAULT_DELTA, dkw_halfwidth
from .sampling import sample_stopped_batch
# init_model and run_path stay importable here although the CLI no longer
# calls them: the benchmark tracer (perfbench/spans.py) wraps cli.run_path,
# cli.lemma1_check, cli.init_model and cli.derive_seed.  run_lockstep's
# chunks are stepped as lemma1_check reads them, so that span times the
# Lemma-1 lanes too
from .stopping import lemma1_check, run_lockstep, run_path

__all__ = ["ExperimentConfig", "run_experiment", "emit_report", "main"]

CHECKS = ("distance", "cf", "lemma1", "esseen", "rate")
CSV_COLUMNS = (
    "check", "model", "n", "R", "seed", "estimate",
    "stderr_or_halfwidth", "bound", "margin", "verdict", "resolution_limited",
)
FORMATS = ("csv", "json")
LEMMA1_T_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)
LEMMA1_MAX_PATHS = 10_000

# the CLI's keys and their defaults; the lists as the strings that
# _listed parses, so that no list is shared between calls
_DEFAULTS = {
    "model": None, "n_list": "", "reps": 10_000, "seed": 0,
    "delta": DEFAULT_DELTA, "checks": "distance", "out": None,
    "format": "csv",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every n passes the engines' start gate (``models._check_threshold``:
    finite, at least 2 max sigma^2_0 and within reach of the step cap)
    here, before any n is sampled, and delta passes ``dkw_halfwidth``'s
    check; the other rules are the CLI's own."""

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
        for n in self.n_list:
            _check_threshold(self.model, n)
        if not 2 <= self.reps <= MAX_REPS:
            raise ConfigurationError(f"reps must lie in [2, {MAX_REPS}]")
        if self.master_seed < 0:
            raise ConfigurationError("seed must be >= 0")
        dkw_halfwidth(self.reps, self.delta)
        bad = set(self.checks) - set(CHECKS)
        if bad:
            raise ConfigurationError(f"unknown checks: {sorted(bad)}")
        if not self.checks:
            raise ConfigurationError("at least one check is required")
        if "rate" in self.checks and len(self.n_list) < 4:
            raise ConfigurationError("rate check needs >= 4 values of n")
        if self.format not in FORMATS:
            raise ConfigurationError("format must be csv or json")


def _record(config, n, seed, row):
    """The report record of a harness Row at threshold n, by CSV_COLUMNS."""
    return dict(zip(CSV_COLUMNS, (
        row.check, config.model.kind, float(n), int(config.reps), int(seed),
        float(row.estimate), float(row.stderr), float(row.bound),
        float(row.margin), "PASS" if row.passed else "FAIL",
        bool(row.resolution_limited))))


def run_experiment(config):
    """Execute the configured checks; returns (exit_status, records, files)."""
    records = []
    files = []
    reports = []
    needs_batch = bool({"distance", "cf", "esseen", "rate"} & set(config.checks))
    for i, n in enumerate(config.n_list):
        seed_n = derive_seed(config.master_seed, 0, i)
        if needs_batch:
            batch = sample_stopped_batch(config.model, n, config.reps, seed_n)
            report = report_from_batch(batch, delta=config.delta)
            reports.append(report)

        if "distance" in config.checks:
            records += [_record(config, n, seed_n, row)
                        for row in report.rows()]
            if config.out:
                files.append(_emit_ecdf(config, n, report))

        if {"cf", "esseen"} & set(config.checks):
            probe = probe_from_batch(batch, report,
                                     make_t_grid(report.y_smoothing))

        if "cf" in config.checks:
            records += [_record(config, n, seed_n, row)
                        for row in probe.rows()]
            if config.out:
                files.append(_emit_cf_detail(config, n, probe))

        if "esseen" in config.checks:
            ess = esseen_numeric(probe, report.y_smoothing)
            records.append(_record(config, n, seed_n, ess.row(report.d_f)))

        if "lemma1" in config.checks:
            seed = derive_seed(config.master_seed, 1, i)
            paths = run_lockstep(config.model, seed,
                                 min(config.reps, LEMMA1_MAX_PATHS), n)
            records.append(_record(config, n, seed, lemma1_check(
                paths, LEMMA1_T_GRID).row()))

    if "rate" in config.checks:
        records.append(_record(config, config.n_list[-1], config.master_seed,
                               rate_fit(reports).row()))

    if config.out:
        files.append(emit_report(records, config.format,
                                 f"{config.out}.{config.format}"))
    return int(any(map(_failed, records))), records, files


def _failed(rec):
    """A FAIL that Monte-Carlo resolution does not explain: it sets exit 1."""
    return rec["verdict"] == "FAIL" and not rec["resolution_limited"]


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
        return _write_csv(path, CSV_COLUMNS,
                          (map(rec.get, CSV_COLUMNS) for rec in records))
    if format == "json":
        return _write(path, _records_to_json(records))
    raise ConfigurationError("format must be csv or json")


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _write_csv(path, header, rows):
    """A CSV file of the header's names and each row's values by _fmt."""
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return _write(path, "\n".join(lines) + "\n")


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


def _emit_ecdf(config, n, report):
    """Quantile plot data for the normalized stopped sums."""
    path = f"{config.out}_ecdf_n{_ntag(n)}.csv"
    return _write_csv(path, ("rank_fraction", "quantile_F", "quantile_H"),
                      report.plot_rows)


def _emit_cf_detail(config, n, probe):
    """Per-t residuals for the characteristic-function inequalities."""
    path = f"{config.out}_cf_n{_ntag(n)}.csv"
    return _write_csv(
        path, ("inequality", "t", "lhs", "rhs", "stderr", "ok",
               "resolution_limited"),
        ((c.name, c.t, c.lhs, c.rhs, c.stderr, c.ok, c.resolution_limited)
         for c in probe.checks))


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
    parser.add_argument("--format", choices=FORMATS)
    args = parser.parse_args(argv)

    # the defaults, then the config file, then the flags that were set
    raw = dict(_DEFAULTS)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        raw.update(loaded)
    raw.update((key, val) for key, val in vars(args).items()
               if key != "config" and val is not None)

    if raw["model"] is None:
        raise ConfigurationError("a model kind is required (--model or config)")
    # checked here, before any sampling, rather than at the first write
    out_dir = os.path.dirname(raw["out"] or "")
    if out_dir and not os.path.isdir(out_dir):
        raise OutputPathError(f"no such directory: {out_dir!r}")
    params = {k: v for k, v in raw.items() if k not in _DEFAULTS}
    return ExperimentConfig(
        model=ModelSpec(kind=raw["model"], params=params),
        n_list=tuple(_number("n_list", n, float)
                     for n in _listed("n_list", raw["n_list"])),
        reps=_number("reps", raw["reps"], int),
        master_seed=_number("seed", raw["seed"], int),
        delta=_number("delta", raw["delta"], float),
        checks=tuple(_listed("checks", raw["checks"])),
        out=raw["out"],
        format=raw["format"],
    )


def _number(key, value, kind):
    """kind(value), kind float or int: not for a bool, nor a fractional int."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigurationError(f"{key} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _listed(key, value):
    """A config value given as a comma-separated string or a list."""
    if isinstance(value, str):
        return [tok.strip() for tok in value.split(",") if tok.strip()]
    if not isinstance(value, list):
        raise ConfigurationError(
            f"{key} must be a comma-separated string or a list")
    return value


def main(argv=None):
    try:
        config = build_config(argv if argv is not None else sys.argv[1:])
    except OutputPathError as exc:
        print(f"stopsum: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except (OSError, TypeError, ValueError) as exc:
        print(f"stopsum: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except PathOverflowError as exc:
        print(f"stopsum: path overflow: {exc}", file=sys.stderr)
        return 2
    try:
        status, records, _files = run_experiment(config)
    except ConfigurationError as exc:
        print(f"stopsum: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except PathOverflowError as exc:
        print(f"stopsum: path overflow: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"stopsum: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        flag = " [resolution-limited]" if rec["resolution_limited"] else ""
        print(f"{rec['verdict']:4s} {rec['check']:12s} n={rec['n']:g} "
              f"estimate={rec['estimate']:.6g} bound={rec['bound']:.6g}"
              f"{flag}")
    if status != 0:
        failing = [rec["check"] for rec in records if _failed(rec)]
        print(f"stopsum: FAILED checks: {', '.join(failing)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
