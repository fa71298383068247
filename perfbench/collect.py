#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarise their spread.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --traced-seed 7 --label seed

Each workload of BENCHMARK.json runs once per seed, one after another, for
the benchmark's run_seconds.  For every end-to-end metric the summary gives
the median, the quartiles (statistics.quantiles with n=4) and the distance
between the quartiles as a share of the median, next to the metric's bound.
With --traced-seed one traced run per workload adds the per-layer metrics.
With --label the summary is appended to perfbench/trajectory.json as one
point of the performance history.

Every run's per-operation report digests go into the summary.  Seeds that
perfbench/reference.json does not yet hold are added to it, so later runs of
the same workload and seed must reproduce these report bytes; entries
already there are never changed.  Delete an entry by hand only when a
change to the report is intended.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAJECTORY = HERE / "trajectory.json"
REFERENCE = HERE / "reference.json"


def run(workload, seed, trace):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record.read_text(encoding="utf-8"))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(results):
    summary = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median, "bound": metric["bound"],
            "values": values,
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="inclusive range such as 1-10")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--label", help="append a point to trajectory.json")
    args = parser.parse_args(argv)

    point = {"label": args.label, "run_seconds": SPEC["run_seconds"],
             "seeds": args.seeds, "traced_seed": args.traced_seed,
             "workloads": {}}
    reference = (json.loads(REFERENCE.read_text(encoding="utf-8"))
                 if REFERENCE.exists() else {})
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = {seed: run(workload, seed, 0) for seed in args.seeds}
        results = [result for result, _ in runs.values()]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarise(results),
            "digests": {str(seed): record["digests"]
                        for seed, (_, record) in runs.items()},
        }
        known = reference.setdefault(workload, {})
        for seed, digests in entry["digests"].items():
            known.setdefault(seed, digests)
        if args.traced_seed is not None:
            traced, _ = run(workload, args.traced_seed, 1)
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["per_layer"] = {name: m["value"]
                                  for name, m in traced["metrics"].items()}
        point["workloads"][workload] = entry
        print(f"{workload}: error_rate "
              f"{entry['failed'] / entry['attempted']:.6g} "
              f"({entry['failed']} failed of {entry['attempted']} operations)")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["iqr_frac"] <= s["bound"] / 3 else "  SPREAD > bound/3"
            print(f"  {name:12s} median {s['median']:.6g}  "
                  f"IQR/median {s['iqr_frac']:.4f}  bound {s['bound']}{flag}")
        sys.stdout.flush()

    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n", encoding="utf-8")
    if args.label:
        env = runs[args.seeds[-1]][1]["env"]
        point["env"] = {key: env[key] for key in
                        ("nproc", "python", "numpy", "scipy", "commit",
                         "src_sha256")}
        history = (json.loads(TRAJECTORY.read_text(encoding="utf-8"))
                   if TRAJECTORY.exists() else [])
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
