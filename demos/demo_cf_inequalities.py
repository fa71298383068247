"""Probe the characteristic-function inequalities behind the rate bounds.

The proof of the rate bounds controls |E exp(i t S_nu / sqrt(n)) - e^{-t^2/2}|
through three intermediate inequalities; each has an explicit O(t/sqrt(n))
or O(t^2/n) right-hand side.  The estimators use paired per-path differences
so that the O(t^2/n) targets are resolvable at moderate R; any point whose
right-hand side sits below one Monte-Carlo standard error is flagged
resolution-limited rather than failed.

Run:  python3 demos/demo_cf_inequalities.py     (a few seconds)
"""

import numpy as np

from stopsum import (ModelSpec, probe_from_batch, report_from_batch,
                     sample_stopped_batch)

IID = ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0})
N = 1024.0
R = 200_000
T_GRID = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])

batch = sample_stopped_batch(IID, N, R, seed=7)
report = report_from_batch(batch)
probe = probe_from_batch(batch, report, T_GRID)
print(f"iid model, n = {N:g}, R = {R}, a_n = {report.a_n_eval:.4f}\n")
print(f"{'check':12s} {'t':>5s} {'lhs':>11s} {'rhs':>11s} "
      f"{'stderr':>9s}  status")
for c in probe.checks:
    status = "ok" if c.ok else "VIOLATED"
    if c.resolution_limited:
        status += " (resolution-limited)"
    print(f"{c.name:12s} {c.t:5.2f} {c.lhs:11.3e} {c.rhs:11.3e} "
          f"{c.stderr:9.2e}  {status}")
print(f"\nall checks hold: {probe.passed}")
