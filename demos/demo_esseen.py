"""Smoothing-inequality quadrature: bound a CDF distance from the CF alone.

The smoothing inequality bounds the Kolmogorov distance by

    (1/pi) int_{-y}^{y} |phi(t) - e^{-t^2/2}| / |t| dt  +  24 / (pi sqrt(2pi) y)

where phi is the characteristic function of the normalized sum and
y = (n / a_n^2)^{1/4}.  With exact Gaussian samples the integral term is
Monte-Carlo noise and the total collapses to the smoothing term; with stopped
sums the total upper-bounds the measured sup-distance.

Run:  python3 demos/demo_esseen.py     (a few seconds)
"""

import numpy as np

from stopsum import (
    CfProbe,
    ModelSpec,
    esseen_numeric,
    make_t_grid,
    probe_from_batch,
    report_from_batch,
    sample_stopped_batch,
)

# 1. sanity anchor: inject exact Gaussians at y = 10 (i.e. n = 1e4, a_n = 1)
rng = np.random.default_rng(17)
probe = CfProbe.from_samples(rng.normal(size=100_000), make_t_grid(10.0))
res = esseen_numeric(probe, 10.0)
print(f"Gaussian injection: integral = {res.integral:.5f}, "
      f"smoothing = {res.smoothing_term:.5f}, total = {res.total:.5f}")
print(f"(pure smoothing term 24/(pi sqrt(2pi) * 10) = "
      f"{24 / (np.pi * np.sqrt(2 * np.pi) * 10):.5f})\n")

# 2. stopped sums: the quadrature total upper-bounds the measured distance
IID = ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0})
for n in (256.0, 1024.0):
    batch = sample_stopped_batch(IID, n, 50_000, seed=int(n))
    rep = report_from_batch(batch)
    y = rep.y_smoothing
    res = esseen_numeric(probe_from_batch(batch, rep, make_t_grid(y)), y)
    print(f"n = {n:6g}: measured d_F = {rep.d_f.d_sup:.4f}   "
          f"smoothing-bound total = {res.total:.4f}   "
          f"theorem bound = {rep.bound_f:.4f}")
