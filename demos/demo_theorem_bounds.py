"""Empirical Kolmogorov distances against the closed-form rate bounds.

For each model kind and a grid of thresholds n, sample R stopped paths,
form the normalized stopped sums S_nu / sqrt(n) and S'_nu / sqrt(n), and
compare their sup-distance to the standard normal against the explicit
bounds c(n) * sqrt(a_n) with a_n = (E Y_nu^4)^{1/2}.  The bounds decay like
n^{-1/4}; the empirical distances decay faster (about n^{-1/2} for the
bounded iid kind), so the margins widen with n.

Run:  python3 demos/demo_theorem_bounds.py     (about 20 s)
"""

from stopsum import (ModelSpec, rate_fit, report_from_batch,
                     sample_stopped_batch)

SPECS = {
    "iid_bounded": ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0}),
    "product": ModelSpec("product", {"a_lo": 1.0, "a_hi": 2.0,
                                     "p_growth": 0.05}),
    "regime_switch": ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}),
}
N_GRID = (64.0, 256.0, 1024.0, 4096.0)
R = 20_000

header = f"{'model':14s} {'n':>6s} {'d_F':>8s} {'bound_F':>8s} " \
         f"{'d_H':>8s} {'bound_H':>8s} {'a_n':>6s}"
print(header)
print("-" * len(header))
for kind, spec in SPECS.items():
    reports = []
    for i, n in enumerate(N_GRID):
        batch = sample_stopped_batch(spec, n, R, seed=100 + i)
        rep = report_from_batch(batch)
        reports.append(rep)
        print(f"{kind:14s} {n:6.0f} {rep.d_f.d_sup:8.4f} {rep.bound_f:8.4f} "
              f"{rep.d_h.d_sup:8.4f} {rep.bound_h:8.4f} {rep.a_n_hat:6.3f}")
    fit = rate_fit(reports)
    print(f"{'':14s} log-log slope of d_F: {fit.slope:+.3f} "
          f"(bound slope is -0.25)\n")
