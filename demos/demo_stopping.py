"""Walk one stopped path step by step.

The stopping time nu(n) is the first index k >= 1 at which the accumulated
conditional variance sum_{i=0}^{k} sigma^2_i reaches the threshold n.  The
fractional correction gamma(n) in (0, 1] measures how much of the final
conditional variance was actually needed, so that

    sum_{i < nu} sigma^2_i  +  gamma * sigma^2_nu  =  n      exactly.

Run:  python3 demos/demo_stopping.py
"""

from stopsum import ModelSpec, init_model, run_path

REGIME = ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0})
N = 40.0

for seed in (1, 2, 3):
    state = init_model(REGIME, seed)
    sample = run_path(state, N)
    print(f"seed {seed}: nu = {sample.nu:4d}   gamma = {sample.gamma:.6f}   "
          f"S_nu = {sample.s_nu:+.4f}   S'_nu = {sample.s_prime_nu:+.4f}")
    residual = sample.v_before + sample.gamma * sample.sigma_nu_sq - N
    print(f"          accumulated variance before stopping: "
          f"{sample.v_before:.4f} < {N:g}")
    print(f"          defining-identity residual: {residual:.3e}")
    print(f"          variance path (first 8 partial sums): "
          f"{[round(float(p), 2) for p in sample.sigma_prefix[:8]]}")
    print()
