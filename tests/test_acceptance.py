"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in captured output).  Criteria:

 1. closed-form rate-bound arithmetic against a high-precision oracle
 2. stopping-time / fractional-correction closed forms and the defining
    identity's residual at scale
 3. both theorem bounds hold for every model kind at R = 1e5
 4. empirical log-log decay rate of d_F for the iid model
 5. characteristic-function inequalities at R = 1e6
 6. pathwise exponential-sum inequality: zero violations
 7. smoothing-inequality quadrature on injected Gaussians
 8. the model hypotheses on every level of each kind's table, including
    the zero-slack boundary
 9. byte-identical reports against the committed golden reports
"""

import math

import mpmath
import numpy as np
import pytest

from stopsum import (
    CfProbe,
    ModelSpec,
    esseen_numeric,
    init_model,
    lemma1_check,
    make_t_grid,
    probe_from_batch,
    rate_fit,
    report_from_batch,
    run_path,
    sample_stopped_batch,
    theorem_bound_F,
    theorem_bound_H,
)
from stopsum.models import derive_seed

from golden.regen import HERE as GOLDEN, moved_cells, recorded, run_set

mpmath.mp.dps = 40

MASTER_SEED = 20260826
SPECS = {
    "iid_bounded": ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0}),
    "product": ModelSpec("product", {"a_lo": 1.0, "a_hi": 2.0,
                                     "p_growth": 0.05}),
    "regime_switch": ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}),
}
N_GRID = (64.0, 256.0, 1024.0, 4096.0)
THEOREM_R = 100_000


@pytest.fixture
def _verdict(capfd):
    """Print one PASS/FAIL line per criterion, bypassing output capture."""

    def emit(num, passed, detail):
        with capfd.disabled():
            print(f"{'PASS' if passed else 'FAIL'} "
                  f"acceptance criterion {num}: {detail}")
        return passed

    return emit


@pytest.fixture(scope="module")
def bound_reports():
    """BoundReports for every kind and n on the acceptance grid, R = 1e5."""
    out = {}
    for k, (kind, spec) in enumerate(SPECS.items()):
        for i, n in enumerate(N_GRID):
            seed = derive_seed(MASTER_SEED, k, i)
            batch = sample_stopped_batch(spec, n, THEOREM_R, seed)
            out[(kind, n)] = report_from_batch(batch)
    return out


def test_criterion_1_bound_arithmetic(_verdict):
    def oracle(n, a, second):
        q = mpmath.mpf(n) ** mpmath.mpf("0.25")
        return (mpmath.sqrt(mpmath.mpf(a)) / (mpmath.pi * q)) * (
            11 + mpmath.mpf(second) / q + 2 / (9 * q**2) + 1 / (8 * q**3)
        )

    f = theorem_bound_F(1e4, 1.0)
    h = theorem_bound_H(1e4, 1.0)
    ok = (
        abs(f - float(oracle(10**4, 1, "3/4"))) <= 1e-6
        and abs(h - float(oracle(10**4, 1, "9/4"))) <= 1e-6
        # frozen oracle values, independently recomputed
        and abs(f - 0.3526029133523885) <= 1e-12
        and abs(h - 0.3573775616451454) <= 1e-12
    )
    assert _verdict(
        1, ok, f"bound_F(1e4,1)={f:.9f}, bound_H(1e4,1)={h:.9f} match oracle"
    )


def test_criterion_2_stopping_closed_forms(_verdict):
    ok = True
    # constant conditional variance: nu and gamma by hand enumeration
    for v in (1.0, 2.0, 0.25):
        spec = ModelSpec("iid_bounded", {"m": max(1.0, math.sqrt(v)), "v": v})
        n_lo = max(3, int(math.floor(2.0 * v)) + (2.0 * v).is_integer())
        for n in range(n_lo, 201):
            sample = run_path(init_model(spec, derive_seed(MASTER_SEED, 2, n)),
                              float(n))
            k = 1
            while (k + 1) * v < n:
                k += 1
            gamma = (n - k * v) / v
            ok &= sample.nu == k and abs(sample.gamma - gamma) <= 1e-12
    # defining identity residual on 1e5 batch paths over all kinds
    worst = 0.0
    for k, spec in enumerate(SPECS.values()):
        batch = sample_stopped_batch(spec, 100.0, 34_000,
                                     derive_seed(MASTER_SEED, 3, k))
        resid = np.abs(batch.v_before + batch.gamma * batch.sigma_nu_sq - 100.0)
        worst = max(worst, float(resid.max()) / 100.0)
        ok &= bool(np.all(resid <= 1e-12 * 100.0))
        ok &= bool(np.all((batch.gamma > 0.0) & (batch.gamma <= 1.0)))
        ok &= bool(np.all(batch.v_before < 100.0))  # minimality of nu
    assert _verdict(
        2, ok, f"closed forms n in [3,200]; worst relative residual {worst:.3g}"
    )


def test_criterion_3_theorem_bounds(bound_reports, _verdict):
    ok = True
    worst = math.inf
    for (kind, n), rep in bound_reports.items():
        ok &= rep.passed
        worst = min(worst, *(row.margin for row in rep.rows()))
    assert _verdict(
        3, ok,
        f"d_hat - dkw <= bound for 3 kinds x {len(N_GRID)} n at R={THEOREM_R}; "
        f"smallest margin {worst:.4f}",
    )


def test_criterion_4_rate_slope(bound_reports, _verdict):
    fit = rate_fit([bound_reports[("iid_bounded", n)] for n in N_GRID])
    ok = fit.slope <= -0.15
    assert _verdict(
        4, ok, f"iid log-log slope {fit.slope:.3f} <= -0.15 "
               f"(stderr {fit.stderr:.3f})"
    )


def test_criterion_5_cf_inequalities(_verdict):
    t_grid = np.array([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0])
    batch = sample_stopped_batch(SPECS["iid_bounded"], 1024.0, 1_000_000,
                                 derive_seed(MASTER_SEED, 4))
    probe = probe_from_batch(batch, report_from_batch(batch), t_grid)
    ok = probe.passed
    n_limited = sum(c.resolution_limited for c in probe.checks)
    assert _verdict(
        5, ok,
        f"{len(probe.checks)} inequality checks hold at R=1e6, n=1024 "
        f"({n_limited} resolution-limited, none failed)",
    )


def test_criterion_6_pathwise_exponential_inequality(_verdict):
    t_values = (0.5, 1.0, 2.0, 5.0, 10.0)
    violations = 0
    n_checks = 0
    for k, spec in enumerate(SPECS.values()):
        seeds = (derive_seed(MASTER_SEED, 5, k, path) for path in range(10_000))
        res = lemma1_check((run_path(init_model(spec, seed), 64.0)
                            for seed in seeds), t_values)
        violations += np.count_nonzero(~res.ok)
        n_checks += res.ok.size
    ok = violations == 0
    assert _verdict(
        6, ok, f"{violations} violations over {n_checks} pathwise checks"
    )


def test_criterion_7_esseen_gaussian_injection(_verdict):
    samples = np.random.default_rng(derive_seed(MASTER_SEED, 6)).normal(
        size=100_000
    )
    probe = CfProbe.from_samples(samples, make_t_grid(10.0))
    res = esseen_numeric(probe, 10.0)  # y = (1e4 / 1^2)^{1/4}
    target = 24.0 / (math.pi * math.sqrt(2.0 * math.pi) * 10.0)
    ok = abs(res.total - target) <= 0.01
    assert _verdict(
        7, ok, f"esseen total {res.total:.5f} within 0.01 of {target:.5f}"
    )


def test_criterion_8_model_hypotheses(_verdict):
    ok = True
    for spec in SPECS.values():
        law = spec.law
        for sigma_sq, sd, y in law.levels:
            # |X| = sigma <= Y: sigma^2 <= Y^2 and E(|X|^3 | F) = sigma^3
            # <= Y sigma^2
            ok &= y >= 1.0 and sigma_sq > 0.0 and sd <= y
        # Y_k nondecreasing on every step: a level that can fall may follow
        # any other, so one Y; a rising law's Y in level order
        ys = law.ys
        ok &= bool(np.all(ys[1:] >= ys[:-1] if law.rising else ys == ys[0]))
    # regime's high level, sigma^2 = 4 and Y = 2, has zero slack:
    # sigma^3 = Y sigma^2 exactly
    sigma_sq, sd, y = SPECS["regime_switch"].law.levels[1]
    ok &= (sigma_sq, y) == (4.0, 2.0) and sigma_sq * sd == y * sigma_sq
    ok = bool(ok)
    assert _verdict(8, ok, "every level of every kind's table holds the "
                    "hypotheses; the boundary level has zero slack")


def test_criterion_9_golden_reports(tmp_path, _verdict):
    # the committed reports of every kind at n = 16..48, R = 4000, all checks
    moved, files = [], 0
    for kind in ("iid", "product", "regime"):
        set_dir = GOLDEN / f"{kind}-small"
        want_status, want = recorded(set_dir)
        status, got = run_set(set_dir, tmp_path / kind)
        assert status == want_status == 0
        moved += moved_cells(want, got)
        files += len(got)
    ok = not moved and files == 27
    assert _verdict(9, ok, f"{files} report files match the golden reports"
                    + "".join(f"\n  moved {m}" for m in moved))
