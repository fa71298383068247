"""Monte-Carlo verification harness.

Evaluates the closed-form rate bounds, estimates Kolmogorov distances of
the normalized stopped sums to the standard normal, probes the three
characteristic-function inequalities behind the bounds, and runs the
smoothing-inequality quadrature.

Statistical assertions use 4-standard-error bands.  When an inequality's
right-hand side is below Monte-Carlo resolution (rhs < stderr) the check
degrades to lhs <= rhs + 4*stderr and the point is flagged as
resolution-limited rather than failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .normal import (DEFAULT_DELTA, DistanceResult, EmpiricalCdf,
                     kolmogorov_distance, std_normal_cdf)

__all__ = [
    "Row", "BoundReport", "CfProbe", "InequalityCheck", "EsseenResult",
    "RateFit", "ESSEEN_SLACK",
    "theorem_bound_F", "theorem_bound_H", "estimate_a_n",
    "report_from_batch", "make_t_grid", "probe_from_batch", "esseen_numeric",
    "rate_fit", "RATE_BOUND",
]


@dataclass(frozen=True)
class Row:
    """One report row, decided by the object of its check: ``BoundReport``,
    ``CfProbe``, ``EsseenResult``, ``RateFit`` or ``stopping.Lemma1Result``."""

    check: str
    estimate: float
    stderr: float           # a standard error or a DKW halfwidth
    bound: float
    margin: float
    passed: bool
    resolution_limited: bool = False   # a FAIL that MC resolution explains


# closed-form rate bounds

def _bound(n, a_n, second_coeff):
    if n <= 0:
        raise ValueError("n must be positive")
    if a_n < 1.0:
        raise ValueError("a_n must be >= 1")
    q = n ** 0.25
    return (math.sqrt(a_n) / (math.pi * q)) * (
        11.0 + second_coeff / q + 2.0 / (9.0 * q * q) + 1.0 / (8.0 * q**3)
    )


def theorem_bound_F(n, a_n):
    """Rate bound for the plainly-stopped sum S_nu (second coefficient 3/4)."""
    return _bound(n, a_n, 0.75)


def theorem_bound_H(n, a_n):
    """Rate bound for the corrected sum S'_nu (second coefficient 9/4)."""
    return _bound(n, a_n, 2.25)


# moment functional a_n = (E Y_nu^4)^{1/2}

def estimate_a_n(y_nu):
    """Delta-method estimate of sqrt(E Y_nu^4) with its standard error."""
    y4 = np.asarray(y_nu, dtype=float) ** 4
    if y4.size == 0:
        raise ValueError("empty sample")
    a_hat = math.sqrt(float(np.mean(y4)))
    if y4.size == 1:
        return a_hat, 0.0
    var = float(np.var(y4, ddof=1))
    stderr = math.sqrt(var / y4.size) / (2.0 * a_hat)
    return a_hat, stderr


# distance estimation against the theorem bounds

@dataclass(frozen=True)
class BoundReport:
    n: float
    r: int
    a_n_hat: float
    a_n_stderr: float
    a_n_eval: float          # a_n_hat + 3 stderr, used in the bounds
    d_f: DistanceResult
    d_h: DistanceResult
    bound_f: float
    bound_h: float
    y_smoothing: float       # (n / a_n_eval^2)^{1/4}, the CF grid's range
    plot_rows: np.ndarray    # ((i+1)/R, F and H quantiles) at <= 512 ranks i

    def rows(self):
        """The distance_F and distance_H rows: each passes if the distance
        less its DKW halfwidth is within the bound, and its margin is
        bound - (distance + halfwidth)."""
        return tuple(
            Row(check, d.d_sup, d.dkw_halfwidth, bound,
                bound - (d.d_sup + d.dkw_halfwidth),
                d.d_sup - d.dkw_halfwidth <= bound)
            for check, d, bound in (("distance_F", self.d_f, self.bound_f),
                                    ("distance_H", self.d_h, self.bound_h)))

    @property
    def passed(self):
        return all(row.passed for row in self.rows())


def report_from_batch(batch, delta=DEFAULT_DELTA):
    """The BoundReport of a batch at the n it was stopped at (``batch.n``),
    with the one estimate of a_n and y that the batch's CF probe reads."""
    n, r = batch.n, batch.size
    sqrt_n = math.sqrt(n)
    ecdf_f = EmpiricalCdf.from_samples(batch.s_nu / sqrt_n)
    ecdf_h = EmpiricalCdf.from_samples(batch.s_prime_nu / sqrt_n)
    take = np.linspace(0, r - 1, min(512, r)).astype(int)
    d_f = kolmogorov_distance(ecdf_f, std_normal_cdf, delta=delta)
    d_h = kolmogorov_distance(ecdf_h, std_normal_cdf, delta=delta)
    a_hat, a_se = estimate_a_n(batch.y_nu)
    a_eval = a_hat + 3.0 * a_se  # conservative: a larger a_n weakens the claim
    return BoundReport(
        n=n, r=r, a_n_hat=a_hat, a_n_stderr=a_se, a_n_eval=a_eval, d_f=d_f,
        d_h=d_h, bound_f=theorem_bound_F(n, a_eval),
        bound_h=theorem_bound_H(n, a_eval),
        y_smoothing=(n / a_eval**2) ** 0.25, plot_rows=np.column_stack((
            (take + 1) / r, ecdf_f.samples[take], ecdf_h.samples[take])),
    )


# characteristic-function inequalities

def make_t_grid(y):
    """The 129-point grid on [-y, y] that ``esseen_numeric`` needs,
    symmetric and clustered at 0 and at the endpoints.

    The smoothing integrand varies fastest near 0 and +/-y, so points are
    placed at +/- y sin^2(pi j / 2m), j = 0..m, m = 64; 0 is included.
    """
    m = 64
    half = y * np.sin(0.5 * np.pi * np.arange(m + 1) / m) ** 2
    return np.concatenate([-half[:0:-1], half])


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    t: float
    lhs: float
    rhs: float
    stderr: float
    resolution_limited: bool

    @property
    def upper(self):    # the largest lhs that passes: rhs + the 4-stderr band
        return self.rhs + 4.0 * self.stderr

    @property
    def ok(self):
        return self.lhs <= self.upper


@dataclass(frozen=True)
class CfProbe:
    t_grid: np.ndarray
    c3: np.ndarray
    se3: np.ndarray
    checks: tuple = ()

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def rows(self):
        """One row per inequality, in the order of ``checks``, read at its
        worst point: the smallest upper - lhs, the first in grid order on
        a tie.  A FAIL row is flagged resolution-limited only if every
        failing point is, a PASS row if any of its points is."""
        groups = {}
        for c in self.checks:
            groups.setdefault(c.name, []).append(c)
        rows = []
        for name, group in groups.items():
            worst = min(group, key=lambda c: c.upper - c.lhs)
            failing = [c for c in group if not c.ok]
            limited = (all(c.resolution_limited for c in failing) if failing
                       else any(c.resolution_limited for c in group))
            rows.append(Row(name, worst.lhs, worst.stderr, worst.rhs,
                            worst.rhs - worst.lhs, not failing, limited))
        return tuple(rows)

    @classmethod
    def from_samples(cls, samples, t_grid):
        """CF-only probe of raw normalized samples (e.g. injected Gaussians)."""
        x = np.ravel(samples).astype(float)
        grid, paths = _AbsTGrid(t_grid), _Paths([x])
        key, = paths.columns
        blocks = grid.blocks(x.size)
        out, it = _buffer(blocks, x.size), 1j * grid.values[:, None]
        c3, se3 = [], []
        for b in blocks:
            w = paths.at(0, np.exp(it[b] * key.values))
            for t, (c, se) in zip(grid.values[b], _moments(paths, w, out)):
                c3.append(_mirror(c, t, key, out))
                se3.append(se)
        return cls(t_grid=grid.t_grid, c3=grid.expand(c3, mirrored=True),
                   se3=grid.expand(se3))


# complex values per estimator table in a block of |t|: a block holds
# k = max(1, _BLOCK_VALUES // R) values of |t|, so that one set of numpy
# calls serves k of them at desk-scale R and one at large R (2^13 saved
# about 1 ms per threshold at R = 1000 but raised peak RSS by 0.2-0.4 MB)
_BLOCK_VALUES = 1 << 12
# joint codes on a grid of at most this many cells per path are keyed by
# counting them, larger grids by sorting
_COUNTED_CELLS = 4


class _AbsTGrid:
    """A t grid evaluated once per distinct |t|.  The samples are real, so
    the estimate at -t is the conjugate of the one at |t| (cos is even, sin
    is odd, and negated terms sum to the negated result) and its stderrs,
    lhs and rhs are those of |t|; but a zero imaginary part is +0.0 at both
    unless every term is -0.0, so the mean is then taken at -t."""

    def __init__(self, t_grid):
        self.t_grid = np.asarray(t_grid, dtype=float)
        if not self.t_grid.size:
            raise ValueError("the t grid is empty")
        self.values, self.which = np.unique(np.abs(self.t_grid),
                                            return_inverse=True)

    def blocks(self, r):
        """Slices of the |t| values in order, k = max(1, _BLOCK_VALUES // r)
        at a time (all of them if fewer)."""
        count = self.values.size
        k = min(count, max(1, _BLOCK_VALUES // r))
        return [slice(i, i + k) for i in range(0, count, k)]

    def expand(self, per_abs_t, mirrored=False):
        """Per-|t| values per grid point, of (|t|, -|t|) pairs if mirrored."""
        v = np.asarray(per_abs_t)[self.which]
        return np.where(self.t_grid < 0, v[:, 1], v[:, 0]) if mirrored else v


def _buffer(blocks, r):
    """A complex array for the paths, r a row, of a table of the largest
    block of |t|, the first."""
    return np.empty((blocks[0].stop, r), dtype=complex)


def _mirror(c, t, key, out):
    """(c, c at -t) for the mean c of exp(i t x) over key's paths."""
    if c.imag or not t:
        return c, c.conjugate()
    w = key.gather(np.exp(np.full((1, 1), 1j * -t) * key.values), out)
    return c, complex(np.add.reduce(w[0]) / w.shape[1])


def _unique(codes, span=None):
    """np.unique(codes, return_inverse=True) of int64 codes; by counting
    when they lie in [0, span) and span is at most _COUNTED_CELLS per code."""
    if span is None or span > _COUNTED_CELLS * codes.size:
        return np.unique(codes, return_inverse=True)
    seen = np.zeros(span, dtype=bool)
    seen[codes] = True
    keys = np.flatnonzero(seen)
    rank = np.cumsum(seen)
    rank -= 1
    return keys, rank.take(codes)


class _Key:
    """The paths of a batch grouped by a float column's bit patterns (its
    ``values`` at each key), or by int64 codes in [0, span), for tables of
    values per key gathered back through ``inverse``: a value computed per
    key has the bits of the one computed per path."""

    def __init__(self, x, span=None):
        self.codes, self.inverse = _unique(x.view(np.int64), span)
        self.values = self.codes.view(np.float64)

    def gather(self, table, out):
        """A (k, keys) table as one C-ordered (k, paths) row per value of
        t, in the first k rows of ``out``: fresh arrays cost page faults
        (``take`` clips: to raise on bad indices it buffers ``out``)."""
        return table.take(self.inverse, axis=-1, mode="clip",
                          out=out[:len(table)])


class _Paths:
    """The paths of a batch keyed once by the bit patterns of its columns
    together, for the estimator tables: a table holds one value per joint
    key, computed from each column's values read there (``at``), and
    ``gather`` reads it back at each path.  Stopped sums of the iid and
    regime kinds take far fewer values than there are paths, and V adds
    few keys to (S, S').  The keys are folded in a column at a time; with
    more than half as many joint keys as paths (the product kind's) the
    keys are the paths, and the tables are per path.  Each column keeps
    its own key, whose sorted values are the arguments of the complex
    exponential: it runs faster on ordered arguments."""

    def __init__(self, columns):
        self.columns = [_Key(x) for x in columns]   # each x freed once keyed
        size = self.columns[0].inverse.size
        joint = self.columns[0]
        for key in self.columns[1:]:
            if 2 * joint.codes.size > size:
                break
            joint = _Key(joint.inverse * key.codes.size + key.inverse,
                         span=joint.codes.size * key.codes.size)
        if 2 * joint.codes.size > size:
            self._joint, self._rows = None, [k.inverse for k in self.columns]
        else:
            path = np.empty(joint.codes.size, dtype=np.intp)
            path[joint.inverse] = np.arange(size)   # a path of each key
            self._joint = joint
            self._rows = [k.inverse.take(path) for k in self.columns]

    def at(self, column, table):
        """A (k, keys) table of a column's values per key of that column,
        read at each joint key."""
        return table.take(self._rows[column], axis=-1)

    def gather(self, table, out):
        """A table per joint key as one row of paths per value of t, in
        ``out`` (see _Key.gather); a table per path as it is."""
        if self._joint is None:
            return table
        return self._joint.gather(table, out)


def _moments(paths, table, out):
    """Per row of w, the (k, keys) table gathered at each path, its mean
    and a scalar stderr for its magnitude error from the std (ddof 1) of
    each part, with the bits of np.mean and np.std of the row but not their
    wrappers (Python divides floats as numpy does).  The parts' squared
    deviations are taken per key and gathered at once into ``out``, where
    w was."""
    w = paths.gather(table, out)
    r = w.shape[1]
    means = [complex(c / r) for c in np.add.reduce(w, axis=1)]
    if r < 2:
        return [(mean, 0.0) for mean in means]
    m = np.array([complex(re / r, im / r) for re, im in
                  zip(np.add.reduce(w.real, axis=1).tolist(),
                      np.add.reduce(w.imag, axis=1).tolist())])[:, None]
    dev = table - m
    np.square(dev.view(np.float64), out=dev.view(np.float64))  # both parts
    sq = paths.gather(dev, out)
    root_r = math.sqrt(r)
    return [(mean, math.hypot(math.sqrt(re / (r - 1)) / root_r,
                              math.sqrt(im / (r - 1)) / root_r))
            for mean, re, im in zip(means,
                                    np.add.reduce(sq.real, axis=1).tolist(),
                                    np.add.reduce(sq.imag, axis=1).tolist())]


def probe_from_batch(batch, report, t_grid):
    """Evaluate the three proof inequalities on an existing batch, at the
    n, a_n (``a_n_eval``) and smoothing cutoff y of its BoundReport, which
    must be the report of that batch (same n and r).

    With S = S_nu / sqrt(n), S' = S'_nu / sqrt(n) and V = sum_{p<nu}
    sigma^2_p, each path gives at t
        w1 = exp(i t S + (t^2/2n) V),  w2 = e^{t^2/2} w3,
        w3 = exp(i t S),               w4 = exp(i t S'),
    and the estimates are the means c1 = E w1, c3 = E w3 and the
    paired differences E(w1 - w2) and E(w3 - w4), averaged per path, which
    is what makes the O(t^2/n) right-hand sides resolvable at desk-scale r.
    The checks are cf7 |c1 - 1|, cf8 |E(w1 - w2)|, cf9 |E(w3 - w4)| and
    cf_combined |c3 - e^{-t^2/2}|, four per grid point in grid order.

    Each |t| is evaluated once (see _AbsTGrid), in blocks of
    k = max(1, _BLOCK_VALUES // r) values of |t|, so that one set of numpy
    calls serves a whole block at desk-scale r.  The paths are keyed once
    by (S, S', V) (see _Paths): exp(i t S), exp(i t S') and the growth
    factor exp((t^2/2n) V) are taken per key of their column and read at
    the joint keys, and w1, w3, w1 - w2 and w3 - w4 are (k, keys) tables
    there, each gathered into one (k, r) array whose rows are reduced.  The
    right-hand sides and records are computed per |t|.  The floats are
    those of evaluating every t on every path.
    """
    n, r, a, y = report.n, report.r, report.a_n_eval, report.y_smoothing
    if (n, r) != (batch.n, batch.size):
        raise ValueError(f"the report is of n = {n}, r = {r}, the batch of "
                         f"n = {batch.n}, r = {batch.size}")
    grid = _AbsTGrid(t_grid)
    if grid.values[-1] > y * (1.0 + 1e-9):
        raise ValueError(f"t grid exceeds the smoothing range [-y, y] with "
                         f"y = {y:.6g}")
    sqrt_n, blocks = math.sqrt(n), grid.blocks(r)

    def columns():      # S, S' and V, each freed once keyed
        yield batch.s_nu / sqrt_n
        yield batch.s_prime_nu / sqrt_n
        yield np.asarray(batch.v_before, dtype=float)

    paths = _Paths(columns())
    s, s_h, v = paths.columns
    out = _buffer(blocks, r)        # after the keys' sorts
    t_col = grid.values[:, None]    # |t| >= 0
    it, rate = 1j * t_col, t_col * t_col / (2.0 * n)
    e_half = [math.exp(t * t / 2.0) for t in grid.values]
    e_half_col = np.array(e_half)[:, None]
    per_abs_t = []
    for b in blocks:
        w3 = paths.at(0, np.exp(it[b] * s.values))
        w1 = paths.at(2, np.exp(rate[b] * v.values)) * w3
        c1 = _moments(paths, w1, out)
        c3 = _moments(paths, w3, out)
        w1 -= e_half_col[b] * w3    # w1 - w2, in place
        d12 = _moments(paths, w1, out)
        del w1
        w3 -= paths.at(1, np.exp(it[b] * s_h.values))     # w3 - w4
        d34 = _moments(paths, w3, out)
        del w3      # before the next block makes its own
        for t, e, (c1_t, se1), (c3_t, se3_t), (d12_t, se12), (d34_t, se34) \
                in zip(grid.values[b], e_half[b], c1, c3, d12, d34):
            rhs7 = a * e * (t / (3.0 * sqrt_n) + t * t / (4.0 * n)
                            + a * t**3 / (3.0 * n**1.5)
                            + a * t**4 / (4.0 * n * n))
            rhs8 = a * t * t / (2.0 * n) * e
            rhs9 = 3.0 * a * t * t / (2.0 * n)
            rhs_comb = a * (t / (3.0 * sqrt_n) + 3.0 * t * t / (4.0 * n)
                            + a * t**3 / (3.0 * n**1.5)
                            + a * t**4 / (4.0 * n * n))
            per_abs_t.append(((
                ("cf7", abs(c1_t - 1.0), rhs7, se1),
                ("cf8", abs(d12_t), rhs8, se12),
                ("cf9", abs(d34_t), rhs9, se34),
                ("cf_combined", abs(c3_t - math.exp(-t * t / 2.0)), rhs_comb,
                 se3_t),
            ), se3_t, _mirror(c3_t, t, s, out)))
    points, se3, c3 = zip(*per_abs_t)
    checks = tuple(InequalityCheck(name, float(t), float(lhs), float(rhs),
                                   float(se), bool(rhs < se))
                   for t, j in zip(grid.t_grid, grid.which)
                   for name, lhs, rhs, se in points[j])
    return CfProbe(t_grid=grid.t_grid, c3=grid.expand(c3, mirrored=True),
                   se3=grid.expand(se3), checks=checks)


# smoothing-inequality quadrature

# quadrature-and-MC allowance on top of the DKW band
ESSEEN_SLACK = 0.02


@dataclass(frozen=True)
class EsseenResult:
    total: float
    integral: float
    smoothing_term: float

    def row(self, d_f):
        """The esseen row: d_F (a DistanceResult) against the total, within
        its DKW halfwidth plus ESSEEN_SLACK."""
        upper = self.total + (d_f.dkw_halfwidth + ESSEEN_SLACK)
        return Row("esseen", d_f.d_sup, d_f.dkw_halfwidth, self.total,
                   upper - d_f.d_sup, d_f.d_sup <= upper)


def esseen_numeric(probe, y):
    """Trapezoid evaluation of the smoothing inequality's right-hand side.

    (1/pi) * int_{-y}^{y} |c3(t) - exp(-t^2/2)| / |t| dt + 24/(pi sqrt(2pi) y)
    over the probe's grid; the integrand is extended to t = 0 by continuity
    using the innermost nonzero grid points.
    """
    t = probe.t_grid
    if t[0] > -y * (1.0 - 1e-9) or t[-1] < y * (1.0 - 1e-9):
        raise ValueError("t grid does not cover [-y, y]")
    if t.size < 129:
        raise ValueError("need >= 129 grid points for the quadrature")
    diff = np.abs(probe.c3 - np.exp(-0.5 * t * t))
    integrand = np.empty_like(diff)
    nz = t != 0.0
    integrand[nz] = diff[nz] / np.abs(t[nz])
    if (~nz).any():
        inner = np.argsort(np.abs(t))[1:3]  # the two innermost nonzero points
        integrand[~nz] = float(np.mean(diff[inner] / np.abs(t[inner])))
    integral = float(np.trapezoid(integrand, t)) / math.pi
    smoothing = 24.0 / (math.pi * math.sqrt(2.0 * math.pi) * y)
    return EsseenResult(total=integral + smoothing, integral=integral,
                        smoothing_term=smoothing)


# empirical convergence-rate fit

# the largest fitted slope of log d_F on log n that passes (the bounds
# guarantee -1/4; bounded models decay like -1/2)
RATE_BOUND = -0.15


@dataclass(frozen=True)
class RateFit:
    slope: float
    stderr: float
    intercept: float

    def row(self):
        """The rate row: it passes if the fitted slope is <= RATE_BOUND."""
        return Row("rate", self.slope, self.stderr, RATE_BOUND,
                   RATE_BOUND - self.slope, self.slope <= RATE_BOUND)


def rate_fit(reports):
    """Least-squares slope of log d_F versus log n over increasing n."""
    reports = list(reports)
    if len(reports) < 4:
        raise ValueError("rate_fit needs at least 4 reports")
    ns = np.array([rep.n for rep in reports])
    ds = np.array([rep.d_f.d_sup for rep in reports])
    if np.any(np.diff(ns) <= 0):
        raise ValueError("reports must be ordered by strictly increasing n")
    return _linregress(np.log(ns), np.log(ds))


def _linregress(x, y):
    """Slope, slope stderr and intercept by the float operations of
    ``scipy.stats.linregress`` (p-value left out), so the report bytes do
    not depend on which of the two computed them."""
    if np.amax(x) == np.amin(x):
        raise ValueError("cannot fit a slope: every log n is the same")
    xmean = np.mean(x, None)
    ymean = np.mean(y, None)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.asarray(np.nan if ssxym == 0 else 0.0)[()]
    else:
        # rounding can push |r| above 1
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (x.size - 2))
    return RateFit(slope=float(slope), stderr=float(stderr),
                   intercept=float(ymean - slope * xmean))
