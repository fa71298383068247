"""Scalar probability primitives: normal CDF, empirical CDFs, Kolmogorov
sup-distance and DKW bands.

The normal CDF is a numpy port of the Cephes ``ndtr`` that
``scipy.special.ndtr`` compiles (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), with libm's ``exp``: it gives SciPy's bits
without importing SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "EmpiricalCdf",
    "DistanceResult",
    "std_normal_cdf",
    "kolmogorov_distance",
    "dkw_halfwidth",
]

DEFAULT_DELTA = 0.01

# The doubles of Cephes ndtr.c as SciPy compiles them: erf(x) =
# x T(x^2) / U(x^2) on |x| < 1; erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8)
# and exp(-x^2) R(x) / S(x) from 8 up.  U, Q and S lead with the 1.0 that
# Cephes' p1evl leaves implicit; 1.0 * x is exactly x, so _polevl gives
# p1evl's bits.  The code below keeps the C code's order of operations, on
# which the bits depend.
_T = (9.604973739870516, 90.02601972038427, 2232.005345946843,
      7003.325141128051, 55592.30130103949)
_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801,
      22629.000061389095, 49267.39426086359)
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699,
      48.63719709856814, 196.5208329560771, 526.4451949954773,
      934.5285271719576, 1027.5518868951572, 557.5353353693994)
_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199,
      975.7085017432055, 1823.9091668790973, 2246.3376081871097,
      1656.6630919416134, 557.5353408177277)
_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805,
      6.160210979930536, 7.4097426995044895, 2.9788666537210022)
_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666,
      17.08144507475659, 9.608968090632859, 3.369076451000815)
_MAXLOG = 709.782712893384  # log(DBL_MAX)
_SQRT1_2 = 0.7071067811865476


def _polevl(x, coef):
    """Horner's rule, highest degree first, in Cephes' order."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _libm_exp(e):
    """exp through libm: numpy's SIMD exp differs in the last bit on some
    inputs."""
    return np.fromiter(map(math.exp, e.tolist()), float, e.size)


def _erfc(z):
    """Cephes erfc on z >= 1: exp(-z^2) P(z)/Q(z) below 8, exp(-z^2)
    R(z)/S(z) from 8 up, and 0 where exp(-z^2) would leave the normal
    range."""
    y = np.zeros_like(z)
    e = -z * z
    mid = np.flatnonzero(z < 8.0)
    far = np.flatnonzero((z >= 8.0) & (e >= -_MAXLOG))
    for i, p, q in ((mid, _P, _Q), (far, _R, _S)):
        zi = z[i]
        y[i] = _libm_exp(e[i]) * _polevl(zi, p) / _polevl(zi, q)
    return y


def std_normal_cdf(x):
    """Standard normal CDF, equal bit for bit to ``scipy.special.ndtr``.

    Accepts a scalar or an ndarray.  With x = a/sqrt(2), Phi(a) is
    0.5 + 0.5 erf(x) for |x| < 1 and otherwise 0.5 erfc(|x|), reflected
    for x > 0, so neither tail loses precision.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("std_normal_cdf requires finite input")
    xs = arr.ravel() * _SQRT1_2
    zs = np.abs(xs)
    out = np.empty_like(xs)
    inner = np.flatnonzero(zs < 1.0)
    xi = xs[inner]
    zz = xi * xi
    out[inner] = 0.5 + 0.5 * (xi * _polevl(zz, _T) / _polevl(zz, _U))
    outer = np.flatnonzero(zs >= 1.0)
    y = 0.5 * _erfc(zs[outer])
    out[outer] = np.where(xs[outer] > 0, 1.0 - y, y)
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def dkw_halfwidth(r, delta=DEFAULT_DELTA):
    """Dvoretzky-Kiefer-Wolfowitz band half-width sqrt(ln(2/delta)/(2R))."""
    if r < 1:
        raise ValueError(f"sample count must be >= 1, got {r}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    if not math.isfinite(2.0 / delta):
        raise ConfigurationError(
            f"delta = {delta} is too small: 2/delta overflows")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * r))


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted sample of normalized sums."""

    samples: np.ndarray
    count: int

    def __post_init__(self):
        if self.count != len(self.samples) or self.count < 1:
            raise ValueError("count must equal len(samples) and be >= 1")
        if np.any(np.diff(self.samples) < 0):
            raise ValueError("samples must be nondecreasing")

    @classmethod
    def from_samples(cls, samples):
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValueError("empty sample")
        return cls(samples=arr, count=arr.size)


@dataclass(frozen=True)
class DistanceResult:
    d_sup: float
    argmax_x: float
    dkw_halfwidth: float


def kolmogorov_distance(ecdf, cdf, delta=DEFAULT_DELTA):
    """Sup-distance between an ``EmpiricalCdf`` and a continuous CDF.

    Exact order-statistics scan: at the i-th sorted sample (1-based) the
    empirical CDF jumps from (i-1)/R to i/R, so the sup is attained at a
    sample point from one side or the other.  ``cdf`` maps an array to an
    array, as ``std_normal_cdf`` does, and is called once, on the array of
    distinct sample values.
    """
    xs = ecdf.samples
    r = ecdf.count
    # the CDF once per distinct value, repeated over its run of ties
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    f = np.repeat(cdf(xs[starts]), np.diff(starts, append=r))
    i = np.arange(1, r + 1)
    d_plus = i / r - f
    d_minus = f - (i - 1) / r
    gaps = np.maximum(d_plus, d_minus)
    k = int(np.argmax(gaps))
    return DistanceResult(
        d_sup=float(gaps[k]),
        argmax_x=float(xs[k]),
        dkw_halfwidth=dkw_halfwidth(r, delta),
    )
