"""Special functions and semi-infinite quadrature shared by the tracking-probability formulas.

Everything here is pure and reentrant, so parallel Monte Carlo trials can call
into this module freely.
"""

import numpy as np
from dataclasses import dataclass
from scipy import integrate, special, stats


class ConvergenceError(RuntimeError):
    """Quadrature did not reach the requested tolerance.

    The best estimate obtained so far is kept in .partial.
    """

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


def bessel_i0_scaled(x):
    """exp(-x) * I0(x) for x >= 0; stays finite where plain I0 overflows."""
    x = float(x)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return float(special.i0e(x))


def harmonic(n):
    """Harmonic number: sum_{k=1..n} 1/k, harmonic(0) = 0."""
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, n + 1)))


# Above this product the canonical series needs too many terms to stay at
# 1e-10, so we hand off to the noncentral-chi-squared tail form.
_MARCUM_SERIES_LIMIT = 30.0


def _poisson_cdf_table(kmax, y):
    # Pr(Pois(y) <= k) for k = 0..kmax, i.e. the regularized upper incomplete
    # gamma Q(k+1, y). Log-space weights so large y only underflows gracefully.
    if y == 0.0:
        return np.ones(kmax + 1)
    j = np.arange(kmax + 1)
    logp = j * np.log(y) - y - special.gammaln(j + 1)
    return np.cumsum(np.exp(logp))


def _marcum_q1_series(a, b):
    # Q1(a, b) = sum_k Pois(k; a^2/2) * Q(k+1, b^2/2). All terms positive, so
    # the only care needed is windowing the Poisson weights around their mode
    # (large a with small b would underflow a k=0 start).
    m = 0.5 * a * a
    y = 0.5 * b * b
    if m == 0.0:
        return float(np.exp(-y))
    half = int(10.0 * np.sqrt(m) + 25.0)  # Poisson tail beyond this is < 1e-20
    k_lo = max(0, int(m) - half)
    k_hi = int(m) + half
    k = np.arange(k_lo, k_hi + 1)
    logw = k * np.log(m) - m - special.gammaln(k + 1)
    w = np.exp(logw)
    g = _poisson_cdf_table(k_hi, y)[k_lo:]
    val = float(np.dot(w, g))
    return min(1.0, max(0.0, val))


def marcum_q1(a, b):
    """First-order Marcum Q: Q1(a, b) = int_b^inf t exp(-(t^2+a^2)/2) I0(a t) dt.

    Canonical series with incomplete-gamma terms for a*b <= 30; for larger
    products the equivalent noncentral-chi-squared survival function
    Pr(X > b^2), X ~ ncx2(df=2, nc=a^2), which scipy evaluates by
    asymptotic/erfc-based forms without overflow.
    """
    a = float(a)
    b = float(b)
    if a < 0 or b < 0:
        raise ValueError(f"arguments must be >= 0, got a={a}, b={b}")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return float(np.exp(-0.5 * b * b))
    if a * b <= _MARCUM_SERIES_LIMIT:
        return _marcum_q1_series(a, b)
    val = float(stats.ncx2.sf(b * b, 2, a * a))
    return min(1.0, max(0.0, val))


def integrate_semi_infinite(f, spec=None):
    """Integrate f over [0, inf) with the substitution u = t/(1-t).

    The map sends [0, 1) onto [0, inf) and the adaptive Gauss-Kronrod rule
    then refines on the unit interval, which suits the exponentially decaying
    integrands used here. Deterministic for a fixed spec.
    """
    if spec is None:
        spec = QuadratureSpec()

    def g(t):
        w = 1.0 - t
        return f(t / w) / (w * w)

    out = integrate.quad(g, 0.0, 1.0, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                         limit=spec.max_subdivisions, full_output=1)
    if len(out) > 3:  # quad appends an explanation once it gives up
        raise ConvergenceError(str(out[3]), partial=out[0])
    return out[0]
