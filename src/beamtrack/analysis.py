"""Exact tracking-probability formulas and the special functions behind them.

The closed-form success probability of the power readout for orthogonal
codebooks, its lower/approximate/upper surrogates, the nested integral for
overlapped codebooks, and the union-bound floor for the correlation (OMP)
estimator. They rest on scaled Bessel, Marcum Q and semi-infinite quadrature
helpers built on scipy. Tests and library users import this module; the
campaign path (channel, astp, allocate, track, cli) does not, so a campaign
never loads scipy.

Everything here is pure and reentrant, so parallel Monte Carlo trials can call
into this module freely.
"""

import numpy as np
from dataclasses import dataclass
from scipy import integrate, special, stats

from .astp import approx_astp, harmonic
from .channel import pair_rows, truth_column


# ------------------------------------------------------------- special functions

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


# ------------------------------------------------------------- orthogonal case

# Beyond this many interfering pairs the 2^(N-1) subset enumeration is
# replaced by quadrature of the equivalent integral form.
_CLOSED_FORM_MAX_INTERFERERS = 20

# Tolerances of that quadrature and of the overlapped-codebook nested integral.
_CLOSED_FORM_QUADRATURE = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13,
                                         max_subdivisions=400)
_GENERAL_QUADRATURE = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12,
                                     max_subdivisions=300)


def _signal_scale(lam_n, budget):
    # mean of the accumulated own-pair power: lambda^2 gamma^2 sig_a^2 + lambda sig_0^2
    return lam_n * lam_n * budget.gamma2 * budget.gain_var + lam_n * budget.noise_var


def _gamma_subset_sum(h, other_rates):
    # sum over subsets S of interferers of (-1)^{|S|} / (1 + h * sum_{m in S} rate_m)
    sums = np.zeros(1)
    signs = np.ones(1)
    for rate in other_rates:
        sums = np.concatenate([sums, sums + rate])
        signs = np.concatenate([signs, -signs])
    return float(np.sum(signs / (1.0 + h * sums)))


def _gamma_quadrature(h, other_rates):
    def integrand(u):
        return np.exp(-u / h) / h * np.prod(-np.expm1(-u * other_rates))

    return integrate_semi_infinite(integrand, _CLOSED_FORM_QUADRATURE)


def gamma_closed_form(n, alloc, budget):
    """Success probability of the power readout for the n-th allocated pair
    (1-based position) when that pair is the true direction, orthogonal
    codebooks assumed: exponentially averaged over the channel gain, the
    noncentral own power beats each interferer's exponential power."""
    n_pairs = alloc.n_pairs
    if not 1 <= n <= n_pairs:
        raise ValueError(f"position must be in 1..{n_pairs}, got {n}")
    lam = np.asarray(alloc.counts, float)
    h = _signal_scale(lam[n - 1], budget)
    other_rates = 1.0 / (budget.noise_var * np.delete(lam, n - 1))
    if len(other_rates) == 0:
        return 1.0
    if len(other_rates) <= _CLOSED_FORM_MAX_INTERFERERS:
        return _gamma_subset_sum(h, other_rates)
    return _gamma_quadrature(h, other_rates)


def astp_closed_form(alloc, prior, budget):
    """Prior-weighted success probability over the allocated pairs."""
    pw = prior.of_pairs(alloc.pairs)
    return float(sum(pw[j] * gamma_closed_form(j + 1, alloc, budget)
                     for j in range(alloc.n_pairs)))


def astp_bounds(alloc, prior, budget):
    """(lower, approx, upper) surrogates for the orthogonal-case tracking probability.

    The bracketed interference burden runs from F(N-1) (upper) through the
    interpolation F(N-1)/(N-1)*(M_B-lambda) (approx) to M_B-lambda (lower);
    all three collapse to the prior mass at N = 1.
    """
    lam = np.asarray(alloc.counts, float)
    pw = prior.of_pairs(alloc.pairs)
    n = alloc.n_pairs
    r0 = budget.r0
    den = lam * lam * r0 + lam
    f = harmonic(n - 1)
    lower = float(np.sum(pw * (1.0 - (alloc.budget - lam) / den)))
    upper = float(np.sum(pw * (1.0 - f / den)))
    apx = approx_astp(alloc.counts, pw, alloc.budget, r0)
    return lower, apx, upper


# ------------------------------------------------------------- general case

def gamma_general_numeric(n, alloc, truth, tables, budget):
    """Success probability for the n-th allocated pair with overlapped codebooks.

    Nested quadrature of the conditional success probability: inner integral
    over the own accumulated power (noncentral, Rician interference factors
    via Marcum Q), outer over the exponentially distributed channel power.
    The pair's own correlation with the truth enters its noncentrality
    (exactly 1 when the pair aims at the true direction, the case the
    orthogonal closed form covers).
    """
    n_pairs = alloc.n_pairs
    if not 1 <= n <= n_pairs:
        raise ValueError(f"position must be in 1..{n_pairs}, got {n}")
    k1, i1 = truth
    if not (1 <= k1 <= tables.x_rx and 1 <= i1 <= tables.x_tx):
        raise ValueError(f"truth indices out of range: {truth}")

    lam = np.asarray(alloc.counts, float)
    mu = truth_column(alloc.pairs, k1, i1, tables)
    own = n - 1
    others = np.delete(np.arange(n_pairs), own)
    s0 = budget.noise_var
    g2 = budget.gamma2
    lam_own = lam[own]
    mu_own = abs(mu[own])
    # interference Marcum arguments: a_m = sqrt(2 lam_m g2 |mu_m|^2 t / s0)
    a_coef = np.sqrt(2.0 * lam[others] * g2 * np.abs(mu[others]) ** 2 / s0)
    b_coef = np.sqrt(2.0 / (lam[others] * s0))

    def inner(t):
        # own statistic ~ noncentral exponential with scale lam*s0 and
        # noncentrality lam^2 g2 |mu_own|^2 t; integrate in units of its mean
        # so the quadrature grid lands on the peak
        mean_u = lam_own * s0 + lam_own * lam_own * g2 * mu_own * mu_own * t
        center = lam_own * budget.gamma * mu_own * np.sqrt(t)
        a_t = a_coef * np.sqrt(t)

        def f(v):
            u = mean_u * v
            root_u = np.sqrt(u)
            dens = np.exp(-(root_u - center) ** 2 / (lam_own * s0)) / (lam_own * s0)
            dens *= bessel_i0_scaled(2.0 * budget.gamma * mu_own * np.sqrt(t) * root_u / s0)
            prod = 1.0
            for am, bm in zip(a_t, b_coef):
                prod *= 1.0 - marcum_q1(am, bm * root_u)
            return dens * prod * mean_u

        return integrate_semi_infinite(f, _GENERAL_QUADRATURE)

    sa2 = budget.gain_var

    def outer(s):
        return inner(sa2 * s) * np.exp(-s)

    return float(integrate_semi_infinite(outer, _GENERAL_QUADRATURE))


def omp_gamma_lower_bounds(alloc, tables, budget, chunk=512):
    """Per-true-direction lower bounds on the correlation estimator's success.

    Union bound over pairwise decision errors with the readout's
    Rician-vs-Rician statistics averaged over the exponential channel power.
    Entries may be negative; the aggregate keeps them (a shared clamp would
    reorder allocations). Vectorized in blocks over the candidate grid.
    """
    x = tables.x_rx * tables.x_tx
    lam = np.asarray(alloc.counts, float)
    # C[m, n] = correlation of probe pair m's beams with grid direction n
    rows = pair_rows(alloc.pairs, tables)
    power = np.abs(rows) ** 2  # |C|^2
    q = lam @ power  # own-power per grid direction, length X
    weighted = lam[:, None] * rows
    g2 = budget.gamma2
    s0 = budget.noise_var
    sa2 = budget.gain_var

    out = np.empty(x)
    for lo in range(0, x, chunk):
        hi = min(lo + chunk, x)
        cross = rows.conj().T @ weighted[:, lo:hi]  # (X, hi-lo)
        den = q[:, None] + q[None, lo:hi]
        with np.errstate(divide="ignore", invalid="ignore"):
            a_mat = 2.0 * g2 * np.abs(cross) ** 2 / (s0 * den)
            b_mat = 2.0 * g2 * q[None, lo:hi] ** 2 / (s0 * den)
            w = q[None, lo:hi] / den
            root = np.sqrt(1.0 + (a_mat + b_mat) * sa2 + sa2 * sa2 * (a_mat - b_mat) ** 2 / 4.0)
            pairwise = (0.5 - ((b_mat - a_mat) * sa2 - 2.0) / (4.0 * root)) - w / root
        # den == 0 means both statistics vanish identically; charge the full
        # pairwise error so the bound stays a bound
        pairwise[den == 0.0] = 1.0
        np.fill_diagonal(pairwise[lo:hi, :], 0.0)
        out[lo:hi] = 1.0 - pairwise.sum(axis=0)
    return out


def omp_astp_lower_bound(alloc, prior, tables, budget):
    """Prior-weighted aggregate of the per-direction lower bounds over the
    whole grid (no renormalization over any pruned candidate set). Returned
    as is: a poor allocation can drive the union bound below zero."""
    gam = omp_gamma_lower_bounds(alloc, tables, budget)
    return float(np.dot(prior.weights, gam))
