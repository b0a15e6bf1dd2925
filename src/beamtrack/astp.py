"""Successful-tracking-probability formulas: closed forms, bounds, and numeric integrals.

An allocation probes N distinct beam pairs with integer repetition counts
summing to the pilot budget. For orthogonal codebooks the per-pair success
probability has an exact alternating-sum closed form; for overlapped
codebooks it is integrated numerically, and the correlation-based estimator
gets a union-bound lower bound instead.
"""

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

from .channel import pair_rows, pair_split
from .specfun import (
    QuadratureSpec,
    bessel_i0_scaled,
    harmonic,
    integrate_semi_infinite,
    marcum_q1,
)


@dataclass(frozen=True)
class Allocation:
    pairs: tuple  # distinct flat beam-pair indices z_1..z_N (1-based)
    counts: tuple  # positive repetition counts, same length
    budget: int  # M_B

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(int(p) for p in self.pairs))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.pairs) != len(self.counts):
            raise ValueError("pairs and counts must have equal length")
        if len(self.pairs) == 0:
            raise ValueError("allocation cannot be empty")
        if min(self.pairs) < 1:
            raise ValueError(f"pair indices are 1-based, got {self.pairs}")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("pairs must be distinct")
        if any(c < 1 for c in self.counts):
            raise ValueError(f"counts must be >= 1, got {self.counts}")
        if sum(self.counts) != self.budget:
            raise ValueError(f"counts sum {sum(self.counts)} != budget {self.budget}")

    @property
    def n_pairs(self):
        return len(self.pairs)


@dataclass(frozen=True)
class LinkBudget:
    power: float  # transmit power P
    noise_var: float  # sigma_0^2
    gain_var: float  # sigma_alpha^2
    n_tx: int
    n_rx: int

    def __post_init__(self):
        for name in ("power", "noise_var", "gain_var"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def gamma2(self):
        """Coherent beamforming power gain P*N_T*N_R."""
        return self.power * self.n_tx * self.n_rx

    @property
    def gamma(self):
        return np.sqrt(self.gamma2)

    @property
    def r0(self):
        """Post-beamforming SNR P*N_T*N_R*sigma_alpha^2 / sigma_0^2."""
        return self.gamma2 * self.gain_var / self.noise_var


@dataclass(frozen=True)
class PriorWeights:
    weights: np.ndarray  # probability per flat beam pair, length X

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        object.__setattr__(self, "weights", w)
        if np.any(w < 0):
            raise ValueError("prior weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"prior weights must sum to 1, got {w.sum()!r}")

    def of_pairs(self, pairs):
        return self.weights[np.asarray(pairs, int) - 1]


def prior_from_transition(model, k0, i0):
    """Joint next-pair prior given last estimate (k0, i0): product of the two
    Markov rows, laid out in flat pair order (AoA index fastest)."""
    row_rx = model.rows_rx[k0 - 1]
    row_tx = model.rows_tx[i0 - 1]
    return PriorWeights(weights=np.outer(row_tx, row_rx).ravel())


# ------------------------------------------------------------- orthogonal case

# Beyond this many interfering pairs the 2^(N-1) subset enumeration is
# replaced by quadrature of the equivalent integral form.
_CLOSED_FORM_MAX_INTERFERERS = 20


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


def _gamma_quadrature(h, other_rates, spec=None):
    def integrand(u):
        return np.exp(-u / h) / h * np.prod(-np.expm1(-u * other_rates))

    return integrate_semi_infinite(integrand, spec or QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=400))


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


def approx_astp(counts, weights, m_b, r0):
    """Tractable surrogate objective: weights . [1 - F(N-1)/(N-1) * (M_B-c)/(c^2 r0 + c)].

    Exact at N = 1. Plain-array form shared by the optimizers.
    """
    lam = np.asarray(counts, float)
    w = np.asarray(weights, float)
    n = len(lam)
    if n == 1:
        return float(w[0])
    ratio = harmonic(n - 1) / (n - 1)
    return float(np.sum(w * (1.0 - ratio * (m_b - lam) / (lam * lam * r0 + lam))))


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

def _pair_correlations(pairs, truth, tables):
    # complex correlation of each allocated pair's beams with the true direction
    k1, i1 = truth
    out = np.empty(len(pairs), complex)
    for j, z in enumerate(pairs):
        a, c = pair_split(z, tables.x_rx)
        out[j] = tables.nu_rx[a - 1, k1 - 1] * tables.nu_tx[c - 1, i1 - 1]
    return out


def gamma_general_numeric(n, alloc, truth, tables, budget, spec=None):
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
    spec = spec or QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=300)

    lam = np.asarray(alloc.counts, float)
    mu = _pair_correlations(alloc.pairs, truth, tables)
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

        return integrate_semi_infinite(f, spec)

    sa2 = budget.gain_var

    def outer(s):
        return inner(sa2 * s) * np.exp(-s)

    return float(integrate_semi_infinite(outer, spec))


class OmpBound(NamedTuple):
    value: float  # union bound, can go negative for poor allocations
    clamped: float  # same, restricted to [0, 1] for reporting


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
    whole grid (no renormalization over any pruned candidate set)."""
    gam = omp_gamma_lower_bounds(alloc, tables, budget)
    value = float(np.dot(prior.weights, gam))
    return OmpBound(value=value, clamped=min(1.0, max(0.0, value)))
