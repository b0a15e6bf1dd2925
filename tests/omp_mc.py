"""Monte Carlo of the correlation (OMP) estimator, shared by the tests.

Trials are batched on the per-pair aggregated readouts, which is equivalent
to running the estimator symbol by symbol: each pair's readout is the sum of
its repeated symbols, so its noise variance and its signal grow with the
pair's count.
"""

import numpy as np

from beamtrack.channel import pair_rows


def aggregated_readouts(rows, lam, budget, truths, rng):
    """One row of per-pair readouts per trial, each trial's truth a 0-based
    grid column of ``rows``. Draws the gains' real then imaginary parts, then
    the noise's real then imaginary parts."""
    m = len(truths)
    alpha = np.sqrt(budget.gain_var / 2.0) * (
        rng.standard_normal(m) + 1j * rng.standard_normal(m))
    scale = np.sqrt(budget.noise_var * lam / 2.0)
    agg = scale * (rng.standard_normal((m, len(lam)))
                   + 1j * rng.standard_normal((m, len(lam))))
    agg += alpha[:, None] * (lam * budget.gamma * rows[:, truths].T)
    return agg


def omp_picks(agg, rows):
    """The 0-based grid column whose correlation with each readout is largest."""
    return np.argmax(np.abs(agg @ rows.conj()) ** 2, axis=1)


def mc_omp_astp(alloc, prior, tables, budget, n_trials, rng, chunk=20_000):
    """Empirical prior-weighted success rate of the correlation estimator:
    all truths first, then the readouts chunk by chunk."""
    rows = pair_rows(alloc.pairs, tables)
    lam = np.asarray(alloc.counts, float)
    truths = rng.choice(rows.shape[1], size=n_trials, p=prior.weights)
    hits = 0
    for lo in range(0, n_trials, chunk):
        t = truths[lo:lo + chunk]
        agg = aggregated_readouts(rows, lam, budget, t, rng)
        hits += int(np.sum(omp_picks(agg, rows) == t))
    return hits / n_trials
