"""Allocations, link budgets, transition priors, and the surrogate objective.

An allocation probes N distinct beam pairs with integer repetition counts
summing to the pilot budget. The allocators optimize the tractable surrogate
approx_astp. The exact success probabilities, their bounds and the
overlapped-codebook integrals live in beamtrack.analysis, which no campaign
imports; this module needs numpy alone.
"""

import numpy as np
from dataclasses import dataclass


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


def harmonic(n):
    """Harmonic number: sum_{k=1..n} 1/k, harmonic(0) = 0."""
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, n + 1)))


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
