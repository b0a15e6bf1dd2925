"""Codebooks, array responses, beam-pair indexing, and Markov angle evolution.

Grid indices are 1-based throughout: AoA index k in {1..X_R}, AoD index i in
{1..X_T}, and a beam pair (k, i) flattens to n = k + X_R*(i - 1).
"""

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np


def array_response(angle, n_antennas):
    """Unit-norm ULA response: entry m is exp(j*(m-1)*angle)/sqrt(n)."""
    m = np.arange(n_antennas)
    return np.exp(1j * m * angle) / np.sqrt(n_antennas)


def grid_angles(x):
    """X grid directions 2*pi*(m-1)/X - pi*(X-1)/X, spaced 2*pi/X and symmetric about 0."""
    m = np.arange(1, x + 1)
    return 2.0 * np.pi * (m - 1) / x - np.pi * (x - 1) / x


def codebook(n_antennas, x_grid):
    """n_antennas x x_grid matrix whose columns are array responses at the grid angles."""
    return np.stack([array_response(t, n_antennas) for t in grid_angles(x_grid)], axis=1)


@dataclass(frozen=True)
class CodebookConfig:
    n_tx: int
    n_rx: int
    x_tx: int
    x_rx: int

    def __post_init__(self):
        if not 1 <= self.n_tx <= self.x_tx:
            raise ValueError(f"need 1 <= n_tx <= x_tx, got n_tx={self.n_tx}, x_tx={self.x_tx}")
        if not 1 <= self.n_rx <= self.x_rx:
            raise ValueError(f"need 1 <= n_rx <= x_rx, got n_rx={self.n_rx}, x_rx={self.x_rx}")

    @property
    def x_pairs(self):
        return self.x_tx * self.x_rx

    def codebook_rx(self):
        return codebook(self.n_rx, self.x_rx)

    def codebook_tx(self):
        return codebook(self.n_tx, self.x_tx)


def pair_index(k, i, x_rx):
    """Flatten the beam pair (k, i) to n = k + x_rx*(i - 1)."""
    if not 1 <= k <= x_rx:
        raise ValueError(f"need 1 <= k <= {x_rx}, got k={k}")
    if i < 1:
        raise ValueError(f"need i >= 1, got i={i}")
    return k + x_rx * (i - 1)


def pair_split(n, x_rx):
    """Inverse of pair_index: flat index n -> (k, i)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return (n - 1) % x_rx + 1, (n - 1) // x_rx + 1


@dataclass(frozen=True)
class TransitionModel:
    beta_rx: float
    beta_tx: float
    rows_rx: np.ndarray  # X_R x X_R, row k0 is the next-AoA distribution
    rows_tx: np.ndarray  # X_T x X_T
    # cumulative rows as float lists, derived from the rows above
    cdf_rx: list = field(init=False, repr=False, compare=False)
    cdf_tx: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cdf_rx", _cdf_rows(self.rows_rx))
        object.__setattr__(self, "cdf_tx", _cdf_rows(self.rows_tx))


def _cdf_rows(rows):
    # the CDF that Generator.choice(x, p=row) builds for every draw: a
    # sequential cumsum scaled by its last entry, searched with side='right'
    out = []
    for row in np.asarray(rows, float):
        cdf = row.cumsum()
        cdf /= cdf[-1]
        out.append(cdf.tolist())
    return out


def _markov_rows(beta, x):
    # row(k0)[k1] proportional to beta^{|k1-k0|}; the grid is bounded, so the
    # normalizer has to be per origin row. 0**0 == 1 makes beta = 0 exact stay-put.
    idx = np.arange(x)
    rows = np.power(float(beta), np.abs(idx[:, None] - idx[None, :]))
    return rows / rows.sum(axis=1, keepdims=True)


def build_transition_model(beta_rx, beta_tx, config):
    if not 0.0 <= beta_rx <= 1.0:
        raise ValueError(f"beta_rx must be in [0, 1], got {beta_rx}")
    if not 0.0 <= beta_tx <= 1.0:
        raise ValueError(f"beta_tx must be in [0, 1], got {beta_tx}")
    return TransitionModel(beta_rx=float(beta_rx), beta_tx=float(beta_tx),
                           rows_rx=_markov_rows(beta_rx, config.x_rx),
                           rows_tx=_markov_rows(beta_tx, config.x_tx))


@dataclass(frozen=True)
class ChannelState:
    aoa_index: int  # k in {1..X_R}
    aod_index: int  # i in {1..X_T}
    gain: complex
    gain_variance: float


def draw_gain(gain_variance, rng):
    """One CN(0, gain_variance) draw: independent N(0, var/2) re/im parts."""
    scale = np.sqrt(gain_variance / 2.0)
    return complex(rng.normal(0.0, scale) + 1j * rng.normal(0.0, scale))


def step_channel(state, model, rng):
    """Advance one block: Markov step on both indices, fresh CN(0, var) gain.

    Draw order is fixed (AoA, AoD, gain) so identically seeded streams give
    identical trajectories. Each index is one uniform draw searched in the
    row's CDF, the same draw and search as rng.choice(x, p=row).
    """
    k1 = bisect_right(model.cdf_rx[state.aoa_index - 1], rng.random()) + 1
    i1 = bisect_right(model.cdf_tx[state.aod_index - 1], rng.random()) + 1
    return ChannelState(aoa_index=k1, aod_index=i1,
                        gain=draw_gain(state.gain_variance, rng),
                        gain_variance=state.gain_variance)


@dataclass(frozen=True)
class CorrelationTables:
    nu_rx: np.ndarray  # nu_rx[k-1, k1-1] = a_R(angle_k)^H a_R(angle_k1)
    nu_tx: np.ndarray  # nu_tx[i-1, i1-1] = a_T(angle_i1)^H a_T(angle_i)

    @property
    def x_rx(self):
        return self.nu_rx.shape[0]

    @property
    def x_tx(self):
        return self.nu_tx.shape[0]


def pair_rows(pairs, tables):
    """Correlation of each probe pair's beams against every grid direction,
    one row per pair, flat order (receive index fastest): row m is
    kron(nu_tx[c-1], nu_rx[a-1]) for pair m = (a, c), built as one outer
    product over all pairs."""
    z = np.asarray(pairs, int) - 1
    if np.any(z < 0):
        raise ValueError(f"need flat pair indices >= 1, got {pairs}")
    a, c = z % tables.x_rx, z // tables.x_rx
    rows = tables.nu_tx[c][:, :, None] * tables.nu_rx[a][:, None, :]
    return rows.reshape(len(z), tables.x_rx * tables.x_tx)


def correlation_tables(config):
    """Beam cross-correlations for both ends; identity when n = x (DFT orthogonality)."""
    a_rx = config.codebook_rx()
    a_tx = config.codebook_tx()
    gram_rx = a_rx.conj().T @ a_rx
    gram_tx = a_tx.conj().T @ a_tx
    # the Tx factor is conjugated the other way round: entry [i, i1] holds
    # a_T(angle_i1)^H a_T(angle_i) = gram_tx[i1, i]
    return CorrelationTables(nu_rx=gram_rx, nu_tx=gram_tx.T)
