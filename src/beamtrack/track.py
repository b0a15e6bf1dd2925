"""Measurement synthesis, direction estimators, and the per-frame tracking loop.

A frame spans T transmission blocks. Block 1 starts with the true beam pair
known; each later block steps the channel, builds a prior from the previous
block's estimate, allocates the pilot budget, synthesizes the received
symbols, and re-estimates the direction. Hits and beamforming gains are
recorded per tracked block.
"""

from dataclasses import dataclass, field

import numpy as np

from .allocate import (
    PROFILE_KINDS,
    StrategyConfig,
    apply_strategy,
    guarded_strategy,
    rank_pairs,
)
from .astp import Allocation, LinkBudget, prior_from_transition
from .channel import (
    ChannelState,
    CodebookConfig,
    CorrelationTables,
    TransitionModel,
    build_transition_model,
    correlation_tables,
    draw_gain,
    pair_rows,
    pair_split,
    step_channel,
    truth_column,
)

ESTIMATORS = ("power", "omp")


@dataclass(frozen=True)
class MeasurementSet:
    xi: np.ndarray  # accumulated complex readout per allocated pair
    per_symbol: np.ndarray  # raw received symbols in transmission order
    pairs: tuple  # the allocation's flat pair indices, in transmission order
    counts: tuple  # symbols sent on each pair, consecutively
    x_rx: int  # receive-grid size, needed to split flat pair indices


@dataclass(frozen=True)
class Estimate:
    aoa_index: int
    aod_index: int
    top_two_powers: tuple  # two largest decision statistics, descending

    def __post_init__(self):
        if self.aoa_index < 1 or self.aod_index < 1:
            raise ValueError("estimate indices are 1-based")
        if self.top_two_powers[0] < self.top_two_powers[1]:
            raise ValueError("top_two_powers must be descending")


def synthesize_measurements(alloc, state, tables, budget, rng):
    """Received symbols for one block, pairs transmitted in allocation order
    with their repeats consecutive.

    Each symbol sees the channel through the probe beams' correlation with
    the true direction, nu_tx[c, i1] * nu_rx[a, k1] for pair (a, c): the
    truth column of pair_rows, entry for entry. Noise is circular complex
    with variance noise_var (all real parts drawn first, then all imaginary
    parts). The per-pair readout xi accumulates each pair's symbols left to
    right so reruns are bitwise reproducible.
    """
    mean = budget.gamma * state.gain * truth_column(
        alloc.pairs, state.aoa_index, state.aod_index, tables)
    m_total = alloc.budget
    draws = rng.standard_normal(2 * m_total)
    noise = np.sqrt(budget.noise_var / 2.0) * (
        draws[:m_total] + 1j * draws[m_total:])
    per_symbol = np.repeat(mean, alloc.counts) + noise
    symbols = per_symbol.tolist()
    xi = []
    start = 0
    for lam in alloc.counts:
        acc = 0j
        for y in symbols[start:start + lam]:
            acc += y
        xi.append(acc)
        start += lam
    return MeasurementSet(xi=np.array(xi), per_symbol=per_symbol,
                          pairs=alloc.pairs, counts=alloc.counts,
                          x_rx=tables.x_rx)


def _top_two(values):
    if len(values) == 1:
        return float(values[0]), 0.0
    two = np.partition(values, len(values) - 2)[-2:]
    return float(two[1]), float(two[0])


def estimate_power(meas):
    """Pick the allocated pair with the largest accumulated power; exact ties
    go to the lowest flat pair index."""
    powers = (np.abs(meas.xi) ** 2).tolist()
    top = max(powers)
    z = min(p for p, v in zip(meas.pairs, powers) if v == top)
    k, i = pair_split(z, meas.x_rx)
    second = sorted(powers)[-2] if len(powers) > 1 else 0.0
    return Estimate(aoa_index=k, aod_index=i, top_two_powers=(top, second))


def estimate_omp(meas, tables):
    """Correlate the received symbols against every grid column and take the
    argmax (ties to the lowest flat index). Every symbol of a pair shares
    that pair's row of pair_rows, so the per-pair readouts xi carry the whole
    correlation: sum_s conj(C[pair_s, n]) y_s = sum_m conj(C[m, n]) xi_m."""
    scores = np.abs(meas.xi.conj() @ pair_rows(meas.pairs, tables)) ** 2
    k, i = pair_split(int(np.argmax(scores)) + 1, meas.x_rx)
    return Estimate(aoa_index=k, aod_index=i, top_two_powers=_top_two(scores))


@dataclass
class Scenario:
    codebook: CodebookConfig
    tables: CorrelationTables
    model: TransitionModel
    budget: LinkBudget
    m_b: int
    t_blocks: int
    strategy: StrategyConfig
    estimator: str
    alloc_cache: dict = field(default_factory=dict)  # (k, i, kind) -> Allocation
    # (kind, top-M_B ranked weights as bytes) -> (ranked positions, counts)
    profile_cache: dict = field(default_factory=dict)
    # |nu_rx|^2 and |nu_tx|^2 as nested float lists, read by the frame loop
    gain_rx: list = field(init=False, repr=False)
    gain_tx: list = field(init=False, repr=False)

    def __post_init__(self):
        self.gain_rx = _squared_magnitudes(self.tables.nu_rx)
        self.gain_tx = _squared_magnitudes(self.tables.nu_tx)


def _squared_magnitudes(nu):
    # entry by entry, as abs(scalar) ** 2: numpy's vectorized complex abs can
    # differ from the scalar one in the last bit
    return [[float(abs(v) ** 2) for v in row] for row in nu]


def prepare_scenario(codebook, beta_rx, beta_tx, budget, m_b, t_blocks,
                     strategy, estimator):
    if t_blocks < 2:
        raise ValueError(f"t_blocks must be >= 2, got {t_blocks}")
    if m_b < 1:
        raise ValueError(f"m_b must be >= 1, got {m_b}")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")
    # uniform probing sends one symbol on each of M_B distinct pairs; when it
    # is reachable (the strategy itself, or the guard's fallback), reject an
    # oversized budget here rather than at the first ambiguous readout
    if m_b > codebook.x_pairs and (strategy.kind == "uniform" or strategy.omega > 0):
        raise ValueError(f"budget {m_b} exceeds the {codebook.x_pairs} distinct "
                         f"pairs that uniform probing needs")
    return Scenario(codebook=codebook,
                    tables=correlation_tables(codebook),
                    model=build_transition_model(beta_rx, beta_tx, codebook),
                    budget=budget, m_b=m_b, t_blocks=t_blocks,
                    strategy=strategy, estimator=estimator)


@dataclass(frozen=True)
class FrameOutcome:
    hits: np.ndarray  # per tracked block, length t_blocks - 1
    gains: np.ndarray  # beamforming gain of the adopted pair per tracked block


def _allocation_for(scenario, k_est, i_est, strat):
    """Allocation for the prior after the estimate (k_est, i_est), memoized per
    estimate. Behind that, the strategies in PROFILE_KINDS share one solve
    among all priors whose top M_B ranked weights are bitwise equal: the
    solve is kept as positions in the ranked order plus counts."""
    key = (k_est, i_est, strat.kind)
    alloc = scenario.alloc_cache.get(key)
    if alloc is not None:
        return alloc
    prior = prior_from_transition(scenario.model, k_est, i_est)
    ranked = rank_pairs(prior)
    m_b = scenario.m_b
    shared = strat.kind in PROFILE_KINDS
    profile = (strat.kind, ranked.weights[:m_b].tobytes())
    if shared and profile in scenario.profile_cache:
        pos, counts = scenario.profile_cache[profile]
        alloc = Allocation(pairs=ranked.order[pos], counts=counts, budget=m_b)
    else:
        alloc = apply_strategy(strat, ranked, m_b, scenario.budget,
                               prior=prior, tables=scenario.tables)
        if shared:
            top = ranked.order[:m_b].tolist()
            scenario.profile_cache[profile] = (
                [top.index(p) for p in alloc.pairs], alloc.counts)
    scenario.alloc_cache[key] = alloc
    return alloc


def run_frame(scenario, seed_seq):
    """One tracked frame; the seed sequence is split into independent channel
    and noise streams so paired comparisons can share channel realizations."""
    ch_seed, noise_seed = seed_seq.spawn(2)
    rng_ch = np.random.default_rng(ch_seed)
    rng_noise = np.random.default_rng(noise_seed)
    cb = scenario.codebook
    state = ChannelState(aoa_index=int(rng_ch.integers(1, cb.x_rx + 1)),
                         aod_index=int(rng_ch.integers(1, cb.x_tx + 1)),
                         gain=draw_gain(scenario.budget.gain_var, rng_ch),
                         gain_variance=scenario.budget.gain_var)
    k_est, i_est = state.aoa_index, state.aod_index  # first block knows the truth
    prev_stats = None
    model, tables, budget = scenario.model, scenario.tables, scenario.budget
    strategy, omega = scenario.strategy, scenario.strategy.omega
    by_power = scenario.estimator == "power"
    gain_rx, gain_tx = scenario.gain_rx, scenario.gain_tx
    hits, gains = [], []
    for _ in range(scenario.t_blocks - 1):
        state = step_channel(state, model, rng_ch)
        strat = guarded_strategy(prev_stats, omega, strategy, budget.noise_var)
        alloc = _allocation_for(scenario, k_est, i_est, strat)
        meas = synthesize_measurements(alloc, state, tables, budget, rng_noise)
        est = estimate_power(meas) if by_power else estimate_omp(meas, tables)
        k_est, i_est = est.aoa_index, est.aod_index
        k, i = state.aoa_index, state.aod_index
        hits.append(k_est == k and i_est == i)
        gains.append(gain_rx[k_est - 1][k - 1] * gain_tx[i_est - 1][i - 1])
        prev_stats = est.top_two_powers
    return FrameOutcome(hits=np.array(hits, bool), gains=np.array(gains, float))

