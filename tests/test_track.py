import numpy as np
import pytest

import beamtrack.track as track_module
from beamtrack.allocate import StrategyConfig, allocate_uniform, apply_strategy, rank_pairs
from beamtrack.analysis import gamma_closed_form
from beamtrack.astp import Allocation, LinkBudget, PriorWeights, prior_from_transition
from beamtrack.channel import (
    ChannelState,
    CodebookConfig,
    TransitionModel,
    build_transition_model,
    correlation_tables,
    draw_gain,
    pair_index,
    pair_split,
)
from beamtrack.track import (
    Estimate,
    MeasurementSet,
    _allocation_for,
    estimate_omp,
    estimate_power,
    pair_rows,
    prepare_scenario,
    run_frame,
    synthesize_measurements,
)
from omp_mc import aggregated_readouts, mc_omp_astp, omp_picks


def orthogonal_setup(n_pairs, counts, power=2.0, noise_var=1.0):
    # one-column transmit grid keeps the flat pair index equal to the AoA index
    config = CodebookConfig(n_tx=1, n_rx=n_pairs, x_tx=1, x_rx=n_pairs)
    tables = correlation_tables(config)
    budget = LinkBudget(power=power, noise_var=noise_var, gain_var=1.0,
                        n_tx=1, n_rx=n_pairs)
    alloc = Allocation(pairs=tuple(range(1, n_pairs + 1)), counts=counts,
                       budget=sum(counts))
    return config, tables, budget, alloc


def overlapped_setup(power=8.0, noise_var=1.0):
    config = CodebookConfig(n_tx=3, n_rx=3, x_tx=4, x_rx=4)
    tables = correlation_tables(config)
    budget = LinkBudget(power=power, noise_var=noise_var, gain_var=1.0,
                        n_tx=3, n_rx=3)
    return config, tables, budget


# ------------------------------------------------------------------ synthesis

def test_noise_free_readout_is_count_scaled_gain():
    config, tables, budget, alloc = orthogonal_setup(4, (3, 2, 1, 1), noise_var=1e-30)
    rng = np.random.default_rng(1)
    state = ChannelState(aoa_index=2, aod_index=1, gain=0.7 - 0.4j, gain_variance=1.0)
    meas = synthesize_measurements(alloc, state, tables, budget, rng)
    lam = alloc.counts[1]
    expected = budget.gamma * state.gain * lam
    assert meas.xi[1] == pytest.approx(expected, rel=1e-12)
    for m in (0, 2, 3):
        assert abs(meas.xi[m]) < 1e-12
    assert len(meas.per_symbol) == alloc.budget
    sensing_rows = np.repeat(pair_rows(meas.pairs, tables), meas.counts, axis=0)
    assert sensing_rows.shape == (alloc.budget, 4)


def test_readout_accumulates_symbols_left_to_right():
    config, tables, budget, alloc = orthogonal_setup(3, (4, 2, 2))
    rng = np.random.default_rng(7)
    state = ChannelState(aoa_index=1, aod_index=1, gain=1.0 + 0j, gain_variance=1.0)
    meas = synthesize_measurements(alloc, state, tables, budget, rng)
    start = 0
    for m, lam in enumerate(alloc.counts):
        acc = 0j
        for j in range(start, start + lam):
            acc += meas.per_symbol[j]
        assert meas.xi[m] == acc  # bitwise, not approximately
        start += lam


def test_overlapped_readout_mean_matches_model():
    config, tables, budget = overlapped_setup()
    alloc = Allocation(pairs=(1, 6, 11), counts=(3, 2, 1), budget=6)
    state = ChannelState(aoa_index=2, aod_index=1, gain=0.9 + 0.3j, gain_variance=1.0)
    rng = np.random.default_rng(11)
    n_draws = 10_000
    acc = np.zeros(3, complex)
    for _ in range(n_draws):
        acc += synthesize_measurements(alloc, state, tables, budget, rng).xi
    mean = acc / n_draws
    rows = pair_rows(alloc.pairs, tables)
    truth = pair_index(2, 1, 4)
    expected = budget.gamma * state.gain * rows[:, truth - 1] * np.asarray(alloc.counts)
    tol = 3.0 * np.sqrt(np.asarray(alloc.counts) * budget.noise_var / n_draws)
    assert np.all(np.abs(mean - expected) < tol + 1e-12)


def synthesize_by_rows(alloc, state, tables, budget, rng):
    # synthesis as it was before the truth column: full pair rows, a repeated
    # sensing matrix, two noise draws and a double loop for xi
    rows = pair_rows(alloc.pairs, tables)
    truth = pair_index(state.aoa_index, state.aod_index, tables.x_rx)
    mean = budget.gamma * state.gain * rows[:, truth - 1]
    reps = np.asarray(alloc.counts)
    m_total = alloc.budget
    noise = np.sqrt(budget.noise_var / 2.0) * (
        rng.standard_normal(m_total) + 1j * rng.standard_normal(m_total))
    per_symbol = np.repeat(mean, reps) + noise
    xi = np.empty(alloc.n_pairs, complex)
    start = 0
    for m, lam in enumerate(alloc.counts):
        acc = 0j
        for j in range(start, start + lam):
            acc += per_symbol[j]
        xi[m] = acc
        start += lam
    return xi, per_symbol, np.repeat(rows, reps, axis=0)


BIT_EXACT_GRIDS = [
    CodebookConfig(n_tx=8, n_rx=8, x_tx=8, x_rx=8),
    CodebookConfig(n_tx=5, n_rx=3, x_tx=8, x_rx=6),
]


@pytest.mark.parametrize("config", BIT_EXACT_GRIDS)
def test_truth_column_synthesis_is_bit_exact(config):
    # one segment of 12 repeats: a pairwise sum would part from the strict
    # left-to-right one from 8 repeats on
    tables = correlation_tables(config)
    budget = LinkBudget(power=0.7, noise_var=1.3, gain_var=1.0,
                        n_tx=config.n_tx, n_rx=config.n_rx)
    alloc = Allocation(pairs=(9, 2, 40, 17, 48, 33), counts=(12, 3, 1, 9, 2, 5),
                       budget=32)
    rng_new = np.random.default_rng(31)
    rng_old = np.random.default_rng(31)
    for truth in range(1, config.x_pairs + 1):
        k, i = pair_split(truth, config.x_rx)
        state = ChannelState(aoa_index=k, aod_index=i,
                             gain=draw_gain(1.0, rng_new), gain_variance=1.0)
        assert state.gain == draw_gain(1.0, rng_old)
        meas = synthesize_measurements(alloc, state, tables, budget, rng_new)
        xi, per_symbol, _ = synthesize_by_rows(alloc, state, tables, budget, rng_old)
        assert np.array_equal(meas.xi, xi)
        assert np.array_equal(meas.per_symbol, per_symbol)
        assert (meas.pairs, meas.counts) == (alloc.pairs, alloc.counts)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("config", BIT_EXACT_GRIDS)
def test_omp_rows_from_pairs_give_the_sensing_matrix_scores(config):
    tables = correlation_tables(config)
    budget = LinkBudget(power=0.2, noise_var=1.0, gain_var=1.0,
                        n_tx=config.n_tx, n_rx=config.n_rx)
    alloc = Allocation(pairs=(9, 2, 40, 17, 48, 33), counts=(12, 3, 1, 9, 2, 5),
                       budget=32)
    rng = np.random.default_rng(47)
    for truth in range(1, config.x_pairs + 1):
        k, i = pair_split(truth, config.x_rx)
        state = ChannelState(aoa_index=k, aod_index=i,
                             gain=draw_gain(1.0, rng), gain_variance=1.0)
        meas = synthesize_measurements(alloc, state, tables, budget, rng)
        _, _, sensing_rows = synthesize_by_rows(alloc, state, tables, budget,
                                                np.random.default_rng(0))
        scores = np.abs(sensing_rows.conj().T @ meas.per_symbol) ** 2
        best = int(np.argmax(scores))
        two = np.partition(scores, len(scores) - 2)[-2:]
        est = estimate_omp(meas, tables)
        # the readout sums group the symbols differently: same pick, scores
        # equal to rounding
        assert pair_index(est.aoa_index, est.aod_index, config.x_rx) == best + 1
        assert est.top_two_powers == pytest.approx(
            (float(two[1]), float(two[0])), rel=1e-12, abs=0.0)


# ----------------------------------------------------------------- estimators

def test_power_estimator_finds_truth_without_noise():
    config, tables, budget, alloc = orthogonal_setup(5, (2, 2, 2, 1, 1), noise_var=1e-30)
    rng = np.random.default_rng(3)
    state = ChannelState(aoa_index=4, aod_index=1, gain=1.2 + 0j, gain_variance=1.0)
    meas = synthesize_measurements(alloc, state, tables, budget, rng)
    est = estimate_power(meas)
    assert (est.aoa_index, est.aod_index) == (4, 1)
    assert est.top_two_powers[0] >= est.top_two_powers[1]


def test_power_estimator_stays_inside_allocation():
    config, tables, budget, _ = orthogonal_setup(6, (1,) * 6, noise_var=1e-30)
    alloc = Allocation(pairs=(1, 2, 3), counts=(2, 2, 2), budget=6)
    state = ChannelState(aoa_index=5, aod_index=1, gain=1.0 + 0j, gain_variance=1.0)
    meas = synthesize_measurements(alloc, state, tables, budget, np.random.default_rng(9))
    est = estimate_power(meas)
    assert pair_index(est.aoa_index, est.aod_index, 6) in alloc.pairs


def test_power_estimator_breaks_ties_toward_lowest_pair():
    alloc = Allocation(pairs=(7, 2), counts=(1, 1), budget=2)
    meas = MeasurementSet(xi=np.array([2.0 + 0j, 2.0 + 0j]),
                          per_symbol=np.zeros(2, complex),
                          pairs=alloc.pairs, counts=alloc.counts, x_rx=4)
    est = estimate_power(meas)
    assert pair_index(est.aoa_index, est.aod_index, 4) == 2


def test_power_success_rate_matches_closed_form():
    rng = np.random.default_rng(1234)
    cases = [((4, 2, 1), 1, 30.0), ((3, 2, 2, 1), 2, 100.0), ((5, 1), 1, 12.0)]
    n_trials = 20_000
    for counts, position, r0 in cases:
        n = len(counts)
        config, tables, budget, alloc = orthogonal_setup(
            n, counts, power=r0 / n, noise_var=1.0)
        assert budget.r0 == pytest.approx(r0)
        hits = 0
        for _ in range(n_trials):
            state = ChannelState(aoa_index=position, aod_index=1,
                                 gain=draw_gain(1.0, rng), gain_variance=1.0)
            meas = synthesize_measurements(alloc, state, tables, budget, rng)
            est = estimate_power(meas)
            hits += (est.aoa_index, est.aod_index) == (position, 1)
        rate = hits / n_trials
        exact = gamma_closed_form(position, alloc, budget)
        assert abs(rate - exact) < 3.0 * np.sqrt(exact * (1 - exact) / n_trials) + 0.002


def test_omp_matches_power_on_orthogonal_grids():
    config, tables, budget, alloc = orthogonal_setup(6, (2, 2, 1, 1, 1, 1), power=1.0)
    rng = np.random.default_rng(21)
    for _ in range(300):
        truth = int(rng.integers(1, 7))
        state = ChannelState(aoa_index=truth, aod_index=1,
                             gain=draw_gain(1.0, rng), gain_variance=1.0)
        meas = synthesize_measurements(alloc, state, tables, budget, rng)
        via_power = estimate_power(meas)
        via_omp = estimate_omp(meas, tables)
        assert (via_power.aoa_index, via_power.aod_index) == \
               (via_omp.aoa_index, via_omp.aod_index)


def test_omp_scores_vanish_off_allocation_when_orthogonal():
    config, tables, budget, _ = orthogonal_setup(5, (1,) * 5)
    alloc = Allocation(pairs=(2, 4), counts=(3, 3), budget=6)
    state = ChannelState(aoa_index=2, aod_index=1, gain=1.0 + 0j, gain_variance=1.0)
    meas = synthesize_measurements(alloc, state, tables, budget, np.random.default_rng(2))
    sensing_rows = np.repeat(pair_rows(meas.pairs, tables), meas.counts, axis=0)
    scores = np.abs(sensing_rows.conj().T @ meas.per_symbol) ** 2
    # the codebook gram carries ~1e-16 rounding dust, so "zero" means
    # twenty-plus orders of magnitude below the in-allocation scores
    assert np.all(scores[[0, 2, 4]] < 1e-24 * scores.max())


def test_omp_noise_free_decisions_match_correlation_argmax():
    # every grid direction as the truth, no noise: the estimator must return
    # whichever column correlates best with the truth column
    config, tables, budget = overlapped_setup(noise_var=1e-30)
    alloc = Allocation(pairs=(1, 4, 6, 13), counts=(3, 2, 2, 1), budget=8)
    rows = pair_rows(alloc.pairs, tables)
    lam = np.asarray(alloc.counts, float)
    for truth_flat in range(1, 17):
        k, i = pair_split(truth_flat, 4)
        state = ChannelState(aoa_index=k, aod_index=i, gain=1.0 + 0j, gain_variance=1.0)
        meas = synthesize_measurements(alloc, state, tables, budget,
                                       np.random.default_rng(truth_flat))
        est = estimate_omp(meas, tables)
        got = pair_index(est.aoa_index, est.aod_index, 4)
        scores = np.abs((lam * rows[:, truth_flat - 1]) @ rows.conj()) ** 2
        # some truths sit symmetrically between two grid columns, leaving an
        # exact tie; require the decision to attain the max, not a fixed index
        assert scores[got - 1] >= scores.max() * (1.0 - 1e-9)


def test_omp_estimator_agrees_with_batched_simulation():
    config, tables, budget = overlapped_setup(power=4.0)
    alloc = Allocation(pairs=(1, 6, 11, 16), counts=(2, 2, 1, 1), budget=6)
    rows = pair_rows(alloc.pairs, tables)
    rng = np.random.default_rng(77)
    for _ in range(100):
        k, i = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        state = ChannelState(aoa_index=k, aod_index=i,
                             gain=draw_gain(1.0, rng), gain_variance=1.0)
        meas = synthesize_measurements(alloc, state, tables, budget, rng)
        est = estimate_omp(meas, tables)
        # deciding from the aggregated readouts is the batched helper's shortcut
        batched_pick = int(np.argmax(np.abs(meas.xi @ rows.conj()) ** 2)) + 1
        assert pair_index(est.aoa_index, est.aod_index, 4) == batched_pick


def test_omp_beats_power_at_low_snr_with_narrow_arrays():
    # wide grid, narrower arrays, deep-noise regime: correlating against the
    # full grid recovers directions the raw per-pair powers miss
    config = CodebookConfig(n_tx=48, n_rx=48, x_tx=64, x_rx=64)
    tables = correlation_tables(config)
    budget = LinkBudget(power=10 ** -1.6, noise_var=1.0, gain_var=1.0,
                        n_tx=48, n_rx=48)
    model = build_transition_model(beta_rx=0.1, beta_tx=0.1, config=config)
    prior = prior_from_transition(model, k0=32, i0=32)
    ranked = rank_pairs(prior)
    alloc = allocate_uniform(ranked, 40)
    rows = pair_rows(alloc.pairs, tables)
    lam = np.asarray(alloc.counts, float)
    pair_cols = np.asarray(alloc.pairs) - 1
    rng = np.random.default_rng(5150)
    n_trials, chunk = 10_000, 1000
    truths = rng.choice(64 * 64, size=n_trials, p=prior.weights)
    omp_hits = power_hits = 0
    for lo in range(0, n_trials, chunk):
        t = truths[lo:lo + chunk]
        agg = aggregated_readouts(rows, lam, budget, t, rng)
        power_pick = pair_cols[np.argmax(np.abs(agg) ** 2, axis=1)]
        omp_hits += int(np.sum(omp_picks(agg, rows) == t))
        power_hits += int(np.sum(power_pick == t))
    assert omp_hits > power_hits


def test_mc_omp_astp_reasonable_range():
    config, tables, budget = overlapped_setup(power=16.0)
    prior = PriorWeights(weights=np.full(16, 1 / 16))
    alloc = Allocation(pairs=tuple(range(1, 9)), counts=(2,) * 8, budget=16)
    rate = mc_omp_astp(alloc, prior, tables, budget, 20_000, np.random.default_rng(4))
    assert 0.0 < rate < 1.0


# -------------------------------------------------------------- frame loop

def desk_scenario(strategy_kind="kkt", estimator="power", power=2.0,
                  noise_var=1.0, beta=0.3, m_b=6, t_blocks=10, omega=5.0,
                  n_side=4):
    config = CodebookConfig(n_tx=n_side, n_rx=n_side, x_tx=4, x_rx=4)
    budget = LinkBudget(power=power, noise_var=noise_var, gain_var=1.0,
                        n_tx=n_side, n_rx=n_side)
    strategy = StrategyConfig(kind=strategy_kind, omega=omega)
    return prepare_scenario(config, beta, beta, budget, m_b, t_blocks,
                            strategy, estimator)


def test_frame_records_one_outcome_per_tracked_block():
    scenario = desk_scenario(t_blocks=10)
    out = run_frame(scenario, np.random.SeedSequence(0, spawn_key=(0, 0)))
    assert len(out.hits) == 9
    assert len(out.gains) == 9


def test_frame_is_deterministic_for_a_given_seed():
    a = run_frame(desk_scenario(), np.random.SeedSequence(42, spawn_key=(3, 11)))
    b = run_frame(desk_scenario(), np.random.SeedSequence(42, spawn_key=(3, 11)))
    assert np.array_equal(a.hits, b.hits)
    assert np.array_equal(a.gains, b.gains)
    c = run_frame(desk_scenario(), np.random.SeedSequence(42, spawn_key=(3, 12)))
    assert not (np.array_equal(a.hits, c.hits) and np.array_equal(a.gains, c.gains))


def test_gain_tables_hold_the_per_entry_squared_magnitudes():
    # the frame loop reads these instead of abs(nu[e, s]) ** 2 per block;
    # numpy's vectorized abs would differ in the last bit on overlapped grids
    config = CodebookConfig(n_tx=5, n_rx=3, x_tx=8, x_rx=6)
    budget = LinkBudget(power=1.0, noise_var=1.0, gain_var=1.0, n_tx=5, n_rx=3)
    scenario = prepare_scenario(config, 0.3, 0.3, budget, 6, 10,
                                StrategyConfig(kind="kkt"), "omp")
    for table, nu in ((scenario.gain_rx, scenario.tables.nu_rx),
                      (scenario.gain_tx, scenario.tables.nu_tx)):
        assert table == [[abs(nu[e, s]) ** 2 for s in range(nu.shape[1])]
                         for e in range(nu.shape[0])]


def test_frozen_channel_is_tracked_perfectly_without_noise():
    for kind in ("uniform", "proportional", "kkt", "branch_and_bound"):
        scenario = desk_scenario(strategy_kind=kind, beta=0.0, noise_var=1e-30,
                                 t_blocks=6)
        out = run_frame(scenario, np.random.SeedSequence(7, spawn_key=(0, 5)))
        assert np.all(out.hits)
        np.testing.assert_allclose(out.gains, 1.0, atol=1e-12)


def test_memoryless_channel_hit_rate_is_coverage_limited():
    # beta = 1: the prior is flat, so a budget of m_b over X pairs can track
    # at most m_b/X of the blocks even with effectively no noise
    scenario = desk_scenario(strategy_kind="uniform", beta=1.0, power=1e6,
                             m_b=4, t_blocks=8)
    hits = []
    for f in range(1500):
        out = run_frame(scenario, np.random.SeedSequence(9, spawn_key=(0, f)))
        hits.append(out.hits)
    rate = float(np.mean(hits))
    assert rate == pytest.approx(4 / 16, abs=0.02)


def test_ambiguity_guard_switches_to_uniform_probing():
    scenario = desk_scenario(strategy_kind="kkt", omega=1e12, t_blocks=8)
    run_frame(scenario, np.random.SeedSequence(1, spawn_key=(0, 0)))
    kinds = {key[2] for key in scenario.alloc_cache}
    assert kinds == {"kkt", "uniform"}


def count_solves(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].kind)
        return apply_strategy(*args, **kwargs)

    monkeypatch.setattr(track_module, "apply_strategy", counted)
    return calls


@pytest.mark.parametrize("kind, side, m_b, max_solves", [
    ("kkt", 16, 24, 36),
    ("branch_and_bound", 16, 24, 36),
    ("proportional", 16, 24, 36),
    ("uniform", 16, 24, 36),
])
def test_profile_cache_matches_a_solve_on_each_prior(monkeypatch, kind, side, m_b,
                                                      max_solves):
    # start states whose priors share their top M_B ranked weights share one
    # solve; every estimate must still get what its own prior would give
    config = CodebookConfig(n_tx=side, n_rx=side, x_tx=side, x_rx=side)
    budget = LinkBudget(power=0.1, noise_var=1.0, gain_var=1.0, n_tx=side, n_rx=side)
    strategy = StrategyConfig(kind=kind)
    scenario = prepare_scenario(config, 0.1, 0.1, budget, m_b, 10, strategy, "power")
    states = [(k, i) for i in range(1, side + 1) for k in range(1, side + 1)]
    calls = count_solves(monkeypatch)
    for k, i in states:
        _allocation_for(scenario, k, i, strategy)
    solves = len(calls)
    assert solves <= max_solves
    assert solves == len(scenario.profile_cache)
    for k, i in states:
        prior = prior_from_transition(scenario.model, k, i)
        expected = apply_strategy(strategy, rank_pairs(prior), m_b, budget)
        assert _allocation_for(scenario, k, i, strategy) == expected
    assert len(calls) == solves  # the per-estimate cache answers the repeats


def test_profile_covers_the_whole_budget(monkeypatch):
    # two estimates whose priors agree on their heaviest pairs but not on the
    # rest of the top M_B must be solved apart
    rows_rx = np.array([[0.3, 0.3, 0.3, 0.05, 0.05, 0.0],
                        [0.3, 0.3, 0.1, 0.1, 0.1, 0.1],
                        [0.0, 0.05, 0.05, 0.3, 0.3, 0.3]] + [[1 / 6] * 6] * 3)
    model = TransitionModel(beta_rx=0.5, beta_tx=0.5, rows_rx=rows_rx,
                            rows_tx=np.ones((1, 1)))
    scenario = desk_scenario(strategy_kind="proportional")
    scenario.model = model
    strategy = scenario.strategy
    calls = count_solves(monkeypatch)
    allocs = [_allocation_for(scenario, k, 1, strategy) for k in (1, 2, 3)]
    assert calls == ["proportional"] * 2  # estimate 3 has estimate 1's profile
    assert allocs[0] == Allocation(pairs=(1, 2, 3), counts=(2, 2, 2), budget=6)
    assert allocs[1].counts == (2, 2, 1, 1)
    assert allocs[2] == Allocation(pairs=(4, 5, 6), counts=(2, 2, 2), budget=6)


def test_tracking_errors_compound_over_blocks():
    # with the ambiguity guard off, a wrong estimate poisons the next prior,
    # so later blocks should miss at least as often as early ones
    scenario = desk_scenario(strategy_kind="kkt", power=0.5, beta=0.2,
                             m_b=6, t_blocks=10, omega=0.0)
    misses = np.zeros(9)
    n_frames = 10_000
    for f in range(n_frames):
        out = run_frame(scenario, np.random.SeedSequence(77, spawn_key=(0, f)))
        misses += ~out.hits
    per_block = misses / n_frames
    assert np.mean(per_block[4:8]) >= np.mean(per_block[0:4])


def test_prepare_scenario_validates_inputs():
    config = CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4)
    budget = LinkBudget(power=1.0, noise_var=1.0, gain_var=1.0, n_tx=4, n_rx=4)
    strategy = StrategyConfig(kind="uniform")
    with pytest.raises(ValueError):
        prepare_scenario(config, 0.3, 0.3, budget, 6, 1, strategy, "power")
    with pytest.raises(ValueError):
        prepare_scenario(config, 0.3, 0.3, budget, 0, 10, strategy, "power")
    with pytest.raises(ValueError):
        prepare_scenario(config, 0.3, 0.3, budget, 6, 10, strategy, "mle")


def test_estimate_container_validation():
    with pytest.raises(ValueError):
        Estimate(aoa_index=0, aod_index=1, top_two_powers=(1.0, 0.5))
    with pytest.raises(ValueError):
        Estimate(aoa_index=1, aod_index=1, top_two_powers=(0.5, 1.0))
