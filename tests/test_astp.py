import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamtrack.analysis import (
    astp_bounds,
    astp_closed_form,
    gamma_closed_form,
    gamma_general_numeric,
    omp_astp_lower_bound,
    omp_gamma_lower_bounds,
    _gamma_quadrature,
    _gamma_subset_sum,
    _signal_scale,
)
from beamtrack.astp import (
    Allocation,
    LinkBudget,
    PriorWeights,
    approx_astp,
    prior_from_transition,
)
from beamtrack.channel import (
    CodebookConfig,
    build_transition_model,
    correlation_tables,
    pair_index,
    pair_rows,
    pair_split,
)
from omp_mc import aggregated_readouts, omp_picks


def budget_for(r0, n_tx=4, n_rx=4, noise_var=1.0, gain_var=1.0):
    # pick the transmit power that lands exactly on the requested
    # post-beamforming SNR
    power = r0 * noise_var / (n_tx * n_rx * gain_var)
    return LinkBudget(power=power, noise_var=noise_var, gain_var=gain_var,
                      n_tx=n_tx, n_rx=n_rx)


def mc_power_success_orthogonal(position, counts, budget, n_trials, rng):
    """Simulate the accumulated per-pair readouts with unit self-correlation
    and zero cross-correlation, return the argmax hit rate for `position`."""
    lam = np.asarray(counts, float)
    n = len(lam)
    alpha = np.sqrt(budget.gain_var / 2) * (
        rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))
    scale = np.sqrt(budget.noise_var * lam / 2)
    xi = scale * (rng.standard_normal((n_trials, n)) + 1j * rng.standard_normal((n_trials, n)))
    xi[:, position - 1] += lam[position - 1] * budget.gamma * alpha
    return float(np.mean(np.argmax(np.abs(xi) ** 2, axis=1) == position - 1))


def mc_power_success_general(position, alloc, truth, tables, budget, n_trials, rng):
    rows = pair_rows(alloc.pairs, tables)
    n_true = pair_index(truth[0], truth[1], tables.x_rx)
    mu = rows[:, n_true - 1]
    lam = np.asarray(alloc.counts, float)
    alpha = np.sqrt(budget.gain_var / 2) * (
        rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))
    scale = np.sqrt(budget.noise_var * lam / 2)
    xi = scale * (rng.standard_normal((n_trials, len(lam))) + 1j * rng.standard_normal((n_trials, len(lam))))
    xi += alpha[:, None] * (lam * budget.gamma * mu)
    return float(np.mean(np.argmax(np.abs(xi) ** 2, axis=1) == position - 1))


def mc_omp_success(alloc, truth_flat, tables, budget, n_trials, rng):
    """Correlate accumulated readouts against every grid column, hit rate of
    the true flat index."""
    rows = pair_rows(alloc.pairs, tables)
    lam = np.asarray(alloc.counts, float)
    truths = np.full(n_trials, truth_flat - 1)
    agg = aggregated_readouts(rows, lam, budget, truths, rng)
    return float(np.mean(omp_picks(agg, rows) == truth_flat - 1))


# ---------------------------------------------------------------- containers

def test_allocation_rejects_malformed_inputs():
    with pytest.raises(ValueError):
        Allocation(pairs=(1, 1), counts=(2, 3), budget=5)
    with pytest.raises(ValueError):
        Allocation(pairs=(1, 2), counts=(2, 0), budget=2)
    with pytest.raises(ValueError):
        Allocation(pairs=(1, 2), counts=(2, 2), budget=5)
    with pytest.raises(ValueError):
        Allocation(pairs=(), counts=(), budget=0)
    with pytest.raises(ValueError):
        Allocation(pairs=(1, 2), counts=(2,), budget=2)
    with pytest.raises(ValueError):
        Allocation(pairs=(0, 2), counts=(1, 1), budget=2)


def test_link_budget_scalars():
    b = LinkBudget(power=2.0, noise_var=0.5, gain_var=3.0, n_tx=4, n_rx=8)
    assert b.gamma2 == pytest.approx(64.0)
    assert b.gamma == pytest.approx(8.0)
    assert b.r0 == pytest.approx(64.0 * 3.0 / 0.5)
    with pytest.raises(ValueError):
        LinkBudget(power=0.0, noise_var=0.5, gain_var=3.0, n_tx=4, n_rx=8)


def test_prior_weights_validation():
    with pytest.raises(ValueError):
        PriorWeights(weights=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        PriorWeights(weights=np.array([-0.1, 1.1]))
    pw = PriorWeights(weights=np.array([0.25, 0.75]))
    assert pw.of_pairs([2, 1]) == pytest.approx([0.75, 0.25])


def test_prior_from_transition_layout():
    config = CodebookConfig(n_tx=3, n_rx=5, x_tx=3, x_rx=5)
    model = build_transition_model(beta_rx=0.4, beta_tx=0.7, config=config)
    prior = prior_from_transition(model, k0=2, i0=3)
    assert prior.weights.sum() == pytest.approx(1.0)
    # receive index varies fastest in the flat order
    for i in range(1, 4):
        for k in range(1, 6):
            expected = model.rows_tx[2, i - 1] * model.rows_rx[1, k - 1]
            assert prior.weights[pair_index(k, i, 5) - 1] == pytest.approx(expected)


# ------------------------------------------------------- orthogonal readouts

def test_single_pair_always_succeeds():
    alloc = Allocation(pairs=(7,), counts=(9,), budget=9)
    assert gamma_closed_form(1, alloc, budget_for(50.0)) == 1.0


def test_two_equal_pairs_known_value():
    # two pairs, equal counts: the own noncentral power beats one
    # exponential interferer with probability 1 - 1/(2 + lam*r0)
    for lam, r0 in [(1, 10.0), (3, 4.0), (5, 100.0)]:
        alloc = Allocation(pairs=(1, 2), counts=(lam, lam), budget=2 * lam)
        expected = 1.0 - 1.0 / (2.0 + lam * r0)
        assert gamma_closed_form(1, alloc, budget_for(r0)) == pytest.approx(expected, rel=1e-12)


def test_subset_sum_matches_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = rng.integers(2, 7)
        counts = rng.integers(1, 9, size=n)
        budget = budget_for(float(rng.uniform(1.0, 200.0)))
        h = _signal_scale(float(counts[0]), budget)
        rates = 1.0 / (budget.noise_var * counts[1:].astype(float))
        assert _gamma_subset_sum(h, rates) == pytest.approx(_gamma_quadrature(h, rates), abs=1e-8)


def test_many_interferer_fallback_agrees_with_enumeration():
    # 22 distinct pairs forces the quadrature path; enumerate directly
    counts = [3] + [1] * 21
    alloc = Allocation(pairs=tuple(range(1, 23)), counts=tuple(counts), budget=24)
    budget = budget_for(30.0)
    via_public = gamma_closed_form(1, alloc, budget)
    h = _signal_scale(3.0, budget)
    rates = np.full(21, 1.0 / budget.noise_var)
    assert via_public == pytest.approx(_gamma_subset_sum(h, rates), abs=1e-8)


def test_power_success_matches_simulation():
    rng = np.random.default_rng(2024)
    cases = [
        ((4, 2, 1), 1, 20.0),
        ((4, 2, 1), 3, 20.0),
        ((2, 2, 2, 2), 2, 5.0),
        ((6, 1), 1, 1.0),
    ]
    for counts, position, r0 in cases:
        alloc = Allocation(pairs=tuple(range(1, len(counts) + 1)),
                           counts=counts, budget=sum(counts))
        budget = budget_for(r0)
        exact = gamma_closed_form(position, alloc, budget)
        sim = mc_power_success_orthogonal(position, counts, budget, 400_000, rng)
        assert exact == pytest.approx(sim, abs=6e-3)


def test_success_increases_with_own_count():
    budget = budget_for(25.0)
    last = 0.0
    for own in range(1, 8):
        counts = (own, 2, 2)
        alloc = Allocation(pairs=(1, 2, 3), counts=counts, budget=own + 4)
        g = gamma_closed_form(1, alloc, budget)
        assert g > last
        last = g


def test_weighted_aggregate_matches_manual_sum():
    alloc = Allocation(pairs=(2, 5, 3), counts=(3, 1, 2), budget=6)
    w = np.array([0.1, 0.3, 0.2, 0.25, 0.1, 0.05])
    prior = PriorWeights(weights=w)
    budget = budget_for(40.0)
    manual = sum(w[p - 1] * gamma_closed_form(j + 1, alloc, budget)
                 for j, p in enumerate(alloc.pairs))
    assert astp_closed_form(alloc, prior, budget) == pytest.approx(manual, rel=1e-14)


# -------------------------------------------------------------------- bounds

@given(counts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
       r0=st.floats(0.5, 300.0))
@settings(max_examples=150, deadline=None)
def test_surrogates_are_ordered(counts, r0):
    n = len(counts)
    raw = np.arange(1, n + 1, dtype=float)
    prior = PriorWeights(weights=raw / raw.sum())
    alloc = Allocation(pairs=tuple(range(1, n + 1)), counts=tuple(counts),
                       budget=sum(counts))
    lower, apx, upper = astp_bounds(alloc, prior, budget_for(r0))
    assert lower <= apx + 1e-12
    assert apx <= upper + 1e-12


def test_surrogates_collapse_for_single_pair():
    prior = PriorWeights(weights=np.array([0.7, 0.3]))
    alloc = Allocation(pairs=(2,), counts=(5,), budget=5)
    lower, apx, upper = astp_bounds(alloc, prior, budget_for(10.0))
    assert lower == apx == upper == pytest.approx(0.3)


def test_closed_form_sits_inside_bounds():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        counts = rng.integers(1, 7, size=n)
        raw = rng.uniform(0.05, 1.0, size=n)
        prior = PriorWeights(weights=raw / raw.sum())
        alloc = Allocation(pairs=tuple(range(1, n + 1)),
                           counts=tuple(int(c) for c in counts),
                           budget=int(counts.sum()))
        budget = budget_for(float(rng.uniform(0.5, 150.0)))
        lower, _, upper = astp_bounds(alloc, prior, budget)
        exact = astp_closed_form(alloc, prior, budget)
        assert lower - 1e-9 <= exact <= upper + 1e-9


def test_surrogate_helper_consistent_with_bounds():
    counts = (4, 2, 1, 1)
    raw = np.array([0.4, 0.3, 0.2, 0.1])
    prior = PriorWeights(weights=raw)
    alloc = Allocation(pairs=(1, 2, 3, 4), counts=counts, budget=8)
    budget = budget_for(60.0)
    _, apx, _ = astp_bounds(alloc, prior, budget)
    assert approx_astp(counts, raw, 8, budget.r0) == pytest.approx(apx, rel=1e-14)


# -------------------------------------------------------- overlapped readouts

def test_general_integral_reduces_to_closed_form_when_orthogonal():
    config = CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4)
    tables = correlation_tables(config)
    alloc = Allocation(pairs=(1, 6, 11), counts=(3, 2, 1), budget=6)
    budget = LinkBudget(power=2.0, noise_var=1.0, gain_var=1.0, n_tx=4, n_rx=4)
    for position in (1, 2):
        truth = pair_split(alloc.pairs[position - 1], config.x_rx)
        numeric = gamma_general_numeric(position, alloc, truth, tables, budget)
        exact = gamma_closed_form(position, alloc, budget)
        assert numeric == pytest.approx(exact, abs=1e-6)


def test_general_integral_matches_simulation_with_overlap():
    config = CodebookConfig(n_tx=2, n_rx=2, x_tx=4, x_rx=4)
    tables = correlation_tables(config)
    alloc = Allocation(pairs=(1, 6, 11), counts=(3, 2, 1), budget=6)
    budget = LinkBudget(power=8.0, noise_var=1.0, gain_var=1.0, n_tx=2, n_rx=2)
    rng = np.random.default_rng(99)
    truth = (2, 1)
    for position in (1, 2):
        numeric = gamma_general_numeric(position, alloc, truth, tables, budget)
        sim = mc_power_success_general(position, alloc, truth, tables, budget,
                                       400_000, rng)
        assert numeric == pytest.approx(sim, abs=6e-3)


def test_general_integral_validates_arguments():
    config = CodebookConfig(n_tx=2, n_rx=2, x_tx=4, x_rx=4)
    tables = correlation_tables(config)
    alloc = Allocation(pairs=(1, 2), counts=(1, 1), budget=2)
    budget = LinkBudget(power=1.0, noise_var=1.0, gain_var=1.0, n_tx=2, n_rx=2)
    with pytest.raises(ValueError):
        gamma_general_numeric(3, alloc, (1, 1), tables, budget)
    with pytest.raises(ValueError):
        gamma_general_numeric(1, alloc, (5, 1), tables, budget)


# -------------------------------------------------- correlation readout bound

def test_correlation_bound_exact_for_isolated_orthogonal_pair():
    config = CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4)
    tables = correlation_tables(config)
    alloc = Allocation(pairs=(6,), counts=(4,), budget=4)
    budget = LinkBudget(power=2.0, noise_var=1.0, gain_var=1.0, n_tx=4, n_rx=4)
    gam = omp_gamma_lower_bounds(alloc, tables, budget)
    # every unprobed direction correlates to zero with the single probe, so
    # its candidate statistic vanishes and contributes no decision error
    assert gam[5] == pytest.approx(1.0, abs=1e-12)
    assert np.all(gam[np.arange(16) != 5] <= 0.0)


def test_correlation_bound_stays_below_simulation():
    config = CodebookConfig(n_tx=3, n_rx=3, x_tx=4, x_rx=4)
    tables = correlation_tables(config)
    budget = LinkBudget(power=16.0, noise_var=1.0, gain_var=1.0, n_tx=3, n_rx=3)
    rng = np.random.default_rng(5)
    alloc = Allocation(pairs=(1, 6, 11, 16), counts=(3, 2, 2, 1), budget=8)
    for truth_flat in (1, 6, 4):
        bound = omp_gamma_lower_bounds(alloc, tables, budget)[truth_flat - 1]
        sim = mc_omp_success(alloc, truth_flat, tables, budget, 200_000, rng)
        assert bound <= sim + 4.0 * np.sqrt(sim * (1 - sim) / 200_000) + 1e-3


def test_correlation_bound_chunking_is_invisible():
    config = CodebookConfig(n_tx=3, n_rx=3, x_tx=5, x_rx=4)
    tables = correlation_tables(config)
    alloc = Allocation(pairs=(2, 9, 14), counts=(4, 3, 1), budget=8)
    budget = LinkBudget(power=4.0, noise_var=0.7, gain_var=1.3, n_tx=3, n_rx=3)
    full = omp_gamma_lower_bounds(alloc, tables, budget, chunk=512)
    small = omp_gamma_lower_bounds(alloc, tables, budget, chunk=3)
    np.testing.assert_allclose(full, small, rtol=0, atol=1e-13)


def test_correlation_aggregate_weighting_and_clamp():
    # the aggregate is the raw prior-weighted sum; nothing clamps it
    config = CodebookConfig(n_tx=3, n_rx=3, x_tx=4, x_rx=4)
    tables = correlation_tables(config)
    model = build_transition_model(beta_rx=0.3, beta_tx=0.3, config=config)
    prior = prior_from_transition(model, k0=2, i0=2)
    alloc = Allocation(pairs=(1, 6, 11), counts=(4, 3, 1), budget=8)
    budget = LinkBudget(power=16.0, noise_var=1.0, gain_var=1.0, n_tx=3, n_rx=3)
    res = omp_astp_lower_bound(alloc, prior, tables, budget)
    gam = omp_gamma_lower_bounds(alloc, tables, budget)
    assert type(res) is float
    assert res == pytest.approx(float(prior.weights @ gam), rel=1e-13)
