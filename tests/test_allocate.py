import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations_with_replacement

import beamtrack.allocate as allocate_module
from beamtrack.allocate import (
    RankedPairs,
    StrategyConfig,
    _kkt_real_counts,
    _stationary_roots,
    allocate_bb,
    allocate_exhaustive,
    allocate_kkt,
    allocate_proportional,
    allocate_uniform,
    apply_strategy,
    guarded_strategy,
    rank_pairs,
    round_repair,
)
from beamtrack.astp import (
    LinkBudget,
    PriorWeights,
    approx_astp,
    astp_closed_form,
    prior_from_transition,
)
from beamtrack.channel import CodebookConfig, build_transition_model, pair_index
from beamtrack.specfun import harmonic


def budget_for(r0, noise_var=1.0):
    return LinkBudget(power=r0 * noise_var / 16.0, noise_var=noise_var,
                      gain_var=1.0, n_tx=4, n_rx=4)


def random_prior(rng, x):
    raw = rng.uniform(0.01, 1.0, size=x)
    return PriorWeights(weights=raw / raw.sum())


def greedy_fill(w, m_b, r0):
    """Unit-increment greedy on the surrogate: exact for a separable concave
    objective, so it serves as an independent optimum oracle."""
    n = len(w)
    counts = np.ones(n, int)
    if n == 1:
        return np.array([m_b])
    c = harmonic(n - 1) / (n - 1)

    def psi(lam):
        return 1.0 - c * (m_b - lam) / (lam * lam * r0 + lam)

    for _ in range(m_b - n):
        gains = [w[j] * (psi(counts[j] + 1) - psi(counts[j])) for j in range(n)]
        counts[int(np.argmax(gains))] += 1
    return counts


def greedy_best(w_all, m_b, r0, n_max):
    best = None
    for n in range(1, n_max + 1):
        counts = greedy_fill(np.asarray(w_all[:n], float), m_b, r0)
        val = approx_astp(counts, w_all[:n], m_b, r0)
        if best is None or val > best[0]:
            best = (val, np.sort(counts)[::-1])
    return best


def support_optimum(w, m_b, n, r0):
    # exact surrogate maximum over count vectors >= 1 on exactly the top n pairs
    best = -np.inf
    for combo in combinations_with_replacement(range(n), m_b - n):
        counts = np.ones(n, int)
        np.add.at(counts, list(combo), 1)
        best = max(best, approx_astp(counts, w[:n], m_b, r0))
    return best


# -------------------------------------------------------------------- ranking

def test_rank_pairs_uniform_prior_keeps_index_order():
    prior = PriorWeights(weights=np.full(6, 1 / 6))
    ranked = rank_pairs(prior)
    assert ranked.order.tolist() == [1, 2, 3, 4, 5, 6]
    assert np.all(ranked.weights == 1 / 6)


def test_rank_pairs_descending_with_index_ties():
    prior = PriorWeights(weights=np.array([0.2, 0.4, 0.2, 0.2]))
    ranked = rank_pairs(prior)
    assert ranked.order.tolist() == [2, 1, 3, 4]
    assert np.all(np.diff(ranked.weights) <= 0)


def test_rank_pairs_sticky_transitions_put_stay_pair_first():
    config = CodebookConfig(n_tx=64, n_rx=64, x_tx=64, x_rx=64)
    model = build_transition_model(beta_rx=0.1, beta_tx=0.1, config=config)
    ranked = rank_pairs(prior_from_transition(model, k0=32, i0=32))
    assert ranked.order[0] == pair_index(32, 32, 64)


def test_ranked_pairs_rejects_increasing_weights():
    with pytest.raises(ValueError):
        RankedPairs(order=np.array([1, 2]), weights=np.array([0.4, 0.6]))


# ------------------------------------------------------------------ baselines

def test_uniform_gives_top_pairs_single_count():
    ranked = rank_pairs(random_prior(np.random.default_rng(0), 9))
    alloc = allocate_uniform(ranked, 3)
    assert alloc.pairs == tuple(ranked.order[:3])
    assert alloc.counts == (1, 1, 1)
    with pytest.raises(ValueError):
        allocate_uniform(ranked, 10)


def test_proportional_matches_largest_remainder():
    ranked = RankedPairs(order=np.array([4, 2, 7]), weights=np.array([0.7, 0.2, 0.1]))
    alloc = allocate_proportional(ranked, 10, cap=3)
    assert alloc.pairs == (4, 2, 7)
    assert alloc.counts == (7, 2, 1)


def test_proportional_drops_zero_quota_pairs():
    ranked = RankedPairs(order=np.arange(1, 5), weights=np.array([0.9, 0.05, 0.04, 0.01]))
    alloc = allocate_proportional(ranked, 3, cap=4)
    assert all(c >= 1 for c in alloc.counts)
    assert sum(alloc.counts) == 3
    assert len(alloc.pairs) <= 3


def test_proportional_equal_mass_splits_evenly():
    ranked = RankedPairs(order=np.array([1, 2]), weights=np.array([0.5, 0.5]))
    assert allocate_proportional(ranked, 4, cap=2).counts == (2, 2)


# --------------------------------------------------------------- round repair

def test_round_repair_spec_traces():
    assert round_repair([3.0, 2.0, 1.0], 6).tolist() == [3, 2, 1]
    assert round_repair([2.6, 2.4, 1.0], 6).tolist() == [3, 2, 1]
    # halves round up to [3,3,1]; the surplus comes out of the later tied entry
    assert round_repair([2.5, 2.5, 1.0], 6).tolist() == [3, 2, 1]
    # shortfall goes to the later of the two most-rounded-down entries
    assert round_repair([1.4, 1.4, 3.2], 6).tolist() == [1, 2, 3]


def test_round_repair_rejects_bad_inputs():
    with pytest.raises(ValueError):
        round_repair([2.0, 2.0], 5)
    with pytest.raises(ValueError):
        round_repair([0.4, 4.6], 5)


@st.composite
def fractional_counts(draw):
    n = draw(st.integers(1, 10))
    m_b = draw(st.integers(n, n + 30))
    raw = np.asarray(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return 1.0 + (m_b - n) * raw / raw.sum(), m_b


@given(fractional_counts())
@settings(max_examples=200, deadline=None)
def test_round_repair_properties(case):
    real, m_b = case
    counts = round_repair(real, m_b)
    assert counts.sum() == m_b
    assert np.all(counts >= 1)
    assert np.all(np.abs(counts - real) <= 1.0 + 1e-9)


def test_round_repair_bulk_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        m_b = int(rng.integers(n, n + 40))
        raw = rng.uniform(1e-3, 1.0, size=n)
        real = 1.0 + (m_b - n) * raw / raw.sum()
        counts = round_repair(real, m_b)
        assert counts.sum() == m_b and np.all(counts >= 1)


def test_round_repair_keeps_integers_untouched():
    assert round_repair([4.0, 3.0, 1.0], 8).tolist() == [4, 3, 1]


def cycling_round_repair(real_counts, m_b):
    # the earlier repair: unit moves cycle through the same order and skip an
    # entry that would fall below 1
    real = np.asarray(real_counts, float)
    counts = np.maximum(np.floor(real + 0.5).astype(int), 1)
    n = len(counts)
    surplus = int(counts.sum()) - m_b
    if surplus > 0:
        order = np.lexsort((-np.arange(n), -(counts - real)))
        i = 0
        while surplus > 0:
            j = order[i % n]
            if counts[j] > 1:
                counts[j] -= 1
                surplus -= 1
            i += 1
    elif surplus < 0:
        order = np.lexsort((-np.arange(n), -(real - counts)))
        i = 0
        while surplus < 0:
            counts[order[i % n]] += 1
            surplus += 1
            i += 1
    return counts


def repair_corpus(rng, size):
    # spread fractions, heavy tails, point masses, exact halves and entries a
    # hair below 1, each rescaled to sum to the budget
    for case in range(size):
        n = int(rng.integers(1, 60))
        m_b = n + int(rng.integers(0, 200))
        family = case % 5
        if family == 0:
            raw = rng.uniform(1e-3, 1.0, size=n)
        elif family == 1:
            raw = rng.pareto(0.7, size=n) + 1e-12
        elif family == 2:
            raw = np.full(n, 1e-12)
            raw[rng.integers(0, n)] = 1.0
        if family <= 2:
            real = 1.0 + (m_b - n) * raw / raw.sum()
        elif family == 3:
            # integers plus paired +-1/2 offsets: every entry is a rounding tie
            real = 1.0 + rng.multinomial(m_b - n, np.full(n, 1.0 / n)).astype(float)
            k = int(rng.integers(0, n // 2 + 1))
            idx = rng.permutation(n)[:2 * k]
            real[idx[:k]] += 0.5
            real[idx[k:]] -= 0.5
            if np.any(real < 1.0):
                continue
        else:
            real = 1.0 + (m_b - n) * rng.dirichlet(np.full(n, 0.2))
            real[rng.random(n) < 0.3] -= 5e-10
            real[-1] = m_b - real[:-1].sum()
            if real[-1] < 1.0 - 1e-9:
                continue
        yield real, m_b


def test_round_repair_matches_the_cycling_repair():
    rng = np.random.default_rng(2024)
    checked = 0
    for real, m_b in repair_corpus(rng, 6000):
        got = round_repair(real, m_b)
        assert np.array_equal(got, cycling_round_repair(real, m_b)), (real, m_b)
        assert got.sum() == m_b and np.all(got >= 1)
        checked += 1
    assert checked > 5000


# ----------------------------------------------------------- branch and bound

def test_surrogate_marginals_are_diminishing():
    # the marginal greedy is exact because each pair's surrogate term gains a
    # positive and strictly shrinking amount from every extra count
    for r0 in (1e-3, 0.2, 5.0, 500.0, 1e4):
        for m_b in (6, 12, 40):
            # one-hot weights isolate the first pair's term psi(c)
            psi = np.array([approx_astp([c, 1], [1.0, 0.0], m_b, r0)
                            for c in range(1, m_b + 1)])
            step = np.diff(psi)
            assert np.all(step > 0)
            assert np.all(np.diff(step) < 0)


def test_bb_two_pair_toy_case():
    ranked = RankedPairs(order=np.array([1, 2]), weights=np.array([0.9, 0.1]))
    alloc = allocate_bb(ranked, 2, budget_for(100.0))
    vals = {}
    for counts, pairs in [((2,), (1,)), ((1, 1), (1, 2))]:
        vals[counts] = approx_astp(counts, np.array([0.9, 0.1])[: len(counts)], 2, 100.0)
    best = max(vals, key=vals.get)
    assert alloc.counts == best


def test_bb_matches_greedy_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = int(rng.integers(4, 14))
        m_b = int(rng.integers(3, 11))
        prior = random_prior(rng, x)
        ranked = rank_pairs(prior)
        budget = budget_for(float(rng.uniform(0.3, 500.0)))
        alloc = allocate_bb(ranked, m_b, budget)
        n = len(alloc.counts)
        got = approx_astp(alloc.counts, ranked.weights[:n], m_b, budget.r0)
        want_val, want_counts = greedy_best(ranked.weights, m_b, budget.r0,
                                            min(m_b, x))
        assert got == pytest.approx(want_val, abs=1e-12)
        assert list(alloc.counts) == want_counts.tolist()


def test_bb_matches_exhaustive_surrogate():
    rng = np.random.default_rng(23)
    for _ in range(8):
        m_b = int(rng.integers(3, 8))
        cap = int(rng.integers(2, 6))
        x = cap + int(rng.integers(0, 4))
        prior = random_prior(rng, x)
        ranked = rank_pairs(prior)
        budget = budget_for(float(rng.uniform(0.5, 300.0)))
        got = allocate_bb(ranked, m_b, budget, cap=cap)
        want = allocate_exhaustive(ranked, m_b, budget, objective="approx", cap=cap)
        assert got.pairs == want.pairs
        assert got.counts == want.counts


def test_bb_uniform_prior_yields_canonical_even_split():
    prior = PriorWeights(weights=np.full(8, 0.125))
    ranked = rank_pairs(prior)
    alloc = allocate_bb(ranked, 10, budget_for(50.0))
    assert list(alloc.counts) == sorted(alloc.counts, reverse=True)
    assert sum(alloc.counts) == 10


def test_bb_skip_rule_never_discards_a_better_pair_count():
    rng = np.random.default_rng(31)
    skipped_seen = 0
    for _ in range(12):
        x = int(rng.integers(4, 7))
        m_b = int(rng.integers(4, 8))
        prior = random_prior(rng, x)
        ranked = rank_pairs(prior)
        budget = budget_for(float(rng.uniform(50.0, 2000.0)))
        diag = {}
        alloc = allocate_bb(ranked, m_b, budget, diagnostics=diag)
        achieved = approx_astp(alloc.counts, ranked.weights[: len(alloc.counts)],
                               m_b, budget.r0)
        for n in diag["skipped_n"]:
            skipped_seen += 1
            assert support_optimum(ranked.weights, m_b, n, budget.r0) <= achieved + 1e-12
    assert skipped_seen > 0


def test_bb_theorem_ordering_and_swap_penalty():
    rng = np.random.default_rng(41)
    prior = random_prior(rng, 10)
    ranked = rank_pairs(prior)
    budget = budget_for(80.0)
    alloc = allocate_bb(ranked, 9, budget)
    counts = np.asarray(alloc.counts)
    assert np.all(np.diff(counts) <= 0)
    if len(counts) >= 2 and counts[0] != counts[-1]:
        swapped = counts.copy()
        swapped[[0, -1]] = swapped[[-1, 0]]
        from beamtrack.astp import Allocation
        worse = Allocation(pairs=alloc.pairs, counts=tuple(swapped), budget=9)
        assert astp_closed_form(worse, prior, budget) < astp_closed_form(alloc, prior, budget)


# ------------------------------------------------------------- KKT allocator

def test_kkt_equal_weights_split_evenly():
    ranked = RankedPairs(order=np.arange(1, 5), weights=np.full(4, 0.25))
    alloc = allocate_kkt(ranked, 12, budget_for(100.0), cap=4)
    assert alloc.counts == (3, 3, 3, 3)


def test_kkt_roots_satisfy_their_cubics():
    ranked = RankedPairs(order=np.array([1, 2, 3]), weights=np.array([0.6, 0.3, 0.1]))
    budget = budget_for(100.0)
    diag = {}
    allocate_kkt(ranked, 12, budget, diagnostics=diag)
    assert diag["stationarity"]
    for entry in diag["stationarity"]:
        mu0, b, w = entry["mu0"], entry["roots"], entry["weights"]
        resid = mu0 * budget.r0 * b ** 3 + w * b - 2.0 * 12 * w
        assert np.max(np.abs(resid)) < 1e-8


def test_kkt_tracks_bb_closely():
    rng = np.random.default_rng(53)
    for _ in range(10):
        x = int(rng.integers(6, 17))
        m_b = int(rng.integers(4, 13))
        prior = random_prior(rng, x)
        ranked = rank_pairs(prior)
        budget = budget_for(float(rng.uniform(1.0, 400.0)))
        via_kkt = astp_closed_form(allocate_kkt(ranked, m_b, budget), prior, budget)
        via_bb = astp_closed_form(allocate_bb(ranked, m_b, budget), prior, budget)
        assert via_kkt >= 0.98 * via_bb


@pytest.mark.parametrize("x, m_b, snr_db", [(16, 24, -10.0), (64, 40, -14.0)])
def test_bb_dominates_kkt_on_surrogate_at_scale(x, m_b, snr_db):
    # the exact optimum can never fall below the relaxed-and-repaired one
    config = CodebookConfig(n_tx=x, n_rx=x, x_tx=x, x_rx=x)
    model = build_transition_model(beta_rx=0.1, beta_tx=0.1, config=config)
    ranked = rank_pairs(prior_from_transition(model, k0=x // 2, i0=x // 2))
    budget = LinkBudget(power=10.0 ** (snr_db / 10.0), noise_var=1.0,
                        gain_var=1.0, n_tx=x, n_rx=x)
    vals = []
    for alloc in (allocate_bb(ranked, m_b, budget), allocate_kkt(ranked, m_b, budget)):
        assert sum(alloc.counts) == m_b
        n = len(alloc.counts)
        vals.append(approx_astp(alloc.counts, ranked.weights[:n], m_b, budget.r0))
    assert vals[0] >= vals[1]


def fixed_bisection_kkt(w, m_b, r0):
    # the multiplier search with a fixed 200 geometric bisections and no
    # early stop; otherwise the same bracketing, Newton polish and check
    def total(mu0):
        return float(np.maximum(1.0, _stationary_roots(mu0, w, m_b, r0)).sum())

    mu_lo = mu_hi = 1.0
    while total(mu_lo) < m_b:
        mu_lo *= 0.5
    while total(mu_hi) > m_b:
        mu_hi *= 2.0
    for _ in range(200):
        mid = math.sqrt(mu_lo * mu_hi)
        if total(mid) > m_b:
            mu_lo = mid
        else:
            mu_hi = mid
    mu0 = math.sqrt(mu_lo * mu_hi)
    roots = _stationary_roots(mu0, w, m_b, r0)
    pos = w > 0
    b = roots[pos]
    for _ in range(4):
        f = mu0 * r0 * b ** 3 + w[pos] * b - 2.0 * m_b * w[pos]
        b = b - f / (3.0 * mu0 * r0 * b * b + w[pos])
    roots[pos] = b
    real = np.maximum(1.0, roots)
    if abs(float(real.sum()) - m_b) > 1e-6:
        return None
    return real, mu0, roots


def kkt_problems():
    # every pair count below the budget of the centre-pair prior at desk, mid
    # and paper scale, then seeded random instances
    for x, m_b, snr_db in ((4, 12, 0.0), (16, 24, -10.0), (64, 40, -14.0)):
        config = CodebookConfig(n_tx=x, n_rx=x, x_tx=x, x_rx=x)
        model = build_transition_model(beta_rx=0.1, beta_tx=0.1, config=config)
        w = rank_pairs(prior_from_transition(model, k0=x // 2, i0=x // 2)).weights
        r0 = 10.0 ** (snr_db / 10.0) * x * x
        for n in range(2, min(m_b, x * x)):
            yield w[:n], m_b, r0
    rng = np.random.default_rng(71)
    for _ in range(40):
        x = int(rng.integers(2, 40))
        m_b = int(rng.integers(x + 1, 3 * x + 2))
        w = rank_pairs(random_prior(rng, x)).weights
        yield w, m_b, float(10.0 ** rng.uniform(-2.0, 3.0))


def test_kkt_bisection_stop_is_bit_exact_and_short(monkeypatch):
    calls = []

    def counted_roots(*args):
        calls.append(1)
        return _stationary_roots(*args)

    monkeypatch.setattr(allocate_module, "_stationary_roots", counted_roots)
    n_solved = 0
    for w, m_b, r0 in kkt_problems():
        expected = fixed_bisection_kkt(w, m_b, r0)
        if expected is None:
            with pytest.raises(ArithmeticError):
                _kkt_real_counts(w, m_b, r0)
            continue
        calls.clear()
        got = _kkt_real_counts(w, m_b, r0)
        assert len(calls) <= 100
        n_solved += 1
        assert got[1] == expected[1]
        assert np.array_equal(got[2], expected[2])
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(round_repair(got[0], m_b), round_repair(expected[0], m_b))
    assert n_solved > 100


def test_kkt_raises_when_the_multiplier_search_fails(monkeypatch):
    w = np.array([0.4, 0.3, 0.2, 0.1])
    ranked = RankedPairs(order=np.arange(1, 5), weights=w)
    with pytest.raises(ArithmeticError, match="positive weight"):
        _kkt_real_counts(np.zeros(3), 6, 10.0)
    monkeypatch.setattr(allocate_module, "_stationary_roots",
                        lambda mu0, w, m_b, r0: np.full(len(w), np.nan))
    with pytest.raises(ArithmeticError, match="KKT solve"):
        _kkt_real_counts(w, 12, 10.0)
    # no even split stands in for the failed solve
    with pytest.raises(ArithmeticError):
        allocate_kkt(ranked, 12, budget_for(10.0), cap=4)


@pytest.mark.parametrize("snr_db, counts", [
    (-20.0, (12,)), (-16.0, (12,)), (-14.0, (12,)), (-12.0, (8, 4))])
def test_desk_exact_and_kkt_concentrate_the_budget_at_low_snr(snr_db, counts):
    # desk grid, betas 0.1, M_B 12: below -12 dB both solvers put the whole
    # budget on the stay pair from every start state, so with the guard off
    # the estimate can never move
    config = CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4)
    model = build_transition_model(beta_rx=0.1, beta_tx=0.1, config=config)
    budget = LinkBudget(power=10.0 ** (snr_db / 10.0), noise_var=1.0,
                        gain_var=1.0, n_tx=4, n_rx=4)
    for k0 in range(1, 5):
        for i0 in range(1, 5):
            ranked = rank_pairs(prior_from_transition(model, k0, i0))
            assert ranked.order[0] == pair_index(k0, i0, 4)
            for alloc in (allocate_kkt(ranked, 12, budget),
                          allocate_bb(ranked, 12, budget)):
                assert alloc.counts == counts
                assert alloc.pairs == tuple(ranked.order[:len(counts)])


def test_kkt_output_is_canonical():
    rng = np.random.default_rng(61)
    prior = random_prior(rng, 12)
    ranked = rank_pairs(prior)
    alloc = allocate_kkt(ranked, 10, budget_for(30.0))
    assert list(alloc.counts) == sorted(alloc.counts, reverse=True)
    assert sum(alloc.counts) == 10


# ------------------------------------------------------------- brute force

def test_exhaustive_single_probe_takes_heaviest_pair():
    ranked = rank_pairs(random_prior(np.random.default_rng(2), 5))
    alloc = allocate_exhaustive(ranked, 1, budget_for(20.0))
    assert alloc.pairs == (int(ranked.order[0]),)
    assert alloc.counts == (1,)


def test_exhaustive_refuses_oversized_enumerations():
    ranked = rank_pairs(random_prior(np.random.default_rng(4), 40))
    with pytest.raises(ValueError, match="exceeds the limit"):
        allocate_exhaustive(ranked, 40, budget_for(10.0), cap=40)


def test_exhaustive_closed_form_agrees_with_bb_on_toy_instance():
    ranked = RankedPairs(order=np.array([1, 2, 3, 4]),
                         weights=np.array([0.5, 0.3, 0.15, 0.05]))
    budget = budget_for(60.0)
    got = allocate_exhaustive(ranked, 4, budget, objective="closed_form", cap=4)
    want = allocate_bb(ranked, 4, budget, cap=4)
    assert got.pairs == want.pairs
    assert got.counts == want.counts


def test_exhaustive_lexicographic_tie_break():
    # symmetric weights make [1,2] and [2,1] equal in value; the smaller
    # count vector wins
    ranked = RankedPairs(order=np.array([1, 2]), weights=np.array([0.5, 0.5]))
    alloc = allocate_exhaustive(ranked, 3, budget_for(10.0), objective="approx", cap=2)
    assert alloc.counts == (1, 2)


# --------------------------------------------------------------- guard / glue

def test_guard_requires_clear_winner():
    inner = StrategyConfig(kind="kkt", omega=5.0, candidate_cap=8)
    assert guarded_strategy((10.0, 0.0), 5.0, inner, 1.0) is inner
    assert guarded_strategy((3.0, 3.0), 5.0, inner, 1.0).kind == "uniform"
    assert guarded_strategy((7.4, 2.5), 5.0, inner, 1.0).kind == "uniform"
    assert guarded_strategy(None, 5.0, inner, 1.0) is inner
    # threshold scales with the noise floor
    assert guarded_strategy((9.9, 0.0), 5.0, inner, 2.0).kind == "uniform"
    assert guarded_strategy((10.1, 0.0), 5.0, inner, 2.0) is inner


def test_guard_keeps_inner_settings_on_fallback():
    inner = StrategyConfig(kind="branch_and_bound", omega=7.0, candidate_cap=9)
    out = guarded_strategy((1.0, 1.0), 7.0, inner, 1.0)
    assert (out.kind, out.omega, out.candidate_cap) == ("uniform", 7.0, 9)


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="magic")
    with pytest.raises(ValueError):
        StrategyConfig(kind="kkt", omega=-1.0)
    with pytest.raises(ValueError):
        StrategyConfig(kind="kkt", candidate_cap=0)


def test_apply_strategy_routes_by_kind():
    rng = np.random.default_rng(8)
    prior = random_prior(rng, 8)
    ranked = rank_pairs(prior)
    budget = budget_for(40.0)
    uni = apply_strategy(StrategyConfig(kind="uniform"), ranked, 4, budget)
    assert uni.counts == (1, 1, 1, 1)
    prop = apply_strategy(StrategyConfig(kind="proportional"), ranked, 4, budget)
    assert sum(prop.counts) == 4
    bb = apply_strategy(StrategyConfig(kind="branch_and_bound"), ranked, 4, budget)
    kkt = apply_strategy(StrategyConfig(kind="kkt"), ranked, 4, budget)
    assert sum(bb.counts) == sum(kkt.counts) == 4
    ex = apply_strategy(StrategyConfig(kind="exhaustive"), ranked, 4, budget)
    assert sum(ex.counts) == 4
    with pytest.raises(ValueError):
        apply_strategy(StrategyConfig(kind="omp_exhaustive"), ranked, 4, budget)
