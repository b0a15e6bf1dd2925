"""Each benchmark check accepts a correct input and rejects a wrong one.

    python3 -m pytest -q bench
"""

import json
import math
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from checks import CheckError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def record(atep, gain, per_block=(0.5,), value=0.0, error=None):
    return SimpleNamespace(sweep_value=value, atep=atep, atep_ci95=0.01,
                           avg_beamforming_gain=gain, per_block_atep=per_block,
                           error=error)


# ------------------------------------------------------ closed-form reference

def test_success_probability_two_pairs_has_the_textbook_value():
    # own ~ Exp(mean h), other ~ Exp(rate r): P(own > other) = 1 - 1/(1 + h r)
    counts, gamma2 = (3, 2), 2.5
    h = 9 * gamma2 + 3
    expected = 1.0 - 1.0 / (1.0 + h / 2)
    assert checks.success_probability(counts, 0, gamma2, 1.0, 1.0) == pytest.approx(expected)


def test_grouped_sum_equals_the_plain_subset_sum():
    counts, gamma2 = (4, 3, 3, 2, 1, 1, 1), 0.7
    for pos in range(len(counts)):
        h = counts[pos] ** 2 * gamma2 + counts[pos]
        rates = [1.0 / c for j, c in enumerate(counts) if j != pos]
        plain = sum((-1) ** sum(mask) / (1.0 + h * sum(r for r, m in zip(rates, mask) if m))
                    for mask in product((0, 1), repeat=len(rates)))
        assert checks.success_probability(counts, pos, gamma2, 1.0, 1.0) == pytest.approx(plain, abs=1e-12)


def test_success_probability_matches_monte_carlo():
    counts, gamma2, n = np.array([3, 2, 2, 1]), 1.3, 400_000
    rng = np.random.default_rng(7)
    gain = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    noise = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) * np.sqrt(counts / 2)
    xi = noise
    xi[:, 0] += counts[0] * math.sqrt(gamma2) * gain
    p = np.mean(np.argmax(np.abs(xi) ** 2, axis=1) == 0)
    ref = checks.success_probability(counts, 0, gamma2, 1.0, 1.0)
    assert abs(p - ref) < 5 * math.sqrt(ref * (1 - ref) / n)


def test_first_block_accepts_the_reference_and_rejects_a_shifted_atep():
    checks.check_first_block(300, 1000, 0.3, "ok")
    with pytest.raises(CheckError):
        checks.check_first_block(400, 1000, 0.3, "shifted")


# -------------------------------------------------------------- allocations

def test_greedy_reaches_the_enumerated_optimum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m_b, r0 = int(rng.integers(2, 5)), int(rng.integers(5, 10)), float(rng.uniform(0.5, 50))
        w = np.sort(rng.dirichlet(np.ones(6)))[::-1][:n]
        best = max(checks.surrogate(np.bincount(c, minlength=n) + 1, w, m_b, r0)
                   for c in combinations_with_replacement(range(n), m_b - n))
        assert checks.surrogate(checks.greedy_counts(w, m_b, r0), w, m_b, r0) == pytest.approx(best, abs=1e-12)


def optimum_allocation(prior, m_b, r0):
    w = np.sort(prior)[::-1]
    order = np.argsort(-prior, kind="stable") + 1
    best = max(range(1, m_b + 1),
               key=lambda n: checks.surrogate(checks.greedy_counts(w[:n], m_b, r0), w[:n], m_b, r0))
    counts = checks.greedy_counts(w[:best], m_b, r0)
    return tuple(order[:best]), tuple(counts)


def test_allocation_check_rejects_a_non_optimal_count_vector():
    rows = checks.markov_rows(0.1, 4)
    prior = checks.prior_weights(rows, rows, 2, 2)
    pairs, counts = optimum_allocation(prior, 8, 100.0)
    checks.check_allocation("branch_and_bound", pairs, counts, prior, 8, 100.0)
    worse = (counts[0] - 1,) + (counts[1] + 1,) + counts[2:] if len(counts) > 1 else counts
    assert worse != counts
    with pytest.raises(CheckError):
        checks.check_allocation("branch_and_bound", pairs, worse, prior, 8, 100.0)
    checks.check_allocation("kkt", pairs, worse, prior, 8, 100.0)  # below the optimum is allowed


def test_allocation_check_rejects_counts_off_the_budget():
    rows = checks.markov_rows(0.1, 4)
    prior = checks.prior_weights(rows, rows, 1, 1)
    with pytest.raises(CheckError):
        checks.check_allocation("kkt", (1, 2), (5, 2), prior, 8, 10.0)
    with pytest.raises(CheckError):
        checks.check_allocation("proportional", (1, 1), (4, 4), prior, 8, 10.0)


def test_start_classes_cover_every_start_once():
    classes = checks.start_classes(0.1, 0.1, 4, 4)
    assert sorted(members for members, _ in classes) == [4, 4, 8]
    assert sum(members for members, _ in checks.start_classes(0.1, 0.1, 16, 16)) == 256


# -------------------------------------------------------------------- OMP

GEOMETRY = (12, 12, 16, 16)  # n_rx, n_tx, x_rx, x_tx


def test_omp_check_rejects_a_permuted_estimate():
    pairs, counts = (17, 18, 33, 2), (3, 2, 2, 1)
    rows = np.repeat(checks.pair_correlations(pairs, *GEOMETRY), counts, axis=0)
    truth = 18  # flat index, 1-based: (k, i) = (2, 2)
    symbols = 2.0 * rows[:, truth - 1]
    checks.check_omp_estimate(pairs, counts, symbols, (2, 2), GEOMETRY)
    with pytest.raises(CheckError):
        checks.check_omp_estimate(pairs, counts, symbols, (2, 3), GEOMETRY)


def test_references_share_the_program_conventions():
    from beamtrack.channel import CodebookConfig, _markov_rows, correlation_tables
    from beamtrack.track import pair_rows

    pairs = (1, 17, 40, 256)
    tables = correlation_tables(CodebookConfig(n_tx=12, n_rx=12, x_tx=16, x_rx=16))
    np.testing.assert_allclose(checks.pair_correlations(pairs, *GEOMETRY),
                               pair_rows(pairs, tables), atol=1e-12)
    np.testing.assert_array_equal(checks.markov_rows(0.3, 5), _markov_rows(0.3, 5))


# ---------------------------------------------------------------- records

def test_record_check_rejects_gain_off_the_error_rate():
    checks.check_records([record(0.25, 0.75)], 1, orthogonal=True)
    with pytest.raises(CheckError):
        checks.check_records([record(0.25, 0.7)], 1, orthogonal=True)
    checks.check_records([record(0.25, 0.8)], 1, orthogonal=False)
    with pytest.raises(CheckError):
        checks.check_records([record(0.25, 0.7)], 1, orthogonal=False)
    with pytest.raises(CheckError):
        checks.check_records([record(0.25, 1.1)], 1, orthogonal=False)
    with pytest.raises(CheckError):
        checks.check_records([record(0.25, 0.75)], 2, orthogonal=True)


def test_identity_check_rejects_a_changed_record():
    a = [record(0.25, 0.75, per_block=(0.2, 0.3))]
    checks.check_identical(a, [record(0.25, 0.75, per_block=(0.2, 0.3))], "same")
    with pytest.raises(CheckError):
        checks.check_identical(a, [record(0.25, 0.75, per_block=(0.3, 0.2))], "swapped")


def test_emitted_check_rejects_nan_and_altered_rows(tmp_path):
    rec = record(0.25, 0.75, per_block=(0.2, 0.3))
    row = {"atep": 0.25, "avg_gain": 0.75, "per_block_atep": [0.2, 0.3]}
    path = tmp_path / "out.json"
    path.write_text(json.dumps({"records": [row]}))
    checks.check_emitted(path, [rec])
    path.write_text(json.dumps({"records": [dict(row, atep=0.5)]}))
    with pytest.raises(CheckError):
        checks.check_emitted(path, [rec])
    path.write_text(json.dumps({"records": [dict(row, sweep_value=float("nan"))]}))
    with pytest.raises(CheckError):
        checks.check_emitted(path, [rec])
