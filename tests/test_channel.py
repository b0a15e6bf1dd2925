import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import beamtrack.astp as astp_module
from beamtrack.astp import Allocation, LinkBudget, omp_gamma_lower_bounds
from beamtrack.channel import (
    ChannelState,
    CodebookConfig,
    array_response,
    build_transition_model,
    codebook,
    correlation_tables,
    draw_gain,
    grid_angles,
    pair_index,
    pair_rows,
    pair_split,
    step_channel,
)


# ---------------------------------------------------------------- responses

def test_array_response_zero_angle():
    np.testing.assert_allclose(array_response(0.0, 4), np.full(4, 0.5))


def test_array_response_pi_two_elements():
    np.testing.assert_allclose(array_response(np.pi, 2), np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)


def test_array_response_unit_norm():
    for n in [1, 3, 16, 64]:
        assert abs(np.linalg.norm(array_response(0.73, n)) - 1.0) < 1e-12


def test_grid_self_and_neighbor_inner_products_orthogonal_case():
    x = 64
    ang = grid_angles(x)
    a5 = array_response(ang[4], x)
    a6 = array_response(ang[5], x)
    assert abs(np.vdot(a5, a5) - 1.0) < 1e-12
    assert abs(np.vdot(a5, a6)) < 1e-12


def test_grid_angles_spacing_and_symmetry():
    for x in [4, 16, 64]:
        ang = grid_angles(x)
        np.testing.assert_allclose(np.diff(ang), 2 * np.pi / x)
        np.testing.assert_allclose(ang, -ang[::-1], atol=1e-12)
        assert ang[0] > -np.pi and ang[-1] < np.pi


# ---------------------------------------------------------------- indexing

def test_pair_index_examples():
    assert pair_index(1, 1, 64) == 1
    assert pair_index(64, 64, 64) == 4096
    assert pair_index(3, 2, 64) == 67


def test_pair_index_range_checks():
    with pytest.raises(ValueError):
        pair_index(0, 1, 64)
    with pytest.raises(ValueError):
        pair_index(65, 1, 64)
    with pytest.raises(ValueError):
        pair_index(1, 0, 64)


def test_pair_index_round_trip_full_grid():
    x_rx = 64
    for i in range(1, 65):
        for k in range(1, 65):
            assert pair_split(pair_index(k, i, x_rx), x_rx) == (k, i)


@given(k=st.integers(1, 64), i=st.integers(1, 64))
def test_pair_index_round_trip_property(k, i):
    assert pair_split(pair_index(k, i, 64), 64) == (k, i)


# ---------------------------------------------------------------- transitions

def test_transition_uniform_when_beta_one():
    cfg = CodebookConfig(n_tx=64, n_rx=64, x_tx=64, x_rx=64)
    model = build_transition_model(1.0, 1.0, cfg)
    np.testing.assert_allclose(model.rows_rx, np.full((64, 64), 1 / 64))


def test_transition_identity_when_beta_zero():
    cfg = CodebookConfig(n_tx=16, n_rx=16, x_tx=16, x_rx=16)
    model = build_transition_model(0.0, 0.0, cfg)
    np.testing.assert_allclose(model.rows_rx, np.eye(16))
    np.testing.assert_allclose(model.rows_tx, np.eye(16))


def test_transition_row_matches_direct_normalization():
    cfg = CodebookConfig(n_tx=64, n_rx=64, x_tx=64, x_rx=64)
    model = build_transition_model(0.1, 0.3, cfg)
    k0 = 32
    raw = np.array([0.1 ** abs(k1 - k0) for k1 in range(64)])
    np.testing.assert_allclose(model.rows_rx[k0], raw / raw.sum(), atol=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.3, 0.5, 1.0])
def test_transition_rows_stochastic(beta):
    cfg = CodebookConfig(n_tx=8, n_rx=8, x_tx=48, x_rx=48)
    model = build_transition_model(beta, beta, cfg)
    np.testing.assert_allclose(model.rows_rx.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(model.rows_tx.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(model.rows_rx >= 0)


def test_transition_rows_symmetric_about_origin():
    cfg = CodebookConfig(n_tx=32, n_rx=32, x_tx=32, x_rx=32)
    model = build_transition_model(0.4, 0.4, cfg)
    rows = model.rows_rx
    for k0 in range(32):
        for d in range(1, 32):
            if 0 <= k0 - d and k0 + d < 32:
                assert abs(rows[k0, k0 + d] - rows[k0, k0 - d]) < 1e-15


def test_transition_rejects_bad_beta():
    cfg = CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4)
    with pytest.raises(ValueError):
        build_transition_model(-0.1, 0.5, cfg)
    with pytest.raises(ValueError):
        build_transition_model(0.5, 1.5, cfg)


# ---------------------------------------------------------------- stepping

def test_step_frozen_chain_keeps_indices():
    cfg = CodebookConfig(n_tx=16, n_rx=16, x_tx=16, x_rx=16)
    model = build_transition_model(0.0, 0.0, cfg)
    rng = np.random.default_rng(3)
    state = ChannelState(aoa_index=7, aod_index=11, gain=1 + 0j, gain_variance=1.0)
    for _ in range(5):
        new = step_channel(state, model, rng)
        assert (new.aoa_index, new.aod_index) == (7, 11)
        assert new.gain != state.gain  # resampled
        state = new


def test_step_uniform_chain_histogram():
    x = 16
    cfg = CodebookConfig(n_tx=x, n_rx=x, x_tx=x, x_rx=x)
    model = build_transition_model(1.0, 1.0, cfg)
    rng = np.random.default_rng(5)
    state = ChannelState(aoa_index=1, aod_index=1, gain=0j, gain_variance=1.0)
    n = 100_000
    counts = np.zeros(x)
    for _ in range(n):
        new = step_channel(state, model, rng)
        counts[new.aoa_index - 1] += 1
    chi2 = np.sum((counts - n / x) ** 2 / (n / x))
    # 3-sigma-ish bound on a chi-square with x-1 dof
    assert chi2 < (x - 1) + 3 * np.sqrt(2 * (x - 1))


def test_step_sticky_chain_stay_probability():
    x = 64
    cfg = CodebookConfig(n_tx=x, n_rx=x, x_tx=x, x_rx=x)
    model = build_transition_model(0.1, 0.1, cfg)
    rng = np.random.default_rng(11)
    k0 = 32
    state = ChannelState(aoa_index=k0, aod_index=k0, gain=0j, gain_variance=1.0)
    n = 100_000
    stays = sum(step_channel(state, model, rng).aoa_index == k0 for _ in range(n))
    p = model.rows_rx[k0 - 1, k0 - 1]
    assert abs(stays / n - p) < 3 * np.sqrt(p * (1 - p) / n)


def choice_step(state, model, rng):
    # the step as it was drawn before the cumulative rows: rng.choice per index
    x_rx = model.rows_rx.shape[0]
    x_tx = model.rows_tx.shape[0]
    k1 = int(rng.choice(x_rx, p=model.rows_rx[state.aoa_index - 1])) + 1
    i1 = int(rng.choice(x_tx, p=model.rows_tx[state.aod_index - 1])) + 1
    return ChannelState(aoa_index=k1, aod_index=i1,
                        gain=draw_gain(state.gain_variance, rng),
                        gain_variance=state.gain_variance)


@pytest.mark.parametrize("x", [4, 5, 64])
@pytest.mark.parametrize("beta", [0.0, 0.1, 0.7, 1.0])
def test_step_draws_what_rng_choice_draws(beta, x):
    # the inverse-CDF step must reproduce rng.choice draw for draw and leave
    # the generator where rng.choice leaves it
    cfg = CodebookConfig(n_tx=x, n_rx=x, x_tx=x, x_rx=x)
    model = build_transition_model(beta, 1.0 - beta, cfg)
    rng_new = np.random.default_rng(1000 * x + int(10 * beta))
    rng_old = np.random.default_rng(1000 * x + int(10 * beta))
    state = ChannelState(aoa_index=1, aod_index=x, gain=0j, gain_variance=1.0)
    for _ in range(3000):
        new = step_channel(state, model, rng_new)
        assert new == choice_step(state, model, rng_old)
        state = new
    assert rng_new.random() == rng_old.random()


def test_draw_gain_is_circular_complex_normal():
    rng = np.random.default_rng(2)
    var = 2.5
    draws = np.array([draw_gain(var, rng) for _ in range(20_000)])
    assert abs(np.mean(draws.real)) < 0.05
    assert abs(np.var(draws.real) - var / 2) < 0.1
    assert abs(np.var(draws.imag) - var / 2) < 0.1
    assert stats.pearsonr(draws.real, draws.imag).pvalue > 1e-4


# ---------------------------------------------------------------- correlations

def test_correlation_tables_orthogonal_identity():
    cfg = CodebookConfig(n_tx=64, n_rx=64, x_tx=64, x_rx=64)
    tables = correlation_tables(cfg)
    assert np.max(np.abs(tables.nu_rx - np.eye(64))) < 1e-12
    assert np.max(np.abs(tables.nu_tx - np.eye(64))) < 1e-12


def test_correlation_tables_overlapped_structure():
    cfg = CodebookConfig(n_tx=48, n_rx=48, x_tx=64, x_rx=64)
    tables = correlation_tables(cfg)
    np.testing.assert_allclose(np.diag(tables.nu_rx), 1.0, atol=1e-12)
    assert np.max(np.abs(tables.nu_rx)) <= 1.0 + 1e-12
    # Hermitian symmetry and adjacent-beam dominance over far-apart beams
    np.testing.assert_allclose(tables.nu_rx, tables.nu_rx.conj().T, atol=1e-12)
    np.testing.assert_allclose(tables.nu_tx, tables.nu_tx.conj().T, atol=1e-12)
    for k in range(8, 56):
        assert abs(tables.nu_rx[k, k + 8]) < abs(tables.nu_rx[k, k + 1])


def test_correlation_matches_geometric_series_closed_form():
    n, x = 48, 64
    cfg = CodebookConfig(n_tx=n, n_rx=n, x_tx=x, x_rx=x)
    tables = correlation_tables(cfg)
    for k, k1 in [(0, 1), (3, 10), (20, 52)]:
        delta = 2 * np.pi * (k1 - k) / x
        expected = np.exp(1j * delta * np.arange(n)).sum() / n
        assert abs(tables.nu_rx[k, k1] - expected) < 1e-12


def test_codebook_gram_orthogonal():
    a = codebook(64, 64)
    assert np.max(np.abs(a.conj().T @ a - np.eye(64))) < 1e-12


def test_codebook_config_validation():
    with pytest.raises(ValueError):
        CodebookConfig(n_tx=65, n_rx=64, x_tx=64, x_rx=64)
    with pytest.raises(ValueError):
        CodebookConfig(n_tx=4, n_rx=0, x_tx=4, x_rx=4)


# ------------------------------------------------------------ pair rows

def kron_rows(pairs, tables):
    # one np.kron per pair: Tx correlations outside, Rx correlations inside
    rows = np.empty((len(pairs), tables.x_rx * tables.x_tx), complex)
    for m, z in enumerate(pairs):
        a, c = pair_split(z, tables.x_rx)
        rows[m] = np.kron(tables.nu_tx[c - 1, :], tables.nu_rx[a - 1, :])
    return rows


@pytest.mark.parametrize("config", [
    CodebookConfig(n_tx=8, n_rx=8, x_tx=8, x_rx=8),  # orthogonal
    CodebookConfig(n_tx=3, n_rx=5, x_tx=6, x_rx=8),  # overlapped, unequal grids
])
@pytest.mark.parametrize("n_pairs", [1, 40])
def test_pair_rows_equal_a_kron_per_pair(config, n_pairs):
    tables = correlation_tables(config)
    rng = np.random.default_rng(n_pairs)
    for _ in range(5):
        pairs = tuple(rng.choice(config.x_pairs, size=n_pairs, replace=False) + 1)
        assert np.array_equal(pair_rows(pairs, tables), kron_rows(pairs, tables))


def test_pair_rows_reject_nonpositive_indices():
    tables = correlation_tables(CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4))
    with pytest.raises(ValueError):
        pair_rows((3, 0), tables)


def test_omp_bound_unchanged_by_shared_pair_rows(monkeypatch):
    config = CodebookConfig(n_tx=3, n_rx=5, x_tx=6, x_rx=8)
    tables = correlation_tables(config)
    budget = LinkBudget(power=2.0, noise_var=1.0, gain_var=1.0, n_tx=3, n_rx=5)
    alloc = Allocation(pairs=(9, 10, 17, 2, 44), counts=(4, 3, 2, 2, 1), budget=12)
    shared = omp_gamma_lower_bounds(alloc, tables, budget)
    monkeypatch.setattr(astp_module, "pair_rows", kron_rows)
    assert np.array_equal(shared, omp_gamma_lower_bounds(alloc, tables, budget))
