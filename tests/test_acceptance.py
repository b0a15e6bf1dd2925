"""Acceptance gate: nine numbered criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; every criterion is also a hard assertion.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from beamtrack.allocate import (
    StrategyConfig,
    allocate_bb,
    allocate_kkt,
    allocate_uniform,
    rank_pairs,
)
from beamtrack.analysis import (
    _gamma_quadrature,
    _signal_scale,
    astp_bounds,
    astp_closed_form,
    gamma_closed_form,
    omp_astp_lower_bound,
)
from beamtrack.astp import Allocation, LinkBudget, PriorWeights, approx_astp, harmonic
from beamtrack.channel import ChannelState, CodebookConfig, correlation_tables, draw_gain
from beamtrack.cli import ExperimentConfig, main, run_campaign
from beamtrack.track import estimate_power, synthesize_measurements
from exhaustive import allocate_exhaustive
from omp_mc import mc_omp_astp


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_prior(rng, n):
    w = rng.random(n) + 0.05
    return PriorWeights(weights=w / w.sum())


def random_counts(rng, n, m_b):
    counts = np.ones(n, dtype=int)
    extra = rng.multinomial(m_b - n, np.full(n, 1.0 / n))
    return tuple(int(c) for c in counts + extra)


def test_criterion_1_closed_form_fidelity():
    # orthogonal codebooks, N <= 5 allocated pairs, r0 in [10, 1e3]: the
    # per-symbol simulation of the power readout must land within 0.01 of the
    # closed-form success probability at 1e5 trials per scenario
    rng = np.random.default_rng(101)
    n_trials = 100_000
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m_b = int(rng.integers(n, 3 * n + 1))
        counts = random_counts(rng, n, m_b)
        r0 = 10.0 ** rng.uniform(1.0, 3.0)
        config = CodebookConfig(n_tx=1, n_rx=n, x_tx=1, x_rx=n)
        tables = correlation_tables(config)
        budget = LinkBudget(power=r0 / n, noise_var=1.0, gain_var=1.0,
                            n_tx=1, n_rx=n)
        alloc = Allocation(pairs=tuple(range(1, n + 1)), counts=counts,
                           budget=m_b)
        position = int(rng.integers(1, n + 1))
        hits = 0
        for _ in range(n_trials):
            state = ChannelState(aoa_index=position, aod_index=1,
                                 gain=draw_gain(1.0, rng), gain_variance=1.0)
            meas = synthesize_measurements(alloc, state, tables, budget, rng)
            est = estimate_power(meas)
            hits += (est.aoa_index, est.aod_index) == (position, 1)
        diff = abs(hits / n_trials - gamma_closed_form(position, alloc, budget))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    report(1, worst <= 0.01 and elapsed < 120.0,
           f"max |MC - closed form| = {worst:.4f} (tol 0.01) over 10 scenarios "
           f"x {n_trials} trials in {elapsed:.1f}s (limit 120s)")


def test_criterion_2_bound_ordering():
    # lower < approx < upper strictly on 100 random allocations with N >= 3
    # and M_B > N (the regime where the chain is strict)
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        m_b = int(rng.integers(n + 1, 2 * n + 7))
        prior = random_prior(rng, n)
        alloc = Allocation(pairs=tuple(range(1, n + 1)),
                           counts=random_counts(rng, n, m_b), budget=m_b)
        budget = LinkBudget(power=10.0 ** rng.uniform(0.0, 2.0), noise_var=1.0,
                            gain_var=1.0, n_tx=1, n_rx=n)
        lower, apx, upper = astp_bounds(alloc, prior, budget)
        if not lower < apx < upper:
            violations += 1
    report(2, violations == 0,
           f"{violations} ordering violations out of 100 allocations "
           f"(lower < approx < upper, strict)")


def test_criterion_3_optimizer_exactness():
    # every (candidate count, budget) shape up to 6 x 8, three weight draws
    # each: branch-and-bound must match full enumeration on its own objective
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    checked = 0
    worst_gap = 0.0
    mismatches = 0
    for n in range(1, 7):
        for m_b in range(1, 9):
            for _ in range(3):
                prior = random_prior(rng, n)
                ranked = rank_pairs(prior)
                budget = LinkBudget(power=10.0 ** rng.uniform(0.0, 2.0),
                                    noise_var=1.0, gain_var=1.0, n_tx=1, n_rx=n)
                bb = allocate_bb(ranked, m_b, budget)
                ex = allocate_exhaustive(
                    ranked, m_b,
                    lambda alloc, w: approx_astp(alloc.counts, w, m_b, budget.r0),
                    cap=n)
                w_of = lambda alloc: prior.weights[np.asarray(alloc.pairs) - 1]
                v_bb = approx_astp(bb.counts, w_of(bb), m_b, budget.r0)
                v_ex = approx_astp(ex.counts, w_of(ex), m_b, budget.r0)
                worst_gap = max(worst_gap, abs(v_bb - v_ex))
                if (bb.pairs, bb.counts) != (ex.pairs, ex.counts):
                    mismatches += 1
                checked += 1
    elapsed = time.perf_counter() - start
    report(3, worst_gap <= 1e-10 and mismatches == 0 and elapsed < 60.0,
           f"{checked} instances (N<=6, M_B<=8): max value gap {worst_gap:.2e} "
           f"(tol 1e-10), {mismatches} allocation mismatches, {elapsed:.1f}s "
           f"(limit 60s)")


def test_criterion_4_kkt_quality():
    # the stationarity-cubic allocator must stay within 2% of branch-and-bound
    # on the closed-form objective, and every recorded root must actually
    # solve its cubic to 1e-8 before rounding
    rng = np.random.default_rng(404)
    worst_ratio = np.inf
    worst_resid = 0.0
    for _ in range(30):
        n = int(rng.integers(4, 11))
        m_b = int(rng.integers(n + 1, 3 * n + 1))
        prior = random_prior(rng, n)
        ranked = rank_pairs(prior)
        budget = LinkBudget(power=10.0 ** rng.uniform(0.5, 2.5) / n,
                            noise_var=1.0, gain_var=1.0, n_tx=1, n_rx=n)
        diag = {}
        kkt = allocate_kkt(ranked, m_b, budget, diagnostics=diag)
        bb = allocate_bb(ranked, m_b, budget)
        v_kkt = astp_closed_form(kkt, prior, budget)
        v_bb = astp_closed_form(bb, prior, budget)
        worst_ratio = min(worst_ratio, v_kkt / v_bb)
        for rec in diag["stationarity"]:
            w = np.asarray(rec["weights"])
            b = np.asarray(rec["roots"])
            resid = np.abs(rec["mu0"] * budget.r0 * b ** 3 + w * b
                           - 2.0 * m_b * w)
            worst_resid = max(worst_resid, float(resid.max()))
    report(4, worst_ratio >= 0.98 and worst_resid < 1e-8,
           f"min ASTP ratio kkt/bb = {worst_ratio:.4f} (floor 0.98), "
           f"max cubic residual {worst_resid:.2e} (tol 1e-8) over 30 instances")


def test_criterion_5_ordering_theorem():
    # (a) enumerated optima put weakly more pilots on higher-prior pairs;
    # (b) undoing a constructed inversion strictly raises the closed-form ASTP
    rng = np.random.default_rng(505)
    ordered = 0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        m_b = int(rng.integers(3, 9))
        prior = random_prior(rng, n)
        ranked = rank_pairs(prior)
        budget = LinkBudget(power=10.0 ** rng.uniform(0.0, 2.0), noise_var=1.0,
                            gain_var=1.0, n_tx=1, n_rx=n)
        best = allocate_exhaustive(
            ranked, m_b,
            lambda alloc, w: sum(w[j] * gamma_closed_form(j + 1, alloc, budget)
                                 for j in range(alloc.n_pairs)),
            cap=n)
        if np.all(np.diff(best.counts) <= 0):
            ordered += 1

    improved = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        prior = random_prior(rng, n)
        order = np.argsort(-prior.weights)
        a, b = int(order[0]) + 1, int(order[1]) + 1  # w_a > w_b almost surely
        counts = np.full(n, 1 + int(rng.integers(0, 3)))
        counts[a - 1], counts[b - 1] = 1, 1 + int(rng.integers(1, 4))
        budget = LinkBudget(power=10.0 ** rng.uniform(0.0, 2.0), noise_var=1.0,
                            gain_var=1.0, n_tx=1, n_rx=n)
        m_b = int(counts.sum())
        violating = Allocation(pairs=tuple(range(1, n + 1)),
                               counts=tuple(int(c) for c in counts),
                               budget=m_b)
        counts[a - 1], counts[b - 1] = counts[b - 1], counts[a - 1]
        swapped = Allocation(pairs=tuple(range(1, n + 1)),
                             counts=tuple(int(c) for c in counts),
                             budget=m_b)
        if astp_closed_form(swapped, prior, budget) > \
                astp_closed_form(violating, prior, budget):
            improved += 1
    report(5, ordered == 50 and improved == 50,
           f"{ordered}/50 enumerated optima ordered, "
           f"{improved}/50 inversion swaps strictly improved ASTP")


def test_criterion_6_special_function_identities():
    # (a) the alternating-sum success probability against direct quadrature of
    # its integral form; (b) the alternating binomial sum against harmonic
    # numbers, exactly in rationals then compared in floats
    rng = np.random.default_rng(606)
    worst_quad = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 9))
        m_b = int(rng.integers(n, 3 * n + 1))
        counts = random_counts(rng, n, m_b)
        budget = LinkBudget(power=10.0 ** rng.uniform(0.0, 2.5), noise_var=1.0,
                            gain_var=1.0, n_tx=1, n_rx=n)
        alloc = Allocation(pairs=tuple(range(1, n + 1)), counts=counts,
                           budget=m_b)
        position = int(rng.integers(1, n + 1))
        closed = gamma_closed_form(position, alloc, budget)
        lam = np.asarray(counts, float)
        h = _signal_scale(lam[position - 1], budget)
        rates = 1.0 / (budget.noise_var * np.delete(lam, position - 1))
        quad = _gamma_quadrature(h, rates)
        worst_quad = max(worst_quad, abs(closed - quad))

    worst_harm = 0.0
    for p in range(1, 21):
        exact = sum(Fraction((-1) ** (q + 1) * math.comb(p, q), q)
                    for q in range(1, p + 1))
        worst_harm = max(worst_harm, abs(harmonic(p) - float(exact)))
    report(6, worst_quad <= 1e-6 and worst_harm <= 1e-12,
           f"closed form vs quadrature max diff {worst_quad:.2e} (tol 1e-6) on "
           f"10 triples; alternating-binomial vs harmonic max diff "
           f"{worst_harm:.2e} (tol 1e-12) for p <= 20")


def test_criterion_7_omp_bound_validity():
    # union-bound lower bound vs 1e5-trial Monte Carlo of the correlation
    # estimator on the 16-direction grid with 3-antenna arrays
    rng = np.random.default_rng(707)
    config = CodebookConfig(n_tx=3, n_rx=3, x_tx=4, x_rx=4)
    tables = correlation_tables(config)
    min_slack = np.inf
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m_b = int(rng.integers(n, 2 * n + 5))
        pairs = tuple(int(p) + 1
                      for p in rng.choice(16, size=n, replace=False))
        alloc = Allocation(pairs=pairs, counts=random_counts(rng, n, m_b),
                           budget=m_b)
        prior = random_prior(rng, 16)
        budget = LinkBudget(power=10.0 ** rng.uniform(-1.0, 1.0), noise_var=1.0,
                            gain_var=1.0, n_tx=3, n_rx=3)
        bound = omp_astp_lower_bound(alloc, prior, tables, budget)
        mc = mc_omp_astp(alloc, prior, tables, budget, 100_000,
                         np.random.default_rng(rng.integers(2 ** 32)))
        min_slack = min(min_slack, mc - bound)
    report(7, min_slack >= 0.0,
           f"min (MC - bound) slack = {min_slack:.4f} over 20 allocations "
           f"x 1e5 trials (must be >= 0)")


def desk_config(**overrides):
    base = dict(
        codebook=CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4),
        betas=(0.1, 0.1),
        snr_db=tuple(range(-20, -6, 2)),
        m_b=12,
        t_blocks=10,
        n_frames=2000,
        strategy=StrategyConfig(kind="kkt", omega=5.0),
        estimator="power",
        seed=88,
        sweep="snr",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_8_qualitative_figure_reproduction():
    start = time.perf_counter()
    ateps = {}
    for kind in ("kkt", "uniform", "proportional"):
        records = run_campaign(desk_config(
            strategy=StrategyConfig(kind=kind, omega=5.0)))
        ateps[kind] = np.array([rec.atep for rec in records])
    a_ok = bool(np.all(ateps["kkt"] <= ateps["uniform"])
                and np.all(ateps["kkt"] <= ateps["proportional"]))

    overlapped = CodebookConfig(n_tx=3, n_rx=3, x_tx=4, x_rx=4)
    est_ateps = {}
    for est in ("omp", "power"):
        records = run_campaign(desk_config(codebook=overlapped, estimator=est))
        est_ateps[est] = np.array([rec.atep for rec in records])
    b_ok = bool(np.all(est_ateps["omp"] <= est_ateps["power"]))

    gaps, cis = [], []
    for kind in ("uniform", "kkt"):
        records = run_campaign(desk_config(
            strategy=StrategyConfig(kind=kind, omega=5.0),
            sweep="beta", sweep_values=(0.1, 0.2, 0.3, 0.4, 0.5),
            snr_db=(-12.0,)))
        gaps.append(np.array([rec.atep for rec in records]))
        cis.append(np.array([rec.atep_ci95 for rec in records]))
    gap = gaps[0] - gaps[1]  # uniform minus kkt
    ci = cis[0] + cis[1]
    c_ok = bool(np.all(gap[1:] <= gap[:-1] + ci[1:] + ci[:-1]))

    elapsed = time.perf_counter() - start
    report(8, a_ok and b_ok and c_ok and elapsed < 600.0,
           f"(a) kkt<=uniform,proportional at all SNR: {a_ok}; "
           f"(b) omp<=power at all SNR: {b_ok}; "
           f"(c) kkt-vs-uniform gap nonincreasing in beta within CI: {c_ok}; "
           f"{elapsed:.0f}s (limit 600s)")


def test_criterion_9_worker_count_determinism(tmp_path):
    cfg = {
        "codebook": {"n_tx": 4, "n_rx": 4, "x_tx": 4, "x_rx": 4},
        "snr_db": [-12.0, -8.0, -4.0],
        "m_b": 8,
        "t_blocks": 6,
        "n_frames": 300,
        "strategy": {"kind": "kkt"},
        "seed": 31,
    }
    path = tmp_path / "determinism.json"
    path.write_text(json.dumps(cfg))
    out_1 = tmp_path / "w1.csv"
    out_8 = tmp_path / "w8.csv"
    code_1 = main(["run", "--config", str(path), "--out", str(out_1),
                   "--workers", "1"])
    code_8 = main(["run", "--config", str(path), "--out", str(out_8),
                   "--workers", "8"])
    same = out_1.read_bytes() == out_8.read_bytes()
    report(9, code_1 == 0 and code_8 == 0 and same,
           f"CSV bytes identical across 1 and 8 workers: {same}")
