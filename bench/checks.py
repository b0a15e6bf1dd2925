"""Independent references and correctness checks for the campaign benchmark.

Nothing here calls into beamtrack: the Markov prior, the codebooks, the
power-readout success probability and the surrogate optimum are rebuilt from
the model's definitions, so a fault in the program cannot hide inside its own
reference. Every check raises CheckError with a message on failure.
"""

import json
import math

import numpy as np

# z-score of the two-sided binomial acceptance band for empirical ATEPs;
# a correct program fails one check in about 1.7 million.
BINOMIAL_Z = 5.0


class CheckError(Exception):
    """A program output disagrees with its independent reference."""


# ------------------------------------------------------------------ model

def markov_rows(beta, x):
    """Row k0 of the one-sided transition matrix: beta^|k1-k0|, normalized."""
    idx = np.arange(x)
    rows = np.power(float(beta), np.abs(idx[:, None] - idx[None, :]))
    return rows / rows.sum(axis=1, keepdims=True)


def prior_weights(rows_rx, rows_tx, k0, i0):
    """Joint next-pair prior from last pair (k0, i0), flat index
    n = k + x_rx*(i - 1) with the receive index fastest."""
    return np.outer(rows_tx[i0 - 1], rows_rx[k0 - 1]).ravel()


def start_classes(beta_rx, beta_tx, x_rx, x_tx):
    """Group the start states (k, i) whose priors have the same sorted
    weights. The allocation problem sees only those, so one representative
    per class stands for all of its members.

    Returns [(members, representative prior)] in first-seen order.
    """
    rows_rx = markov_rows(beta_rx, x_rx)
    rows_tx = markov_rows(beta_tx, x_tx)
    classes = {}
    for i in range(1, x_tx + 1):
        for k in range(1, x_rx + 1):
            w = prior_weights(rows_rx, rows_tx, k, i)
            key = tuple(np.round(np.sort(w)[::-1], 12))
            if key in classes:
                classes[key][0] += 1
            else:
                classes[key] = [1, w]
    return [tuple(v) for v in classes.values()]


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


# ------------------------------------------- power readout, orthogonal beams

def success_probability(counts, pos, gamma2, noise_var, gain_var):
    """Probability that pair `pos` (0-based) wins the power readout when it
    aims at the true direction, orthogonal beams.

    The own accumulated power is exponential with mean
    lam^2 gamma2 gain_var + lam noise_var; every other pair's is exponential
    with mean lam_m noise_var. The alternating sum over interferer subsets,
    sum_S (-1)^|S| / (1 + h sum_{m in S} rate_m), is summed over groups of
    equal counts with binomial multiplicities so it stays short.
    """
    lam = [int(c) for c in counts]
    own = lam[pos]
    h = own * own * gamma2 * gain_var + own * noise_var
    others = lam[:pos] + lam[pos + 1:]
    terms = [(0.0, 1.0)]  # (sum of rates, signed coefficient)
    for c in sorted(set(others)):
        mult = others.count(c)
        rate = 1.0 / (noise_var * c)
        terms = [(s + j * rate, coef * math.comb(mult, j) * (-1) ** j)
                 for s, coef in terms for j in range(mult + 1)]
    return float(sum(coef / (1.0 + h * s) for s, coef in terms))


def astp(counts, pair_weights, gamma2, noise_var, gain_var):
    """Prior-weighted success probability of one allocation."""
    return float(sum(w * success_probability(counts, j, gamma2, noise_var, gain_var)
                     for j, w in enumerate(pair_weights)))


# --------------------------------------------------------- surrogate optimum

def surrogate(counts, weights, m_b, r0):
    """weights . [1 - H(N-1)/(N-1) * (M_B - c)/(c^2 r0 + c)], exact at N = 1."""
    lam = np.asarray(counts, float)
    w = np.asarray(weights, float)
    n = len(lam)
    if n == 1:
        return float(w[0])
    ratio = harmonic(n - 1) / (n - 1)
    return float(np.sum(w * (1.0 - ratio * (m_b - lam) / (lam * lam * r0 + lam))))


def greedy_counts(weights, m_b, r0):
    """Unit-increment marginal greedy over counts >= 1 on the given pairs.

    For a fixed pair count the surrogate is separable and concave in each
    count, so greedy increments reach the integer optimum (Fox 1966,
    "Discrete optimization via marginal analysis").
    """
    w = np.asarray(weights, float)
    n = len(w)
    if n == 1:
        return np.array([m_b])
    ratio = harmonic(n - 1) / (n - 1)

    def psi(lam):
        return 1.0 - ratio * (m_b - lam) / (lam * lam * r0 + lam)

    counts = np.ones(n)
    for _ in range(m_b - n):
        counts[int(np.argmax(w * (psi(counts + 1) - psi(counts))))] += 1
    return counts.astype(int)


def surrogate_optimum(sorted_weights, m_b, r0, n_max):
    """Largest surrogate value over every pair count 1..n_max, each probing
    the heaviest pairs."""
    best = -np.inf
    for n in range(1, n_max + 1):
        w = sorted_weights[:n]
        best = max(best, surrogate(greedy_counts(w, m_b, r0), w, m_b, r0))
    return best


def check_allocation(kind, pairs, counts, prior, m_b, r0, cap=None):
    """Feasibility of any allocation; for branch_and_bound, the surrogate
    optimum; for kkt, a value at or below it."""
    counts = [int(c) for c in counts]
    if sum(counts) != m_b:
        raise CheckError(f"{kind}: counts {counts} sum to {sum(counts)}, not M_B={m_b}")
    if min(counts) < 1 or len(set(pairs)) != len(pairs) or len(pairs) != len(counts):
        raise CheckError(f"{kind}: malformed allocation pairs={pairs} counts={counts}")
    if kind not in ("branch_and_bound", "kkt"):
        return
    n_max = min(m_b, len(prior), cap if cap is not None else m_b)
    opt = surrogate_optimum(np.sort(prior)[::-1], m_b, r0, n_max)
    val = surrogate(counts, prior[np.asarray(pairs) - 1], m_b, r0)
    if kind == "branch_and_bound" and abs(val - opt) > 1e-9:
        raise CheckError(f"branch_and_bound: counts {counts} reach {val!r}, "
                         f"the surrogate optimum is {opt!r}")
    if val > opt + 1e-9:
        raise CheckError(f"kkt: counts {counts} claim {val!r} above the optimum {opt!r}")


# ------------------------------------------------------------ OMP estimator

def grid_angles(x):
    m = np.arange(x)
    return 2.0 * np.pi * m / x - np.pi * (x - 1) / x


def steering(n_antennas, x):
    """n_antennas x x matrix of unit-norm ULA responses at the grid angles."""
    return np.exp(1j * np.outer(np.arange(n_antennas), grid_angles(x))) / math.sqrt(n_antennas)


def pair_correlations(pairs, n_rx, n_tx, x_rx, x_tx):
    """Row m: correlation of probe pair m's beams with every grid direction,
    flat order with the receive index fastest."""
    a_rx = steering(n_rx, x_rx)
    a_tx = steering(n_tx, x_tx)
    nu_rx = a_rx.conj().T @ a_rx  # [probe k, direction k1]
    nu_tx = a_tx.T @ a_tx.conj()  # [probe i, direction i1] = a(i1)^H a(i)
    rows = []
    for z in pairs:
        a, c = (z - 1) % x_rx, (z - 1) // x_rx
        rows.append(np.outer(nu_tx[c], nu_rx[a]).ravel())
    return np.array(rows)


def check_omp_estimate(pairs, counts, symbols, estimate, geometry):
    """The estimate must maximize |sum_s conj(C[pair_s, n]) y_s|^2 over every
    grid direction n (within a 1e-9 relative tie tolerance)."""
    n_rx, n_tx, x_rx, x_tx = geometry
    rows = np.repeat(pair_correlations(pairs, n_rx, n_tx, x_rx, x_tx), counts, axis=0)
    scores = np.abs(rows.conj().T @ np.asarray(symbols)) ** 2
    k, i = estimate
    picked = scores[k - 1 + x_rx * (i - 1)]
    best = float(scores.max())
    if picked < best * (1.0 - 1e-9):
        n = int(np.argmax(scores))
        raise CheckError(f"omp: estimate {estimate} scores {picked!r}, direction "
                         f"{(n % x_rx + 1, n // x_rx + 1)} scores {best!r}")


# ---------------------------------------------------------------- records

def check_records(records, n_points, orthogonal):
    """Every point present and healthy; gain consistent with the error rate."""
    if len(records) != n_points:
        raise CheckError(f"{len(records)} records for {n_points} sweep points")
    for rec in records:
        if rec.error is not None:
            continue
        if not 0.0 <= rec.atep <= 1.0:
            raise CheckError(f"point {rec.sweep_value}: atep {rec.atep!r} outside [0, 1]")
        hit = 1.0 - rec.atep
        gain = rec.avg_beamforming_gain
        if orthogonal:
            if abs(gain - hit) > 1e-12:
                raise CheckError(f"point {rec.sweep_value}: avg_gain {gain!r} != "
                                 f"1 - atep {hit!r} on an orthogonal grid")
        elif not hit - 1e-12 <= gain <= 1.0 + 1e-12:
            raise CheckError(f"point {rec.sweep_value}: avg_gain {gain!r} outside "
                             f"[1 - atep, 1] = [{hit!r}, 1]")


def check_first_block(misses, trials, p_miss, label):
    """Binomial acceptance band around the reference miss probability."""
    expected = trials * p_miss
    band = BINOMIAL_Z * math.sqrt(trials * p_miss * (1.0 - p_miss)) + 1.0
    if abs(misses - expected) > band:
        raise CheckError(f"{label}: {misses} first-block misses in {trials} frames, "
                         f"reference {expected:.1f} +- {band:.1f} (p_miss={p_miss:.5f})")


def record_key(rec):
    """Everything a record reports except its wall time."""
    return (rec.sweep_value, rec.atep, rec.atep_ci95, rec.avg_beamforming_gain,
            tuple(rec.per_block_atep), rec.error)


def check_identical(records_a, records_b, label):
    a = [record_key(r) for r in records_a]
    b = [record_key(r) for r in records_b]
    if a != b:
        raise CheckError(f"{label}: records differ between two runs of the same seed")


def _reject_constant(name):
    raise CheckError(f"emitted JSON holds the non-standard constant {name}")


def check_emitted(path, records):
    """The written file is strict JSON and carries the records unchanged."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
    rows = doc["records"]
    if len(rows) != len(records):
        raise CheckError(f"{path}: {len(rows)} rows for {len(records)} records")
    for row, rec in zip(rows, records):
        if (row["atep"], row["avg_gain"], row["per_block_atep"]) != (
                rec.atep, rec.avg_beamforming_gain, list(rec.per_block_atep)):
            raise CheckError(f"{path}: row for {rec.sweep_value} differs from the record")
