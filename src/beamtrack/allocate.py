"""Training-budget allocation over ranked beam pairs.

Strategies split an integer pilot budget across candidate beam pairs ranked
by prior probability: uniform and proportional baselines, an exact optimizer
of the tractable surrogate objective (the branch_and_bound strategy), a
closed-form allocator from the relaxed problem's stationarity conditions,
and a brute-force enumerator used both as a strategy and as a test oracle.

The exact optimizer solves each number of probed pairs by marginal greedy.
For a fixed pair count the surrogate is a sum of per-pair terms, each concave
in its integer count, under a single budget constraint; handing out the
budget one unit at a time to the largest marginal gain is then optimal.
"""

import heapq
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .astp import Allocation, approx_astp, gamma_closed_form, omp_astp_lower_bound
from .specfun import harmonic

STRATEGY_KINDS = ("uniform", "proportional", "exhaustive", "branch_and_bound",
                  "kkt", "omp_exhaustive")
# Strategies that read the prior only through its top min(cap, M_B) ranked
# weights (besides M_B and r0), so priors with the same top weights get the
# same allocation by rank; omp_exhaustive reads the whole prior and grid.
PROFILE_KINDS = ("uniform", "proportional", "exhaustive", "branch_and_bound", "kkt")


@dataclass(frozen=True)
class StrategyConfig:
    kind: str
    omega: float = 5.0  # ambiguity threshold in noise-variance units
    candidate_cap: int | None = None  # None: cap at the budget size

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}, expected one of {STRATEGY_KINDS}")
        if not self.omega >= 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.candidate_cap is not None and self.candidate_cap < 1:
            raise ValueError(f"candidate_cap must be >= 1, got {self.candidate_cap}")


@dataclass(frozen=True)
class RankedPairs:
    order: np.ndarray  # flat pair indices, heaviest prior first
    weights: np.ndarray  # matching prior masses, nonincreasing

    def __post_init__(self):
        order = np.asarray(self.order, int)
        weights = np.asarray(self.weights, float)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "weights", weights)
        if order.shape != weights.shape or order.ndim != 1:
            raise ValueError("order and weights must be 1-d and equally long")
        if np.any(np.diff(weights) > 1e-15):
            raise ValueError("weights must be nonincreasing")

    @property
    def size(self):
        return len(self.order)


def rank_pairs(prior):
    """Sort flat pair indices by descending prior mass, ties by ascending index."""
    w = np.asarray(prior.weights, float)
    idx = np.lexsort((np.arange(len(w)), -w))
    return RankedPairs(order=idx + 1, weights=w[idx])


def allocate_uniform(ranked, m_b):
    if m_b < 1:
        raise ValueError(f"budget must be >= 1, got {m_b}")
    if m_b > ranked.size:
        raise ValueError(f"budget {m_b} exceeds the {ranked.size} distinct pairs")
    return Allocation(pairs=tuple(ranked.order[:m_b]), counts=(1,) * m_b, budget=m_b)


def allocate_proportional(ranked, m_b, cap=None):
    """Largest-remainder apportionment of the budget by prior mass over the
    top-cap pairs; pairs apportioned zero are dropped."""
    if m_b < 1:
        raise ValueError(f"budget must be >= 1, got {m_b}")
    cap = min(cap if cap is not None else m_b, ranked.size, m_b)
    w = ranked.weights[:cap]
    mass = w.sum()
    if mass <= 0:
        raise ValueError("no prior mass on the candidate pairs")
    quota = m_b * w / mass
    counts = np.floor(quota).astype(int)
    frac = quota - counts
    short = m_b - int(counts.sum())
    counts[np.lexsort((np.arange(cap), -frac))[:short]] += 1
    keep = counts > 0
    return Allocation(pairs=tuple(ranked.order[:cap][keep]),
                      counts=tuple(counts[keep]), budget=m_b)


def round_repair(real_counts, m_b):
    """Round fractional counts to integers summing to the budget.

    Nearest-integer rounding (halves away from zero); a surplus of K is
    removed from the K entries that rounded up the most, a shortfall added to
    those that rounded down the most. Ties go to the later entry, and an
    entry is never pushed below 1; a blocked decrement shifts to the next
    entry in that order, cycling as needed.
    """
    real = np.asarray(real_counts, float)
    if abs(float(real.sum()) - m_b) > 1e-6:
        raise ValueError(f"fractional counts sum {real.sum()!r}, expected {m_b}")
    if np.any(real < 1.0 - 1e-9):
        raise ValueError("fractional counts must be >= 1")
    counts = np.floor(real + 0.5).astype(int)
    counts = np.maximum(counts, 1)
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


def _even_split(m_b, n):
    base, rem = divmod(m_b, n)
    return tuple(base + 1 if j < rem else base for j in range(n))


# ------------------------------------------------------- exact allocation

def _scan_pair_counts(ranked, m_b, r0, cap, diag, solve):
    """Best allocation over every feasible number N of probed pairs.

    Scans N downward from the cap, skipping the tail once the cumulative prior
    mass of the top N pairs (an upper bound on any N-pair objective) falls to
    the incumbent. solve(w) returns integer counts for the pairs weighted w.
    """
    if m_b < 1:
        raise ValueError(f"budget must be >= 1, got {m_b}")
    diag.setdefault("visited_n", [])
    diag.setdefault("skipped_n", [])
    n0 = min(m_b, ranked.size, cap if cap is not None else m_b)
    w_all = ranked.weights
    cum = np.cumsum(w_all)
    best = _even_split(m_b, n0)
    best_val = approx_astp(best, w_all[:n0], m_b, r0)
    for n in range(n0, 0, -1):
        if cum[n - 1] <= best_val:
            diag["skipped_n"] = list(range(n, 0, -1))
            break
        diag["visited_n"].append(n)
        w = np.asarray(w_all[:n], float)
        counts = np.sort(solve(w))[::-1]
        val = approx_astp(counts, w, m_b, r0)
        if val > best_val:
            best_val, best = val, tuple(int(c) for c in counts)
    return Allocation(pairs=tuple(int(p) for p in ranked.order[:len(best)]),
                      counts=best, budget=m_b)


def _greedy_counts(w, m_b, r0):
    """Exact integer maximizer of the surrogate for a fixed set of pairs.

    Every pair starts at one count; each remaining unit goes to the pair with
    the largest marginal gain w_j * [psi(c + 1) - psi(c)], ties to the heavier
    pair. Exact because psi's unit increments are positive and shrinking
    (Fox 1966; Ibaraki & Katoh 1988).
    """
    n = len(w)
    if n == 1:
        return [m_b]
    lam = np.arange(1.0, m_b - n + 3.0)
    psi = 1.0 - harmonic(n - 1) / (n - 1) * (m_b - lam) / (lam * lam * r0 + lam)
    step = np.diff(psi)  # step[c - 1] = psi(c + 1) - psi(c)
    w, step = w.tolist(), step.tolist()
    counts = [1] * n
    heap = [(-w[j] * step[0], j) for j in range(n)]
    heapq.heapify(heap)
    for _ in range(m_b - n):
        j = heapq.heappop(heap)[1]
        counts[j] += 1
        heapq.heappush(heap, (-w[j] * step[counts[j] - 1], j))
    return counts


def allocate_bb(ranked, m_b, budget, cap=None, diagnostics=None):
    """Budget split maximizing the surrogate objective across every feasible
    number of probed pairs.

    Each pair count N is solved exactly by marginal greedy: for fixed N the
    surrogate is a sum of per-pair concave terms under one budget constraint,
    where handing out units one at a time by largest marginal gain is
    optimal. diagnostics["nodes"] counts the units handed out that way.
    """
    diag = diagnostics if diagnostics is not None else {}
    diag.setdefault("nodes", 0)

    def solve(w):
        diag["nodes"] += m_b - len(w)
        return _greedy_counts(w, m_b, budget.r0)

    return _scan_pair_counts(ranked, m_b, budget.r0, cap, diag, solve)


# ------------------------------------------------------- stationarity solve

def _stationary_roots(mu0, w, m_b, r0):
    """Positive root of mu0*r0*lam^3 + w*lam - 2*m_b*w = 0 per coordinate.

    Depressed cubic with one real root; zero-weight coordinates root at 0.
    """
    roots = np.zeros(len(w))
    pos = w > 0
    q = w[pos] / (mu0 * r0)
    m = m_b * q
    s = np.sqrt(m * m + (q / 3.0) ** 3)
    t = np.cbrt(m + s)
    roots[pos] = t - q / (3.0 * t)
    return roots


def _kkt_real_counts(w, m_b, r0):
    """Fractional counts from the relaxed problem's stationarity conditions.

    The shared multiplier is bisected (geometrically, the scale is unknown a
    priori) so the floored-at-1 roots total the budget. The bisection stops
    once the bracket's geometric midpoint rounds to one of its ends: from
    there on further steps leave the bracket fixed or collapse it onto that
    midpoint, which is then the multiplier. Each root is then polished by a
    few Newton steps on its cubic. Returns None when no multiplier can reach
    the budget.
    """
    n = len(w)
    if not np.any(w > 0):
        return None

    def total(mu0):
        return float(np.maximum(1.0, _stationary_roots(mu0, w, m_b, r0)).sum())

    mu_lo = mu_hi = 1.0
    for _ in range(200):
        if total(mu_lo) >= m_b:
            break
        mu_lo *= 0.5
    else:
        return None
    for _ in range(200):
        if total(mu_hi) <= m_b:
            break
        mu_hi *= 2.0
    else:
        return None
    for _ in range(200):
        mid = math.sqrt(mu_lo * mu_hi)
        if mid == mu_lo or mid == mu_hi:
            break
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


def allocate_kkt(ranked, m_b, budget, cap=None, diagnostics=None):
    """Same outer pair-count scan as allocate_bb, but each N is solved in
    closed form from the stationarity cubics and repaired to integers.

    A failed multiplier search falls back to an even split for that N and is
    flagged in diagnostics; solved roots are recorded there too so their
    residuals can be audited.
    """
    diag = diagnostics if diagnostics is not None else {}
    diag.setdefault("fallback_n", [])
    diag.setdefault("stationarity", [])
    r0 = budget.r0

    def solve(w):
        n = len(w)
        if n == m_b:
            return np.ones(n, int)
        sol = _kkt_real_counts(w, m_b, r0)
        if sol is None:
            diag["fallback_n"].append(n)
            return np.asarray(_even_split(m_b, n), int)
        real, mu0, roots = sol
        diag["stationarity"].append(
            {"n_pairs": n, "mu0": mu0, "roots": roots, "weights": w})
        return round_repair(real, m_b)

    return _scan_pair_counts(ranked, m_b, r0, cap, diag, solve)


# ----------------------------------------------------------- brute force

EXHAUSTIVE_OBJECTIVES = ("closed_form", "approx", "omp_lower_bound")


def allocate_exhaustive(ranked, m_b, budget, objective="closed_form", cap=None,
                        limit=10_000_000, prior=None, tables=None):
    """Enumerate every multiset of the top-cap pairs and keep the objective
    maximizer; exact value ties go to the lexicographically smallest count
    vector."""
    if m_b < 1:
        raise ValueError(f"budget must be >= 1, got {m_b}")
    if objective not in EXHAUSTIVE_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}, expected one of {EXHAUSTIVE_OBJECTIVES}")
    cap = min(cap if cap is not None else m_b, ranked.size, m_b)
    total = math.comb(m_b + cap - 1, cap - 1)
    if total > limit:
        raise ValueError(
            f"exhaustive search over {total} allocations exceeds the limit of "
            f"{limit}; reduce the budget or the candidate cap")
    if objective == "omp_lower_bound" and (prior is None or tables is None):
        raise ValueError("omp_lower_bound objective needs prior and tables")
    w = ranked.weights[:cap]
    top_pairs = ranked.order[:cap]
    r0 = budget.r0
    best = None
    for combo in combinations_with_replacement(range(cap), m_b):
        counts = np.bincount(np.asarray(combo, int), minlength=cap)
        keep = counts > 0
        alloc = Allocation(pairs=tuple(top_pairs[keep]),
                           counts=tuple(counts[keep]), budget=m_b)
        if objective == "closed_form":
            val = float(sum(w[j] * gamma_closed_form(pos + 1, alloc, budget)
                            for pos, j in enumerate(np.flatnonzero(keep))))
        elif objective == "approx":
            val = approx_astp(counts[keep], w[keep], m_b, r0)
        else:
            val = omp_astp_lower_bound(alloc, prior, tables, budget).value
        key = tuple(int(c) for c in counts)
        if best is None or val > best[0] or (val == best[0] and key < best[1]):
            best = (val, key, alloc)
    return best[2]


def guarded_strategy(prev_powers, omega, inner, noise_var):
    """Ambiguity guard on the previous block's readout: when the two largest
    accumulated powers are within omega noise-variance units, the upcoming
    block probes uniformly instead of trusting the inner strategy's prior
    concentration. No history (first tracked block) keeps the inner strategy.
    """
    if prev_powers is None:
        return inner
    ps = sorted(prev_powers, reverse=True)
    second = ps[1] if len(ps) > 1 else 0.0
    if ps[0] - second < omega * noise_var:
        return StrategyConfig(kind="uniform", omega=inner.omega,
                              candidate_cap=inner.candidate_cap)
    return inner


def apply_strategy(config, ranked, m_b, budget, prior=None, tables=None):
    """Route a strategy configuration to its allocator."""
    cap = config.candidate_cap
    if config.kind == "uniform":
        return allocate_uniform(ranked, m_b)
    if config.kind == "proportional":
        return allocate_proportional(ranked, m_b, cap=cap)
    if config.kind == "branch_and_bound":
        return allocate_bb(ranked, m_b, budget, cap=cap)
    if config.kind == "kkt":
        return allocate_kkt(ranked, m_b, budget, cap=cap)
    if config.kind == "exhaustive":
        return allocate_exhaustive(ranked, m_b, budget, objective="closed_form", cap=cap)
    return allocate_exhaustive(ranked, m_b, budget, objective="omp_lower_bound",
                               cap=cap, prior=prior, tables=tables)
