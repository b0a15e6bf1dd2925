"""Brute-force allocation oracle, shared by the tests.

Enumerates every way to split the budget over the top-ranked pairs, so it is
exact for any objective and only usable on small budgets and caps.
"""

from itertools import combinations_with_replacement

import numpy as np

from beamtrack.astp import Allocation


def allocate_exhaustive(ranked, m_b, value, cap=None):
    """Enumerate every multiset of the top-cap pairs and keep the maximizer of
    value(alloc, weights), where weights are the ranked prior masses of
    alloc's pairs in order; exact value ties go to the lexicographically
    smallest count vector over the top-cap pairs."""
    cap = min(cap if cap is not None else m_b, ranked.size, m_b)
    w = ranked.weights[:cap]
    top_pairs = ranked.order[:cap]
    best = None
    for combo in combinations_with_replacement(range(cap), m_b):
        counts = np.bincount(np.asarray(combo, int), minlength=cap)
        keep = counts > 0
        alloc = Allocation(pairs=tuple(top_pairs[keep]),
                           counts=tuple(counts[keep]), budget=m_b)
        val = value(alloc, w[keep])
        key = tuple(int(c) for c in counts)
        if best is None or val > best[0] or (val == best[0] and key < best[1]):
            best = (val, key, alloc)
    return best[2]
