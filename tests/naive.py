"""Naive reference implementations used as independent oracles in tests.

Everything here is deliberately brute force (itertools over the whole
symmetric group, occurrence checks over all position combinations) so that
the package's pruned/backtracking code paths are checked against something
with no shared logic.  Scans are memoised per length, class and pattern, so
that many filters over the same symmetric group rescan it once.
"""

from functools import lru_cache
from itertools import combinations, permutations


def occurrence_positions(w, pattern):
    """All 1-based position tuples of w order-isomorphic to pattern."""
    k = len(pattern)
    out = []
    for pos in combinations(range(len(w)), k):
        values = [w[q] for q in pos]
        if all(
            (values[a] < values[b]) == (pattern[a] < pattern[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            out.append(tuple(q + 1 for q in pos))
    return out


def occurrence_count(w, pattern):
    return len(occurrence_positions(w, pattern))


def is_up_down(w):
    return all((w[t] < w[t + 1]) == (t % 2 == 0) for t in range(len(w) - 1))


def is_down_up(w):
    return all((w[t] > w[t + 1]) == (t % 2 == 0) for t in range(len(w) - 1))


def all_perms(n):
    """Every permutation of {1..n} as a tuple."""
    return permutations(range(1, n + 1))


@lru_cache(maxsize=None)
def _alternating(cls_code, n):
    shape = is_up_down if cls_code == "UD" else is_down_up
    return tuple(w for w in all_perms(n) if shape(w))


@lru_cache(maxsize=None)
def _occurrence_counts(cls_code, n, pattern):
    return tuple(occurrence_count(w, pattern) for w in _alternating(cls_code, n))


def matching_perms(cls_code, n, avoid=None, exactly=None, ends_in_largest=None, begins_with_smallest=None):
    """Filtered, sorted permutation list by direct scan of the symmetric group."""
    wanted = []  # (occurrence count of each alternating perm, required count)
    if avoid is not None:
        wanted.append((_occurrence_counts(cls_code, n, tuple(avoid)), 0))
    if exactly is not None:
        wanted.append((_occurrence_counts(cls_code, n, tuple(exactly[0])), exactly[1]))
    out = []
    for i, w in enumerate(_alternating(cls_code, n)):
        if any(counts[i] != target for counts, target in wanted):
            continue
        if ends_in_largest is not None and (n >= 1 and w[-1] == n) != ends_in_largest:
            continue
        if begins_with_smallest is not None and (n >= 1 and w[0] == 1) != begins_with_smallest:
            continue
        out.append(w)
    return sorted(out)
