"""Exhaustive generation of restricted alternating permutations.

One pruned, lexicographic backtracker is the single oracle every formula in
this package is checked against.  Placement of each entry is pruned on the
zigzag inequality and, under a pattern constraint, on the occurrence budget.
For 321 (dually 123) each placed entry keeps the number of earlier larger
(smaller) entries, so one sweep over the values scores a candidate: the
occurrences it closes plus a lower bound on those still to come.  The bound
never loses a solution, because every unused value must be placed later and
then closes a distinct 321 with each prefix 21-pair lying above it (a 123
with each 12-pair below it); this is the generating-tree pruning of West,
"Generating trees and forbidden subsequences" (1996).  Other patterns are
scored by walking the prefix and pruned on the occurrences so far, which
only grow under prefix extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .perm_core import (
    AlternationClass,
    Pattern,
    Perm,
    PATTERN_123,
    PATTERN_321,
    is_permutation,
)

_STATISTICS = ("total", "ends_in_largest", "begins_with_smallest")


@dataclass(frozen=True)
class GenerationFilter:
    """Constraints for one generation run.

    `avoid` and `exact_occurrences` express the same kind of constraint
    (avoiding p is "exactly 0 of p"), so at most one may be set.
    A filter with `ends_in_largest`/`begins_with_smallest` set to a boolean
    keeps only permutations whose boundary statistic equals it; the empty
    permutation counts as neither ending in its largest nor beginning with
    its smallest entry.
    """

    cls: AlternationClass
    length: int
    avoid: Pattern | None = None
    exact_occurrences: tuple[Pattern, int] | None = None
    ends_in_largest: bool | None = None
    begins_with_smallest: bool | None = None

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be >= 0")
        if self.avoid is not None and self.exact_occurrences is not None:
            raise ValueError("avoid and exact_occurrences are mutually exclusive")
        if self.avoid is not None and not (len(self.avoid) >= 1 and is_permutation(self.avoid)):
            raise ValueError(f"avoid pattern {self.avoid!r} is not a nonempty permutation")
        if self.exact_occurrences is not None:
            pattern, target = self.exact_occurrences
            if not (len(pattern) >= 1 and is_permutation(pattern)):
                raise ValueError(f"exact_occurrences pattern {pattern!r} is not a nonempty permutation")
            if target < 0:
                raise ValueError("exact_occurrences count must be >= 0")


def _occurrences_ending_with(prefix: list[int], value: int, pattern: Sequence[int]) -> int:
    """Occurrences of `pattern` in prefix+[value] whose last entry is `value`."""
    k = len(pattern)
    if k == 1:
        return 1
    m = len(prefix)
    if m < k - 1:
        return 0
    last = pattern[-1]
    chosen: list[int] = []

    def walk(slot: int, start: int) -> int:
        if slot == k - 1:
            return 1
        ps = pattern[slot]
        below = ps < last
        total = 0
        for q in range(start, m - (k - 2 - slot)):
            x = prefix[q]
            if (x < value) != below:
                continue
            if all((c < x) == (pattern[a] < ps) for a, c in enumerate(chosen)):
                chosen.append(x)
                total += walk(slot + 1, q + 1)
                chosen.pop()
        return total

    return walk(0, 0)


def generate(filt: GenerationFilter) -> Iterator[Perm]:
    """Yield every permutation matching `filt`, lexicographically, each once.

    Implemented as an explicit-stack backtracker so that counting millions of
    permutations stays a flat loop rather than a tower of delegating
    generators.
    """
    n = filt.length
    pattern: Pattern | None = None
    budget = 0
    exact: int | None = None
    if filt.avoid is not None:
        pattern = filt.avoid
    elif filt.exact_occurrences is not None:
        pattern, exact = filt.exact_occurrences
        budget = exact
    ends = filt.ends_in_largest
    begins = filt.begins_with_smallest

    if n == 0:
        if ends is not True and begins is not True and (exact is None or exact == 0):
            yield ()
        return

    # rise[t] (1-based position t >= 2): entry at t must exceed entry at t-1
    rise = [False] * (n + 1)
    for t in range(2, n + 1):
        rise[t] = filt.cls.rises_into(t)

    # For 321 (123), pairs[u] of a placed u counts the earlier entries above
    # (below) it, and candidates are scored by sweeping down (up) the values.
    sweep: range | None = None
    if pattern == PATTERN_321:
        sweep = range(n, 0, -1)
    elif pattern == PATTERN_123:
        sweep = range(1, n + 1)
    pairs = [0] * (n + 1)

    used = [False] * (n + 1)
    prefix: list[int] = []
    occ = [0]  # occ[d] = pattern occurrences inside prefix[:d]
    resume = [0] * (n + 1)  # next candidate value to try at each depth
    resume[0] = 1
    d = 0
    while d >= 0:
        t = d + 1  # position being filled
        if d == 0:
            lo, hi = 1, n
        elif rise[t]:
            lo, hi = prefix[-1] + 1, n
        else:
            lo, hi = 1, prefix[-1] - 1
        v = resume[d]
        if v < lo:
            v = lo
        placed = False
        while v <= hi:
            if used[v]:
                v += 1
                continue
            if t == 1 and begins is not None and (v == 1) != begins:
                v += 1
                continue
            if ends is not None:
                if t == n:
                    if (v == n) != ends:
                        v += 1
                        continue
                elif ends and v == n:
                    # the largest value must stay available for the last slot
                    v += 1
                    continue
            if sweep is not None:
                # run: pairs of the placed values swept so far, v included
                new = bound = run = passed = 0
                for u in sweep:
                    if u == v:
                        new = run
                        pairs[v] = passed
                        run += passed
                    elif used[u]:
                        run += pairs[u]
                        passed += 1
                    else:
                        bound += run
                total = occ[-1] + new
                if total + bound > budget:
                    v += 1
                    continue
            elif pattern is not None:
                total = occ[-1] + _occurrences_ending_with(prefix, v, pattern)
                if total > budget:
                    v += 1
                    continue
            else:
                total = 0
            if t == n:
                if exact is None or total == exact:
                    yield tuple(prefix) + (v,)
                v += 1
                continue
            resume[d] = v + 1
            used[v] = True
            prefix.append(v)
            occ.append(total)
            d += 1
            resume[d] = 1
            placed = True
            break
        if not placed:
            d -= 1
            if d >= 0:
                used[prefix.pop()] = False
                occ.pop()


def count(filt: GenerationFilter) -> int:
    """Cardinality of generate(filt), draining the stream without storing it."""
    return sum(1 for _ in generate(filt))


def euler_zigzag(n: int) -> int:
    """Number of UP_DOWN permutations of length n, by the boustrophedon recurrence.

    Seidel triangle: each row is the previous one summed back and forth,
    independent of the backtracking oracle.

    >>> [euler_zigzag(n) for n in range(8)]
    [1, 1, 1, 2, 5, 16, 61, 272]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for k in range(1, n + 1):
        prev = row
        row = [0]
        for i in range(k):
            row.append(row[-1] + prev[k - 1 - i])
    return row[-1]


def table1_oracle(cls: AlternationClass, n: int, statistic: str) -> int:
    """Count 321-avoiding length-n permutations of `cls` by exhaustive generation.

    `statistic` is one of "total", "ends_in_largest", "begins_with_smallest";
    the latter two restrict to permutations with that boundary property.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r} (expected one of {_STATISTICS})")
    filt = GenerationFilter(
        cls=cls,
        length=n,
        avoid=PATTERN_321,
        ends_in_largest=True if statistic == "ends_in_largest" else None,
        begins_with_smallest=True if statistic == "begins_with_smallest" else None,
    )
    return count(filt)
