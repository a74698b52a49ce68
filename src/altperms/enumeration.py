"""Exhaustive generation of restricted alternating permutations.

One pruned, lexicographic backtracker is the single oracle every formula in
this package is checked against.  Each entry is drawn from the zigzag range cut
to the boundary flags' bounds and, under a pattern constraint, pruned on the
occurrence target.
For 321 (dually 123) each placed entry keeps the number of earlier larger
(smaller) entries, so one sweep over the values scores a candidate: the
occurrences it closes plus a lower bound on those still to come.  The bound
never loses a solution, because every unused value must be placed later and
then closes a distinct 321 with each prefix 21-pair lying above it (a 123
with each 12-pair below it); this is the generating-tree pruning of West,
"Generating trees and forbidden subsequences" (1996).  Other patterns are
scored by counting the occurrences in the extended prefix with
perm_core.count_occurrences and pruned on that count, which only grows
under prefix extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .perm_core import (
    AlternationClass,
    Pattern,
    Perm,
    PATTERN_123,
    PATTERN_321,
    check_pattern,
    count_occurrences,
)

#: Boundary statistics of a Table 1 cell: all permutations, or those with the property.
STATISTICS = ("total", "ends_in_largest", "begins_with_smallest")


@dataclass(frozen=True)
class GenerationFilter:
    """Constraints for one generation run.

    `avoid` and `exact_occurrences` express the same kind of constraint
    (avoiding p is "exactly 0 of p", see `occurrence_target`), so at most one may be set.
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
        pattern, target = self.occurrence_target
        if pattern is not None:
            check_pattern(pattern)
        if target < 0:
            raise ValueError("exact_occurrences count must be >= 0")

    @property
    def occurrence_target(self) -> tuple[Pattern | None, int]:
        """The constraint as (pattern, target): `avoid=p` is (p, 0), none is (None, 0)."""
        if self.exact_occurrences is not None:
            return self.exact_occurrences
        return self.avoid, 0


def generate(filt: GenerationFilter) -> Iterator[Perm]:
    """Yield every permutation matching `filt`, lexicographically, each once.

    Implemented as an explicit-stack backtracker so that counting millions of
    permutations stays a flat loop rather than a tower of delegating
    generators.
    """
    n = filt.length
    pattern, target = filt.occurrence_target
    ends = filt.ends_in_largest
    begins = filt.begins_with_smallest

    if n == 0:
        if ends is not True and begins is not True and target == 0:
            yield ()
        return

    # rise[t] (1-based position t >= 2): entry at t must exceed entry at t-1
    rise = [False] * (n + 1)
    for t in range(2, n + 1):
        rise[t] = filt.cls.rises_into(t)

    # floor[t]..ceil[t]: the values the boundary flags leave at position t.
    # `begins` only tightens them, because position 1 is position n when n = 1.
    floor = [1] * (n + 1)
    ceil = [n] * (n + 1)
    if ends is True:
        ceil = [n - 1] * n + [n]  # n must stay available for the last slot
        floor[n] = n
    elif ends is False:
        ceil[n] = n - 1
    if begins is True:
        ceil[1] = min(ceil[1], 1)
    elif begins is False:
        floor[1] = max(floor[1], 2)

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
        lo, hi = floor[t], ceil[t]
        if d > 0:
            if rise[t]:
                if lo <= prefix[-1]:
                    lo = prefix[-1] + 1
            elif hi >= prefix[-1]:
                hi = prefix[-1] - 1
        v = resume[d]
        if v < lo:
            v = lo
        while v <= hi:
            if used[v]:
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
                if total + bound > target:
                    v += 1
                    continue
            elif pattern is not None:
                total = count_occurrences(prefix + [v], pattern)
                if total > target:
                    v += 1
                    continue
            else:
                total = 0
            if t == n:
                if total == target:
                    yield tuple(prefix) + (v,)
                v += 1
                continue
            resume[d] = v + 1
            used[v] = True
            prefix.append(v)
            occ.append(total)
            d += 1
            resume[d] = 1
            break
        else:  # no candidate left at this depth: backtrack
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
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r} (expected one of {STATISTICS})")
    filt = GenerationFilter(
        cls=cls,
        length=n,
        avoid=PATTERN_321,
        ends_in_largest=True if statistic == "ends_in_largest" else None,
        begins_with_smallest=True if statistic == "begins_with_smallest" else None,
    )
    return count(filt)
