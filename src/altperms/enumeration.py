"""Exhaustive generation of restricted alternating permutations.

One pruned, lexicographic backtracker is the single oracle every formula in
this package is checked against. It keeps the unused values in a sorted list
and draws each entry from the part of that list inside the zigzag range cut to
the boundary flags' bounds, so it never steps over a placed value; a candidate
v at index i of the list lies above b = v - 1 - i placed values. Its stack is
one fixed array per depth, written on a push and read back on a backtrack, and
a node's candidate window is computed once, when it is pushed. The last two
slots take the two values left, in the order the class fixes, and are checked
in place, so each node at depth n - 3 hands the tails (v, x, y) it accepts over
as one batch: `generate` joins them to the prefix, `count` adds up their lengths.
For 321 (dually 123) depth d keeps F, the 321s inside the prefix plus, for
each unused value, the prefix 21-pairs above it (12-pairs below it); placing v
above b placed entries adds (d - b)(v - 1 - b) (for 123, b(n - v - d + b)), and
pruning on F > target never loses a solution, because every unused value closes
a distinct occurrence with each such pair once placed, so F only grows and is
the exact count at a leaf (the generating-tree lookahead of West, "Generating
trees and forbidden subsequences", 1996).
These are the only patterns a filter accepts (perm_core.check_pattern).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from .perm_core import (
    STATISTICS,
    AlternationClass,
    FrozenRecord,
    Pattern,
    Perm,
    PATTERN_123,
    PATTERN_321,
    check_pattern,
)


class GenerationFilter(FrozenRecord):
    """Constraints for one generation run: `cls`, an AlternationClass, and `length`, an int >= 0.

    The one occurrence constraint is `exact_occurrences`, a (pattern, target)
    pair, target an int >= 0; `avoid=p` is stored as (p, 0), so at most one may
    be given. The pattern is 321 or 123 as any sequence (stored as a tuple),
    and each candidate is scored against it in O(1).
    The boundary flags `ends_in_largest`/`begins_with_smallest` are None, True or
    False; a boolean keeps only permutations whose statistic equals it, and the
    empty permutation neither ends in its largest nor begins with its smallest
    entry. Every field is a constructor argument, so `filt.replace(length=9)`
    derives a filter.
    """

    __slots__ = ("cls", "length", "exact_occurrences", "ends_in_largest", "begins_with_smallest")
    cls: AlternationClass
    length: int
    exact_occurrences: tuple[Pattern, int] | None
    ends_in_largest: bool | None
    begins_with_smallest: bool | None

    def __init__(self, cls: AlternationClass, length: int, avoid: Pattern | None = None,
                 exact_occurrences: tuple[Pattern, int] | None = None,
                 ends_in_largest: bool | None = None, begins_with_smallest: bool | None = None) -> None:
        if not isinstance(cls, AlternationClass):
            raise ValueError(f"cls must be an AlternationClass, got {cls!r}")
        if not isinstance(length, int) or length < 0:
            raise ValueError("length must be an int >= 0")
        if avoid is not None and exact_occurrences is not None:
            raise ValueError("avoid and exact_occurrences are mutually exclusive")
        if avoid is not None:
            exact_occurrences = (avoid, 0)
        if exact_occurrences is not None:
            pattern, target = exact_occurrences
            exact_occurrences = (check_pattern(pattern), target)
            if not isinstance(target, int) or target < 0:
                raise ValueError("exact_occurrences count must be an int >= 0")
        if not all(flag is None or isinstance(flag, bool) for flag in (ends_in_largest, begins_with_smallest)):
            raise ValueError("ends_in_largest and begins_with_smallest must be None, True or False")
        self.__setstate__((cls, length, exact_occurrences, ends_in_largest, begins_with_smallest))


def _walk(filt: GenerationFilter) -> Iterator[tuple[list[int], list[tuple[int, ...]]]]:
    """Yield (prefix, tails) per node at depth n - 3 that accepts a tail, in order;
    the prefix list is reused. Below length 3 the one match is a prefix with tail ()."""
    n = filt.length
    pattern, target = filt.exact_occurrences or (None, 0)
    ends, begins = filt.ends_in_largest, filt.begins_with_smallest
    if n <= 2:  # the class holds one permutation of this length, too short for a 321 or 123
        w = (2, 1) if n == 2 and not filt.cls.rises_into(2) else tuple(range(1, n + 1))
        if ends in (None, w[-1:] == (n,)) and begins in (None, w[:1] == (1,)) and target == 0:
            yield list(w), [()]
        return

    # rise[t] (1-based position t >= 2): entry at t must exceed entry at t-1
    rise = [t >= 2 and filt.cls.rises_into(t) for t in range(n + 1)]
    # floor[t]..ceil[t]: the values the boundary flags leave at position t
    floor, ceil = [1] * (n + 1), [n] * (n + 1)
    if ends is True:
        ceil = [n - 1] * n + [n]  # n must stay available for the last slot
        floor[n] = n
    elif ends is False:
        ceil[n] = n - 1
    if begins is True:
        ceil[1] = 1
    elif begins is False:
        floor[1] = 2
    is321, is123 = pattern == PATTERN_321, pattern == PATTERN_123

    # the nodes at depth leaf fill position last; of the two values left,
    # rise[n] puts the smaller (index j = 0) or larger (j = 1) first
    last, leaf = n - 2, n - 3
    j = 0 if rise[n] else 1
    # position n - 1 >= 2 needs no flag check of its own: begins_with_smallest
    # bounds position 1 only, and ends_in_largest's ceil n - 1 holds once y = n
    rise1, lo2, hi2 = rise[n - 1], floor[n], ceil[n]
    # the unused values, increasing; the sentinel n + 1 ends every candidate scan
    free = [*range(1, n + 1), n + 1]
    # prefix[d]: the value placed at depth d; resume[d]: its index in free;
    # forced[d]: F of prefix[:d], read for 321/123 only; top[d]: depth d's upper bound
    prefix, resume = [0] * leaf, [0] * leaf
    forced, top = [0] * (leaf + 1), [ceil[1]] * (leaf + 1)
    tails: list[tuple[int, ...]] = []
    d, hi, i = 0, top[0], bisect_left(free, floor[1])  # the root's window
    while True:
        v = free[i]
        while v <= hi:
            # i unused values lie below v, so v - 1 - i placed ones do
            if is321:
                total = forced[d] + (d - v + 1 + i) * i
            elif is123:
                total = forced[d] + (v - 1 - i) * (n - d - 1 - i)
            else:
                total = 0
            if total <= target:
                if d < leaf:
                    break
                a, b = free[i == 0], free[2 if i < 2 else 1]  # the two values left beside v
                x, y = (b, a) if j else (a, b)
                if (x > v) == rise1 and lo2 <= y <= hi2:
                    # the node scores at depth last and index j; F through x
                    # is the exact count, as y is the one value left
                    if is321:
                        total += (last - x + 1 + j) * j
                    elif is123:
                        total += (x - 1 - j) * (n - last - 1 - j)
                    if total == target:
                        tails.append((v, x, y))
            i += 1
            v = free[i]
        else:  # no candidate left at this depth: hand over its tails, backtrack
            if tails:
                yield prefix, tails
                tails = []
            d -= 1
            if d < 0:
                return
            free.insert(resume[d], prefix[d])
            i, hi = resume[d] + 1, top[d]
            continue
        # push v, then the child's window: the flags' bounds cut by the zigzag
        resume[d] = i
        del free[i]
        prefix[d] = v
        d += 1
        forced[d] = total
        t = d + 1
        lo, hi = floor[t], ceil[t]
        if rise[t]:
            if lo <= v:
                lo = v + 1
        elif hi >= v:
            hi = v - 1
        top[d] = hi
        i = bisect_left(free, lo)


def generate(filt: GenerationFilter) -> Iterator[Perm]:
    """Yield every permutation matching `filt`, lexicographically, each once: a prefix plus one of its tails."""
    for prefix, tails in _walk(filt):
        head = tuple(prefix)
        for tail in tails:
            yield head + tail


def count(filt: GenerationFilter) -> int:
    """Cardinality of generate(filt): the sum of the batches' lengths, with no permutation built."""
    return sum(len(tails) for _, tails in _walk(filt))


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
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r} (expected one of {STATISTICS})")
    flags = {} if statistic == "total" else {statistic: True}
    return count(GenerationFilter(cls=cls, length=n, avoid=PATTERN_321, **flags))
