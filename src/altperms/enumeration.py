"""Exhaustive generation of restricted alternating permutations.

One pruned, lexicographic backtracker is the single oracle every formula in
this package is checked against. It keeps the unused values in a sorted list
and draws each entry from the part of that list inside the zigzag range cut to
the boundary flags' bounds, so it never steps over a placed value; a candidate
v at index i of the list lies above b = v - 1 - i placed values. Its stack is
one fixed array per depth, written on a push and read back on a backtrack, and
a node's candidate window is computed once, when it is pushed. Each node at the
last pushed depth hands the tails it accepts over as one batch (prefix, free,
getters): each getter is an `operator.itemgetter` that reads one tail off the
unused values. `generate` joins get(free) to the prefix, `count` adds up the
batches' lengths and calls no getter, so it builds no permutation.
A scored walk (321 or 123) pushes to depth n - 3. There the last two slots take
the two values left, in the order the class fixes, and are checked in place, so
a tail (v, x, y) is read by one of three getters, one per index of v. An
unscored walk of length n >= 2 pushes to depth n - k - 1, k = min(_TAIL, n - 1),
only. There each candidate v and the k values left after it come from a table
that lists the zigzag orders of k + 1 sorted values lexicographically, by
whether the second rises and by whether the last is the largest, with the
offset where each first entry starts; the orders of a node's candidate window
are then one slice. The table is built once, by comparing entries in every
order, and each order is one getter that reads the k + 1 unused values
straight off their list.
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

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, permutations
from operator import itemgetter

from .perm_core import (
    AlternationClass,
    FrozenRecord,
    Pattern,
    Perm,
    PATTERN_321,
    check_class,
    check_pattern,
    check_statistic,
)


class GenerationFilter(FrozenRecord):
    """Constraints for one generation run: `cls`, an AlternationClass, and `length`, an int >= 0.

    The one occurrence constraint is `exact_occurrences`, a (pattern, target)
    pair, target an int >= 0 (a bool is refused here and as `length`); `avoid=p`
    is stored as (p, 0), so at most one may be given. The pattern is 321 or 123
    as any sequence (stored as a tuple), and each candidate is scored against it
    in O(1).
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
        check_class(cls)
        if type(length) is not int or length < 0:  # a bool compares as 1 or 0 but prints as a word
            raise ValueError("length must be an int >= 0")
        if avoid is not None and exact_occurrences is not None:
            raise ValueError("avoid and exact_occurrences are mutually exclusive")
        if avoid is not None:
            exact_occurrences = (avoid, 0)
        if exact_occurrences is not None:
            pattern, target = exact_occurrences
            exact_occurrences = (check_pattern(pattern), target)
            if type(target) is not int or target < 0:
                raise ValueError("exact_occurrences count must be an int >= 0")
        if not all(flag is None or isinstance(flag, bool) for flag in (ends_in_largest, begins_with_smallest)):
            raise ValueError("ends_in_largest and begins_with_smallest must be None, True or False")
        self.__setstate__((cls, length, exact_occurrences, ends_in_largest, begins_with_smallest))


#: How many entries an unscored walk takes from the table of zigzag orders after its last candidate
_TAIL = 5
_ZIGZAG_TABLE = None


def _zigzag_table() -> dict:
    """table[k, rise, ends] = (orders, start), built on first use and published whole, so every
    caller sees a full table.

    For k = 1.._TAIL, `orders` holds one itemgetter per zigzag order of k + 1 sorted values,
    lexicographically; each reads the values, increasing, and returns them in its order. The
    second entry exceeds the first exactly when `rise`. ends None keeps every order; True keeps
    those that end on the largest value, False those that do not. start[i], i = 0..k + 1, is
    the offset of the first order whose first entry is at index >= i, so
    orders[start[i]:start[j]] are the orders that start at an index in [i, j).
    """
    global _ZIGZAG_TABLE
    table = _ZIGZAG_TABLE
    if table is None:
        table = {(k, rise, ends): [[] for _ in range(k + 1)]
                 for k in range(1, _TAIL + 1) for rise in (False, True) for ends in (None, True, False)}
        for k in range(1, _TAIL + 1):
            for order in permutations(range(k + 1)):  # lexicographic, so each list is too
                if all((order[s] < order[s + 1]) != (order[s + 1] < order[s + 2]) for s in range(k - 1)):
                    get, rise = itemgetter(*order), order[0] < order[1]
                    for ends in (None, order[-1] == k):
                        table[k, rise, ends][order[0]].append(get)
        for key, lists in table.items():
            table[key] = (tuple(chain.from_iterable(lists)), tuple(accumulate(map(len, lists), initial=0)))
        _ZIGZAG_TABLE = table
    return table


def _walk(filt: GenerationFilter) -> Iterator[tuple[list[int], Sequence[int], Sequence[itemgetter]]]:
    """Yield (prefix, free, getters) per node at the last pushed depth that accepts a tail, in
    order: the node's permutations are prefix + get(free), one per getter. The prefix and free
    lists are reused, and free is valid only until the walk resumes, so a consumer applies the
    getters before it asks for the next batch. A scored walk's nodes sit at depth n - 3 and
    check each tail (v, x, y) in place. An unscored walk's nodes sit at depth n - k - 1,
    k = min(_TAIL, n - 1), and hand over the slice of the table of zigzag orders that starts
    in their candidate window. Shorter than 3 a scored walk is an unscored one or empty, and an
    unscored walk shorter than 2 is one literal batch ([], values, (tuple,))."""
    n = filt.length
    pattern, target = filt.exact_occurrences or (None, 0)
    ends, begins = filt.ends_in_largest, filt.begins_with_smallest
    if n < 3 and pattern is not None:  # too short for a 321 or 123: unscored, or nothing
        if target:
            return
        pattern = None
    if n < 2:  # () neither ends in its largest nor begins with its smallest entry; (1,) does both
        if ends in (None, n == 1) and begins in (None, n == 1):
            yield [], range(1, n + 1), (tuple,)
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
    # the unused values, increasing; the sentinel n + 1 ends every candidate scan
    free = [*range(1, n + 1), n + 1]
    # both walks keep prefix[d], the value placed at depth d, resume[d], its index
    # in free, and top[d], depth d's upper bound
    if pattern is None:
        # the nodes at depth leaf take their candidates and the k entries after each from
        # tables[n unused]; ends_in_largest's ceil n - 1 keeps n unused
        k = min(_TAIL, n - 1)
        leaf = n - k - 1
        zigzag = _zigzag_table()
        tables = (zigzag[k, rise[leaf + 2], None], zigzag[k, rise[leaf + 2], ends])
        prefix, resume, top = [0] * leaf, [0] * leaf, [ceil[1]] * (leaf + 1)
        d, hi, i = 0, top[0], bisect_left(free, floor[1])  # the root's window
        while True:
            v = free[i]
            if v > hi:  # no candidate left at this depth: backtrack
                d -= 1
                if d < 0:
                    return
                free.insert(resume[d], prefix[d])
                i, hi = resume[d] + 1, top[d]
            elif d < leaf:  # push v, then the child's window: the flags' bounds cut by the zigzag
                resume[d] = i
                del free[i]
                prefix[d] = v
                d += 1
                t = d + 1
                lo, hi = floor[t], ceil[t]
                if rise[t]:
                    if lo <= v:
                        lo = v + 1
                elif hi >= v:
                    hi = v - 1
                top[d] = hi
                i = bisect_left(free, lo)
            else:  # every candidate in the window at once; the next scan starts past hi
                orders, start = tables[free[k] == n]
                first, i = i, bisect_right(free, hi, i)
                getters = orders[start[first]:start[i]]
                if getters:
                    yield prefix, free, getters

    # the nodes at depth leaf fill position last; of the two values left,
    # rise[n] puts the smaller (index j = 0) or larger (j = 1) first
    last, leaf = n - 2, n - 3
    j = 0 if rise[n] else 1
    # tails[i] reads (v, x, y) off free when v is at index i
    tails = tuple(itemgetter(i, *(pair[::-1] if j else pair)) for i, pair in enumerate(((1, 2), (0, 2), (0, 1))))
    # position n - 1 >= 2 needs no flag check of its own: begins_with_smallest
    # bounds position 1 only, and ends_in_largest's ceil n - 1 holds once y = n
    rise1, lo2, hi2 = rise[n - 1], floor[n], ceil[n]
    is321 = pattern == PATTERN_321  # else 123
    # forced[d]: F of prefix[:d]
    prefix, resume = [0] * leaf, [0] * leaf
    forced, top = [0] * (leaf + 1), [ceil[1]] * (leaf + 1)
    getters: list[itemgetter] = []
    d, hi, i = 0, top[0], bisect_left(free, floor[1])  # the root's window
    while True:
        v = free[i]
        while v <= hi:
            # i unused values lie below v, so v - 1 - i placed ones do
            if is321:
                total = forced[d] + (d - v + 1 + i) * i
            else:
                total = forced[d] + (v - 1 - i) * (n - d - 1 - i)
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
                    else:
                        total += (x - 1 - j) * (n - last - 1 - j)
                    if total == target:
                        getters.append(tails[i])
            i += 1
            v = free[i]
        else:  # no candidate left at this depth: hand over its tails, backtrack
            if getters:
                yield prefix, free, getters
                getters = []
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
    for prefix, free, getters in _walk(filt):
        head = tuple(prefix)
        for get in getters:
            yield head + get(free)


def count(filt: GenerationFilter) -> int:
    """Cardinality of generate(filt): the sum of the batches' lengths, with no getter called."""
    return sum(len(getters) for _, _, getters in _walk(filt))


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
    check_statistic(statistic)
    flags = {} if statistic == "total" else {statistic: True}
    return count(GenerationFilter(cls=cls, length=n, avoid=PATTERN_321, **flags))
