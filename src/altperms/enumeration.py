"""Exhaustive generation of restricted alternating permutations.

One pruned, lexicographic backtracker is the single oracle every formula in
this package is checked against. It keeps the unused values in a sorted list
and draws each entry from the part of that list inside the zigzag range cut to
the boundary flags' bounds, so it never steps over a placed value; a candidate
v at index i of the list lies above b = v - 1 - i placed values. Its stack is
one fixed array per depth, written on a push and read back on a backtrack, and
a node's candidate window is computed once, when it is pushed. A walk of length
n >= 2 pushes to depth leaf = n - k - 1, k = max(1, min(_TAIL, n - 3)), only.
There each candidate and the k values left after it come from a table of the
zigzag orders of k + 1 sorted values, one `operator.itemgetter` each, listed by
first entry, so the orders of a node's candidate window are one slice. Each k's
table is grown from the orders of fewer values by comparing and relabelling
entries. A node hands the tails it accepts over as one batch (prefix, free,
getters): `generate` joins get(free) to the prefix, `count` adds up the batches'
lengths and calls no getter, so it builds no permutation.
One loop walks every filter; a 321 or 123 target changes only what a push
prunes and which table a node at depth leaf reads.
For 321 (dually 123) depth d keeps F, the 321s inside the prefix plus, for
each unused value, the prefix 21-pairs above it (12-pairs below it); placing v
above b placed entries adds (d - b)(v - 1 - b) (for 123, b(n - v - d + b)), and
pruning on F > target never loses a solution, because every unused value closes
a distinct occurrence with each such pair once placed, so F only grows and is
the exact count at a leaf (the generating-tree lookahead of West, "Generating
trees and forbidden subsequences", 1996).
A scored walk's node at depth leaf reads its slice off a scored table, which
keeps only the orders whose tail brings F exactly to the target. Counted
by middle entry, the tail of order σ of the ranks 0..k adds
inner(σ) + Σ_r A_r·c_r(σ): c_r is the number of later tail entries below rank r
(above it for 123), inner = Σ_r e_r·c_r with e_r the earlier tail entries above
it (below it), and A_r = n - k + r - free[r] the placed values above the unused
value of rank r (for 123 below it, free[r] - 1 - r). The scored table groups
the orders by this score, with A clipped at cap, and keeps the scores below cap.
These are the only patterns a filter accepts (perm_core.check_pattern).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from functools import cache, partial
from itertools import accumulate, chain, repeat
from math import comb
from operator import add, itemgetter, mul, sub

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


#: How many entries a walk takes from the table of zigzag orders after its last candidate
_TAIL = 7


def _sliced(lists: list[list[itemgetter]]) -> tuple[tuple[itemgetter, ...], tuple[int, ...]]:
    """(orders, start) of lists[i], the orders whose first entry is at index i: orders joins
    the lists, and start[i], i = 0..len(lists), is the offset of the first order whose first
    entry is at index >= i, so orders[start[i]:start[j]] are the orders that start in [i, j)."""
    return tuple(chain.from_iterable(lists)), tuple(accumulate(map(len, lists), initial=0))


@cache
def _zigzag_table(k: int) -> dict:
    """table[rise, ends] = _sliced(lists), built on first use and cached: lists[i]
    holds one itemgetter per zigzag order of k + 1 sorted values that starts at index i,
    lexicographically, and returns the values in its order. The second entry exceeds the first
    exactly when `rise`; ends None keeps every order, True those that end on the largest value,
    False the rest. An order of j + 1 ranks is a first entry i, then an order of j ranks that
    starts on the far side of i, its ranks from i up raised by one.
    """
    table = {}
    for rise in (False, True):
        orders = [(0,)]
        for j in range(1, k + 1):  # the orders of j + 1 ranks, which rise first when up
            up = rise != (k - j) % 2
            orders = [(i, *(r + (r >= i) for r in order)) for i in range(j + 1) for order in orders
                      if (order[0] >= i) == up]
        getters = [itemgetter(*order) for order in orders]
        for ends in (None, True, False):
            lists = [[] for _ in range(k + 1)]
            for order, get in zip(orders, getters):
                if ends in (None, order[-1] == k):
                    lists[order[0]].append(get)
            table[rise, ends] = _sliced(lists)
    return table


@cache
def _order_scores(k: int, rise: bool, ends: bool | None, pattern: Pattern, cap: int) -> tuple:
    """Columns (firsts, getters, inners, c_0, ..., c_k) of the orders σ of
    _zigzag_table(k)[rise, ends] with inner < cap, in its order, built on first use and cached.

    For 321, c_r(σ) is the number of entries after rank r that lie below it, and inner =
    Σ_r e_r·c_r, e_r the number before rank r above it: the 321s inside σ, counted by middle
    entry. For 123 read below for above and above for below."""
    down = pattern == PATTERN_321
    ranks = range(k + 1)
    rows = []
    for get in _zigzag_table(k)[rise, ends][0]:
        order = get(ranks)
        e, c = [0] * (k + 1), [0] * (k + 1)
        for s, r in enumerate(order):
            for x in order[s + 1:]:
                if (x < r) == down:  # r, then x below it (above it, for 123)
                    c[r] += 1
                    e[x] += 1
        inner = sum(map(mul, e, c))
        if inner < cap:
            rows.append((order[0], get, inner, *c))
    return tuple(zip(*rows)) or ((),) * (k + 4)  # k + 4 columns, even empty


def _orders_by_score(k: int, rise: bool, ends: bool | None, pattern: Pattern, cap: int,
                     vec: tuple[int, ...]) -> dict:
    """{total: _sliced(lists)} over the orders of _zigzag_table(k)[rise, ends] whose score,
    inner + Σ_r vec[r]·c_r (see _order_scores), is total < cap; lists[i] keeps the orders
    that start at index i, lexicographically. When vec[r] counts the placed values above the
    unused value of rank r (below it, for 123), the score is the occurrences a tail adds. A
    walk clips vec at cap: a clipped entry adds at least cap to every order with c_r >= 1,
    which then stays out, clipped or not."""
    firsts, getters, totals, *columns = _order_scores(k, rise, ends, pattern, cap)
    for a, column in zip(vec, columns):
        if a:
            totals = map(add, totals, map(mul, column, repeat(a)))
    lists: dict = {}
    for total, first, get in zip(totals, firsts, getters):
        if total < cap:
            if total not in lists:
                lists[total] = [[] for _ in range(k + 1)]
            lists[total][first].append(get)
    return {total: _sliced(by_first) for total, by_first in lists.items()}


@cache
def _scored_table(k: int, rise: bool, ends: bool | None, pattern: Pattern,
                  cap: int) -> Callable[[tuple[int, ...]], dict]:
    """The scored table of one head: a cache that maps vec to
    _orders_by_score(k, rise, ends, pattern, cap, vec), each built on first use."""
    return cache(partial(_orders_by_score, k, rise, ends, pattern, cap))


def _walk(filt: GenerationFilter) -> Iterator[tuple[list[int], Sequence[int], Sequence[itemgetter]]]:
    """Yield (prefix, free, getters) per node at the last pushed depth that accepts a tail, in
    order: the node's permutations are prefix + get(free), one per getter. The prefix and free
    lists are reused, and free is valid only until the walk resumes, so a consumer applies the
    getters before it asks for the next batch. The nodes sit at depth n - k - 1 and hand over
    the slice of a table that starts in their candidate window: an unscored walk's table of
    zigzag orders, or a scored walk's orders of it under the score that brings F to the target;
    a scored node that needs cap or more finds none. A scored walk of length 2 needs no case of
    its own: its cap is 1, so target 0 keeps both orders and a larger one finds none. A walk
    shorter than 2 is one literal batch ([], values, (tuple,)) if its flags and target allow;
    no 321 or 123 fits in it, so only target 0 does."""
    n = filt.length
    pattern, target = filt.exact_occurrences or (None, 0)
    ends, begins = filt.ends_in_largest, filt.begins_with_smallest
    if n < 2:  # () neither ends in its largest nor begins with its smallest entry; (1,) does both
        if not target and ends in (None, n == 1) and begins in (None, n == 1):
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
    # the nodes at depth leaf take their candidates and the k entries after each from a table
    # keyed by (free[k] == n), n unused: ends_in_largest's ceil n - 1 keeps n unused. The walk
    # keeps prefix[d], the value placed at depth d, resume[d], its index in free, top[d], depth
    # d's upper bound, and forced[d], F of prefix[:d] (0 when unscored)
    k = max(1, min(_TAIL, n - 3))  # a short walk builds no table larger than its own work
    leaf = n - k - 1
    prefix, resume, top = [0] * leaf, [0] * leaf, [ceil[1]] * (leaf + 1)
    forced = [0] * (leaf + 1)
    scored = pattern is not None
    if scored:
        is321 = pattern == PATTERN_321  # else 123
        # a tail adds at most C(k + 1, 3) occurrences inside it and leaf with each pair of its
        # entries, so no score reaches cap or more, and every large target shares one set of
        # tables per length
        cap = min(target, comb(k + 1, 3) + comb(k + 1, 2) * leaf) + 1
        tables = [_scored_table(k, rise[leaf + 2], flag, pattern, cap) for flag in (None, ends)]
        # vec[r] = A_r, the placed values above (for 123, below) the unused value of rank r,
        # n - k + r - free[r] (free[r] - 1 - r), clipped at cap; each is at most leaf
        operands = (range(n - k, n + 1), free) if is321 else (free, range(1, k + 2))
        clip = (cap,) * (k + 1) if cap <= leaf else None
    else:
        zigzag = _zigzag_table(k)
        tables = (zigzag[rise[leaf + 2], None], zigzag[rise[leaf + 2], ends])
    total = 0  # F stays 0 on an unscored push
    d, hi, i = 0, top[0], bisect_left(free, floor[1])  # the root's window
    while True:
        v = free[i]
        if v > hi:  # no candidate left at this depth: backtrack
            d -= 1
            if d < 0:
                return
            free.insert(resume[d], prefix[d])
            i, hi = resume[d] + 1, top[d]
        elif d < leaf:
            if scored:  # i unused values lie below v, so v - 1 - i placed ones do
                if is321:
                    total = forced[d] + (d - v + 1 + i) * i
                else:
                    total = forced[d] + (v - 1 - i) * (n - d - 1 - i)
                if total > target:
                    i += 1
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
        else:  # every candidate in the window at once; the next scan starts past hi
            first, i = i, bisect_right(free, hi, i)
            which = free[k] == n
            if scored:
                if (rest := target - forced[d]) >= cap:  # no tail adds cap or more
                    continue
                vec = tuple(map(sub, *operands))
                if clip:
                    vec = tuple(map(min, vec, clip))
                found = tables[which](vec).get(rest)  # built on first use, stored once whole
                if not found:
                    continue
                orders, start = found
            else:
                orders, start = tables[which]
            getters = orders[start[first]:start[i]]
            if getters:
                yield prefix, free, getters


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
