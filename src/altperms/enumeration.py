"""Exhaustive generation of restricted alternating permutations.

One pruned, lexicographic backtracker is the single oracle every formula in
this package is checked against. It keeps the unused values in a sorted list
and draws each entry from the window of that list the zigzag fixes, the values
above the last entry after a rise and below it after a fall, so it never steps
over a placed value; begins_with_smallest bounds only the first entry, and
ends_in_largest keeps n out of every window for the tail. A candidate v at
index i of the list lies above b = v - 1 - i placed values. Its stack is
one fixed array per depth, written on a push and read back on a backtrack, and
a node's candidate window is computed once, when it is pushed. A walk of length
n >= 2 pushes to depth leaf = n - k - 1, k = max(1, min(_TAIL, n - 3)), only,
and a scored walk with a target of 0..2 to k = max(1, min(_CAP3_TAIL, n - 1)).
There each candidate and the k values left after it come from a table of the
zigzag orders of k + 1 sorted values, k + 1 bytes each in one blob. Each k's
table is grown once, lexicographically, from the orders of fewer values, each
order and its counts kept as bytes: a new first entry relabels a shorter order
with one bytes.translate, so the growth makes no tuple per order, and
ends_in_largest cuts its flag's orders from that growth; the orders a walk
reads are listed from it in one pass, in that order as 2-byte positions in the
blob, so those that start in a node's candidate window are one slice. A node
hands the tails it accepts over as one batch (prefix, free, table, orders, lo,
hi), its window orders[lo:hi] of those positions: `generate` joins get(free)
to the prefix for the getter of each position there, one `operator.itemgetter`
per order of the table, built on first use and shared by every ends flag;
`count` sums hi - lo, and so builds no getter and no permutation.
One loop walks every filter; a 321 or 123 target changes only what a push
prunes and which table a node at depth leaf reads.
For 321 (dually 123) depth d keeps F, the 321s inside the prefix plus, for
each unused value, the prefix 21-pairs above it (12-pairs below it); placing v
above b placed entries adds (d - b)(v - 1 - b) (for 123, b(n - v - d + b)), and
pruning on F > target never loses a solution, because every unused value closes
a distinct occurrence with each such pair once placed, so F only grows and is
the exact count at a leaf (the generating-tree lookahead of West, "Generating
trees and forbidden subsequences", 1996).
A node at depth leaf reads its slice off a scored table, which keeps only the
orders whose tail brings F exactly to the target; an unscored walk's is the
table with no pattern, where every order scores 0 and target 0 keeps all. Counted
by middle entry, the tail of order σ of the ranks 0..k adds
inner(σ) + Σ_r A_r·c_r(σ): c_r is the number of later tail entries below rank r
(above it for 123), inner = Σ_r e_r·c_r with e_r the earlier tail entries above
it (below it), and A_r = n - k + r - free[r] the placed values above the unused
value of rank r (for 123 below it, free[r] - 1 - r). The scored table groups
the orders by this score, with A clipped at cap by a lookup built once per walk,
and keeps the scores below cap. Targets 0..2 share cap 3, and so one table per
head: it lists every total below 3, and each walk reads the one it needs.
Its orders are grown rank by rank, and each is dropped
as soon as inner reaches cap, since a first entry only adds occurrences: at
k = 10 cap 3 keeps 1,655 of 353,792 orders (k = 9: 556 or 1,147 of 50,521), so
a target of 0..2 reads up to three entries more than an unscored walk: up to
n = 11 it pushes no entry and reads the whole permutation at the root, where
every A is 0, off one vector of one head, and at n = 12 it pushes one. A larger
cap keeps k: there each vector's orders cost more to build than the pushes they
save. Every column is bytes and every position two bytes, which keeps the tables small.
These are the only patterns a filter accepts (perm_core.check_pattern).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from functools import cache
from itertools import accumulate, chain, compress, repeat
from math import comb
from operator import add, itemgetter, mul, sub
from struct import pack

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
#: How many a scored walk with a target of 0..2 takes (cap 3), which up to n = 11 pushes no entry
_CAP3_TAIL = 10


@cache
def _order_scores(k: int, rise: bool, ends: bool | None, pattern: Pattern | None, cap: int) -> tuple:
    """Columns (ends_on_k, firsts, orders, inners, c_0, ..., c_k) of the zigzag orders σ of
    the ranks 0..k with inner < cap that the head (k, rise, ends, pattern, cap) keeps,
    lexicographically, built on first use and cached per head. The second entry exceeds the
    first exactly when `rise`; ends_on_k says whether an order ends on rank k, and firsts is
    its first entry. ends None keeps every order, True those ending on rank k, False the
    rest; a flagged head cuts its columns from the head with ends None, so the three flags
    share one growth. Every column is bytes: a c_r is at most k, and an inner is below cap and
    at most C(k + 1, 3), 165 at k = 10. The head with ends None lists its orders in one blob,
    k + 1 bytes per order, the ranks in order; a flagged head lists, in their place, 2-byte
    positions (native order, as memoryview.cast("H") reads them) of its orders in that blob.
    Two bytes fit: a head keeps at most 1,655 orders (k = 10, cap 3; at _TAIL, k = 7, every
    order, E_8 = 1,385 of them), and pack raises struct.error on a position past 65,535.

    For 321, c_r(σ) is the number of entries after rank r that lie below it, and inner =
    Σ_r e_r·c_r, e_r the number before rank r above it: the 321s inside σ, counted by middle
    entry. For 123 read below for above and above for below. With no pattern there are no c
    columns and every inner is 0, so cap 1 keeps every zigzag order. The orders grow rank by
    rank: an order of j + 1 ranks is a first entry i, then an order of j ranks that starts on
    the far side of i, its ranks from i up raised by one. That first entry starts Σ c_r
    occurrences over the ranks r below it (above it, for 123), and has c_i = i (j - i). An
    order is dropped once its inner reaches cap; a first entry only adds occurrences, so none
    of its extensions is kept, and a low cap keeps the orders of many ranks few. The orders,
    their inners and their c columns grow in three parallel lists, each order and c column
    bytes: one translate, by a table made once per (j, i), relabels a shorter order, and its
    c column takes c_i between c[:i] and c[i:], so the growth makes no tuple per order."""
    if ends is not None:
        ends_on_k, firsts, _, *scores = _order_scores(k, rise, None, pattern, cap)
        keep = [on_k == ends for on_k in ends_on_k]
        rows = list(compress(range(len(keep)), keep))
        return (bytes(compress(ends_on_k, keep)), bytes(compress(firsts, keep)), pack(f"{len(rows)}H", *rows),
                *(bytes(compress(column, keep)) for column in scores))
    down = pattern == PATTERN_321
    # the orders of j + 1 ranks, their inners and their c columns, parallel, each order and c bytes
    orders, inners, counts = [b"\0"], [0], [b"\0" if pattern else b""]
    for j in range(1, k + 1):
        up = rise != (k - j) % 2
        grown, scores, columns = [], [], []
        for i in range(j + 1):
            # first entry i, then the shorter order with its ranks i..j - 1 raised by one
            first, raised = bytes((i,)), bytes.maketrans(bytes(range(i, j)), bytes(range(i + 1, j + 1)))
            mid = bytes((i if down else j - i,))
            for order, inner, c in zip(orders, inners, counts):
                if (order[0] >= i) == up:
                    inner += sum(c[:i] if down else c[i:])
                    if inner < cap:
                        grown.append(first + order.translate(raised))
                        scores.append(inner)
                        columns.append(c and c[:i] + mid + c[i:])
        orders, inners, counts = grown, scores, columns
    return (bytes(order[-1] == k for order in orders), bytes(order[0] for order in orders),
            bytes(chain(*orders)), bytes(inners), *map(bytes, zip(*counts)))


@cache
def _tails(head: tuple, vec: tuple[int, ...]) -> dict:
    """{total: (orders, start)} over the orders that head = (k, rise, ends, pattern, cap) keeps
    whose score, inner + Σ_r vec[r]·c_r, is total < cap, listed in one pass over the columns of
    _order_scores(*head), built on first use and cached. orders keeps them in column order as
    2-byte positions (native order, as memoryview.cast("H") reads them) in the blob of the head
    with ends None, whose orders _getters reads, so the three flags share one set of getters;
    two bytes fit, as a head keeps at most 1,655 orders, and pack raises struct.error past
    65,535. start[i], i = 0..k + 1, counts those whose first entry is below i, so the positions
    start[i]:start[j] are the orders that start in [i, j), since the columns list the orders
    lexicographically, first entry outermost (test_scored_table_lists_its_definition pins that).
    When vec[r] counts the placed values above the unused value of rank r (below it, for 123),
    the score is the occurrences a tail adds. A walk clips vec at cap: a clipped entry adds at
    least cap to every order with c_r >= 1, which then stays out, clipped or not. With no
    pattern, cap 1 and vec all 0, total 0 lists every order, and no total is listed when there
    is none."""
    k, ends, cap = head[0], head[2], head[4]
    _, firsts, orders, totals, *columns = _order_scores(*head)
    for a, column in zip(vec, columns):
        if a:
            totals = map(add, totals, map(mul, column, repeat(a)))
    rows = range(len(firsts)) if ends is None else memoryview(orders).cast("H")
    lists: dict = {}  # total: (its positions, their first entries)
    for total, first, row in zip(totals, firsts, rows):
        if total < cap:
            try:
                positions, starts = lists[total]
            except KeyError:  # the first order of this total
                positions, starts = lists[total] = [], bytearray()
            positions.append(row)
            starts.append(first)
    return {total: (pack(f"{len(positions)}H", *positions),
                    tuple(accumulate(map(starts.count, range(k + 1)), initial=0)))
            for total, (positions, starts) in lists.items()}


@cache
def _getters(k: int, rise: bool, pattern: Pattern | None, cap: int) -> tuple[itemgetter, ...]:
    """One `operator.itemgetter` per order in the blob of the head (k, rise, None, pattern, cap),
    in blob order, so position p of a _tails list reads its order off the unused values as
    _getters(...)[p](free). Built on first use and cached, for generate alone: the heads of all
    three ends flags share them, and count never builds them."""
    orders = _order_scores(k, rise, None, pattern, cap)[2]
    return tuple(itemgetter(*orders[j:j + k + 1]) for j in range(0, len(orders), k + 1))


def _walk(filt: GenerationFilter) -> Iterator[tuple[list[int], Sequence[int], tuple | None, bytes, int, int]]:
    """Yield (prefix, free, table, orders, lo, hi) per node at the last pushed depth that
    accepts a tail, in order: orders holds 2-byte positions, and the node's permutations are
    prefix + getters[p](free), getters = _getters(*table), one per position p from the lo-th
    to the one before the hi-th, so it has hi - lo of them. table = (k, rise, pattern, cap) is
    the same for every batch of a walk. The prefix and free lists are reused, and free is valid
    only until the walk resumes, so a consumer applies the getters before it asks for the next
    batch. The nodes sit at depth n - k - 1 and hand over the bounds of the orders of a scored
    table that start in their candidate window: an unscored walk reads the pattern-free
    table's total 0, every zigzag order, and a scored walk the orders under the score that
    brings F to the target. A node finds none where no order is listed, and a scored node that
    needs cap or more finds none without a lookup. A scored walk of length 2 needs no case of
    its own: its cap is 1, so target 0 keeps both orders and a larger one finds none. A walk
    shorter than 2 is one literal batch ([], values, None, position 0, 0, 1), whose one getter
    is tuple, if its flags and target allow; no 321 or 123 fits in it, so only target 0 does."""
    n = filt.length
    pattern, target = filt.exact_occurrences or (None, 0)
    ends, begins = filt.ends_in_largest, filt.begins_with_smallest
    if n < 2:  # () neither ends in its largest nor begins with its smallest entry; (1,) does both
        if not target and ends in (None, n == 1) and begins in (None, n == 1):
            yield [], range(1, n + 1), None, pack("H", 0), 0, 1
        return

    # rise[t] (1-based position t >= 2): entry at t must exceed entry at t-1; the class
    # alternates, so one position's rule fixes all (indices past n are never read)
    up = filt.cls.rises_into(2)
    rise = [False, False, *[up, not up] * (n // 2)]
    # the largest value a candidate window holds: ends_in_largest keeps n for the last entry
    most = n - 1 if ends else n
    # the unused values, increasing; the sentinel n + 1 ends every candidate scan
    free = [*range(1, n + 1), n + 1]
    # the nodes at depth leaf take their candidates and the k entries after each from a table
    # keyed by (free[k] == n), n unused. The walk keeps prefix[d], the value placed at depth d,
    # resume[d], its index in free, top[d], depth d's upper bound, and forced[d], F of
    # prefix[:d] (0 when unscored)
    scored = pattern is not None
    # a short walk builds no table larger than its own work; targets 0-2 (cap 3) score few
    # orders of up to 11 entries below their cap, so their walks read every entry (leaf 0) up
    # to n = 11, where the root's window applies begins_with_smallest, most and the ends head
    # ends_in_largest, and A is all 0; n = 12 pushes one entry
    small = scored and target < 3
    k = max(1, min(_CAP3_TAIL if small else _TAIL, n - 3 + 2 * small))
    leaf = n - k - 1
    # the root's window: begins_with_smallest True allows only 1, False starts past it
    d, i, hi = 0, 1 if begins is False else 0, 1 if begins else most
    prefix, resume, top = [0] * leaf, [0] * leaf, [hi] * (leaf + 1)
    forced = [0] * (leaf + 1)
    cap = 1  # with no pattern every zigzag order scores 0 < cap 1, whatever the placed values
    if scored:
        is321 = pattern == PATTERN_321  # else 123
        # a tail adds at most C(k + 1, 3) occurrences inside it and leaf with each pair of its
        # entries, so no score reaches cap or more, and every large target shares one set of
        # tables per length; targets 0-2 share cap 3 (their tables list totals 0-2, and a node
        # reads the one it needs), so one set per head; a head is made when a node first reads it
        cap = min(max(target, 2), comb(k + 1, 3) + comb(k + 1, 2) * leaf) + 1
        # vec[r] = A_r, the placed values above (for 123, below) the unused value of rank r,
        # n - k + r - free[r] (free[r] - 1 - r), each 0..leaf, clipped at cap by one lookup
        operands = (range(n - k, n + 1), free) if is321 else (free, range(1, k + 2))
        clip = tuple(map(min, range(leaf + 1), repeat(cap))).__getitem__
    # heads[free[k] == n]; ends_in_largest never places n (most), so that walk reads one head;
    # every head of the walk shares its table's getters
    table = (k, rise[leaf + 2], pattern, cap)
    heads = [(k, table[1], flag, pattern, cap) for flag in (ends or None, ends)]
    if not scored:
        tables = [_tails(head, (0,) * (k + 1)).get(0) for head in heads]
    total = 0  # F stays 0 on an unscored push
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
            # push v, then the child's window: after a rise, i stays, as free[i] is then the next
            # larger unused value, up to most; after a fall, the unused values below v
            resume[d] = i
            del free[i]
            prefix[d] = v
            d += 1
            forced[d] = total
            if rise[d + 1]:
                hi = most
            else:
                i, hi = 0, v - 1
            top[d] = hi
        else:  # every candidate in the window at once; the next scan starts past hi
            first, i = i, bisect_right(free, hi, i)
            which = free[k] == n
            if scored:
                if (rest := target - forced[d]) >= cap:  # no tail adds cap or more
                    continue
                vec = tuple(map(clip, map(sub, *operands)))
                found = _tails(heads[which], vec).get(rest)  # built on first use, stored once whole
            else:
                found = tables[which]
            if not found:
                continue
            orders, start = found
            if start[first] < start[i]:
                yield prefix, free, table, orders, start[first], start[i]


def generate(filt: GenerationFilter) -> Iterator[Perm]:
    """Yield every permutation matching `filt`, lexicographically, each once: a prefix plus one of its tails."""
    for prefix, free, table, orders, lo, hi in _walk(filt):
        head, getters = tuple(prefix), _getters(*table) if table else (tuple,)
        for p in memoryview(orders).cast("H")[lo:hi]:
            yield head + getters[p](free)


def count(filt: GenerationFilter) -> int:
    """Cardinality of generate(filt): the sum of the batches' hi - lo, with no getter built or called."""
    return sum(hi - lo for _, _, _, _, lo, hi in _walk(filt))


def table1_oracle(cls: AlternationClass, n: int, statistic: str) -> int:
    """Count 321-avoiding length-n permutations of `cls` by exhaustive generation.

    `statistic` is one of "total", "ends_in_largest", "begins_with_smallest";
    the latter two restrict to permutations with that boundary property.
    """
    check_statistic(statistic)
    flags = {} if statistic == "total" else {statistic: True}
    return count(GenerationFilter(cls=cls, length=n, avoid=PATTERN_321, **flags))
