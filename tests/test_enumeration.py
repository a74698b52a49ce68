import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product, zip_longest
from math import comb, factorial
from operator import mul

import pytest

from altperms import enumeration
from altperms.enumeration import GenerationFilter, count, generate, table1_oracle
from altperms.formulas import SequenceSpec, a_n, euler_zigzag, table1_formula
from altperms.perm_core import AlternationClass, PATTERN_123, PATTERN_321, classify, count_occurrences

import naive

UD = AlternationClass.UP_DOWN
DU = AlternationClass.DOWN_UP

ZIGZAG = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765]


def test_filter_validation():
    with pytest.raises(ValueError):
        GenerationFilter(UD, -1)
    # a class code or a float length would otherwise only fail inside generate
    with pytest.raises(ValueError, match="AlternationClass"):
        GenerationFilter("UD", 5)
    with pytest.raises(ValueError, match="int"):
        GenerationFilter(UD, 2.5)
    with pytest.raises(ValueError):
        GenerationFilter(UD, 4, avoid=PATTERN_321, exact_occurrences=(PATTERN_123, 1))
    with pytest.raises(ValueError):
        GenerationFilter(UD, 4, avoid=())
    with pytest.raises(ValueError):
        GenerationFilter(UD, 4, avoid=(1, 1))
    with pytest.raises(ValueError):
        GenerationFilter(UD, 4, exact_occurrences=(PATTERN_321, -1))
    with pytest.raises(ValueError):
        GenerationFilter(UD, 4, exact_occurrences=((1, 1), 1))
    with pytest.raises(ValueError):
        GenerationFilter(UD, 4, exact_occurrences=((), 0))
    # only 321 and 123 are counted, whatever the other pattern's length
    with pytest.raises(ValueError, match=r"pattern must be \(3, 2, 1\) or \(1, 2, 3\)"):
        GenerationFilter(UD, 4, avoid=(1, 3, 2))
    with pytest.raises(ValueError, match=r"pattern must be \(3, 2, 1\) or \(1, 2, 3\)"):
        GenerationFilter(UD, 4, exact_occurrences=((2, 1), 0))
    # a flag is a bool or None, a target an int: 1 would act as True at n <= 2 only
    with pytest.raises(ValueError):
        GenerationFilter(UD, 5, ends_in_largest=1)
    with pytest.raises(ValueError):
        GenerationFilter(UD, 5, begins_with_smallest=0)
    with pytest.raises(ValueError):
        GenerationFilter(UD, 5, exact_occurrences=(PATTERN_321, 1.5))
    # a bool compares as 1 or 0 but prints as a word: length=True, or a target counted as 1
    with pytest.raises(ValueError, match="length"):
        GenerationFilter(UD, True)
    with pytest.raises(ValueError, match="count"):
        GenerationFilter(UD, 5, exact_occurrences=(PATTERN_321, True))
    with pytest.raises(ValueError, match="count"):
        GenerationFilter(UD, 5, exact_occurrences=(PATTERN_123, False))


def test_filter_stores_patterns_as_tuples():
    # a list pattern is the same filter as its tuple, so it takes the same path
    for as_list, as_tuple in (
        (GenerationFilter(UD, 7, exact_occurrences=([3, 2, 1], 1)),
         GenerationFilter(UD, 7, exact_occurrences=(PATTERN_321, 1))),
        (GenerationFilter(DU, 7, avoid=[1, 2, 3]), GenerationFilter(DU, 7, avoid=PATTERN_123)),
        (GenerationFilter(UD, 6, exact_occurrences=([1, 2, 3], 2)),
         GenerationFilter(UD, 6, exact_occurrences=(PATTERN_123, 2))),
    ):
        assert as_list == as_tuple
        assert hash(as_list) == hash(as_tuple)
        assert list(generate(as_list)) == list(generate(as_tuple))


def test_generate_spec_examples():
    assert list(generate(GenerationFilter(UD, 4))) == [
        (1, 3, 2, 4),
        (1, 4, 2, 3),
        (2, 3, 1, 4),
        (2, 4, 1, 3),
        (3, 4, 1, 2),
    ]
    assert list(generate(GenerationFilter(DU, 4, avoid=PATTERN_321))) == [(2, 1, 4, 3), (3, 1, 4, 2)]
    assert list(generate(GenerationFilter(UD, 4, exact_occurrences=(PATTERN_123, 1)))) == [
        (1, 4, 2, 3),
        (2, 3, 1, 4),
    ]


def test_count_spec_examples():
    assert count(GenerationFilter(UD, 6, exact_occurrences=(PATTERN_321, 1))) == 12
    assert count(GenerationFilter(UD, 5)) == 16
    assert count(GenerationFilter(UD, 2, avoid=PATTERN_321, ends_in_largest=False)) == 0


NAIVE_SCAN_CASES = [
    {},
    {"avoid": PATTERN_321},
    {"avoid": PATTERN_123},
    # counts above the 0..3 of the generated list below
    {"exact_occurrences": (PATTERN_321, 4)},
    {"exact_occurrences": (PATTERN_321, 1)},
    {"exact_occurrences": (PATTERN_123, 2)},
    {"ends_in_largest": True},
    {"ends_in_largest": False},
    {"begins_with_smallest": True},
    {"begins_with_smallest": False},
    {"avoid": PATTERN_321, "ends_in_largest": True},
    {"avoid": PATTERN_321, "begins_with_smallest": False},
    {"exact_occurrences": (PATTERN_321, 1), "ends_in_largest": False},
    {"exact_occurrences": (PATTERN_123, 4), "begins_with_smallest": True},
    {"exact_occurrences": (PATTERN_321, 6), "ends_in_largest": True},
    # a target above a short walk's tail bound, C(k + 1, 3) + C(k + 1, 2)·(n - k - 1), and
    # one above every length's: both read tables whose cap is the bound, not the target
    {"exact_occurrences": (PATTERN_321, 9)},
    {"exact_occurrences": (PATTERN_123, 10**6)},
]
# every exact 321/123 count of 0..3, alone and under each boundary flag
NAIVE_SCAN_CASES += [
    case
    for pattern in (PATTERN_321, PATTERN_123)
    for target in (0, 1, 2, 3)
    for flag in (
        {},
        {"ends_in_largest": True},
        {"ends_in_largest": False},
        {"begins_with_smallest": True},
        {"begins_with_smallest": False},
    )
    if (case := {"exact_occurrences": (pattern, target), **flag}) not in NAIVE_SCAN_CASES
]
# both boundary flags set, in every combination, alone and with 321 avoided:
# at n = 1 position 1 is position n, so each flag must only tighten the other
NAIVE_SCAN_CASES += [
    {**constraint, "ends_in_largest": ends, "begins_with_smallest": begins}
    for constraint in ({}, {"avoid": PATTERN_321})
    for ends in (True, False)
    for begins in (True, False)
]


UNSCORED_CASES = [case for case in NAIVE_SCAN_CASES if not {"avoid", "exact_occurrences"} & set(case)]


def test_naive_scan_has_every_unscored_flag_pair():
    flag_pairs = {(case.get("ends_in_largest"), case.get("begins_with_smallest")) for case in UNSCORED_CASES}
    assert len(UNSCORED_CASES) == len(flag_pairs) == 9


@pytest.mark.parametrize("cls", [UD, DU])
@pytest.mark.parametrize("constraints", NAIVE_SCAN_CASES)
def test_generate_matches_naive_scan(cls, constraints):
    # 321 and 123 are scored by the forced-occurrence count F, whose lookahead
    # at n = 8 cuts prefixes with up to six entries still to place. The
    # unscored cases run to n = 9: from n = 2 the table of zigzag orders gives
    # the last k + 1 entries, k = max(1, min(_TAIL, n - 3)), so every k up to 6
    # is read, and ends_in_largest picks which of its orders are read
    for n in range(0, 10 if constraints in UNSCORED_CASES else 9):
        filt = GenerationFilter(cls, n, **constraints)
        got = list(generate(filt))
        expected = naive.matching_perms(
            cls.value,
            n,
            avoid=constraints.get("avoid"),
            exactly=constraints.get("exact_occurrences"),
            ends_in_largest=constraints.get("ends_in_largest"),
            begins_with_smallest=constraints.get("begins_with_smallest"),
        )
        assert got == expected, (cls, n, constraints)
        assert count(filt) == len(expected)


@pytest.mark.parametrize("cls", [UD, DU])
def test_count_matches_generate_one_past_naive_scan(cls):
    # count adds up the per-node batches that generate expands; at n = 9 the
    # stream must still be sorted and free of duplicates under every constraint
    for constraints in NAIVE_SCAN_CASES:
        filt = GenerationFilter(cls, 9, **constraints)
        out = list(generate(filt))
        assert count(filt) == len(out), constraints
        assert out == sorted(set(out)), constraints


@pytest.mark.parametrize("ends, begins", list(product((None, True, False), repeat=2)))
@pytest.mark.parametrize("cls", [UD, DU])
@pytest.mark.parametrize("pattern", [PATTERN_321, PATTERN_123])
def test_every_occurrence_target_matches_histogram(cls, pattern, ends, begins):
    # every target from 0 to one past the largest count, not only 0..3, under every flag pair:
    # the unscored walk's stream under the same flags gives the histogram, so the walk's two
    # modes must agree wherever the flags cut its windows
    flags = {"ends_in_largest": ends, "begins_with_smallest": begins}
    for n in range(0, 9):
        histogram = Counter(count_occurrences(w, pattern) for w in generate(GenerationFilter(cls, n, **flags)))
        for k in range(0, max(histogram, default=0) + 2):
            filt = GenerationFilter(cls, n, exact_occurrences=(pattern, k), **flags)
            assert count(filt) == histogram[k], (n, k)


@pytest.mark.parametrize("cls", [UD, DU])
@pytest.mark.parametrize("target", [None, (PATTERN_321, 1)])
def test_flag_counts_past_naive_scan_match_the_flag_free_stream(cls, target):
    # The naive scan stops at n = 9, where a walk pushes at most two entries. At n = 10 and 11
    # an unscored walk pushes three, so each flag pair's windows are set on pushes no other
    # check reaches, and a walk for one 321 pushes none and reads all 10 or 11 entries at the
    # root under each pair of flags; the flag-free stream, tallied by (last entry is n,
    # first entry is 1), gives all nine counts
    for n in (10, 11):
        tally = Counter((w[-1] == n, w[0] == 1) for w in generate(GenerationFilter(cls, n, exact_occurrences=target)))
        for ends, begins in product((None, True, False), repeat=2):
            expected = sum(m for (last, first), m in tally.items()
                           if ends in (None, last) and begins in (None, first))
            filt = GenerationFilter(cls, n, exact_occurrences=target, ends_in_largest=ends, begins_with_smallest=begins)
            assert count(filt) == expected, (n, ends, begins)


@pytest.mark.parametrize("cls", [UD, DU])
def test_flag_counts_shift_to_the_flag_free_count_one_shorter(cls):
    # A largest entry placed last, or a smallest entry placed first, lies in no 321, and the
    # other entries alternate in cls (after the last) or in cls.flipped (after the first). So
    # a flagged 321 count at n is the flag-free one at n - 1 in that class when the flagged
    # entry's step is allowed, and 0 otherwise: a check of the flags the root window and the
    # ends heads apply (up to n = 11 for targets 0..2, where no entry is pushed) and of the
    # pushed windows past it, against walks that read no flag.
    def count_321(host, n, target, **flag):
        return count(GenerationFilter(host, n, exact_occurrences=(PATTERN_321, target), **flag))

    for n in range(3, 15):
        for target in range(5):
            ends = count_321(cls, n - 1, target) if cls.rises_into(n) else 0
            begins = count_321(cls.flipped, n - 1, target) if cls.rises_into(2) else 0
            assert count_321(cls, n, target, ends_in_largest=True) == ends, (n, target)
            assert count_321(cls, n, target, begins_with_smallest=True) == begins, (n, target)


CONCURRENT_FILTERS = [
    GenerationFilter(UD, 9),
    GenerationFilter(DU, 10, exact_occurrences=(PATTERN_321, 2)),
    GenerationFilter(UD, 11, avoid=PATTERN_123, ends_in_largest=False),
    GenerationFilter(DU, 8, exact_occurrences=(PATTERN_123, 1)),
]


@pytest.mark.parametrize("filt", CONCURRENT_FILTERS)
def test_interleaved_streams_are_independent(filt):
    # zip_longest advances the two streams alternately and pads a short one
    assert list(zip_longest(generate(filt), generate(filt))) == [(w, w) for w in generate(filt)]


def test_count_from_threads_matches_serial():
    serial = [count(filt) for filt in CONCURRENT_FILTERS]
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(count, CONCURRENT_FILTERS * 2)) == serial * 2


@lru_cache(maxsize=None)
def zigzag_orders(k):
    """{rise: the orders of the ranks 0..k that are UD when rise (DU otherwise),
    lexicographically}, filtered by classify from all (k + 1)! permutations, with no growth
    rule: the reference the pattern-free tables, and orders_below where it keeps every order,
    are checked against (about 0.06 s at k = 7)."""
    orders = {False: [], True: []}
    for w in permutations(range(k + 1)):
        for cls in classify(w):
            orders[cls is UD].append(w)
    return orders


def tail_counts(order, pattern):
    """(inside, by_rank) for a tail `order` of the ranks 0..k: the occurrences of pattern inside
    it, and by_rank[r], the pairs of its entries that the pattern can end on whose first rank is
    r. After a prefix with vec[r] values above rank r (below it, for 123) the tail adds
    inside + Σ_r vec[r]·by_rank[r] occurrences: one per prefix value before each pair. Both come
    from a scan of every pair and triple of entries in order, which falls for 321 and rises for
    123; with no pattern both are 0."""
    if pattern is None:
        return 0, (0,) * len(order)
    down = pattern[1] > pattern[2]
    ends_on = [a for a, b in combinations(order, 2) if (a > b) == down]
    inside = sum((a > b) == (b > c) == down for a, b, c in combinations(order, 3))
    return inside, tuple(map(ends_on.count, range(len(order))))


def orders_below(k, rise, pattern, cap):
    """The orders of the ranks 0..k that are UD when rise (DU otherwise) and hold fewer than cap
    occurrences of pattern, lexicographically: placed left to right, each entry tried from the
    smallest up, a prefix dropped once it stops alternating, or once the occurrences inside it
    and those each unused rank must close with its pairs reach cap: a rank below the second
    entry of a falling pair (above that of a rising pair, for 123) closes one with it wherever
    it is placed, and an appended entry lowers neither count. No growth rule; cheap where the
    kept orders are few (about 0.1 s at k = 9 and 0.3 s at k = 10, cap 3), unlike a filter of
    all (k + 1)! permutations."""
    down = pattern[1] > pattern[2]
    found = []

    def extend(prefix, inside):
        if len(prefix) == k + 1:
            found.append(prefix)
            return
        up = (len(prefix) % 2 == 1) == rise
        for x in range(k + 1):
            if x in prefix or prefix and (x > prefix[-1]) != up:
                continue
            grown = (*prefix, x)
            inside_x = inside + sum((a > b > x) if down else (a < b < x) for a, b in combinations(prefix, 2))
            seconds = [b for a, b in combinations(grown, 2) if (a > b) == down]
            forced = sum((y < b) == down for y in range(k + 1) if y not in grown for b in seconds)
            if inside_x + forced < cap:
                extend(grown, inside_x)

    extend((), 0)
    return found


def scored_vectors(k):
    """The vectors test_scored_table_lists_its_definition checks for a table of k + 1 ranks: every
    monotone one with entries 0..3 up to k = 5; from k = 6 on, those with at most two distinct
    entries (40, 46, 52, 58 and 64), which keep the check to about 2.5 s per pattern."""
    vectors = combinations_with_replacement(range(4), k + 1)
    return [vec for vec in vectors if k <= 5 or len(set(vec)) <= 2]


@pytest.mark.parametrize("pattern", [PATTERN_321, PATTERN_123, None])
def test_scored_table_lists_its_definition(pattern):
    # For the zigzag orders of every k up to the longest tail a walk reads (_TAIL with no
    # pattern, _CAP3_TAIL with one) and each cap it reads them with: _order_scores with ends
    # None, which grows its orders rank by rank, keeps those with fewer than cap occurrences
    # inside, lexicographically, with their columns. With no pattern the cap is 1, there are no
    # c columns, and the reference is every zigzag order, filtered from all (k + 1)!
    # permutations; with one, the reference orders are placed left to right by orders_below,
    # and where every zigzag order is kept (k <= _TAIL) they are also the filtered ones. The
    # entries with ends True and False keep the rows of the orders their flag picks, cut from
    # it, the same getters included. For each vector a walk can meet with entries 0..3 (the
    # placed values above an unused value shrink as the value grows, and those below it grow;
    # an unscored walk meets only the one all 0, and reads total 0), _tails keeps, under each
    # total below cap, the orders whose tail adds that total, lexicographically and sliced by
    # first entry; where no order qualifies (k = 1 with no pattern: DU with ends True, UD with
    # ends False) no total is listed. Getters are compared by the orders they read off the
    # ranks, as the tables make their own, and a cut and its tails hold the getters of the
    # entry with ends None. At cap 3 an entry of 3 stands for any count from 3 up, so the
    # orders kept must not change when it is raised to 7. Only cap 3 (targets 0..2) reads
    # tails of k + 1 = 9 to 11 entries, so those k check cap 3 alone.
    for k in range(1, (enumeration._CAP3_TAIL if pattern else enumeration._TAIL) + 1):
        ranks = tuple(range(k + 1))
        caps = (1,) if pattern is None else (3, 100) if k <= enumeration._TAIL else (3,)
        vectors = scored_vectors(k) if pattern else [(0,) * (k + 1)]
        for rise in (False, True):
            reference = zigzag_orders(k)[rise] if pattern is None else orders_below(k, rise, pattern, max(caps))
            known = {order: tail_counts(order, pattern) for order in reference}
            if k <= enumeration._TAIL:
                assert list(known) == zigzag_orders(k)[rise], (k, rise)
            for cap in caps:
                kept = [order for order, (inside, _) in known.items() if inside < cap]
                counts = [known[order] for order in kept]
                grown = enumeration._order_scores(k, rise, None, pattern, cap)
                ends_on_k, firsts, getters, inners, *columns = grown
                assert [get(ranks) for get in getters] == kept, (k, rise, cap)
                order_of = dict(zip(getters, kept))
                assert list(ends_on_k) == [order[-1] == k for order in kept]
                assert list(firsts) == [order[0] for order in kept]
                assert list(inners) == [inside for inside, _ in counts]
                assert list(zip(*columns)) == ([by_rank for _, by_rank in counts] if pattern else [])
                rows = list(zip(*grown))
                for ends in (True, False):
                    cut = enumeration._order_scores(k, rise, ends, pattern, cap)
                    assert [type(column) for column in cut] == list(map(type, grown))
                    assert list(zip(*cut)) == [row for row in rows if row[0] == ends], (k, rise, cap, ends)
                # ends only picks orders, so each order's score serves all three heads
                for vec in vectors:
                    vec = vec[::-1] if pattern == PATTERN_321 else vec
                    lifted = tuple(7 if a == 3 else a for a in vec)
                    scores = [inside + sum(map(mul, vec, by_rank)) for inside, by_rank in counts]
                    unclipped = [inside + sum(map(mul, lifted, by_rank)) for inside, by_rank in counts]
                    assert [score if score < 3 else None for score in scores] == [
                        score if score < 3 else None for score in unclipped]
                    for ends in (None, True, False):
                        # expected[score][i]: the orders ends keeps with that score, below cap,
                        # that start at i
                        expected: dict = {}
                        for score, order in zip(scores, kept):
                            if score < cap and ends in (None, order[-1] == k):
                                expected.setdefault(score, [[] for _ in ranks])[order[0]].append(order)
                        table = enumeration._tails.__wrapped__((k, rise, ends, pattern, cap), vec)  # uncached
                        assert sorted(table) == sorted(expected), (k, rise, ends, vec, cap)
                        for total, (orders, start) in table.items():
                            assert type(orders) is tuple and len(start) == k + 2
                            assert start[0] == 0 and start[k + 1] == len(orders)
                            for i in ranks:
                                assert [order_of[get] for get in orders[start[i]:start[i + 1]]] == expected[total][i], (
                                    k, rise, ends, vec, cap, total, i)


@pytest.mark.parametrize("cls, pattern", [(DU, PATTERN_321), (UD, PATTERN_123)])
def test_targets_past_the_tail_bound_match_histogram(monkeypatch, cls, pattern):
    # With tails of 5 + 1 entries, at n = 10 a tail adds at most 20 + 15·4 = 80 occurrences,
    # and these pairs reach 88: every target past 80 reads the tables capped at 81, where F must
    # come mostly from the prefix, or finds no tail when the prefix leaves 81 or more to add
    # (the longest tail's bound at n = 10, 112, is past every count)
    monkeypatch.setattr(enumeration, "_TAIL", 5)
    n, bound = 10, 80
    histogram = Counter(count_occurrences(w, pattern) for w in generate(GenerationFilter(cls, n)))
    assert max(histogram) > bound
    for target in range(bound - 1, max(histogram) + 2):
        filt = GenerationFilter(cls, n, exact_occurrences=(pattern, target))
        assert count(filt) == histogram[target], target
        assert all(count_occurrences(w, pattern) == target for w in generate(filt))


#: The oracle's cached table builders: the scored orders a head (k, rise, ends, pattern, cap)
#: keeps, and the tails of a (head, vec)
CACHED = ("_order_scores", "_tails")


def fresh_cache(builder, build=None):
    """An empty cache with the parameters of the cached `builder`, around `build` or the
    builder's own function."""
    return lru_cache(**builder.cache_parameters())(build or builder.__wrapped__)


def cold_caches(monkeypatch, **builds):
    """Swap a fresh, empty cache in for each of enumeration's CACHED builders, around the
    function `builds` gives under its name or the builder's own; monkeypatch puts the warm
    caches back after the test."""
    for name in CACHED:
        monkeypatch.setattr(enumeration, name, fresh_cache(getattr(enumeration, name), builds.get(name)))


def cache_sizes():
    """The number of values each of CACHED holds."""
    return [getattr(enumeration, name).cache_info().currsize for name in CACHED]


def cache_misses():
    """The misses of each of CACHED so far."""
    return [getattr(enumeration, name).cache_info().misses for name in CACHED]


def test_a_target_past_the_tail_bound_adds_no_scored_table(monkeypatch):
    # At n = 11 the walk pushes 3 entries, whose F is at most 1 + 3·8 = 25, and a tail of the
    # other 8 adds at most C(8, 3) + C(8, 2)·3 = 140: from target 166 on, every node finds no
    # tail before it scores one, so no order is scored, no vector is built and no head is made:
    # a walk makes a head (here all three targets would share cap 141) when a node first reads it.
    cold_caches(monkeypatch)
    for target in (166, 10**6, 10**20):
        assert count(GenerationFilter(UD, 11, exact_occurrences=(PATTERN_321, target))) == 0
    assert cache_sizes() == [0, 0]
    # a target the tails can reach (cap 121) scores the orders of one head and builds vectors
    count(GenerationFilter(UD, 11, exact_occurrences=(PATTERN_321, 120)))
    heads, vectors = cache_sizes()
    assert heads == 1 and vectors


@pytest.mark.parametrize("cls", [UD, DU])
@pytest.mark.parametrize("pattern", [PATTERN_321, PATTERN_123])
def test_longest_tail_matches_a_short_one(monkeypatch, cls, pattern):
    # No naive scan reaches the longest tails, k = _CAP3_TAIL for targets 0..2 from n = k + 1
    # and k = _TAIL for the rest from n = k + 3. At n = 11 a target of 0..2 pushes no entry and
    # reads all 11 off the scored tables, and a target of 3 pushes 3 and reads 8; at n = 12 a
    # target of 0..2 pushes 1 and reads 11, and a target of 3 pushes 4. With _TAIL = 3 and
    # _CAP3_TAIL = 5 targets 0..2 read 6 and a target of 3 reads 4, so the two share no table.
    # Targets 0..3 run under every ends_in_largest flag, and 0..2 compare whole streams;
    # 20 and 120 (the most any pair reaches at n = 11) fill tables with most or all orders.
    # Every other target builds its own tables, 0.1-0.2 s each, so not all are run here.
    filters = [GenerationFilter(cls, n, exact_occurrences=(pattern, target), ends_in_largest=ends)
               for n in (11, 12) for target in range(4) for ends in (None, True, False)]
    filters += [GenerationFilter(cls, 11, exact_occurrences=(pattern, target)) for target in (20, 120)]
    streamed = [filt for filt in filters if filt.exact_occurrences[1] < 3]
    counts = [count(filt) for filt in filters]
    streams = [list(generate(filt)) for filt in streamed]
    assert counts[0] and counts[-1]
    monkeypatch.setattr(enumeration, "_TAIL", 3)
    monkeypatch.setattr(enumeration, "_CAP3_TAIL", 5)
    assert [count(filt) for filt in filters] == counts
    assert [list(generate(filt)) for filt in streamed] == streams


@pytest.mark.parametrize(("cls", "pattern", "counts"), [
    (UD, PATTERN_321, [1430, 5850, 20575]), (UD, PATTERN_123, [1430, 5850, 20575]),
    (DU, PATTERN_321, [1430, 5850, 20575]), (DU, PATTERN_123, [1430, 5850, 20575]),
])
def test_leaf_depth_that_clips_the_placed_value_counts(monkeypatch, cls, pattern, counts):
    # A scored leaf clips each A_r, a count of placed values in 0..leaf, at cap before it looks
    # its vector up; targets 0..2 share cap 3. Clipped or not, an order with c_r >= 1 then
    # scores cap or more, so the outputs cannot tell; the vectors the tables are built for can.
    # Targets 0..2 read tails of k + 1 = 11 entries from n = 11 on, so leaf = n - 11 exceeds 3
    # only from n = 15 on, where the four (class, pattern) pairs have the same counts.
    build = enumeration._tails.__wrapped__
    looked_up = []

    def tails(head, vec):
        looked_up.append((head[4], vec))
        return build(head, vec)

    cold_caches(monkeypatch, _tails=tails)
    for target, expected in enumerate(counts):
        filt = GenerationFilter(cls, 15, exact_occurrences=(pattern, target))
        out = list(generate(filt))
        assert count(filt) == len(out) == expected
        assert out == sorted(set(out))
        assert all(count_occurrences(w, pattern) == target for w in out)
    assert {cap for cap, _ in looked_up} == {3}
    assert all(max(vec) <= cap for cap, vec in looked_up)


def exactly_two_321(cls, n):
    """The conjectured count of length-n `cls` permutations with exactly two 321s, n >= 3, m =
    n // 2: a row per class for even n and one for odd n, each P(m)·C(2m, m)·m!/(m + k)!, fitted
    to counts made by another method than the oracle. Nothing in the package derives them. The
    UD even row, fitted from m = 3 on, gives 1 at n = 4, so UD n = 4 returns 0 here: no UD
    permutation of length 4 (1324, 1423, 2314, 2413, 3412) holds a 321."""
    m, odd = divmod(n, 2)
    if (cls, n) == (UD, 4):
        return 0
    if odd:
        p, k = (m - 1) * (337 * m**4 + 1221 * m**3 + 308 * m**2 - 1116 * m - 720), 6
    elif cls is UD:
        p, k = 2 * (151 * m**5 + 239 * m**4 - 1063 * m**3 - 629 * m**2 + 1482 * m + 1080), 6
    else:
        p, k = 2 * (m - 1) * (47 * m**3 + 6 * m**2 - 125 * m + 60), 5
    value, rest = divmod(p * comb(2 * m, m) * factorial(m), factorial(m + k))
    assert not rest, (cls, n)
    return value



def exactly_three_321(cls, n):
    """The conjectured count of length-n `cls` permutations with exactly three 321s, n >= 3, m =
    n // 2, as ROADMAP item 3 writes the rows: P(m)·C(2m, m)·m!/((2m - 1)(m + k)!), a row per
    class for even n and one for odd n, fitted to counts made by another method than the
    oracle. Each P vanishes where no such permutation exists (m = 1, and m = 2 for even n)."""
    m, odd = divmod(n, 2)
    if odd:
        p, k = (m - 1) * (10967 * m**7 + 61583 * m**6 + 6785 * m**5 - 218779 * m**4 - 222616 * m**3
                          + 300188 * m**2 + 65616 * m + 201600), 8
        p, rest = divmod(p, 2)
        assert not rest, n
    elif cls is UD:
        p, k = (m - 2) * (m - 1) * (4831 * m**6 + 28881 * m**5 + 7 * m**4 - 171753 * m**3 - 256694 * m**2
                                    - 68664 * m - 60480), 8
    else:
        p, k = (m - 2) * (m - 1) * (1553 * m**5 + 4127 * m**4 - 4391 * m**3 + 2953 * m**2 - 14202 * m + 27720), 7
    value, rest = divmod(p * comb(2 * m, m) * factorial(m), (2 * m - 1) * factorial(m + k))
    assert not rest, (cls, n)
    return value

@pytest.mark.parametrize("cls", [UD, DU])
def test_exactly_two_counts_match_the_conjectured_rows(cls):
    # Target-2 walks past the naive scans against a count from another method: 321 in cls and
    # 123 in the other class (its complement) at n = 3..16, where targets 0..2 read tails of up
    # to 11 entries (from n = 11) and push up to 5 first.
    for n in range(3, 17):
        expected = exactly_two_321(cls, n)
        for pattern, host in ((PATTERN_321, cls), (PATTERN_123, cls.flipped)):
            assert count(GenerationFilter(host, n, exact_occurrences=(pattern, 2))) == expected, (n, pattern)


@pytest.mark.parametrize("cls", [UD, DU])
@pytest.mark.parametrize("pattern", [PATTERN_321, PATTERN_123])
def test_push_free_walks_match_the_closed_forms(monkeypatch, cls, pattern):
    # A walk for a target of 0..2 of length n = 4..11 pushes no entry: it reads the whole
    # permutation off the scored tables at the root, so every head it reads has k = n - 1, and
    # it hands over at most one batch. At n = 12 it pushes one entry and reads k = 10, the
    # longest tail. The counts follow from other methods: Table 1 for target 0 (123 in cls is
    # 321 in the other class, its complement), a_n for target 1 and the conjectured rows for
    # target 2. The caches start empty, so each length builds its heads and orders afresh.
    read: list = []  # the heads the walks read, each time a walk asks for a head's tails
    cold_caches(monkeypatch)
    cold = enumeration._tails

    def tails(head, vec):
        read.append(head)
        return cold(head, vec)

    monkeypatch.setattr(enumeration, "_tails", tails)
    host = cls if pattern == PATTERN_321 else cls.flipped  # the class whose 321s these are
    for n in range(4, 13):
        expected = [table1_formula(host, n, "total"), a_n(SequenceSpec(pattern, cls), n), exactly_two_321(host, n)]
        for target in range(3):
            filt = GenerationFilter(cls, n, exact_occurrences=(pattern, target))
            read.clear()
            assert count(filt) == expected[target], (n, target)
            assert read and {head[0] for head in read} == {n - 1 if n <= 11 else 10}, (n, target)
            if n <= 11:
                assert len(list(enumeration._walk(filt))) <= 1, (n, target)


def race_cold_builds(monkeypatch, filters, check):
    """Generate every filter from 8 threads at once in each of 10 rounds, after swapping a fresh,
    empty cache in for each of enumeration's CACHED builders; then check()."""
    expected = [list(generate(filt)) for filt in filters]
    rounds, workers = 10, 8

    def work(results):
        results.append([list(generate(filt)) for filt in filters])

    saved_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            cold_caches(monkeypatch)  # around the functions the caches now hold
            results: list = []
            threads = [threading.Thread(target=work, args=(results,)) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * workers
            check()
    finally:
        sys.setswitchinterval(saved_interval)


def test_zigzag_table_cold_build_is_thread_safe(monkeypatch):
    # In each round the threads start one after another on an empty cache, and
    # the short switch interval makes a later one start its walks inside an
    # earlier one's build: a table stored before it is whole would miss an
    # order or a key, and shift a count or raise in that thread.
    filters = [GenerationFilter(cls, n, ends_in_largest=ends) for cls in (UD, DU) for n in (4, 8)
               for ends in (None, True, False)]
    # the pattern-free heads these walks read: n = 4 (k = 1) and n = 8 (k = 5) both push two
    # entries, so UD rises into the table and DU falls, under every ends flag; each built
    # afresh, the heads with ends True and False cut from the one with ends None
    heads = list(product((1, 5), (False, True), (None, True, False), (None,), (1,)))

    def fresh(head):
        k = head[0]
        return (repr(enumeration._order_scores.__wrapped__(*head)),
                repr(enumeration._tails.__wrapped__(head, (0,) * (k + 1))))

    built = {head: fresh(head) for head in heads}

    def check():
        # every head and its one vector are cached (read with no miss) and equal their fresh
        # build: itemgetters compare by identity, and their repr lists the indices they read
        assert cache_sizes() == [len(heads), len(heads)]
        misses = cache_misses()
        for head, (columns, table) in built.items():
            assert repr(enumeration._order_scores(*head)) == columns, head
            assert repr(enumeration._tails(head, (0,) * (head[0] + 1))) == table, head
        assert cache_misses() == misses

    race_cold_builds(monkeypatch, filters, check)


def test_scored_table_cold_build_is_thread_safe(monkeypatch):
    # The same race on a scored walk's tables, each round from its orders' scores up, which it
    # grows on its own: a head's orders, scored or cut, or a vector's orders by score stored
    # before they are whole would drop or shift a tail in some thread, and every cached value
    # must equal a fresh build. Each round records every head whose orders were built and
    # every (head, vec) whose tails were built, which covers every value cached. The walks at
    # n = 6, 9, 10 and 11 push no entry and read the whole permutation (k = 5, 8, 9 and 10) at
    # the root, one vector per head, whose orders are pruned as they grow; the ends=False walks
    # read the orders that flag cuts. The three at n = 12, targets 0..2, push one and fall into tails of
    # 11 off one head (k = 10), capped at 3 for all three (they begin with 1, which keeps them
    # to one vector), and the n = 12 walk with no flag falls into the same head and meets one
    # vector per first entry, so several threads race on the vectors of one head.
    filters = [GenerationFilter(cls, n, exact_occurrences=(pattern, 2), ends_in_largest=ends)
               for cls in (UD, DU) for n in (6, 9) for pattern in (PATTERN_321, PATTERN_123)
               for ends in (None, False)]
    filters += [GenerationFilter(UD, n, exact_occurrences=(PATTERN_321, 2)) for n in (10, 11)]
    filters += [GenerationFilter(UD, 12, exact_occurrences=(PATTERN_321, target), begins_with_smallest=True)
                for target in range(3)]
    filters.append(GenerationFilter(UD, 12, exact_occurrences=(PATTERN_321, 0)))
    orders, tails = enumeration._order_scores.__wrapped__, enumeration._tails.__wrapped__
    heads: set = set()  # every head whose orders were built
    built: set = set()  # every (head, vec) whose tails were built

    def record_head(*head):
        heads.add(head)
        return orders(*head)

    def record_tails(head, vec):
        built.add((head, vec))
        return tails(head, vec)

    cold_caches(monkeypatch, _order_scores=record_head, _tails=record_tails)

    def check():
        misses = cache_misses()
        # every head read was built, and every flagged head cut from the head with ends None
        assert built and {head for head, _ in built} <= heads
        assert {(k, rise, None, pattern, cap) for k, rise, _, pattern, cap in heads} <= heads
        assert {head[0] for head in heads} == {5, 8, 9, 10}
        assert sorted(head for head in heads if head[0] >= 9) == [
            (9, True, None, PATTERN_321, 3), (10, False, None, PATTERN_321, 3), (10, True, None, PATTERN_321, 3)]
        assert {ends for _, _, ends, _, _ in heads} == {None, False}
        for head in heads:  # a cut head's fresh build reads the cached head with ends None
            assert repr(enumeration._order_scores(*head)) == repr(orders(*head)), head
        for head, vec in built:  # the fresh build reads the orders just checked
            assert repr(enumeration._tails(head, vec)) == repr(tails(head, vec)), (head, vec)
        assert cache_misses() == misses  # all were cached
        heads.clear()
        built.clear()

    race_cold_builds(monkeypatch, filters, check)


def test_zigzag_table_is_published_whole(monkeypatch):
    # The first itemgetter() call (making the first order's getter in _order_scores) and the
    # first accumulate() call (the offsets by first entry of the first total _tails lists) each
    # run a walk in a new thread and wait for it, so that walk starts midway through the build
    # of the pattern-free table it reads first, for k = 5: it must find nothing cached for it,
    # and build its own. Building another k keeps the first.
    filt = GenerationFilter(DU, 8, ends_in_largest=False)
    expected = list(generate(filt))
    midway: list = []
    called: set = set()

    def read_midway(build_step):
        def step(*args, **kwargs):
            if build_step not in called:
                called.add(build_step)
                reader = threading.Thread(target=lambda: midway.append(list(generate(filt))))
                reader.start()
                reader.join(timeout=60)
            return build_step(*args, **kwargs)
        return step

    monkeypatch.setattr(enumeration, "itemgetter", read_midway(enumeration.itemgetter))
    monkeypatch.setattr(enumeration, "accumulate", read_midway(enumeration.accumulate))
    cold_caches(monkeypatch)
    assert list(generate(filt)) == expected
    assert midway == [expected, expected]
    # DU falls into position 4, where the table starts, and the walk reads the tails of the
    # heads with ends None and then False; the second cuts its orders from the first's. The
    # first reader starts inside this walk's growth of the first head's orders, so both miss
    # that head's orders and its tails; the second reader starts inside the first reader's
    # tails of that head, finds its orders but not its tails, builds them, then misses the
    # second head, cuts its orders from the first head's (a hit) and builds its tails; the
    # others then read those whole. This walk stores the first head's orders and tails last
    info = [getattr(enumeration, name).cache_info() for name in CACHED]
    assert [(i.hits, i.misses, i.currsize) for i in info] == [(2, 3, 2), (2, 4, 2)]
    head, zeros = (5, False, None, None, 1), (0,) * 6
    table = enumeration._tails(head, zeros)
    enumeration._tails((2, False, None, None, 1), (0,) * 3)
    assert cache_sizes() == [3, 3]
    assert enumeration._tails(head, zeros) is table


@pytest.mark.parametrize("ends", [None, True, False])
def test_a_cold_unscored_count_builds_only_the_heads_it_reads(monkeypatch, ends):
    # A UD walk of n = 10 pushes two entries (k = 7) and rises into the table. With
    # ends_in_largest None or False it reads the pattern-free head (7, True, None) where n is
    # placed, and (7, True, ends) where it is not; with True, n is never placed, so it reads
    # (7, True, True) alone. No other rise or ends value is built, the orders are grown once,
    # in the head with ends None, which a flagged head cuts, and each head read builds the
    # tails of its one vector, all 0
    filt = GenerationFilter(UD, 10, ends_in_largest=ends)
    expected = count(filt)
    tails = enumeration._tails.__wrapped__
    read: list = []

    def record_tails(head, vec):
        read.append(head)
        return tails(head, vec)

    cold_caches(monkeypatch, _tails=record_tails)
    assert count(filt) == expected
    assert read == [(7, True, flag, None, 1) for flag in dict.fromkeys((ends or None, ends))]
    assert cache_sizes() == [len({None, ends}), len(read)]


@pytest.mark.parametrize("pattern", [None, PATTERN_321])
def test_ends_flags_share_one_set_of_orders(monkeypatch, pattern):
    # Cold counts of UD n = 10 under ends_in_largest None, True and False read tails of k = 7
    # after two pushes, rising into them (unscored, cap 1), or all k + 1 = 10 entries at the
    # root, rising into them too (exactly one 321, cap 3). Together they read the heads of all
    # three flags, and each head keeps the orders its flag picks from one set grown once: the
    # orders of a (k, rise, pattern, cap) grow only in its head with ends None, and the heads
    # with ends True and False are cut from that entry, so they hold its very getters
    target = None if pattern is None else (pattern, 1)
    filters = [GenerationFilter(UD, 10, exact_occurrences=target, ends_in_largest=ends)
               for ends in (None, True, False)]
    expected = [count(filt) for filt in filters]
    grow = enumeration._order_scores.__wrapped__
    grown: list = []  # the heads whose orders were grown, not cut

    def record_growth(*head):
        if head[2] is None:
            grown.append(head)
        return grow(*head)

    cold_caches(monkeypatch, _order_scores=record_growth)
    assert [count(filt) for filt in filters] == expected
    assert expected[0] == expected[1] + expected[2]
    assert cache_sizes() == [3, 3]  # and each head meets one vector
    (head,) = grown
    ends_on_k, _, getters, *_ = enumeration._order_scores(*head)
    for ends in (True, False):
        cut = enumeration._order_scores(*head[:2], ends, *head[3:])[2]
        assert cut == tuple(get for get, on_k in zip(getters, ends_on_k) if on_k == ends), ends


def test_streams_sorted_and_duplicate_free():
    for n in range(0, 11):
        for cls in (UD, DU):
            out = list(generate(GenerationFilter(cls, n)))
            assert out == sorted(set(out))


def test_avoid_equals_exact_zero():
    for n in range(0, 11):
        for pattern in (PATTERN_321, PATTERN_123):
            avoid = GenerationFilter(UD, n, avoid=pattern)
            exact = GenerationFilter(UD, n, exact_occurrences=(pattern, 0))
            assert avoid == exact and hash(avoid) == hash(exact)
            with pytest.raises(AttributeError):
                avoid.avoid
            assert list(generate(avoid)) == list(generate(exact))
            assert avoid.replace(length=n + 1) == GenerationFilter(UD, n + 1, avoid=pattern)


def test_empty_permutation_conventions():
    assert list(generate(GenerationFilter(UD, 0))) == [()]
    assert list(generate(GenerationFilter(UD, 0, ends_in_largest=True))) == []
    assert list(generate(GenerationFilter(UD, 0, ends_in_largest=False))) == [()]
    assert list(generate(GenerationFilter(DU, 0, begins_with_smallest=True))) == []
    assert list(generate(GenerationFilter(UD, 0, exact_occurrences=(PATTERN_321, 1)))) == []
    assert list(generate(GenerationFilter(UD, 0, exact_occurrences=(PATTERN_321, 0)))) == [()]


def test_single_entry_conventions():
    assert list(generate(GenerationFilter(DU, 1))) == [(1,)]
    assert list(generate(GenerationFilter(UD, 1, ends_in_largest=True))) == [(1,)]
    assert list(generate(GenerationFilter(UD, 1, ends_in_largest=False))) == []


def test_euler_zigzag_values():
    assert [euler_zigzag(n) for n in range(13)] == ZIGZAG
    with pytest.raises(ValueError):
        euler_zigzag(-1)


def test_euler_zigzag_matches_generation():
    for n in range(0, 12):
        assert count(GenerationFilter(UD, n)) == euler_zigzag(n)
        assert count(GenerationFilter(DU, n)) == euler_zigzag(n)


def test_table1_oracle_examples():
    assert table1_oracle(UD, 4, "total") == 5
    assert table1_oracle(UD, 4, "ends_in_largest") == 2
    assert table1_oracle(DU, 4, "ends_in_largest") == 0


def test_table1_oracle_validation():
    with pytest.raises(ValueError):
        table1_oracle(UD, 4, "largest")
    with pytest.raises(ValueError):
        table1_oracle(UD, -1, "total")
