import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product, zip_longest

import pytest

from altperms import enumeration
from altperms.enumeration import GenerationFilter, count, euler_zigzag, generate, table1_oracle
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


def test_zigzag_table_lists_its_definition():
    # _zigzag_table(k)[rise, ends] is (orders, start): orders[start[i]:start[i + 1]], read off
    # 1..k + 1, is every permutation of those values, lexicographically, that starts with i + 1,
    # is UD when rise (DU otherwise), and ends on k + 1 when ends is True, not on k + 1 when it
    # is False; start[k + 1] closes the last slice at the end of orders. The table grows its
    # orders rank by rank; here they are filtered from all (k + 1)! permutations.
    keys = list(product((False, True), (None, True, False)))
    for k in range(1, enumeration._TAIL + 1):
        values = tuple(range(1, k + 2))
        zigzags = [(w, classify(w)) for w in permutations(values)]
        table = enumeration._zigzag_table(k)
        assert sorted(table, key=repr) == sorted(keys, key=repr)
        for rise, ends in keys:
            orders, start = table[rise, ends]
            assert type(orders) is tuple and len(start) == k + 2
            assert start[0] == 0 and start[k + 1] == len(orders)
            for i in range(k + 1):
                expected = [w for w, classes in zigzags
                            if w[0] == i + 1 and (UD if rise else DU) in classes and ends in (None, w[-1] == k + 1)]
                assert [get(values) for get in orders[start[i]:start[i + 1]]] == expected, (k, rise, ends, i)


def tail_counts(order, pattern):
    """(inside, ends_on) for a tail `order` of the ranks 0..k: the occurrences of pattern inside
    it, and the first rank of each pair of its entries that the pattern can end on. After a
    prefix with vec[r] values above rank r (below it, for 123) the tail adds
    inside + sum(vec[r] for r in ends_on) occurrences: one per prefix value before each pair."""
    ends_on = [order[s] for s, u in combinations(range(len(order)), 2)
               if (order[s] > order[u]) == (pattern[1] > pattern[2])]
    return naive.occurrence_count(order, pattern), ends_on


def scored_vectors(k):
    """The vectors test_scored_table_lists_its_definition checks for a table of k + 1 ranks: every
    monotone one with entries 0..3 up to k = 5; from k = 6 on, those with at most two distinct
    entries (40 and 46), which keep the check to about 2 s per pattern."""
    vectors = combinations_with_replacement(range(4), k + 1)
    return [vec for vec in vectors if k <= 5 or len(set(vec)) <= 2]


@pytest.mark.parametrize("pattern", [PATTERN_321, PATTERN_123])
def test_scored_table_lists_its_definition(pattern):
    # For every table of zigzag orders and each vector a walk can meet with entries 0..3 (the
    # placed values above an unused value shrink as the value grows, and those below it grow),
    # _orders_by_score keeps, under each total below cap, the orders whose tail adds that
    # total, lexicographically and sliced by first entry, and reuses that table's getters. At
    # cap 3 an entry of 3 stands for any count from 3 up, so the orders kept must not change
    # when it is raised to 7.
    for k in range(1, enumeration._TAIL + 1):
        zigzag = enumeration._zigzag_table(k)
        ranks = tuple(range(k + 1))
        for rise in (False, True):
            # ends only picks orders, so each order's counts serve all three
            known = {get(ranks): tail_counts(get(ranks), pattern) for get in zigzag[rise, None][0]}
            for ends in (None, True, False):
                getters = zigzag[rise, ends][0]
                firsts = [get(ranks)[0] for get in getters]
                counts = [known[get(ranks)] for get in getters]
                for vec in scored_vectors(k):
                    vec = vec[::-1] if pattern == PATTERN_321 else vec
                    lifted = tuple(7 if a == 3 else a for a in vec)
                    scores = [inside + sum(vec[r] for r in ends_on) for inside, ends_on in counts]
                    unclipped = [inside + sum(lifted[r] for r in ends_on) for inside, ends_on in counts]
                    assert [score if score < 3 else None for score in scores] == [
                        score if score < 3 else None for score in unclipped]
                    # expected[score][i]: the getters of the orders with that score that start at i
                    expected: dict = {}
                    for score, first, get in zip(scores, firsts, getters):
                        expected.setdefault(score, [[] for _ in ranks])[first].append(get)
                    for cap in (3, 100):
                        table = enumeration._orders_by_score(k, rise, ends, pattern, cap, vec)
                        assert sorted(table) == sorted(score for score in expected if score < cap)
                        for total, (orders, start) in table.items():
                            assert len(start) == k + 2 and start[0] == 0 and start[k + 1] == len(orders)
                            for i in range(k + 1):
                                assert list(orders[start[i]:start[i + 1]]) == expected[total][i], (
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


def fresh_cache(builder, build=None):
    """An empty cache with the parameters of the cached `builder`, around `build` or the
    builder's own function."""
    return lru_cache(**builder.cache_parameters())(build or builder.__wrapped__)


def test_a_target_past_the_tail_bound_adds_no_scored_table(monkeypatch):
    # At n = 11 the walk pushes 3 entries, whose F is at most 1 + 3·8 = 25, and a tail of the
    # other 8 adds at most C(8, 3) + C(8, 2)·3 = 140: from target 166 on, every node finds no
    # tail before it scores one, so no order is scored and no vector is built. The three targets
    # share one head (cap 141), whose cache of vectors the walk makes before any node looks.
    build_head = enumeration._scored_table.__wrapped__
    tables: list = []  # each head's cache of vectors, as it is made

    def scored_table(*head):
        tables.append(build_head(*head))
        return tables[-1]

    monkeypatch.setattr(enumeration, "_order_scores", fresh_cache(enumeration._order_scores))
    monkeypatch.setattr(enumeration, "_scored_table", fresh_cache(enumeration._scored_table, scored_table))
    for target in (166, 10**6, 10**20):
        assert count(GenerationFilter(UD, 11, exact_occurrences=(PATTERN_321, target))) == 0
    assert enumeration._order_scores.cache_info().currsize == 0
    assert [table.cache_info().currsize for table in tables] == [0]
    # a target the tails can reach (cap 121) scores orders and builds vectors
    count(GenerationFilter(UD, 11, exact_occurrences=(PATTERN_321, 120)))
    assert enumeration._order_scores.cache_info().currsize == 1
    assert len(tables) == 2 and tables[0].cache_info().currsize == 0 and tables[1].cache_info().currsize


@pytest.mark.parametrize("cls", [UD, DU])
@pytest.mark.parametrize("pattern", [PATTERN_321, PATTERN_123])
def test_longest_tail_matches_a_short_one(monkeypatch, cls, pattern):
    # No naive scan reaches the longest tail, k = _TAIL, which needs n >= _TAIL + 3. At n = 11
    # the walk pushes 3 entries and reads 8 off the tables; with _TAIL = 3 it pushes 7 and
    # reads 4, so the two share no table. Targets 0..3 run under every ends_in_largest flag;
    # 20 and 120 (the most any pair reaches at n = 11) fill tables with most or all orders.
    # Every other target builds its own tables, 0.1-0.2 s each, so not all are run here.
    n = 11
    filters = [GenerationFilter(cls, n, exact_occurrences=(pattern, target), ends_in_largest=ends)
               for target in range(4) for ends in (None, True, False)]
    filters += [GenerationFilter(cls, n, exact_occurrences=(pattern, target)) for target in (20, 120)]
    counts = [count(filt) for filt in filters]
    assert counts[0] and counts[-1]
    monkeypatch.setattr(enumeration, "_TAIL", 3)
    assert [count(filt) for filt in filters] == counts


def race_cold_builds(monkeypatch, filters, cold, check):
    """Generate every filter from 8 threads at once in each of 10 rounds, after swapping a fresh,
    empty cache in for each cached builder that `cold` names in enumeration; then check().
    monkeypatch puts the warm caches back after the test."""
    expected = [list(generate(filt)) for filt in filters]
    builders = {name: getattr(enumeration, name) for name in cold}
    rounds, workers = 10, 8

    def work(results):
        results.append([list(generate(filt)) for filt in filters])

    saved_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            for name, builder in builders.items():
                monkeypatch.setattr(enumeration, name, fresh_cache(builder))
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
    # the k of n = 4 and of n = 8, each built afresh
    built = {k: repr(enumeration._zigzag_table.__wrapped__(k)) for k in (1, 5)}

    def check():
        # both k are cached (read with no miss) and equal their fresh build: itemgetters
        # compare by identity, and their repr lists the indices they read
        info = enumeration._zigzag_table.cache_info()
        assert info.currsize == 2
        for k, table in built.items():
            assert repr(enumeration._zigzag_table(k)) == table, k
        assert enumeration._zigzag_table.cache_info().misses == info.misses

    race_cold_builds(monkeypatch, filters, ("_zigzag_table",), check)


def test_scored_table_cold_build_is_thread_safe(monkeypatch):
    # The same race on a scored walk's tables, each round from the table of zigzag orders up:
    # an order's scores or a vector's orders by score stored before they are whole would drop
    # or shift a tail in some thread, and every cached value must equal a fresh build. Each
    # round records the (head, vec) of every vector built, which covers every value cached.
    filters = [GenerationFilter(cls, n, exact_occurrences=(pattern, 2), ends_in_largest=ends)
               for cls in (UD, DU) for n in (6, 9) for pattern in (PATTERN_321, PATTERN_123)
               for ends in (None, False)]
    orders_by_score = enumeration._orders_by_score
    built: set = set()

    def record(*args):
        built.add(args)
        return orders_by_score(*args)

    monkeypatch.setattr(enumeration, "_orders_by_score", record)
    cached = ("_zigzag_table", "_order_scores", "_scored_table")

    def check():
        builders = [getattr(enumeration, name) for name in cached]
        misses = [builder.cache_info().misses for builder in builders]
        assert built
        zigzag_table, order_scores, scored_table = builders
        heads = {args[:-1] for args in built}
        for k in {head[0] for head in heads}:
            assert repr(zigzag_table(k)) == repr(zigzag_table.__wrapped__(k)), k
        for head in heads:
            assert repr(order_scores(*head)) == repr(order_scores.__wrapped__(*head)), head
        for *head, vec in list(built):
            assert repr(scored_table(*head)(vec)) == repr(orders_by_score(*head, vec)), (head, vec)
        assert [builder.cache_info().misses for builder in builders] == misses  # all were cached
        built.clear()

    race_cold_builds(monkeypatch, filters, cached, check)


def test_zigzag_table_is_published_whole(monkeypatch):
    # The first itemgetter() call (making the first order's getter) and the first _sliced()
    # call (listing the first (rise, ends) key's orders) each run a walk in a new thread and
    # wait for it, so that walk starts midway through the build of _zigzag_table(5): it must
    # find no table for k = 5 cached, and build its own. Building another k keeps the first.
    filt = GenerationFilter(DU, 8, ends_in_largest=False)
    expected = list(generate(filt))
    midway: list = []
    called: set = set()

    def read_midway(build_step):
        def step(*args):
            if build_step not in called:
                called.add(build_step)
                reader = threading.Thread(target=lambda: midway.append(list(generate(filt))))
                reader.start()
                reader.join(timeout=60)
            return build_step(*args)
        return step

    monkeypatch.setattr(enumeration, "itemgetter", read_midway(enumeration.itemgetter))
    monkeypatch.setattr(enumeration, "_sliced", read_midway(enumeration._sliced))
    monkeypatch.setattr(enumeration, "_zigzag_table", fresh_cache(enumeration._zigzag_table))
    assert list(generate(filt)) == expected
    assert midway == [expected, expected]
    # the first reader starts inside this walk's build and the second inside the first's: three
    # misses, and one table stored
    info = enumeration._zigzag_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 1)
    table = enumeration._zigzag_table(5)
    enumeration._zigzag_table(2)
    assert enumeration._zigzag_table.cache_info().currsize == 2 and enumeration._zigzag_table(5) is table


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
