from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest

import pytest

from altperms.enumeration import GenerationFilter, count, euler_zigzag, generate, table1_oracle
from altperms.perm_core import AlternationClass, PATTERN_123, PATTERN_321, count_occurrences

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


@pytest.mark.parametrize("cls", [UD, DU])
@pytest.mark.parametrize("constraints", NAIVE_SCAN_CASES)
def test_generate_matches_naive_scan(cls, constraints):
    # 321 and 123 are scored by the forced-occurrence count F, whose lookahead
    # at n = 8 cuts prefixes with up to six entries still to place; the
    # pattern-free cases reach n = 8 too, as ends_in_largest bounds exactly
    # the two last positions, which are filled in place
    for n in range(0, 9):
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


@pytest.mark.parametrize("cls", [UD, DU])
@pytest.mark.parametrize("pattern", [PATTERN_321, PATTERN_123])
def test_every_occurrence_target_matches_histogram(cls, pattern):
    # every target from 0 to one past the largest count, not only 0..3
    for n in range(0, 9):
        histogram = Counter(count_occurrences(w, pattern) for w in generate(GenerationFilter(cls, n)))
        for k in range(0, max(histogram) + 2):
            assert count(GenerationFilter(cls, n, exact_occurrences=(pattern, k))) == histogram[k], (n, k)


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
