import pytest
from hypothesis import given, strategies as st

from altperms.perm_core import (
    AlternationClass,
    boundary_statistics,
    classify,
    complement,
    count_occurrences,
    find_occurrences,
    format_perm,
    is_alternating,
    is_permutation,
    parse_perm,
    perm,
    reverse,
    standardize,
    suffix_class,
)

import naive

UD = AlternationClass.UP_DOWN
DU = AlternationClass.DOWN_UP

perms_up_to_8 = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)

length3_patterns = st.sampled_from([(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)])


def test_is_permutation():
    assert is_permutation(())
    assert is_permutation((1,))
    assert is_permutation((2, 1, 3))
    assert not is_permutation((1, 1))
    assert not is_permutation((0, 1))
    assert not is_permutation((2, 3))


def test_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        perm((1, 3))
    with pytest.raises(ValueError):
        perm((1, 2, 2))


@pytest.mark.parametrize(
    "text,expected",
    [("1,4,3,5,2,6", (1, 4, 3, 5, 2, 6)), ("", ()), ("1", (1,)), (" 2,1 ", (2, 1))],
)
def test_parse_perm(text, expected):
    assert parse_perm(text) == expected


@pytest.mark.parametrize("text", ["1,1", "0", "1,3", "a,b", "1,,2"])
def test_parse_perm_rejects(text):
    with pytest.raises(ValueError):
        parse_perm(text)


@given(perms_up_to_8)
def test_text_roundtrip(w):
    assert parse_perm(format_perm(w)) == w


@pytest.mark.parametrize(
    "w,expected",
    [
        ((1, 3, 2, 4), {UD}),
        ((2, 1, 4, 3), {DU}),
        ((1, 2, 3, 4), set()),
        ((), {UD, DU}),
        ((1,), {UD, DU}),
    ],
)
def test_classify(w, expected):
    assert classify(w) == expected


def test_classify_matches_naive_for_small_n():
    for n in range(0, 7):
        for w in naive.all_perms(n):
            got = classify(w)
            assert (UD in got) == naive.is_up_down(w)
            assert (DU in got) == naive.is_down_up(w)


def test_alternation_codes():
    assert AlternationClass.from_code("UD") is UD
    assert AlternationClass.from_code("DU") is DU
    with pytest.raises(ValueError):
        AlternationClass.from_code("XX")
    assert UD.flipped is DU and DU.flipped is UD


def test_suffix_class_parity_rule():
    assert suffix_class(UD, 3) is UD
    assert suffix_class(UD, 4) is DU
    assert suffix_class(DU, 5) is DU
    assert suffix_class(DU, 2) is UD


def test_suffix_class_matches_actual_suffix_shape():
    # the standardized tail of an alternating permutation starting at position
    # `start` must carry exactly the class the parity rule predicts
    for n in range(2, 8):
        for cls in (UD, DU):
            for w in naive.matching_perms(cls.value, n):
                for start in range(1, n + 1):
                    tail = standardize(w[start - 1 :])
                    assert is_alternating(tail, suffix_class(cls, start))


@pytest.mark.parametrize(
    "w,p,expected",
    [
        ((3, 2, 1), (3, 2, 1), 1),
        ((4, 3, 2, 1), (3, 2, 1), 4),
        ((1, 4, 2, 3), (1, 2, 3), 1),
        ((3, 4, 1, 2), (3, 2, 1), 0),
        ((1,), (1,), 1),
        ((2, 1), (1, 2, 3), 0),
    ],
)
def test_count_occurrences_examples(w, p, expected):
    assert count_occurrences(w, p) == expected


def test_count_occurrences_rejects_bad_pattern():
    with pytest.raises(ValueError):
        count_occurrences((1, 2), ())
    with pytest.raises(ValueError):
        count_occurrences((1, 2), (1, 1))


# The longer patterns have slots with earlier entries on both sides, which pins
# the walker's choice of the nearest matched value below and above.
NAIVE_PATTERNS = [(1,), (2, 1), (1, 2, 3), (3, 2, 1), (1, 3, 2), (2, 4, 1, 3), (3, 1, 4, 2), (2, 4, 1, 5, 3)]


@pytest.mark.parametrize("pattern", NAIVE_PATTERNS)
def test_count_occurrences_matches_naive(pattern):
    for n in range(0, 7):
        for w in naive.all_perms(n):
            assert count_occurrences(w, pattern) == naive.occurrence_count(w, pattern)


@pytest.mark.parametrize(
    "w,p,limit,expected",
    [
        ((1, 4, 3, 5, 2, 6), (3, 2, 1), 10, [(2, 3, 5)]),
        ((1, 2, 3, 4), (3, 2, 1), 5, []),
        ((4, 3, 2, 1), (3, 2, 1), 2, [(1, 2, 3), (1, 2, 4)]),
    ],
)
def test_find_occurrences_examples(w, p, limit, expected):
    assert find_occurrences(w, p, limit) == expected


def test_find_occurrences_limit_must_be_positive():
    with pytest.raises(ValueError):
        find_occurrences((1, 2), (1, 2), 0)


@pytest.mark.parametrize("pattern", NAIVE_PATTERNS)
def test_find_occurrences_lexicographic_and_complete(pattern):
    for n in range(0, 7):
        for w in naive.all_perms(n):
            expected = naive.occurrence_positions(w, pattern)
            got = find_occurrences(w, pattern, 10**6)
            assert got == expected  # naive list is generated in lex order too
            assert len(got) == count_occurrences(w, pattern)
            if expected:
                assert find_occurrences(w, pattern, 1) == expected[:1]


@pytest.mark.parametrize(
    "w,expected",
    [((1, 3, 2, 4), (4, 2, 3, 1)), ((), ()), ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1))],
)
def test_reverse_examples(w, expected):
    assert reverse(w) == expected


@pytest.mark.parametrize(
    "w,expected", [((1, 3, 2, 4), (4, 2, 3, 1)), ((2, 1), (1, 2)), ((), ())]
)
def test_complement_examples(w, expected):
    assert complement(w) == expected


@given(perms_up_to_8)
def test_reverse_and_complement_are_involutions(w):
    assert reverse(reverse(w)) == w
    assert complement(complement(w)) == w


@given(perms_up_to_8, length3_patterns)
def test_count_reversal_symmetry(w, p):
    assert count_occurrences(w, p) == count_occurrences(reverse(w), reverse(p))


@given(perms_up_to_8)
def test_reversal_action_on_classes(w):
    before = classify(w)
    after = classify(reverse(w))
    if len(w) % 2 == 1:
        assert after == before
    else:
        assert after == {cls.flipped for cls in before}


@given(perms_up_to_8)
def test_complement_swaps_classes(w):
    assert classify(complement(w)) == {cls.flipped for cls in classify(w)}


@pytest.mark.parametrize(
    "values,expected", [((4, 5, 2, 6), (2, 3, 1, 4)), ((1, 4, 2), (1, 3, 2)), ((7,), (1,)), ((), ())]
)
def test_standardize_examples(values, expected):
    assert standardize(values) == expected


def test_standardize_rejects_repeats():
    with pytest.raises(ValueError):
        standardize((3, 1, 3))


@given(perms_up_to_8)
def test_standardize_fixes_permutations(w):
    assert standardize(w) == w


@pytest.mark.parametrize(
    "w,ends,begins",
    [((1, 3, 2, 4), True, True), ((2, 4, 1, 3), False, False), ((3, 1, 2), False, False)],
)
def test_boundary_statistics(w, ends, begins):
    stats = boundary_statistics(w)
    assert stats.ends_in_largest is ends
    assert stats.begins_with_smallest is begins


def test_boundary_statistics_rejects_empty():
    with pytest.raises(ValueError):
        boundary_statistics(())
