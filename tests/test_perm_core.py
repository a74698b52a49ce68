import copy
import pickle

import pytest
from hypothesis import example, given, strategies as st

from altperms.decompose import DecompositionRecord
from altperms.enumeration import GenerationFilter
from altperms.formulas import SequenceSpec
from altperms.perm_core import (
    PATTERN_123,
    PATTERN_321,
    AlternationClass,
    classify,
    complement,
    count_occurrences,
    format_perm,
    is_alternating,
    is_permutation,
    middle_counts,
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

# the two patterns the package counts; every other one is rejected
PATTERNS = [PATTERN_123, PATTERN_321]


def test_is_permutation():
    assert is_permutation(())
    assert is_permutation((1,))
    assert is_permutation((2, 1, 3))
    assert not is_permutation((1, 1))
    assert not is_permutation((0, 1))
    assert not is_permutation((2, 3))


# entries that are no int, or no int of 1..n, or bools (they compare as 1 and 0 but are no ints proper)
JUNK = st.one_of(st.integers(-2, 9), st.booleans(), st.sampled_from([1.0, 2.0, 0.5, "1", "a"]))


@st.composite
def near_permutations(draw):
    """A permutation of 1..n (n <= 7), half the time with one entry swapped for junk."""
    w = list(draw(st.permutations(range(1, draw(st.integers(0, 7)) + 1))))
    if w and draw(st.booleans()):
        w[draw(st.integers(0, len(w) - 1))] = draw(JUNK)
    return w


@given(st.one_of(near_permutations(), st.lists(JUNK, max_size=6)))
@example([1.0])
@example([True])
@example([True, 2])
@example([0, 1])
@example([-1, 1])
@example([2, 2])
def test_is_permutation_matches_its_definition(values):
    n = len(values)
    expected = all(type(v) is int and 1 <= v <= n for v in values) and len(set(values)) == n
    assert is_permutation(values) == expected
    assert is_permutation(tuple(values)) == expected


def test_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        perm((1, 3))
    with pytest.raises(ValueError):
        perm((1, 2, 2))


def test_perm_rejects_bools():
    # True == 1, but it would print as "True,3,2", which parse_perm refuses
    with pytest.raises(ValueError, match="not a permutation"):
        perm((True, 3, 2))


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


@given(st.lists(st.integers(0, 4), max_size=9))  # small values: many ties
@example([])
@example([5])
@example([2, 2])
@example([1, 2])
@example([2, 1])
def test_alternation_matches_the_positionwise_rule(w):
    # a tie is no rise, so it must sit where the class falls
    expected = {
        cls for cls in AlternationClass
        if all((w[t - 2] < w[t - 1]) == cls.rises_into(t) for t in range(2, len(w) + 1))
    }
    for seq in (w, tuple(w)):
        assert classify(seq) == expected
        for cls in AlternationClass:
            assert is_alternating(seq, cls) == (cls in expected)
        assert not is_alternating(seq, "UD")  # a class code is no class


def test_classify_matches_naive_for_small_n():
    for n in range(0, 7):
        for w in naive.all_perms(n):
            got = classify(w)
            assert (UD in got) == naive.is_up_down(w)
            assert (DU in got) == naive.is_down_up(w)


def test_alternation_codes():
    assert AlternationClass.from_code("UD") is UD
    assert AlternationClass.from_code("DU") is DU
    # only a code: the class itself would also take a member; an unhashable or a bytes code is
    # refused with the same message, never a TypeError from the lookup
    for code in ("XX", "ud", UD, None, [], b"UD", "UD "):
        with pytest.raises(ValueError) as info:
            AlternationClass.from_code(code)
        assert str(info.value) == f"unknown alternation class code {code!r} (expected UD or DU)"
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
        ((1, 4, 3, 5, 2, 6), (3, 2, 1), 1),
        ((2, 1), (1, 2, 3), 0),
    ],
)
def test_count_occurrences_examples(w, p, expected):
    assert count_occurrences(w, p) == expected


def test_count_occurrences_rejects_bad_pattern():
    for counter in (count_occurrences, middle_counts):
        for pattern in ((), (1, 1), (1,), (2, 1), (1, 3, 2), [3, 2, 1, 4]):
            with pytest.raises(ValueError, match=r"pattern must be \(3, 2, 1\) or \(1, 2, 3\)"):
                counter((1, 2), pattern)


def naive_middles(w, pattern):
    """Per position of w, the naive occurrences of `pattern` whose middle entry sits there."""
    middles = [0] * len(w)
    for _, j, _ in naive.occurrence_positions(w, pattern):
        middles[j - 1] += 1
    return middles


# each counted pattern given as a list and as a tuple
@pytest.mark.parametrize("pattern", [list(p) for p in PATTERNS] + PATTERNS)
def test_count_occurrences_matches_naive(pattern):
    for n in range(0, 8):
        for w in naive.all_perms(n):
            middles = naive_middles(w, pattern)
            assert count_occurrences(w, pattern) == sum(middles)
            # each occurrence counted once, at its middle position
            assert middle_counts(w, pattern) == middles


# lengths 8-16, past the exhaustive range above (the bijection benchmark's hosts are 9-21 long)
@given(
    st.integers(min_value=8, max_value=16).flatmap(lambda n: st.permutations(list(range(1, n + 1)))).map(tuple),
    st.sampled_from(PATTERNS),
)
def test_middle_counts_matches_naive_on_longer_perms(w, pattern):
    assert middle_counts(w, pattern) == naive_middles(w, pattern)


# any ints: two equal entries are neither larger nor smaller than each other, so they share no occurrence
@pytest.mark.parametrize(
    "w,middles_321,middles_123",
    [
        ((10, 30, 20, 5, 40), [0, 0, 1, 0, 0], [0, 1, 1, 0, 0]),
        ((5, -1, 0, -3), [0, 1, 1, 0], [0, 0, 0, 0]),
        ((3, 3, 2, 1, 1), [0, 0, 4, 0, 0], [0, 0, 0, 0, 0]),
        ((1, 1, 2, 3, 3), [0, 0, 0, 0, 0], [0, 0, 4, 0, 0]),
        ((3, 2, 2, 1), [0, 1, 1, 0], [0, 0, 0, 0]),
        ((2, 2, 2), [0, 0, 0], [0, 0, 0]),
    ],
)
def test_middle_counts_on_sequences_that_are_not_permutations(w, middles_321, middles_123):
    assert middle_counts(w, PATTERN_321) == middles_321
    assert middle_counts(w, PATTERN_123) == middles_123


@given(st.lists(st.integers(-2, 4), max_size=12), st.sampled_from(PATTERNS))
def test_middle_counts_with_ties_matches_the_quadratic_count(w, pattern):
    # strictly larger entries before times strictly smaller after (321), or the reverse (123)
    above = (lambda x, b: x > b) if pattern == PATTERN_321 else (lambda x, b: x < b)
    expected = [
        sum(above(x, b) for x in w[:t]) * sum(above(b, x) for x in w[t + 1 :]) for t, b in enumerate(w)
    ]
    assert middle_counts(w, pattern) == expected


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


@given(perms_up_to_8, st.sampled_from(PATTERNS))
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
    with pytest.raises(ValueError, match=r"cannot standardize \(3, 1, 3\): repeated values"):
        standardize((3, 1, 3))


@given(st.lists(st.integers(-50, 50), max_size=10))
def test_standardize_ranks_distinct_ints_and_rejects_repeats(values):
    if len(set(values)) < len(values):
        with pytest.raises(ValueError, match="repeated values"):
            standardize(values)
        return
    # each entry's rank: how many entries are at most it
    assert standardize(values) == tuple(sum(x <= v for x in values) for v in values)


@given(perms_up_to_8)
def test_standardize_fixes_permutations(w):
    assert standardize(w) == w


# One record of each FrozenRecord class; its repr as the dataclass it replaced printed it;
# its fields as a plain tuple; and a change to its last field.
RECORDS = [
    (GenerationFilter(UD, 8, avoid=PATTERN_321, ends_in_largest=False),
     "GenerationFilter(cls=<AlternationClass.UP_DOWN: 'UD'>, length=8, exact_occurrences=((3, 2, 1), 0), "
     "ends_in_largest=False, begins_with_smallest=None)",
     (UD, 8, (PATTERN_321, 0), False, None), {"begins_with_smallest": True}),
    (SequenceSpec(PATTERN_321, UD),
     "SequenceSpec(pattern=(3, 2, 1), cls=<AlternationClass.UP_DOWN: 'UD'>)",
     (PATTERN_321, UD), {"cls": DU}),
    (DecompositionRecord(6, UD, 3, [1, 3, 2], [2, 3, 1, 4]),
     "DecompositionRecord(n=6, cls=<AlternationClass.UP_DOWN: 'UD'>, j=3, u=(1, 3, 2), v=(2, 3, 1, 4))",
     (6, UD, 3, (1, 3, 2), (2, 3, 1, 4)), {"v": (2, 3, 4, 1)}),
]
RECORD_IDS = ["GenerationFilter", "SequenceSpec", "DecompositionRecord"]


@pytest.mark.parametrize("record,text,values,change", RECORDS, ids=RECORD_IDS)
def test_record_repr_and_equality(record, text, values, change):
    assert repr(record) == text
    assert record != values and values != record
    assert tuple(getattr(record, name) for name in record.__slots__) == values
    changed = record.replace(**change)
    assert changed != record and not changed == record
    assert record.replace() == record and hash(record.replace()) == hash(record)


@pytest.mark.parametrize("record,text,values,change", RECORDS, ids=RECORD_IDS)
def test_record_refuses_assignment(record, text, values, change):
    fresh = record.replace()  # a failing check must not leave RECORDS changed for other tests
    for name in fresh.__slots__:
        with pytest.raises(AttributeError):
            setattr(fresh, name, None)
        with pytest.raises(AttributeError):
            delattr(fresh, name)
    with pytest.raises(AttributeError):
        fresh.extra = 1
    assert repr(fresh) == text


@pytest.mark.parametrize("record,text,values,change", RECORDS, ids=RECORD_IDS)
def test_record_pickles_and_copies(record, text, values, change):
    twins = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*twins, copy.copy(record), copy.deepcopy(record)]:
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record) and repr(twin) == text


def test_filter_replace_validates():
    filt = GenerationFilter(UD, 8, exact_occurrences=(PATTERN_321, 1))
    assert filt.replace(length=9) == GenerationFilter(UD, 9, exact_occurrences=(PATTERN_321, 1))
    with pytest.raises(ValueError, match="length"):
        filt.replace(length=-1)
    with pytest.raises(ValueError, match="mutually exclusive"):
        filt.replace(avoid=PATTERN_123)
    assert GenerationFilter(UD, 8).replace(avoid=[1, 2, 3]) == GenerationFilter(UD, 8, avoid=PATTERN_123)
    with pytest.raises(ValueError, match="pattern"):
        SequenceSpec(PATTERN_321, UD).replace(pattern=(1, 3, 2))
