import random
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

import altperms.decompose as decompose_module
from altperms.decompose import (
    DecompositionRecord,
    InvalidRecord,
    InvariantViolation,
    NotAlternating,
    NotExactlyOne,
    enumerate_by_decomposition,
    format_record,
    locate_unique_321,
    parse_record,
    reconstruct,
    split,
    validate_record,
)
from altperms.enumeration import GenerationFilter, generate
from altperms.perm_core import AlternationClass, PATTERN_321, middle_counts, standardize, suffix_class

import naive

UD = AlternationClass.UP_DOWN
DU = AlternationClass.DOWN_UP


def one_321_hosts(cls, n):
    return naive.matching_perms(cls.value, n, exactly=(PATTERN_321, 1))


ALL_SMALL_HOSTS = [w for n in range(3, 9) for cls in (UD, DU) for w in one_321_hosts(cls, n)]


def test_record_text_roundtrip():
    record = DecompositionRecord(n=6, cls=UD, j=3, u=(1, 3, 2), v=(2, 3, 1, 4))
    text = format_record(record)
    assert text == "n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4"
    assert parse_record(text) == record


MALFORMED = "malformed record text"


@pytest.mark.parametrize(
    "text,match",
    [
        pytest.param(text, match, id=text)
        for text, match in [
            ("n=6;j=3;class=UD;U=1,3,2;V=2,3,1,4", MALFORMED),  # wrong field order
            ("n=6;class=UD;j=3;U=1,3,2", MALFORMED),  # missing field
            ("n=6;class=XX;j=3;U=1,3,2;V=2,3,1,4", "unknown alternation class"),
            ("n=6;class=UD;j=3;U=1,3,3;V=2,3,1,4", "not a permutation"),
            ("", MALFORMED),
            ("n=6;class=UD;j=3;U=1,3,2;V", MALFORMED),  # field without "="
            ("n=x;class=UD;j=3;U=1,3,2;V=2,3,1,4", MALFORMED),  # n not an integer
        ]
    ],
)
def test_parse_record_rejects(text, match):
    with pytest.raises(ValueError, match=match):
        parse_record(text)


def test_locate_unique_321_examples():
    assert locate_unique_321((1, 4, 3, 5, 2, 6)) == (2, 3, 5)
    with pytest.raises(NotExactlyOne) as info:
        locate_unique_321((1, 3, 2, 4))
    assert info.value.count == 0
    with pytest.raises(NotExactlyOne) as info:
        locate_unique_321((4, 3, 2, 1))
    assert info.value.count == 4


def test_locate_unique_321_counts_without_listing():
    # up-down host n-1,n,n-3,n-2,...,1,2: every three of its n/2 pairs give 8
    # occurrences, C(500, 3) * 8 of them at n = 1000, far too many to list
    n = 1000
    w = tuple(v for top in range(n, 0, -2) for v in (top - 1, top))
    with pytest.raises(NotExactlyOne, match="found 165668000$") as info:
        locate_unique_321(w)
    assert info.value.count == 165_668_000


@given(st.permutations(range(1, 9)))
def test_locate_unique_321_matches_naive(w):
    occurrences = naive.occurrence_positions(w, PATTERN_321)
    if len(occurrences) == 1:
        assert locate_unique_321(w) == occurrences[0]
    else:
        with pytest.raises(NotExactlyOne) as info:
            locate_unique_321(w)
        assert info.value.count == len(occurrences)


@settings(max_examples=500)
@given(st.lists(st.integers(-3, 5), max_size=12).map(tuple))
# two 321s each, where one fall among the lower entries (those below an earlier entry) is not enough:
@example((9, 3, 5, 2))  # lower entries 3, 5, 2: the 3 before the fall lies above its end
@example((9, 5, 2, 3))  # lower entries 5, 2, 3: the 3 after the fall lies below its start
@example((3, 2, 2, 1))  # lower entries 2, 2, 1: a tie before the fall
@example((3, 3, 2, 2, 1))  # a tie with the largest entry, which is not a lower entry
def test_scan_matches_middle_counts_with_ties(w):
    # the reference is middle_counts, not naive: naive counts a tie as part of a 321
    middles = middle_counts(w, PATTERN_321)
    total = sum(middles)
    assert (decompose_module._lower_fall(w) is None) == (total == 0)
    if total == 1:
        j = middles.index(1)
        i = next(t for t in range(j) if w[t] > w[j])
        k = next(t for t in range(j + 1, len(w)) if w[t] < w[j])
        assert locate_unique_321(w) == (i + 1, j + 1, k + 1)
    else:
        with pytest.raises(NotExactlyOne) as info:
            locate_unique_321(w)
        assert info.value.count == total


@cache
def short_blocks(cls, length, ends_in_largest, begins_with_smallest):
    return list(generate(GenerationFilter(cls, length, avoid=PATTERN_321, ends_in_largest=ends_in_largest,
                                          begins_with_smallest=begins_with_smallest)))


def summed_block(rng, cls, length, ends_in_largest=None, begins_with_smallest=None):
    """A random 321-avoiding `cls` block: the direct sum of short ones, each of which ends
    where `cls` rises, since a direct sum steps up from one summand to the next and adds no 321."""
    while True:
        block = []
        while (done := len(block)) < length:
            sizes = [m for m in range(1, min(6, length - done) + 1)
                     if done + m == length or cls.rises_into(done + m + 1)]
            m = rng.choice(sizes)
            summands = short_blocks(suffix_class(cls, done + 1), m, ends_in_largest if done + m == length else None,
                                    begins_with_smallest if done == 0 else None)
            if not summands:
                break  # a boundary flag no block of this length meets: draw the block again
            block += [done + x for x in rng.choice(summands)]
        else:
            return tuple(block)


def test_long_hosts_round_trip_against_naive():
    # hosts of length 60-72, far past the exhaustive lengths, rebuilt from records
    rng = random.Random(60)
    for _ in range(6):
        n, cls = rng.randint(60, 72), rng.choice((UD, DU))
        j = rng.randint(n // 3, 2 * n // 3)
        u = summed_block(rng, cls, j, ends_in_largest=False)
        v = summed_block(rng, suffix_class(cls, j), n - j + 1, begins_with_smallest=False)
        record = DecompositionRecord(n, cls, j, u, v)
        w = reconstruct(parse_record(format_record(record)))
        [(i, jj, k)] = naive.occurrence_positions(w, PATTERN_321)
        assert jj == j
        assert (naive.is_up_down if cls is UD else naive.is_down_up)(w)
        assert naive.occurrence_count(u, PATTERN_321) == naive.occurrence_count(v, PATTERN_321) == 0
        assert u == standardize(w[: j - 1] + (w[k - 1],))
        assert v == standardize((w[i - 1],) + w[j:])
        assert locate_unique_321(w) == (i, j, k)
        assert split(w) == record


def test_split_worked_example():
    record = split((1, 4, 3, 5, 2, 6))
    assert record == DecompositionRecord(n=6, cls=UD, j=3, u=(1, 3, 2), v=(2, 3, 1, 4))


def test_split_accepts_any_sequence():
    assert split([1, 4, 3, 5, 2, 6]) == split((1, 4, 3, 5, 2, 6))


@pytest.mark.parametrize("w", [(1, 4, 3, 5, 2, 7), (2, 5, 4, 6, 3, 7)])
def test_split_rejects_non_permutations(w):
    # alternating with one 321, but not a permutation of 1..n: an input error,
    # not a broken bijection
    with pytest.raises(ValueError, match="not a permutation"):
        split(w)


def test_record_blocks_given_as_lists():
    listed = DecompositionRecord(6, UD, 3, [1, 3, 2], [2, 3, 1, 4])
    twin = DecompositionRecord(6, UD, 3, (1, 3, 2), (2, 3, 1, 4))
    assert listed == twin and hash(listed) == hash(twin)
    assert reconstruct(listed) == (1, 4, 3, 5, 2, 6)


@pytest.mark.parametrize("w", [(1, 4, 2, 3), (2, 1, 4, 3, 5)])
def test_split_rejects_avoiders(w):
    with pytest.raises(NotExactlyOne) as info:
        split(w)
    assert info.value.count == 0


def test_split_rejects_non_alternating():
    with pytest.raises(NotAlternating):
        split((1, 2, 3, 4))
    # one 321 occurrence but not alternating: the alternation check comes first
    with pytest.raises(NotAlternating):
        split((3, 2, 1))


def test_split_output_satisfies_characterization():
    # re-derive u and v naively and re-check every promised condition
    for w in ALL_SMALL_HOSTS:
        record = split(w)
        n, j = record.n, record.j
        (i, jj, k) = naive.occurrence_positions(w, PATTERN_321)[0]
        assert jj == j
        assert w[j - 1] == j  # middle-value law
        assert record.u == standardize(w[: j - 1] + (w[k - 1],))
        assert record.v == standardize((w[i - 1],) + w[j:])
        # prefix/suffix value bounds
        assert all(w[t] < w[j - 1] for t in range(j - 1) if t != i - 1)
        assert all(w[t] > w[j - 1] for t in range(j, n) if t != k - 1)
        # block constraints
        assert naive.occurrence_count(record.u, PATTERN_321) == 0
        assert naive.occurrence_count(record.v, PATTERN_321) == 0
        assert record.u[-1] != j
        assert record.v[0] != 1


def test_reconstruct_worked_example():
    record = parse_record("n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4")
    assert reconstruct(record) == (1, 4, 3, 5, 2, 6)


def test_reconstruct_rejects_wrong_v_shape():
    # j odd demands an up-down right block; 2,1,3 starts with a descent
    record = DecompositionRecord(n=5, cls=UD, j=3, u=(1, 3, 2), v=(2, 1, 3))
    with pytest.raises(InvalidRecord):
        reconstruct(record)


def test_reconstruct_rejects_block_ending_in_largest():
    record = DecompositionRecord(n=4, cls=UD, j=2, u=(1, 2), v=(3, 1, 2))
    with pytest.raises(InvalidRecord):
        reconstruct(record)


# the problems of the first failing stage only: j and the permutation checks,
# then the lengths, then each block's 321, shape and boundary
MULTI_PROBLEM_RECORDS = [
    (DecompositionRecord(4, UD, 5, (1,), (1,)), "j=5 outside 2..3"),
    (DecompositionRecord(6, UD, 9, (1, 3, 3), (2, 3, 1, 4)), "j=9 outside 2..5; U is not a permutation"),
    (DecompositionRecord(6, UD, 3, (1, 3, 3), (2, 2, 1, 4)), "U is not a permutation; V is not a permutation"),
    # a wrong length hides the other block's 321 and shape
    (DecompositionRecord(7, UD, 4, (3, 2, 1), (2, 3, 1, 4)), "U has length 3, expected j=4"),
    (DecompositionRecord(6, DU, 3, (3, 2, 1), (2, 1, 5, 4, 3)), "V has length 5, expected n-j+1=4"),
    (
        DecompositionRecord(6, DU, 3, (3, 2, 1), (1, 4, 3, 2)),
        "U contains 321; U is not DU-alternating; "
        "V contains 321; V is not DU-alternating (required for j=3); V begins with its smallest entry",
    ),
    (
        DecompositionRecord(6, UD, 3, (2, 1, 3), (1, 3, 4, 2)),
        "U is not UD-alternating; U ends in its largest entry; "
        "V is not UD-alternating (required for j=3); V begins with its smallest entry",
    ),
]


def test_validate_record_reports_all_problems():
    for record, message in MULTI_PROBLEM_RECORDS:
        with pytest.raises(InvalidRecord) as info:
            validate_record(record)
        assert str(info.value) == f"{format_record(record)}: {message}"


@pytest.mark.parametrize(
    "record,match",
    [
        pytest.param(record, match, id=match)
        for record, match in [
            # parse_perm rejects the first two, so they are built directly
            (DecompositionRecord(6, UD, 3, (1, 3, 3), (2, 3, 1, 4)), "U is not a permutation"),
            (DecompositionRecord(6, UD, 3, (1, 3, 2), (2, 3, 1, 1)), "V is not a permutation"),
            (parse_record("n=7;class=DU;j=4;U=4,2,3,1;V=2,1,4,3"), "U contains 321"),
            (parse_record("n=7;class=UD;j=3;U=1,3,2;V=2,5,4,3,1"), "V contains 321"),
            (parse_record("n=6;class=UD;j=3;U=2,1,3;V=2,3,1,4"), "U is not UD-alternating"),
            (parse_record("n=6;class=UD;j=3;U=1,3,2;V=1,3,2,4"), "V begins with its smallest entry"),
        ]
    ],
)
def test_validate_record_names_each_problem(record, match):
    with pytest.raises(InvalidRecord, match=match):
        validate_record(record)


BLOCKS = st.integers(2, 8).flatmap(lambda k: st.permutations(range(1, k + 1)))


@given(BLOCKS, BLOCKS)
def test_record_check_finds_321_in_each_block(u, v):
    record = DecompositionRecord(len(u) + len(v) - 1, UD, len(u), u, v)
    problems = decompose_module._record_problems(record)
    assert ("U contains 321" in problems) == (naive.occurrence_count(u, PATTERN_321) > 0)
    assert ("V contains 321" in problems) == (naive.occurrence_count(v, PATTERN_321) > 0)


def test_roundtrip_split_then_reconstruct():
    for w in ALL_SMALL_HOSTS:
        assert reconstruct(split(w)) == w


@given(st.sampled_from(ALL_SMALL_HOSTS))
def test_roundtrip_property(w):
    record = split(w)
    assert reconstruct(record) == w
    assert split(reconstruct(record)) == record


def test_converse_roundtrip_over_all_valid_records():
    # every (j, U, V) passing the block filters is a valid record and must
    # rebuild to a host that splits back to it
    for n in range(3, 9):
        for cls in (UD, DU):
            hosts = set(one_321_hosts(cls, n))
            seen = set()
            for j in range(2, n):
                left = list(generate(GenerationFilter(cls, j, avoid=PATTERN_321, ends_in_largest=False)))
                right = list(
                    generate(
                        GenerationFilter(
                            suffix_class(cls, j), n - j + 1, avoid=PATTERN_321, begins_with_smallest=False
                        )
                    )
                )
                for u in left:
                    for v in right:
                        record = DecompositionRecord(n=n, cls=cls, j=j, u=u, v=v)
                        w = reconstruct(record)  # internally asserts split(w) == record
                        assert w in hosts
                        seen.add(w)
            assert seen == hosts


@pytest.mark.parametrize(
    "entry",
    [
        # the record is what validate_record, reconstruct and format_record would be handed
        lambda: DecompositionRecord(6, "UD", 3, (1, 3, 2), (2, 3, 1, 4)),
        lambda: list(enumerate_by_decomposition(5, "UD")),
    ],
    ids=["record", "enumerate_by_decomposition"],
)
def test_a_class_code_is_refused(entry):
    with pytest.raises(ValueError, match=r"^cls must be an AlternationClass, got 'UD'$"):
        entry()


def test_enumerate_by_decomposition_counts():
    assert sum(1 for _ in enumerate_by_decomposition(6, UD)) == 12
    assert list(enumerate_by_decomposition(4, UD)) == []
    assert sum(1 for _ in enumerate_by_decomposition(6, DU)) == 10


def test_enumerate_by_decomposition_matches_oracle_sets():
    for n in range(3, 9):
        for cls in (UD, DU):
            built = list(enumerate_by_decomposition(n, cls))
            assert len(built) == len(set(built))
            assert set(built) == set(one_321_hosts(cls, n))


def test_enumerate_by_decomposition_deterministic_grouped_by_j():
    first = list(enumerate_by_decomposition(7, UD))
    second = list(enumerate_by_decomposition(7, UD))
    assert first == second
    js = [split(w).j for w in first]
    assert js == sorted(js)


@pytest.mark.parametrize(
    "bad,message",
    [
        # DU-alternating and not ending in 5, but 5,3,1 is a 321 (left block at j = 5)
        ((5, 3, 4, 1, 2), "generated block U=5,3,4,1,2 of n=7;class=DU;j=5 is invalid: U contains 321"),
        # UD-alternating and 321-avoiding, but it begins with 1 (right block at j = 2)
        ((1, 3, 2, 5, 4, 6), "generated block V=1,3,2,5,4,6 of n=7;class=DU;j=2 is invalid: "
         "V begins with its smallest entry"),
    ],
)
def test_enumerate_by_decomposition_checks_each_generated_block(monkeypatch, bad, message):
    # without the check the bad block would be paired and rebuilt, failing later with another message
    is_left = len(bad) == 5

    def generate_with_a_bad_block(filt):
        blocks = list(generate(filt))
        if filt.length == len(bad) and (filt.ends_in_largest is not None) == is_left:
            blocks.insert(0, bad)
        return blocks

    monkeypatch.setattr(decompose_module, "generate", generate_with_a_bad_block)
    with pytest.raises(InvariantViolation) as info:
        list(enumerate_by_decomposition(7, DU))
    assert str(info.value) == message


def test_reconstruct_refuses_a_host_that_reads_back_differently(monkeypatch):
    # sabotage the rebuild step: the self-check must refuse to return its output
    good = parse_record("n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4")
    monkeypatch.setattr(decompose_module, "_rebuild", lambda record: (2, 4, 3, 5, 1, 6))
    with pytest.raises(InvariantViolation, match="splits to n=6;class=UD;j=3;U=2,3,1;V=2,3,1,4, not to"):
        reconstruct(good)


def test_reconstruct_refuses_a_host_that_does_not_split(monkeypatch):
    # the sabotaged rebuild is up-down with no 321, so no record can be read off it
    good = parse_record("n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4")
    monkeypatch.setattr(decompose_module, "_rebuild", lambda record: (1, 3, 2, 5, 4, 6))
    with pytest.raises(InvariantViolation, match="does not split: expected exactly one 321 occurrence, found 0"):
        reconstruct(good)


def test_split_refuses_a_record_that_does_not_rebuild_its_host(monkeypatch):
    # sabotage the rebuild step: split must check rebuild(split(w)) == w
    monkeypatch.setattr(decompose_module, "_rebuild", lambda record: (2, 4, 3, 5, 1, 6))
    with pytest.raises(InvariantViolation, match="rebuilds 2,4,3,5,1,6"):
        split((1, 4, 3, 5, 2, 6))


def test_error_hierarchy():
    assert issubclass(NotExactlyOne, ValueError)
    assert issubclass(NotAlternating, ValueError)
    assert issubclass(InvalidRecord, ValueError)
    assert issubclass(InvariantViolation, RuntimeError)
