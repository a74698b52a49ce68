import pytest
from hypothesis import given, strategies as st

import altperms.decompose as decompose_module
from altperms.decompose import (
    DecompositionRecord,
    InternalInconsistency,
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
from altperms.perm_core import AlternationClass, PATTERN_321, standardize, suffix_class

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


def test_split_worked_example():
    record = split((1, 4, 3, 5, 2, 6))
    assert record == DecompositionRecord(n=6, cls=UD, j=3, u=(1, 3, 2), v=(2, 3, 1, 4))


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


def test_validate_record_reports_all_problems():
    record = DecompositionRecord(n=4, cls=UD, j=5, u=(1,), v=(1,))
    with pytest.raises(InvalidRecord):
        validate_record(record)


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


def test_internal_inconsistency_guard_fires(monkeypatch):
    # sabotage the rebuild step: the self-check must refuse to return its output
    good = parse_record("n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4")
    monkeypatch.setattr(decompose_module, "_rebuild", lambda record: (2, 4, 3, 5, 1, 6))
    with pytest.raises(InternalInconsistency):
        reconstruct(good)


def test_error_hierarchy():
    assert issubclass(NotExactlyOne, ValueError)
    assert issubclass(NotAlternating, ValueError)
    assert issubclass(InvalidRecord, ValueError)
    assert issubclass(InvariantViolation, RuntimeError)
    assert issubclass(InternalInconsistency, RuntimeError)
