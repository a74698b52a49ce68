"""Acceptance battery: every criterion at its stated bound, exact equality.

Each test prints one pass/fail line (visible with pytest -s / -rA); a test
only reaches its PASS print after every assertion in the criterion held.
"""

import time

from altperms.cli import run as cli_run
from altperms.decompose import DecompositionRecord, enumerate_by_decomposition, reconstruct, split
from altperms.enumeration import GenerationFilter, count, generate, table1_oracle
from altperms.formulas import (
    STATISTICS,
    OutOfValidityRange,
    SequenceSpec,
    a_n,
    closed_form_even_123,
    closed_form_even_321,
    closed_form_odd,
    convolution_even_321,
    convolution_odd_321,
    decomposition_sum,
    euler_zigzag,
    table1_formula,
)
from altperms.perm_core import (
    AlternationClass,
    PATTERN_123,
    PATTERN_321,
    count_occurrences,
    reverse,
    suffix_class,
)

import naive

UD = AlternationClass.UP_DOWN
DU = AlternationClass.DOWN_UP

A321_UP_TO_10 = {3: 0, 4: 0, 5: 5, 6: 12, 7: 26, 8: 66, 9: 108, 10: 286}
A123_UP_TO_10 = {3: 0, 4: 2, 5: 5, 6: 10, 7: 26, 8: 40, 9: 108, 10: 150}
ZIGZAG_UP_TO_13 = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765, 22368256]


def _report(criterion: int, label: str, started: float) -> None:
    print(f"criterion {criterion} ({label}): PASS [{time.perf_counter() - started:.1f}s]")


def test_criterion_1_closed_forms_match_oracle_n_up_to_17():
    started = time.perf_counter()
    for n in range(3, 18):
        for pattern, frozen in ((PATTERN_321, A321_UP_TO_10), (PATTERN_123, A123_UP_TO_10)):
            for cls in (UD, DU):
                expected = a_n(SequenceSpec(pattern, cls), n)
                oracle = count(GenerationFilter(cls, n, exact_occurrences=(pattern, 1)))
                assert oracle == expected, (pattern, cls, n, oracle, expected)
                if cls is UD and n <= 10:
                    assert expected == frozen[n], (pattern, n)
    # the n = 11..17 closed-form values the oracle was just held to
    for m in range(5, 9):
        assert a_n(SequenceSpec(PATTERN_321, UD), 2 * m + 1) == closed_form_odd(m)
    for m in range(6, 9):
        assert a_n(SequenceSpec(PATTERN_321, UD), 2 * m) == closed_form_even_321(m)
        assert a_n(SequenceSpec(PATTERN_123, UD), 2 * m) == closed_form_even_123(m)
    _report(1, "oracle vs closed form, four families, n<=17", started)


def test_criterion_2_table1_verified_n_up_to_12():
    started = time.perf_counter()
    logged_out_of_range = []
    for n in range(0, 13):
        for cls in (UD, DU):
            for statistic in STATISTICS:
                oracle = table1_oracle(cls, n, statistic)
                try:
                    formula = table1_formula(cls, n, statistic)
                except OutOfValidityRange:
                    logged_out_of_range.append((cls.value, n, statistic, oracle))
                    continue
                assert formula == oracle, (cls, n, statistic, formula, oracle)
    out_of_range_cells = {(c, n) for c, n, _, _ in logged_out_of_range}
    assert out_of_range_cells == {("UD", 0), ("UD", 1), ("UD", 2), ("DU", 1)}
    assert len(logged_out_of_range) == 12
    _report(2, f"Table 1 vs oracle, n<=12, {len(logged_out_of_range)} cells oracle-only", started)


def test_criterion_3_identities_m_and_n_up_to_200():
    started = time.perf_counter()
    for m in range(2, 201):
        assert convolution_even_321(m) == closed_form_even_321(m), m
    for m in range(1, 201):
        assert convolution_odd_321(m) == closed_form_odd(m), m
    for n in range(3, 201):
        assert decomposition_sum(n, UD) == a_n(SequenceSpec(PATTERN_321, UD), n), n
        assert decomposition_sum(n, DU) == a_n(SequenceSpec(PATTERN_123, UD), n), n
    _report(3, "convolutions m<=200 and decomposition sums n<=200", started)


def test_criterion_4_bijection_n_up_to_10():
    started = time.perf_counter()
    for n in range(3, 11):
        for cls in (UD, DU):
            oracle = set(generate(GenerationFilter(cls, n, exact_occurrences=(PATTERN_321, 1))))
            built = list(enumerate_by_decomposition(n, cls))
            assert len(built) == len(set(built)), (n, cls, "duplicates")
            assert set(built) == oracle, (n, cls, "set mismatch")
            for w in oracle:
                record = split(w)
                assert w[record.j - 1] == record.j, (w, "middle-value law")
                assert reconstruct(record) == w, (w, "roundtrip")
            for j in range(2, n):
                for u in generate(GenerationFilter(cls, j, avoid=PATTERN_321, ends_in_largest=False)):
                    for v in generate(
                        GenerationFilter(
                            suffix_class(cls, j), n - j + 1, avoid=PATTERN_321, begins_with_smallest=False
                        )
                    ):
                        record = DecompositionRecord(n=n, cls=cls, j=j, u=u, v=v)
                        assert split(reconstruct(record)) == record
    _report(4, "bijection roundtrips and set equality, n<=10", started)


def test_criterion_5_cross_oracle_zigzag_n_up_to_13():
    started = time.perf_counter()
    assert [euler_zigzag(n) for n in range(14)] == ZIGZAG_UP_TO_13
    for n in range(0, 14):
        for cls in (UD, DU):
            assert count(GenerationFilter(cls, n)) == euler_zigzag(n), (cls, n)
    _report(5, "generation count vs boustrophedon, both classes, n<=13", started)


def test_criterion_6_reversal_symmetry_n_up_to_8():
    started = time.perf_counter()
    for n in range(0, 9):
        for w in naive.all_perms(n):
            assert count_occurrences(w, PATTERN_123) == count_occurrences(reverse(w), PATTERN_321)
    for n in (4, 6, 8):
        ud_one_123 = set(generate(GenerationFilter(UD, n, exact_occurrences=(PATTERN_123, 1))))
        du_one_321 = set(generate(GenerationFilter(DU, n, exact_occurrences=(PATTERN_321, 1))))
        assert {reverse(w) for w in ud_one_123} == du_one_321, n
    _report(6, "reversal symmetry over S_n, n<=8", started)


def test_criterion_7_selftest_exits_zero(capsys):
    started = time.perf_counter()
    code = cli_run(["selftest", "--n-max", "10"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count('"pass"') == 6
    with capsys.disabled():
        print()
        _report(7, "CLI selftest --n-max 10 exits 0", started)
