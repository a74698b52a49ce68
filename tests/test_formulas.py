import ast
from math import comb, factorial, prod
from pathlib import Path

import pytest

from altperms import enumeration, formulas, perm_core
from altperms.enumeration import GenerationFilter, count, table1_oracle
from altperms.formulas import (
    STATISTICS,
    OutOfValidityRange,
    SequenceSpec,
    a_n,
    boundary_count,
    catalan,
    closed_form_even_123,
    closed_form_even_321,
    closed_form_odd,
    convolution_even_321,
    convolution_odd_321,
    decomposition_sum,
    host_class,
    table1_formula,
)
from altperms.perm_core import AlternationClass, PATTERN_123, PATTERN_321, suffix_class

from races import race

UD = AlternationClass.UP_DOWN
DU = AlternationClass.DOWN_UP


def test_catalan_values():
    assert [catalan(i) for i in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_matches_binomial_quotient():
    # ratio recurrence vs the independent binomial form, both exact
    for ell in range(101):
        expected, remainder = divmod(comb(2 * ell, ell), ell + 1)
        assert remainder == 0
        assert catalan(ell) == expected


def test_catalan_matches_segner_sum():
    # ratio recurrence vs Segner's convolution C_k = sum C_i C_{k-1-i}, both exact
    segner = [1]
    for k in range(1, 301):
        segner.append(sum(segner[i] * segner[k - 1 - i] for i in range(k)))
    assert [catalan(ell) for ell in range(301)] == segner


def test_catalan_cold_cache_is_thread_safe(monkeypatch):
    # A lost or duplicated cache entry shifts every later index, so each
    # thread's value and the final cache are checked against the binomial form.
    index, workers = 300, 4
    expected = [comb(2 * ell, ell) // (ell + 1) for ell in range(index + 1)]
    results: list[int] = []
    monkeypatch.setattr(formulas, "_CATALAN", [1])
    race(*[lambda: results.append(catalan(index))] * workers)
    assert results == [expected[index]] * workers
    assert [catalan(ell) for ell in range(index + 1)] == expected


def _paper_catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def _paper_catalan_next(ell: int) -> int:
    return _paper_catalan(ell + 1)


def _paper_zero(ell: int) -> int:
    return 0


#: The paper's Table 1, the reference for formulas' table: per (class, parity
#: of n = 2l + parity) the first l the row holds for, then the total,
#: ends_in_largest and begins_with_smallest cells as functions of l
PAPER_TABLE1 = (
    (UD, 0, 2, _paper_catalan_next, _paper_catalan, _paper_catalan),  # C(l+1), C(l), C(l)
    (UD, 1, 1, _paper_catalan_next, _paper_zero, _paper_catalan),  # C(l+1), 0, C(l)
    (DU, 0, 0, _paper_catalan, _paper_zero, _paper_zero),  # C(l), 0, 0
    (DU, 1, 1, _paper_catalan_next, _paper_catalan, _paper_zero),  # C(l+1), C(l), 0
)


def test_table1_transcription():
    assert len(PAPER_TABLE1) * len(STATISTICS) == 12
    for cls, parity, valid_from, *cells in PAPER_TABLE1:
        for statistic, cell in zip(STATISTICS, cells):
            for ell in range(valid_from, 41):
                assert table1_formula(cls, 2 * ell + parity, statistic) == cell(ell), (cls, parity, statistic, ell)
            if valid_from > 0:
                with pytest.raises(OutOfValidityRange):
                    table1_formula(cls, 2 * (valid_from - 1) + parity, statistic)


def test_table1_formula_examples():
    assert table1_formula(UD, 4, "total") == 5
    assert table1_formula(UD, 5, "ends_in_largest") == 0
    assert table1_formula(DU, 0, "total") == 1
    with pytest.raises(OutOfValidityRange):
        table1_formula(UD, 2, "total")
    with pytest.raises(OutOfValidityRange):
        table1_formula(UD, 1, "ends_in_largest")
    with pytest.raises(OutOfValidityRange):
        table1_formula(DU, 1, "begins_with_smallest")
    with pytest.raises(ValueError):
        table1_formula(UD, 4, "bogus")
    with pytest.raises(ValueError):
        table1_formula(UD, -2, "total")


def test_table1_formula_matches_oracle_where_valid():
    for n in range(0, 10):
        for cls in (UD, DU):
            for statistic in STATISTICS:
                try:
                    expected = table1_formula(cls, n, statistic)
                except OutOfValidityRange:
                    continue
                assert expected == table1_oracle(cls, n, statistic), (cls, n, statistic)


def test_table1_totals_count_123_avoiders_in_the_other_class():
    # complementation swaps 321 for 123 and flips the class
    for n in range(0, 12):
        for cls in (UD, DU):
            try:
                expected = table1_formula(cls.flipped, n, "total")
            except OutOfValidityRange:
                continue
            assert count(GenerationFilter(cls, n, avoid=PATTERN_123)) == expected, (cls, n)


def test_table1_rejects_a_class_code():
    with pytest.raises(ValueError, match="cls must be an AlternationClass"):
        table1_formula("UD", 4, "total")
    with pytest.raises(ValueError, match="cls must be an AlternationClass"):
        boundary_count("UD", 4, "u_candidate")
    with pytest.raises(ValueError, match="cls must be an AlternationClass"):
        decomposition_sum(8, "UD")


@pytest.mark.parametrize("table1", [table1_formula, table1_oracle])
def test_table1_refuses_an_unknown_statistic(table1):
    message = "unknown statistic 'largest': expected one of total, ends_in_largest, begins_with_smallest"
    with pytest.raises(ValueError, match=f"^{message}$"):
        table1(UD, 4, "largest")


def _imported_modules(module) -> set[str]:
    """Every dotted name the module's source imports, relative ones included."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_formulas_and_enumeration_are_independent():
    # the closed forms and the oracle are two sides of every check: neither may use the other
    for module, other in ((formulas, "enumeration"), (enumeration, "formulas")):
        for name in _imported_modules(module):
            assert other not in name.split("."), (module.__name__, name)


def test_statistics_has_one_home():
    # enumeration checks a statistic through perm_core.check_statistic and keeps no copy
    assert not hasattr(enumeration, "STATISTICS")
    assert formulas.STATISTICS is perm_core.STATISTICS
    assert perm_core.STATISTICS == ("total", "ends_in_largest", "begins_with_smallest")


def test_boundary_count_examples():
    assert boundary_count(UD, 3, "u_candidate") == 2
    assert boundary_count(UD, 2, "u_candidate") == 0
    assert boundary_count(DU, 2, "v_candidate") == 1


def test_boundary_count_validation():
    with pytest.raises(ValueError):
        boundary_count(UD, 0, "u_candidate")
    with pytest.raises(ValueError):
        boundary_count(UD, 3, "w_candidate")


def test_boundary_count_matches_oracle_for_all_small_n():
    # including the lengths where the tabulated formulas are out of range
    for n in range(1, 10):
        for cls in (UD, DU):
            assert boundary_count(cls, n, "u_candidate") == count(
                GenerationFilter(cls, n, avoid=PATTERN_321, ends_in_largest=False)
            )
            assert boundary_count(cls, n, "v_candidate") == count(
                GenerationFilter(cls, n, avoid=PATTERN_321, begins_with_smallest=False)
            )


def test_closed_form_values():
    assert [closed_form_even_321(m) for m in range(2, 7)] == [0, 12, 66, 286, 1144]
    assert [closed_form_even_123(m) for m in range(2, 7)] == [2, 10, 40, 150, 550]
    assert [closed_form_odd(m) for m in range(1, 7)] == [0, 5, 26, 108, 418, 1573]


def test_closed_form_domains():
    for bad_call in (
        lambda: closed_form_even_321(1),
        lambda: closed_form_even_123(1),
        lambda: closed_form_odd(0),
    ):
        with pytest.raises(ValueError):
            bad_call()


#: The paper's exactly-one counts as factorial quotients (numerator, denominator),
#: each with the first m it holds for: the reference for formulas' closed-form rows
PAPER_QUOTIENTS = (
    (closed_form_even_321, 2, lambda m: (4 * (m - 2) * factorial(2 * m + 3), factorial(m + 1) * factorial(m + 4))),
    (closed_form_even_123, 2, lambda m: (10 * factorial(2 * m), factorial(m - 2) * factorial(m + 3))),
    (closed_form_odd, 1,
     lambda m: (3 * (3 * m + 4) * (m - 1) * factorial(2 * m + 2), factorial(m + 1) * factorial(m + 4))),
)


def test_closed_forms_equal_the_papers_factorial_quotients():
    for closed_form, valid_from, quotient in PAPER_QUOTIENTS:
        for m in range(valid_from, 301):
            expected, remainder = divmod(*quotient(m))
            assert remainder == 0
            assert closed_form(m) == expected, (closed_form.__name__, m)


def test_a_corrupted_closed_form_row_raises(monkeypatch):
    coefficients, k, valid_from = formulas._CLOSED_FORMS[(UD, False)]
    corrupted = (coefficients[:-1] + (coefficients[-1] + 1,), k, valid_from)
    monkeypatch.setitem(formulas._CLOSED_FORMS, (UD, False), corrupted)
    with pytest.raises(ArithmeticError, match="transcribed wrong"):
        closed_form_even_321(5)


def closed_form_term(key, m):
    """One term of row `key` of _CLOSED_FORMS: a stream of one length, whose C_m comes from math.comb afresh."""
    cls, odd = key
    return next(formulas._closed_forms(cls, range(2 * m + odd, 2 * m + odd + 1)))


def closed_form_stream(key, first_m, last_m):
    """Row `key` of _CLOSED_FORMS at m = first_m..last_m, read off one stream that steps C_m."""
    cls, odd = key
    return list(formulas._closed_forms(cls, range(2 * first_m + odd, 2 * last_m + odd + 1, 2)))


@pytest.mark.parametrize("key", list(formulas._CLOSED_FORMS))
def test_a_closed_form_stream_equals_single_terms(key):
    # The stream from valid_from steps its Catalan numbers up to m = 3000; a single term
    # calls math.comb at its own m, so the two share no Catalan number
    valid_from = formulas._CLOSED_FORMS[key][2]
    stream = closed_form_stream(key, valid_from, 3000)
    assert len(stream) == 3001 - valid_from
    for m in (valid_from, valid_from + 1, 3, 10, 57, 100, 999, 1024, 2047, 2999, 3000):
        assert stream[m - valid_from] == closed_form_term(key, m), (key, m)


@pytest.mark.parametrize("key", list(formulas._CLOSED_FORMS))
def test_a_closed_form_stream_started_past_valid_from_gives_the_same_terms(key):
    valid_from = formulas._CLOSED_FORMS[key][2]
    stream = closed_form_stream(key, valid_from, 3000)
    for first in (valid_from + 1, 57, 2999, 3000):
        assert closed_form_stream(key, first, 3000) == stream[first - valid_from:], (key, first)
    cls, odd = key
    with pytest.raises(ValueError, match=f"m must be >= {valid_from}"):
        next(formulas._closed_forms(cls, range(2 * valid_from + odd - 2, 100, 2)))
    assert list(formulas._closed_forms(cls, range(2 * valid_from + odd, 0))) == []


@pytest.mark.parametrize("key, power, added, first_bad", [
    ((UD, False), 3, 210, 5), ((DU, False), 0, 210, 5), ((UD, True), 0, 420, 4), ((DU, True), 0, 420, 4)])
def test_a_corrupted_closed_form_row_raises_at_the_first_bad_term_of_a_stream(monkeypatch, key, power, added, first_bad):
    # `added` on P's coefficient of m**power leaves the terms before first_bad integers (found
    # from math.comb at each m), so a stream from valid_from yields them and then raises
    coefficients, k, valid_from = formulas._CLOSED_FORMS[key]
    corrupted = tuple(c + added * (i == power) for i, c in enumerate(coefficients))

    def reference(m):
        return divmod(sum(c * m**i for i, c in enumerate(corrupted)) * comb(2 * m, m), prod(range(m + 1, m + k + 1)))

    assert [m for m in range(valid_from, first_bad + 1) if reference(m)[1]] == [first_bad]
    monkeypatch.setitem(formulas._CLOSED_FORMS, key, (corrupted, k, valid_from))
    cls, odd = key
    stream = formulas._closed_forms(cls, range(2 * valid_from + odd, 2 * first_bad + 11, 2))
    assert [next(stream) for _ in range(valid_from, first_bad)] == [
        reference(m)[0] for m in range(valid_from, first_bad)]
    with pytest.raises(ArithmeticError, match=f"at m = {first_bad}; it was transcribed wrong"):
        next(stream)


def test_convolution_examples():
    assert convolution_even_321(2) == 0  # both sums empty
    assert convolution_even_321(3) == 12
    assert convolution_even_321(4) == 66
    assert convolution_odd_321(1) == 0
    assert convolution_odd_321(2) == 5
    assert convolution_odd_321(3) == 26
    with pytest.raises(ValueError):
        convolution_even_321(1)
    with pytest.raises(ValueError):
        convolution_odd_321(0)


def test_convolutions_equal_closed_forms():
    for m in range(2, 301):
        assert convolution_even_321(m) == closed_form_even_321(m)
    for m in range(1, 301):
        assert convolution_odd_321(m) == closed_form_odd(m)


def test_decomposition_sum_examples():
    assert decomposition_sum(6, UD) == 12
    assert decomposition_sum(6, DU) == 10
    assert decomposition_sum(5, UD) == 5
    with pytest.raises(ValueError):
        decomposition_sum(2, UD)


def test_decomposition_sum_equals_its_per_cell_definition():
    # The sum streams Table 1 along positions of one parity; its definition
    # asks the public, validated boundary_count for every cell.
    for cls in (UD, DU):
        for n in range(3, 301):
            assert decomposition_sum(n, cls) == sum(
                boundary_count(cls, j, "u_candidate") * boundary_count(suffix_class(cls, j), n - j + 1, "v_candidate")
                for j in range(2, n)
            ), (n, cls)


def test_sums_on_a_cold_cache_are_thread_safe(monkeypatch):
    # The last writer wins, so a slow thread can publish a shorter Catalan
    # list after a longer one.  Here one thread keeps publishing the coldest
    # list while four others sum at different sizes: a sum that re-read the
    # cache after extending it, instead of indexing the list it was handed,
    # would see too short a list.  Results are checked against math.comb forms.
    sizes, rounds = (50, 150, 300, 400), 20
    calls = {
        "decomposition_sum": lambda size: decomposition_sum(size, UD),
        "convolution_even_321": convolution_even_321,
        "convolution_odd_321": convolution_odd_321,
    }
    expected = {
        (name, size): value
        for size in sizes
        for name, value in (
            ("decomposition_sum", a_n(SequenceSpec(PATTERN_321, UD), size)),
            ("convolution_even_321", closed_form_even_321(size)),
            ("convolution_odd_321", closed_form_odd(size)),
        )
    }
    results: list[tuple[tuple[str, int], int]] = []
    ended: list[int] = []  # the sizes whose worker has ended, by a return or a raise

    def work(size: int) -> None:
        try:
            for _ in range(rounds):
                for name, call in calls.items():
                    results.append(((name, size), call(size)))
        finally:
            ended.append(size)

    def cool() -> None:
        while len(ended) < len(sizes):
            formulas._CATALAN = [1]

    monkeypatch.setattr(formulas, "_CATALAN", [1])
    race(cool, *(lambda size=size: work(size) for size in sizes))
    assert sorted(results) == sorted((key, value) for key, value in expected.items() for _ in range(rounds))


def test_decomposition_sum_matches_oracle():
    for n in range(3, 10):
        for cls in (UD, DU):
            assert decomposition_sum(n, cls) == count(
                GenerationFilter(cls, n, exact_occurrences=(PATTERN_321, 1))
            ), (n, cls)


def test_decomposition_sum_down_up_counts_even_123():
    for n in (4, 6, 8, 10):
        assert decomposition_sum(n, DU) == count(
            GenerationFilter(UD, n, exact_occurrences=(PATTERN_123, 1))
        ), n


def test_sequence_spec_validation():
    with pytest.raises(ValueError, match=r"pattern must be \(3, 2, 1\) or \(1, 2, 3\)"):
        SequenceSpec((2, 1, 3), UD)
    with pytest.raises(ValueError, match=r"pattern must be \(3, 2, 1\) or \(1, 2, 3\)"):
        SequenceSpec((2, 1), UD)
    with pytest.raises(ValueError, match="cls must be an AlternationClass"):
        SequenceSpec(PATTERN_321, "UD")


def test_a_n_examples():
    assert a_n(SequenceSpec(PATTERN_321, UD), 8) == 66
    assert a_n(SequenceSpec(PATTERN_123, UD), 9) == 108
    assert a_n(SequenceSpec(PATTERN_123, UD), 4) == 2
    assert a_n(SequenceSpec(PATTERN_321, DU), 12) == 550
    assert a_n(SequenceSpec(PATTERN_123, DU), 12) == 1144
    with pytest.raises(ValueError):
        a_n(SequenceSpec(PATTERN_321, UD), 0)


def test_list_patterns_read_as_tuples():
    assert a_n(SequenceSpec([1, 2, 3], UD), 8) == 40
    assert host_class([1, 2, 3], UD) is DU


def test_a_n_small_lengths_are_zero():
    for n in (1, 2, 3, 4):
        assert a_n(SequenceSpec(PATTERN_321, UD), n) == 0
    for n in (1, 2, 3):
        assert a_n(SequenceSpec(PATTERN_123, UD), n) == 0


def test_a_n_matches_oracle_all_four_families():
    for n in range(1, 10):
        for pattern in (PATTERN_321, PATTERN_123):
            for cls in (UD, DU):
                expected = count(GenerationFilter(cls, n, exact_occurrences=(pattern, 1)))
                assert a_n(SequenceSpec(pattern, cls), n) == expected, (pattern, cls, n)
