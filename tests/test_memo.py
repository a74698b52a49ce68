"""tests/memo.py, a counter that shares no code with the oracle's walk, against the naive scan,
the oracle, the closed forms and three theorems about all of S_n."""

from math import comb

import pytest

from altperms.enumeration import GenerationFilter, count
from altperms.formulas import SequenceSpec, a_n, catalan, table1_formula
from altperms.perm_core import AlternationClass, PATTERN_123, PATTERN_321

import memo
import naive
from test_enumeration import NAIVE_SCAN_CASES, exactly_three_321, exactly_two_321

UD = AlternationClass.UP_DOWN
DU = AlternationClass.DOWN_UP

#: The flag-free cases of the naive scan that count a pattern
PATTERN_CASES = [case for case in NAIVE_SCAN_CASES if {"avoid", "exact_occurrences"} & set(case)
                 and not {"ends_in_largest", "begins_with_smallest"} & set(case)]


@pytest.mark.parametrize("cls", [UD, DU])
def test_memo_matches_naive_scan(cls):
    # the F argument memo prunes on is the oracle's too; the naive scan counts occurrences by
    # brute force, so it checks that argument as well as memo's states
    assert {case.get("exact_occurrences") for case in PATTERN_CASES} >= {
        (pattern, target) for pattern in (PATTERN_321, PATTERN_123) for target in range(4)}
    for case in PATTERN_CASES:
        pattern, target = case.get("exact_occurrences") or (case["avoid"], 0)
        for n in range(9):
            expected = len(naive.matching_perms(cls.value, n, exactly=(pattern, target)))
            assert memo.count(cls, n, pattern, target) == expected, (case, n)


def test_memo_matches_the_oracle():
    for n in range(12):
        for cls in (UD, DU):
            for pattern in (PATTERN_321, PATTERN_123):
                for target in range(4):
                    filt = GenerationFilter(cls, n, exact_occurrences=(pattern, target))
                    assert memo.count(cls, n, pattern, target) == count(filt), (n, cls, pattern, target)


@pytest.mark.parametrize("n", [30, 31, 60])
def test_memo_matches_table1_and_a_n(n):
    # 321 in a class and 123 in the other class are one count, by complement
    for host in (UD, DU):
        avoiding, once = memo.distribution(n, 1, host is UD)
        assert avoiding == table1_formula(host, n, "total"), host
        assert once == a_n(SequenceSpec(PATTERN_321, host), n) == a_n(SequenceSpec(PATTERN_123, host.flipped), n)


def test_memo_counts_all_permutations_by_their_321s():
    # With no zigzag the same states count all of S_n: no 321 is the Catalan number C_n,
    # exactly one is Noonan's 3/n·C(2n, n + 3) (Discrete Math. 152, 1996), and exactly two
    # is Fulmek's (59n² + 117n + 100)/(2n(2n − 1)(n + 5))·C(2n, n − 4) (Adv. Appl. Math. 30,
    # 2003): theorems about S_n, independent of the oracle, of the paper and of F
    for n in range(3, 26):
        noonan, rest = divmod(3 * comb(2 * n, n + 3), n)
        assert not rest
        # C(2n, n - 4) is 0 at n = 3, which holds a single 321 at most
        fulmek, rest = divmod((59 * n**2 + 117 * n + 100) * (comb(2 * n, n - 4) if n >= 4 else 0),
                              2 * n * (2 * n - 1) * (n + 5))
        assert not rest
        assert memo.distribution(n, 2, None) == [catalan(n), noonan, fulmek], n


@pytest.mark.parametrize("cls", [UD, DU])
def test_memo_matches_the_exactly_two_rows_past_the_oracle_test(cls):
    # The conjectured exactly-two rows (test_exactly_two_counts_match_the_conjectured_rows checks
    # the oracle against them to n = 16) and the exactly-three rows, which no oracle test
    # reaches, from n = 3 on
    for n in range(3, 23):
        *_, two, three = memo.distribution(n, 3, cls is UD)
        assert two == exactly_two_321(cls, n), n
        assert three == exactly_three_321(cls, n), n
