"""Exact closed forms and identities for alternating permutations with one
length-3 pattern occurrence.

Everything here is big-integer arithmetic: Catalan numbers, the tabulated
counts of 321-avoiding alternating permutations (with their validity ranges),
the factorial-quotient closed forms, the two convolution identities, and the
position-indexed decomposition sum that counts hosts by splitting them at the
middle entry of their unique 321 occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .enumeration import STATISTICS, table1_oracle
from .perm_core import (
    AlternationClass,
    Pattern,
    PATTERN_123,
    PATTERN_321,
    suffix_class,
)

ROLES = ("u_candidate", "v_candidate")


class OutOfValidityRange(ValueError):
    """A tabulated formula was asked outside its validity bound.

    Part of the contract, not a defect: callers fall back to the exhaustive
    oracle for the handful of small lengths the table does not cover.
    """


def catalan(index: int) -> int:
    """The Catalan number C_index, exactly, via Segner's recurrence.

    >>> [catalan(i) for i in range(8)]
    [1, 1, 2, 5, 14, 42, 132, 429]
    """
    global _CATALAN
    if index < 0:
        raise ValueError("index must be >= 0")
    cache = _CATALAN
    if len(cache) <= index:
        # Extend a private copy and publish it with one assignment: a published
        # list is never mutated, so concurrent callers only see complete ones.
        cache = cache.copy()
        while len(cache) <= index:
            k = len(cache)
            cache.append(sum(cache[i] * cache[k - 1 - i] for i in range(k)))
        _CATALAN = cache
    return cache[index]


_CATALAN = [1]


@dataclass(frozen=True)
class Table1Row:
    """One tabulated count of 321-avoiding alternating permutations.

    `formula` is "C(l+1)", "C(l)" or "0", with l defined by n = 2l or 2l+1;
    the row only applies when l >= valid_from.
    """

    cls: AlternationClass
    parity: str  # "even" | "odd"
    statistic: str
    formula: str
    valid_from: int

    def evaluate(self, ell: int) -> int:
        if ell < self.valid_from:
            raise OutOfValidityRange(
                f"{self.cls.value} {self.parity} {self.statistic}: "
                f"formula {self.formula} requires l >= {self.valid_from}, got l = {ell}"
            )
        if self.formula == "C(l+1)":
            return catalan(ell + 1)
        if self.formula == "C(l)":
            return catalan(ell)
        return 0


def _rows() -> tuple[Table1Row, ...]:
    ud, du = AlternationClass.UP_DOWN, AlternationClass.DOWN_UP
    layout = (
        (ud, "even", 2, "C(l+1)", "C(l)", "C(l)"),
        (ud, "odd", 1, "C(l+1)", "0", "C(l)"),
        (du, "even", 0, "C(l)", "0", "0"),
        (du, "odd", 1, "C(l+1)", "C(l)", "0"),
    )
    return tuple(
        Table1Row(cls, parity, statistic, formula, bound)
        for cls, parity, bound, *cells in layout
        for statistic, formula in zip(STATISTICS, cells)
    )


TABLE1: tuple[Table1Row, ...] = _rows()
_TABLE1_INDEX = {(row.cls, row.parity, row.statistic): row for row in TABLE1}


def table1_formula(cls: AlternationClass, n: int, statistic: str) -> int:
    """Tabulated count of 321-avoiding length-n `cls` permutations.

    Raises OutOfValidityRange below the row's bound (n = 2l or 2l+1); the
    exhaustive count is then available from enumeration.table1_oracle.

    >>> table1_formula(AlternationClass.UP_DOWN, 4, "total")
    5
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    ell, rem = divmod(n, 2)
    row = _TABLE1_INDEX[(cls, "odd" if rem else "even", statistic)]
    return row.evaluate(ell)


def boundary_count(cls: AlternationClass, n: int, role: str) -> int:
    """321-avoiding `cls` permutations of length n missing a boundary property.

    u_candidate: not ending in the largest entry; v_candidate: not beginning
    with the smallest.  Uses the tabulated formulas where valid and falls back
    to the exhaustive oracle for the small lengths they exclude.

    >>> boundary_count(AlternationClass.UP_DOWN, 3, "u_candidate")
    2
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if role == "u_candidate":
        statistic = "ends_in_largest"
    elif role == "v_candidate":
        statistic = "begins_with_smallest"
    else:
        raise ValueError(f"unknown role {role!r} (expected one of {ROLES})")
    try:
        return table1_formula(cls, n, "total") - table1_formula(cls, n, statistic)
    except OutOfValidityRange:
        return table1_oracle(cls, n, "total") - table1_oracle(cls, n, statistic)


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"{numerator}/{denominator} is not an integer; a closed form was transcribed wrong"
        )
    return quotient


def closed_form_even_321(m: int) -> int:
    """Up-down permutations of length 2m with exactly one 321, for m >= 2.

    >>> [closed_form_even_321(m) for m in (2, 3, 4, 5)]
    [0, 12, 66, 286]
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    return _exact_div(4 * (m - 2) * factorial(2 * m + 3), factorial(m + 1) * factorial(m + 4))


def closed_form_even_123(m: int) -> int:
    """Up-down permutations of length 2m with exactly one 123, for m >= 2.

    >>> [closed_form_even_123(m) for m in (2, 3, 4)]
    [2, 10, 40]
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    return _exact_div(10 * factorial(2 * m), factorial(m - 2) * factorial(m + 3))


def closed_form_odd(m: int) -> int:
    """Up-down permutations of length 2m+1 with exactly one occurrence of
    either length-3 monotone pattern (the two odd counts coincide), m >= 1.

    >>> [closed_form_odd(m) for m in (1, 2, 3, 4)]
    [0, 5, 26, 108]
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _exact_div(
        3 * (3 * m + 4) * (m - 1) * factorial(2 * m + 2), factorial(m + 1) * factorial(m + 4)
    )


def convolution_even_321(m: int) -> int:
    """Catalan convolution equalling closed_form_even_321(m), transcribed verbatim.

    >>> [convolution_even_321(m) for m in (2, 3, 4)]
    [0, 12, 66]
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    first = sum(catalan(j + 1) * (catalan(m - j + 1) - catalan(m - j)) for j in range(1, m - 1))
    second = sum((catalan(j + 1) - catalan(j)) * catalan(m - j + 1) for j in range(2, m))
    return first + second


def convolution_odd_321(m: int) -> int:
    """Catalan convolution equalling closed_form_odd(m), transcribed verbatim.

    >>> [convolution_odd_321(m) for m in (1, 2, 3)]
    [0, 5, 26]
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    first = sum(catalan(j + 1) * (catalan(m - j + 1) - catalan(m - j)) for j in range(1, m))
    second = sum((catalan(j + 1) - catalan(j)) * catalan(m - j + 1) for j in range(2, m + 1))
    return first + second


def decomposition_sum(n: int, cls: AlternationClass) -> int:
    """Count length-n `cls` permutations with exactly one 321 by decomposition.

    Sums over the position j of the occurrence's middle entry (2 <= j <= n-1):
    valid left blocks share the host class, have length j and do not end in
    their largest entry; valid right blocks have length n-j+1, the class a
    block starting at position j inherits, and do not begin with their
    smallest entry.  boundary_count self-corrects at the small lengths the
    table's validity bounds exclude.

    >>> decomposition_sum(6, AlternationClass.UP_DOWN)
    12
    >>> decomposition_sum(6, AlternationClass.DOWN_UP)
    10
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    total = 0
    for j in range(2, n):
        left = boundary_count(cls, j, "u_candidate")
        if left == 0:
            continue
        right = boundary_count(suffix_class(cls, j), n - j + 1, "v_candidate")
        total += left * right
    return total


@dataclass(frozen=True)
class SequenceSpec:
    """Which exactly-once counting sequence: a length-3 monotone pattern plus
    the alternation class of the host."""

    pattern: Pattern
    cls: AlternationClass

    def __post_init__(self) -> None:
        if self.pattern not in (PATTERN_321, PATTERN_123):
            raise ValueError(f"pattern must be {PATTERN_321} or {PATTERN_123}, got {self.pattern!r}")


def host_class(pattern: Pattern, cls: AlternationClass) -> AlternationClass:
    """Class whose one-321 hosts are counted by a (pattern, class) query.

    Complementation flips both the class and the monotone pattern, so
    exactly-one-123 counts equal exactly-one-321 counts in the other class.
    """
    return cls.flipped if pattern == PATTERN_123 else cls


def a_n(spec: SequenceSpec, n: int) -> int:
    """Length-n permutations of spec.cls containing spec.pattern exactly once.

    Dispatches on parity to the closed forms; at even lengths the one-321
    hosts of host_class(spec.pattern, spec.cls) are counted by
    closed_form_even_321 if up-down and by its complement closed_form_even_123
    if down-up.  Below the formulas' ranges every count is 0.

    >>> a_n(SequenceSpec(PATTERN_321, AlternationClass.UP_DOWN), 8)
    66
    >>> a_n(SequenceSpec(PATTERN_123, AlternationClass.UP_DOWN), 4)
    2
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m, rem = divmod(n, 2)
    if rem:
        return closed_form_odd(m) if m >= 1 else 0
    if m < 2:
        return 0
    if host_class(spec.pattern, spec.cls) is AlternationClass.UP_DOWN:
        return closed_form_even_321(m)
    return closed_form_even_123(m)
