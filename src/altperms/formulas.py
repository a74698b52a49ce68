"""Exact closed forms and identities for alternating permutations with one
length-3 pattern occurrence.

Everything here is big-integer arithmetic: Catalan numbers (one published
list, which the sums index directly), Table 1's counts of 321-avoiding
alternating permutations (one table of Catalan offsets and validity bounds
keyed by (class, n odd), whose rows one evaluator reads for table1_formula,
boundary_count and decomposition_sum), the exactly-one closed forms (one table
of rows P(m)*C(2m,m)/((m+1)...(m+K)), read by one evaluator on math.comb), the
two convolution identities, and the position-indexed decomposition sum that
counts hosts by splitting them at the middle entry of their unique 321
occurrence.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb, prod
from operator import mul

from .perm_core import (
    STATISTICS,
    AlternationClass,
    FrozenRecord,
    Pattern,
    PATTERN_123,
    PATTERN_321,
    check_pattern,
    suffix_class,
)


class OutOfValidityRange(ValueError):
    """A tabulated formula was asked outside its validity bound.

    Part of the contract, not a defect: the bounds only exclude lengths <= 2,
    whose cells enumeration.table1_oracle counts by listing them.
    """


def catalan(index: int) -> int:
    """The Catalan number C_index, exactly, via C_k = C_{k-1} * 2(2k-1) / (k+1).

    >>> [catalan(i) for i in range(8)]
    [1, 1, 2, 5, 14, 42, 132, 429]
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    return _catalans(index)[index]


def _catalans(top: int) -> list[int]:
    """A published Catalan list holding at least C_0..C_top; the only reader of _CATALAN.

    Index the list returned and never re-read _CATALAN: the last writer wins,
    so a slower thread may publish a shorter list after a longer one.
    """
    global _CATALAN
    cache = _CATALAN
    if len(cache) <= top:
        # Extend a private copy and publish it with one assignment: a published
        # list is never mutated, so concurrent callers only see complete ones.
        cache = cache.copy()
        while len(cache) <= top:
            k = len(cache)
            cache.append(cache[-1] * 2 * (2 * k - 1) // (k + 1))  # exact: multiply first
        _CATALAN = cache
    return cache


_CATALAN = [1]


#: Table 1, the counts of 321-avoiding alternating permutations, keyed by
#: (class, n odd).  With n = 2l or 2l+1 a row is (valid_from, offsets) and
#: holds for l >= valid_from; per STATISTICS column the cell is C(l + offset),
#: or 0 where the offset is None.
_TABLE1 = {
    (AlternationClass.UP_DOWN, False): (2, (1, 0, 0)),
    (AlternationClass.UP_DOWN, True): (1, (1, None, 0)),
    (AlternationClass.DOWN_UP, False): (0, (0, None, None)),
    (AlternationClass.DOWN_UP, True): (1, (1, 0, None)),
}


def _check_class(cls: object) -> None:
    if not isinstance(cls, AlternationClass):
        raise ValueError(f"cls must be an AlternationClass, got {cls!r}")


def table1_formula(cls: AlternationClass, n: int, statistic: str) -> int:
    """Tabulated count of 321-avoiding length-n `cls` permutations.

    Raises OutOfValidityRange below the row's bound (n = 2l or 2l+1), which
    only happens at lengths <= 2.

    >>> table1_formula(AlternationClass.UP_DOWN, 4, "total")
    5
    """
    _check_class(cls)
    if n < 0:
        raise ValueError("n must be >= 0")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    return next(_table1_counts(cls, range(n, n + 1), statistic))


#: The Table 1 statistic each boundary role takes away from the total.
_ROLE_STATISTIC = {"u_candidate": "ends_in_largest", "v_candidate": "begins_with_smallest"}


def boundary_count(cls: AlternationClass, n: int, role: str) -> int:
    """321-avoiding `cls` permutations of length n missing a boundary property.

    u_candidate: not ending in the largest entry; v_candidate: not beginning
    with the smallest.  Uses the tabulated formulas where valid; the lengths
    they exclude have no such permutation.

    >>> boundary_count(AlternationClass.UP_DOWN, 3, "u_candidate")
    2
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if role not in _ROLE_STATISTIC:
        raise ValueError(f"unknown role {role!r} (expected one of {tuple(_ROLE_STATISTIC)})")
    _check_class(cls)
    return next(_table1_counts(cls, range(n, n + 1), role))


def _table1_counts(cls: AlternationClass, lengths: range, column: str) -> Iterator[int]:
    """Table 1 at each n of `lengths`, a range of one parity; the only reader of _TABLE1.

    `column` names a statistic, whose cell is yielded, or a boundary role,
    whose count (the total less the role's statistic) is yielded.  The row is
    looked up once and its cells are read off one Catalan list.  Below the
    row's bound a cell raises OutOfValidityRange, while a boundary count is 0:
    the lengths excluded (<= 2) hold only 1 and 12, which end in their largest
    entry and begin with their smallest.
    """
    if not lengths:
        return
    valid_from, offsets = _TABLE1[(cls, lengths[0] % 2 == 1)]
    role_statistic = _ROLE_STATISTIC.get(column)
    if role_statistic is None:
        plus, minus = offsets[STATISTICS.index(column)], None
    else:
        plus, minus = offsets[STATISTICS.index("total")], offsets[STATISTICS.index(role_statistic)]
    catalans = _catalans(max(lengths[0], lengths[-1]) // 2 + 1)
    for n in lengths:
        ell = n // 2
        if ell >= valid_from:
            yield (0 if plus is None else catalans[ell + plus]) - (0 if minus is None else catalans[ell + minus])
        elif role_statistic is None:
            raise OutOfValidityRange(
                f"{cls.value} {'odd' if n % 2 else 'even'} {column}: requires l >= {valid_from}, got l = {ell}"
            )
        else:
            yield 0


#: The exactly-one counts, keyed by (host class, n odd).  With n = 2m or 2m+1
#: each is P(m)*C(2m,m)/((m+1)(m+2)...(m+K)) for m >= valid_from; a row holds
#: (P's coefficients, constant term first; K; valid_from).
_CLOSED_FORMS = {
    (AlternationClass.UP_DOWN, False): ((-48, -104, 0, 32), 4, 2),  # P = 8(m-2)(2m+1)(2m+3)
    (AlternationClass.DOWN_UP, False): ((0, -10, 10), 3, 2),  # P = 10m(m-1)
    **{(cls, True): ((-24, -42, 30, 36), 4, 1) for cls in AlternationClass},  # P = 6(m-1)(3m+4)(2m+1)
}


def _closed_form(cls: AlternationClass, odd: bool, m: int) -> int:
    """Row (cls, odd) of _CLOSED_FORMS evaluated at m."""
    coefficients, k, valid_from = _CLOSED_FORMS[(cls, odd)]
    if m < valid_from:
        raise ValueError(f"m must be >= {valid_from}")
    p = sum(c * m**i for i, c in enumerate(coefficients))
    quotient, remainder = divmod(p * comb(2 * m, m), prod(range(m + 1, m + k + 1)))
    if remainder:
        raise ArithmeticError(f"row {(cls.value, odd)} is not an integer at m = {m}; it was transcribed wrong")
    return quotient


def closed_form_even_321(m: int) -> int:
    """Up-down permutations of length 2m with exactly one 321, for m >= 2.

    >>> [closed_form_even_321(m) for m in (2, 3, 4, 5)]
    [0, 12, 66, 286]
    """
    return _closed_form(AlternationClass.UP_DOWN, False, m)


def closed_form_even_123(m: int) -> int:
    """Up-down permutations of length 2m with exactly one 123, for m >= 2.

    >>> [closed_form_even_123(m) for m in (2, 3, 4)]
    [2, 10, 40]
    """
    return _closed_form(AlternationClass.DOWN_UP, False, m)


def closed_form_odd(m: int) -> int:
    """Up-down permutations of length 2m+1 with exactly one occurrence of
    either length-3 monotone pattern (the two odd counts coincide), m >= 1.

    >>> [closed_form_odd(m) for m in (1, 2, 3, 4)]
    [0, 5, 26, 108]
    """
    return _closed_form(AlternationClass.UP_DOWN, True, m)


def convolution_even_321(m: int) -> int:
    """Catalan convolution equalling closed_form_even_321(m), transcribed verbatim.

    >>> [convolution_even_321(m) for m in (2, 3, 4)]
    [0, 12, 66]
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    c = _catalans(m + 1)
    first = sum(c[j + 1] * (c[m - j + 1] - c[m - j]) for j in range(1, m - 1))
    second = sum((c[j + 1] - c[j]) * c[m - j + 1] for j in range(2, m))
    return first + second


def convolution_odd_321(m: int) -> int:
    """Catalan convolution equalling closed_form_odd(m), transcribed verbatim.

    >>> [convolution_odd_321(m) for m in (1, 2, 3)]
    [0, 5, 26]
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    c = _catalans(m + 1)
    first = sum(c[j + 1] * (c[m - j + 1] - c[m - j]) for j in range(1, m))
    second = sum((c[j + 1] - c[j]) * c[m - j + 1] for j in range(2, m + 1))
    return first + second


def decomposition_sum(n: int, cls: AlternationClass) -> int:
    """Count length-n `cls` permutations with exactly one 321 by decomposition.

    Sums over the position j of the occurrence's middle entry (2 <= j <= n-1):
    valid left blocks share the host class, have length j and do not end in
    their largest entry; valid right blocks have length n-j+1, the class a
    block starting at position j inherits, and do not begin with their
    smallest entry.  Each block count is a difference of two Table 1 cells,
    so the sum is independent of the exhaustive oracle.

    >>> decomposition_sum(6, AlternationClass.UP_DOWN)
    12
    >>> decomposition_sum(6, AlternationClass.DOWN_UP)
    10
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    _check_class(cls)
    total = 0
    for first in (2, 3):
        # Positions j of one parity share the left row, the right row and the right block's class;
        # the right blocks have lengths n - j + 1 for j = first, first + 2, ...
        lefts = _table1_counts(cls, range(first, n, 2), "u_candidate")
        rights = _table1_counts(suffix_class(cls, first), range(n + 1 - first, 1, -2), "v_candidate")
        total += sum(map(mul, lefts, rights))
    return total


class SequenceSpec(FrozenRecord):
    """Which exactly-once counting sequence: a length-3 monotone pattern (any
    sequence, stored as a tuple) plus the alternation class of the host."""

    __slots__ = ("pattern", "cls")
    pattern: Pattern
    cls: AlternationClass

    def __init__(self, pattern: Pattern, cls: AlternationClass) -> None:
        _check_class(cls)
        self.__setstate__((check_pattern(pattern), cls))


def host_class(pattern: Pattern, cls: AlternationClass) -> AlternationClass:
    """Class whose one-321 hosts are counted by a (pattern, class) query.

    Complementation flips both the class and the monotone pattern, so
    exactly-one-123 counts equal exactly-one-321 counts in the other class.
    """
    return cls.flipped if tuple(pattern) == PATTERN_123 else cls


def a_n(spec: SequenceSpec, n: int) -> int:
    """Length-n permutations of spec.cls containing spec.pattern exactly once.

    Evaluates the closed-form row of (host_class(spec.pattern, spec.cls), n odd).
    Lengths shorter than the pattern have count 0.

    >>> a_n(SequenceSpec(PATTERN_321, AlternationClass.UP_DOWN), 8)
    66
    >>> a_n(SequenceSpec(PATTERN_123, AlternationClass.UP_DOWN), 4)
    2
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < 3:
        return 0
    m, rem = divmod(n, 2)
    return _closed_form(host_class(spec.pattern, spec.cls), rem == 1, m)
