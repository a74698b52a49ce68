"""Exact closed forms and identities for alternating permutations with one
length-3 pattern occurrence.

Everything here is big-integer arithmetic: Catalan numbers, Table 1's counts
of 321-avoiding alternating permutations (one table of Catalan offsets and
validity bounds keyed by (class, n odd), read by table1_formula), the
exactly-one closed forms (one table of rows P(m)*C(2m,m)/((m+1)...(m+K)),
read by one evaluator on math.comb), the two convolution identities, and the
position-indexed decomposition sum that counts hosts by splitting them at the
middle entry of their unique 321 occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .perm_core import (
    STATISTICS,
    AlternationClass,
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
            cache.append(cache[-1] * 2 * (2 * k - 1) // (k + 1))  # exact: multiply first
        _CATALAN = cache
    return cache[index]


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


def table1_formula(cls: AlternationClass, n: int, statistic: str) -> int:
    """Tabulated count of 321-avoiding length-n `cls` permutations.

    Raises OutOfValidityRange below the row's bound (n = 2l or 2l+1), which
    only happens at lengths <= 2.

    >>> table1_formula(AlternationClass.UP_DOWN, 4, "total")
    5
    """
    if not isinstance(cls, AlternationClass):
        raise ValueError(f"cls must be an AlternationClass, got {cls!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    ell, rem = divmod(n, 2)
    valid_from, offsets = _TABLE1[(cls, rem == 1)]
    if ell < valid_from:
        raise OutOfValidityRange(
            f"{cls.value} {'odd' if rem else 'even'} {statistic}: "
            f"requires l >= {valid_from}, got l = {ell}"
        )
    offset = offsets[STATISTICS.index(statistic)]
    return 0 if offset is None else catalan(ell + offset)


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
    try:
        return table1_formula(cls, n, "total") - table1_formula(cls, n, _ROLE_STATISTIC[role])
    except OutOfValidityRange:
        # Only lengths <= 2 are excluded; there the 321-avoiding alternating
        # permutations are 1 and 12, which end in n and begin with 1.
        return 0


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
    smallest entry.  Every term is a difference of two Table 1 cells, so the
    sum is independent of the exhaustive oracle.

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
        right = boundary_count(suffix_class(cls, j), n - j + 1, "v_candidate")
        total += left * right
    return total


@dataclass(frozen=True)
class SequenceSpec:
    """Which exactly-once counting sequence: a length-3 monotone pattern (any
    sequence, stored as a tuple) plus the alternation class of the host."""

    pattern: Pattern
    cls: AlternationClass

    def __post_init__(self) -> None:
        if not isinstance(self.cls, AlternationClass):
            raise ValueError(f"cls must be an AlternationClass, got {self.cls!r}")
        object.__setattr__(self, "pattern", check_pattern(self.pattern))


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
