"""Core permutation values: alternation shape, pattern occurrences, symmetries.

Permutations are plain tuples of ints in one-line notation over {1..n}.
Positions and values are 1-based in every public contract and in the text
serialization; only the tuple indexing inside this package is 0-based.
Lengths 0 and 1 are legal and belong to both alternation classes.
"""

from __future__ import annotations

import enum
import math
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

Perm = tuple[int, ...]
#: A classical pattern is itself a permutation (of any length >= 1).
Pattern = Perm
#: Strictly increasing tuple of 1-based positions into a host permutation.
Occurrence = tuple[int, ...]

PATTERN_321: Pattern = (3, 2, 1)
PATTERN_123: Pattern = (1, 2, 3)


class AlternationClass(enum.Enum):
    """Zigzag shape: UP_DOWN is w1 < w2 > w3 < ..., DOWN_UP the opposite."""

    UP_DOWN = "UD"
    DOWN_UP = "DU"

    @property
    def flipped(self) -> "AlternationClass":
        return AlternationClass.DOWN_UP if self is AlternationClass.UP_DOWN else AlternationClass.UP_DOWN

    def rises_into(self, position: int) -> bool:
        """True when the entry at 1-based `position` must exceed its predecessor.

        >>> [AlternationClass.UP_DOWN.rises_into(t) for t in (2, 3, 4)]
        [True, False, True]
        """
        if self is AlternationClass.UP_DOWN:
            return position % 2 == 0
        return position % 2 == 1

    @classmethod
    def from_code(cls, code: str) -> "AlternationClass":
        for member in cls:
            if member.value == code:
                return member
        raise ValueError(f"unknown alternation class code {code!r} (expected UD or DU)")


def suffix_class(cls: AlternationClass, start: int) -> AlternationClass:
    """Alternation class of a block that takes over at 1-based `start` of a host.

    A host segment beginning at an odd position keeps the host's shape;
    beginning at an even position flips it.
    """
    return cls if start % 2 == 1 else cls.flipped


def is_permutation(values: Sequence[int]) -> bool:
    """Check one-line notation: every value of {1..n} exactly once.

    >>> [is_permutation(w) for w in ((), (1,), (2, 1), (1, 3), (2, 2))]
    [True, True, True, False, False]
    """
    n = len(values)
    seen = [False] * (n + 1)
    for v in values:
        if not isinstance(v, int) or not 1 <= v <= n or seen[v]:
            return False
        seen[v] = True
    return True


def perm(values: Iterable[int]) -> Perm:
    """Validate and return a permutation tuple; raises ValueError otherwise."""
    w = tuple(values)
    if not is_permutation(w):
        raise ValueError(f"{w} is not a permutation of 1..{len(w)}")
    return w


def parse_perm(text: str) -> Perm:
    """Parse the comma-separated text form; the empty string denotes n=0.

    >>> parse_perm("1,4,3,5,2,6")
    (1, 4, 3, 5, 2, 6)
    >>> parse_perm("")
    ()
    """
    text = text.strip()
    if not text:
        return ()
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed permutation text {text!r}") from None
    return perm(values)


def format_perm(w: Sequence[int]) -> str:
    """Inverse of parse_perm: "1,4,3,5,2,6"; n=0 gives ""."""
    return ",".join(str(v) for v in w)


def is_alternating(w: Sequence[int], cls: AlternationClass) -> bool:
    """Positionwise zigzag check; lengths <= 1 satisfy every class."""
    return all((w[t - 2] < w[t - 1]) == cls.rises_into(t) for t in range(2, len(w) + 1))


def classify(w: Sequence[int]) -> set[AlternationClass]:
    """The set of alternation classes w satisfies (both for n <= 1, possibly none).

    >>> sorted(c.value for c in classify((1, 3, 2, 4)))
    ['UD']
    >>> classify((1, 2, 3, 4))
    set()
    """
    return {cls for cls in AlternationClass if is_alternating(w, cls)}


def _check_pattern(pattern: Sequence[int]) -> None:
    if len(pattern) < 1:
        raise ValueError("pattern must have length >= 1")
    if not is_permutation(pattern):
        raise ValueError(f"{tuple(pattern)} is not a valid pattern")


def _gap_slots(pattern: Sequence[int]) -> tuple[list[int], list[int]]:
    """Per slot s, the earlier slots whose entries are nearest below and above pattern[s].

    Slot k = len(pattern) stands for "none below" and slot k+1 for "none
    above".  A value fits slot s iff it lies strictly between the values
    matched at those two slots: the matched values already share the
    pattern's relative order, so every other earlier slot is further away.
    """
    k = len(pattern)
    below: list[int] = []
    above: list[int] = []
    for s, ps in enumerate(pattern):
        below.append(max((a for a in range(s) if pattern[a] < ps), key=pattern.__getitem__, default=k))
        above.append(min((a for a in range(s) if pattern[a] > ps), key=pattern.__getitem__, default=k + 1))
    return below, above


def iter_occurrences(w: Sequence[int], pattern: Sequence[int]) -> Iterator[Occurrence]:
    """Yield occurrences as 1-based position tuples, lexicographically.

    Depth-first subsequence matching with prefix pruning, on an explicit
    stack: a value is only accepted for pattern slot s when it relates to
    every previously matched value exactly as pattern[s] relates to the
    earlier pattern entries, which one gap check decides (see _gap_slots).
    """
    _check_pattern(pattern)
    k = len(pattern)
    n = len(w)
    if k > n:
        return
    below, above = _gap_slots(pattern)
    pos = [0] * k  # pos[s]: host index matched at slot s
    value = [0] * k + [-math.inf, math.inf]  # value[s] = w[pos[s]], then the two sentinels
    s = q = 0
    while True:
        lo, hi = value[below[s]], value[above[s]]
        last = n - k + s  # later slots need the positions after this one
        while q <= last and not lo < w[q] < hi:
            q += 1
        if q > last:
            if s == 0:
                return
            s -= 1
            q = pos[s] + 1
            continue
        pos[s] = q
        value[s] = w[q]
        q += 1
        if s == k - 1:
            yield tuple(p + 1 for p in pos)
        else:
            s += 1


def count_occurrences(w: Sequence[int], pattern: Sequence[int]) -> int:
    """Number of position tuples of w order-isomorphic to `pattern`.

    >>> count_occurrences((4, 3, 2, 1), (3, 2, 1))
    4
    >>> count_occurrences((1, 4, 2, 3), (1, 2, 3))
    1
    """
    return sum(1 for _ in iter_occurrences(w, pattern))


def find_occurrences(w: Sequence[int], pattern: Sequence[int], limit: int) -> list[Occurrence]:
    """At most `limit` lexicographically smallest occurrences of `pattern` in w.

    >>> find_occurrences((4, 3, 2, 1), (3, 2, 1), 2)
    [(1, 2, 3), (1, 2, 4)]
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return list(islice(iter_occurrences(w, pattern), limit))


def reverse(w: Sequence[int]) -> Perm:
    """Positional reversal: the entry at position t moves to position n+1-t."""
    return tuple(reversed(w))


def complement(w: Sequence[int]) -> Perm:
    """Valuewise complement: value v becomes n+1-v at each position."""
    n = len(w)
    return tuple(n + 1 - v for v in w)


def standardize(values: Sequence[int]) -> Perm:
    """The permutation with the same relative order as `values` (their ranks).

    >>> standardize((4, 5, 2, 6))
    (2, 3, 1, 4)
    >>> standardize((7,))
    (1,)
    """
    if len(set(values)) != len(values):
        raise ValueError(f"cannot standardize {tuple(values)}: repeated values")
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


class BoundaryStatistics(NamedTuple):
    ends_in_largest: bool
    begins_with_smallest: bool


def boundary_statistics(w: Sequence[int]) -> BoundaryStatistics:
    """Whether w_n = n and whether w_1 = 1; rejects the empty permutation."""
    if len(w) == 0:
        raise ValueError("boundary statistics are undefined for the empty permutation")
    return BoundaryStatistics(w[-1] == len(w), w[0] == 1)
