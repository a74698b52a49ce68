"""Core permutation values: alternation shape, 321/123 occurrences, symmetries,
FrozenRecord, the immutable base of the package's records, and
InvariantViolation, the bijection's failure, which the CLI catches without
loading the bijection.

The two patterns, 321 and 123, are counted one way, by middle entries
(`middle_counts`); `check_pattern` rejects every other pattern.

Permutations are plain tuples of ints in one-line notation over {1..n}.
Positions and values are 1-based in every public contract and in the text
serialization; only the tuple indexing inside this package is 0-based.
Lengths 0 and 1 are legal and belong to both alternation classes.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from operator import attrgetter, lt

Perm = tuple[int, ...]
#: A pattern is itself a permutation; only PATTERN_321 and PATTERN_123 are accepted.
Pattern = Perm
#: Strictly increasing tuple of 1-based positions into a host permutation.
Occurrence = tuple[int, ...]

PATTERN_321: Pattern = (3, 2, 1)
PATTERN_123: Pattern = (1, 2, 3)


class FrozenRecord:
    """Base of the package's immutable records, compared by the values of their fields.

    A subclass names its fields (two or more) in `__slots__` and sets them in
    its own `__init__`, either with `__setstate__`, which takes the values in
    slot order, or one by one with `object.__setattr__`. A record equals only
    a record of its own class with equal fields, hashes as the tuple of its
    fields, prints as `Name(field=value, ...)`, refuses assignment and
    deletion, and pickles and copies by that tuple. `replace(**changes)`
    calls the constructor, so the new record is validated.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)  # one tuple getter per class, for == and hash

    def __setstate__(self, values: tuple) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __getstate__(self) -> tuple:
        return self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed, built and validated by the constructor."""
        return type(self)(**dict(zip(self.__slots__, self._values(self)), **changes))


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
        """The member whose value is `code`, "UD" or "DU"; ValueError for anything else, a member included."""
        if isinstance(code, str):  # looked up by value: calling the class with a member returns it
            try:
                return cls(code)
            except ValueError:
                pass
        raise ValueError(f"unknown alternation class code {code!r} (expected UD or DU)")


def check_class(cls: object) -> AlternationClass:
    """`cls` itself; ValueError unless it is an AlternationClass (a class code such as "UD" is not)."""
    if not isinstance(cls, AlternationClass):
        raise ValueError(f"cls must be an AlternationClass, got {cls!r}")
    return cls


def suffix_class(cls: AlternationClass, start: int) -> AlternationClass:
    """Alternation class of a block that takes over at 1-based `start` of a host.

    A host segment beginning at an odd position keeps the host's shape;
    beginning at an even position flips it.
    """
    return cls if start % 2 == 1 else cls.flipped


def is_permutation(values: Sequence[int]) -> bool:
    """Check one-line notation: every value of {1..n} exactly once.

    Entries must be ints proper: a bool compares as 1 or 0 but prints as a word.

    >>> [is_permutation(w) for w in ((), (1,), (2, 1), (1, 3), (2, 2), (True,))]
    [True, True, True, False, False, False]
    """
    return {int}.issuperset(map(type, values)) and sorted(values) == list(range(1, len(values) + 1))


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
        values = tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"malformed permutation text {text!r}") from None
    return perm(values)


def format_perm(w: Sequence[int]) -> str:
    """Inverse of parse_perm: "1,4,3,5,2,6"; n=0 gives ""."""
    return ",".join(map(str, w))


def is_alternating(w: Sequence[int], cls: AlternationClass) -> bool:
    """Positionwise zigzag check: the entry at each 1-based position t >= 2 exceeds
    its predecessor exactly when `cls.rises_into(t)`, a tie counting as no rise.
    Lengths <= 1 satisfy every class.  Tested as `cls in classify(w)`."""
    return cls in classify(w)


def classify(w: Sequence[int]) -> set[AlternationClass]:
    """The set of alternation classes w satisfies (both for n <= 1, possibly none).

    >>> sorted(c.value for c in classify((1, 3, 2, 4)))
    ['UD']
    >>> classify((1, 2, 3, 4))
    set()
    """
    rises = list(map(lt, w, w[1:]))  # rises[t] is w[t] < w[t+1] (0-based): a tie is no rise
    into_even, into_odd = rises[::2], rises[1::2]  # into 1-based positions 2, 4, ... and 3, 5, ...
    classes = set()
    if False not in into_even and True not in into_odd:
        classes.add(AlternationClass.UP_DOWN)
    if True not in into_even and False not in into_odd:
        classes.add(AlternationClass.DOWN_UP)
    return classes


def check_pattern(pattern: Sequence[int]) -> Pattern:
    """`pattern` as a tuple; ValueError unless it is 321 or 123, the two patterns counted here."""
    pattern = tuple(pattern)
    if pattern != PATTERN_321 and pattern != PATTERN_123:
        raise ValueError(f"pattern must be {PATTERN_321} or {PATTERN_123}, got {pattern!r}")
    return pattern


def middle_counts(w: Sequence[int], pattern: Sequence[int]) -> list[int]:
    """Per position of w, the occurrences of `pattern` (321 or 123) whose middle entry sits there.

    For 321 that is (larger entries before) x (smaller entries after); the 123s
    of w are the 321s of complement(w), at the same positions.  One left-to-right
    pass of binary searches: `seen` holds the entries read so far, sorted, and
    the smaller entries after b are the smaller entries overall (in `order`)
    less those in `seen`.  Ties count as neither larger nor smaller, so any
    sequence of ints works.  O(n log n) comparisons, O(n) memory however many
    occurrences there are.

    >>> middle_counts((4, 3, 2, 1), (3, 2, 1))
    [0, 2, 2, 0]
    """
    if check_pattern(pattern) == PATTERN_123:
        w = complement(w)
    order, seen, counts = sorted(w), [], []
    for t, b in enumerate(w):
        at = bisect_left(seen, b)  # also where b goes: among equal entries, any slot keeps `seen` sorted
        counts.append((t - bisect_right(seen, b)) * (bisect_left(order, b) - at))
        seen.insert(at, b)
    return counts


def count_occurrences(w: Sequence[int], pattern: Sequence[int]) -> int:
    """Number of position triples of w order-isomorphic to `pattern` (321 or 123).

    >>> count_occurrences((4, 3, 2, 1), (3, 2, 1))
    4
    >>> count_occurrences((1, 4, 2, 3), (1, 2, 3))
    1
    """
    return sum(middle_counts(w, pattern))


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
    rank = dict(zip(sorted(values), range(1, len(values) + 1)))
    if len(rank) != len(values):
        raise ValueError(f"cannot standardize {tuple(values)}: repeated values")
    return tuple(map(rank.__getitem__, values))


#: Boundary statistics of a Table 1 cell: all permutations, or those with the property.
STATISTICS = ("total", "ends_in_largest", "begins_with_smallest")


def check_statistic(statistic: str) -> None:
    """ValueError unless `statistic` names a STATISTICS column."""
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}: expected one of {', '.join(STATISTICS)}")


class InvariantViolation(RuntimeError):
    """The two directions of the bijection disagree on a host or a valid record.

    Never recoverable: it would falsify the decomposition characterization (or expose a
    transcription bug), so callers must not catch and continue.
    """
