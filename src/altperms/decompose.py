"""Constructive bijection for alternating permutations with exactly one 321.

Such a host w, with its unique occurrence at positions i < j < k, splits into
u = w_1..w_{j-1} w_k and v = w_i w_{j+1}..w_n.  Standardizing u and v gives a
pair (U, V) of 321-avoiding blocks whose boundary and shape constraints
characterize the host completely, so the host can be rebuilt from (n, j, U, V)
alone.  The value-assignment rules of the rebuild (middle entry w_j = j, rank
formulas for w_i and w_k) are derived, not quoted, so each direction checks
itself against the other once: `split` rebuilds its record, `reconstruct`
reads the record back off its output, and either aborts loudly with
InvariantViolation on any disagreement.

Both 321 questions the bijection asks, where a host's only occurrence is and
whether a block has none, are answered by one linear scan of the entries that
lie below an earlier one (`_lower_fall`); perm_core.middle_counts is called
only to give the exact count of a host outside the domain.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import inf

from .enumeration import GenerationFilter, generate
from .perm_core import (
    AlternationClass,
    FrozenRecord,
    InvariantViolation,
    Occurrence,
    PATTERN_321,
    Perm,
    check_class,
    classify,
    format_perm,
    is_alternating,
    is_permutation,
    middle_counts,
    parse_perm,
    perm,
    standardize,
    suffix_class,
)


class NotExactlyOne(ValueError):
    """The host's 321-occurrence count differs from 1 (outside the bijection's domain)."""

    def __init__(self, count: int):
        super().__init__(f"expected exactly one 321 occurrence, found {count}")
        self.count = count


class NotAlternating(ValueError):
    """The host satisfies neither alternation class."""


class InvalidRecord(ValueError):
    """A decomposition record violates the characterization's constraints."""


class DecompositionRecord(FrozenRecord):
    """Right-hand side of the bijection: host length and class, the 1-based
    position j of the occurrence's middle entry, and the standardized blocks
    U (length j) and V (length n-j+1), stored as tuples whatever sequences are given."""

    __slots__ = ("n", "cls", "j", "u", "v")
    n: int
    cls: AlternationClass
    j: int
    u: Perm
    v: Perm

    def __init__(self, n: int, cls: AlternationClass, j: int, u: Sequence[int], v: Sequence[int]) -> None:
        # field by field rather than through __setstate__: a round trip builds three records
        set_field = object.__setattr__
        set_field(self, "n", n)
        set_field(self, "cls", check_class(cls))
        set_field(self, "j", j)
        set_field(self, "u", tuple(u))
        set_field(self, "v", tuple(v))


def format_record(record: DecompositionRecord) -> str:
    """Text form, e.g. "n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4"."""
    return (
        f"n={record.n};class={record.cls.value};j={record.j};"
        f"U={format_perm(record.u)};V={format_perm(record.v)}"
    )


def _malformed(text: str) -> ValueError:
    return ValueError(f"malformed record text {text!r}: expected fields n;class;j;U;V in that order")


def parse_record(text: str) -> DecompositionRecord:
    """Inverse of format_record; raises ValueError on malformed text."""
    parts = [part.split("=", 1) for part in text.strip().split(";")]
    if any(len(part) != 2 for part in parts) or [key for key, _ in parts] != ["n", "class", "j", "U", "V"]:
        raise _malformed(text)
    fields = dict(parts)
    try:
        n, j = int(fields["n"]), int(fields["j"])
    except ValueError:
        raise _malformed(text) from None
    return DecompositionRecord(
        n=n,
        cls=AlternationClass.from_code(fields["class"]),
        j=j,
        u=parse_perm(fields["U"]),
        v=parse_perm(fields["V"]),
    )


def _lower_fall(w: Sequence[int]) -> tuple[int, int] | tuple[()] | None:
    """Where the "lower entries" of w fall: those strictly below the largest entry before them.

    A 321's middle and last entries are both lower, the last below the middle, so
    w avoids 321 exactly when its lower entries never strictly fall, and None says
    so.  When they fall once, from b to c, with the lower entry before b at most c
    and the one after c at least b, (b, c) is their only inverted pair, and the
    0-based positions of b and c are returned; w then has one 321 for each earlier
    entry above b.  Any other fall gives ().  One pass, ties as in `middle_counts`.
    """
    top = low = before = -inf  # the largest entry so far, the latest lower entry, the one before it
    at = fall = None
    for t, x in enumerate(w):
        if x >= top:
            top = x
        elif x >= low:
            before, low, at = low, x, t
        elif fall is None and before <= x:
            fall = at, t  # `low` stays b: every later lower entry must be at least b
        else:
            return ()
    return fall


def locate_unique_321(w: Perm) -> Occurrence:
    """The (i, j, k) of the single 321 occurrence; NotExactlyOne otherwise.

    One pass over the lower entries (`_lower_fall`) finds the only inverted pair
    (w_j, w_k), and a second over w_1..w_{j-1} finds w_i, the only entry above
    w_j: O(n) when w has exactly one 321.  Otherwise the exact count comes from
    perm_core.middle_counts, O(n log n) comparisons and O(n) memory however
    many occurrences there are.

    >>> locate_unique_321((1, 4, 3, 5, 2, 6))
    (2, 3, 5)
    """
    fall = _lower_fall(w)
    if fall:
        j, k = fall
        b = w[j]
        above = [t for t in range(j) if w[t] > b]
        if len(above) == 1:
            return above[0] + 1, j + 1, k + 1
    raise NotExactlyOne(sum(middle_counts(w, PATTERN_321)))


def _block_problems(name: str, block: Perm, length: int, cls: AlternationClass, j: int) -> tuple[int, list[str]]:
    """One block of a record whose middle entry sits at j: the stage its check ends at, and
    that stage's problems.

    Stage 0 finds a block that is not a permutation, stage 1 one of the wrong `length`
    (j for U, n-j+1 for V); a block past both reaches stage 2, which lists every 321,
    `cls`-shape and boundary problem (U must not end in its largest entry, V must not
    begin with its smallest), and an empty list there means the block is valid.
    """
    if not is_permutation(block):
        return 0, [f"{name} is not a permutation"]
    is_u = name == "U"
    if len(block) != length:
        expected = f"j={j}" if is_u else f"n-j+1={length}"
        return 1, [f"{name} has length {len(block)}, expected {expected}"]
    problems = []
    if _lower_fall(block) is not None:
        problems.append(f"{name} contains 321")
    if not is_alternating(block, cls):
        problems.append(f"{name} is not {cls.value}-alternating" + ("" if is_u else f" (required for j={j})"))
    # a block is empty only when j is out of range
    if is_u and block and block[-1] == length:
        problems.append("U ends in its largest entry")
    if not is_u and block and block[0] == 1:
        problems.append("V begins with its smallest entry")
    return 2, problems


def _record_problems(record: DecompositionRecord) -> list[str]:
    """All constraint violations of a record (empty list when valid).

    j must lie in 2..n-1 and each block must pass `_block_problems`.  The
    checks run in three stages across the record: j's range and whether each
    block is a permutation, then the block lengths, then each block's 321,
    shape and boundary (U's problems before V's).  Only the first stage with
    a problem is reported.
    """
    n, j, cls = record.n, record.j, record.cls
    checks = [
        _block_problems("U", record.u, j, cls, j),
        _block_problems("V", record.v, n - j + 1, suffix_class(cls, j), j),
    ]
    if not 2 <= j <= n - 1:
        checks.insert(0, (0, [f"j={j} outside 2..{n - 1}"]))
    first = min((stage for stage, problems in checks if problems), default=None)
    return [problem for stage, problems in checks if stage == first for problem in problems]


def validate_record(record: DecompositionRecord) -> None:
    """Raise InvalidRecord unless every record constraint holds."""
    problems = _record_problems(record)
    if problems:
        raise InvalidRecord(f"{format_record(record)}: " + "; ".join(problems))


def _read(w: Perm) -> DecompositionRecord:
    """The record read off a host, unchecked; ValueError (NotAlternating,
    NotExactlyOne) when w is not an alternating host with a unique 321."""
    classes = classify(w)
    if not classes:
        raise NotAlternating(f"{format_perm(w)} fits neither alternation class")
    i, j, k = locate_unique_321(w)
    cls = AlternationClass.UP_DOWN if AlternationClass.UP_DOWN in classes else AlternationClass.DOWN_UP
    u = standardize(w[: j - 1] + (w[k - 1],))
    v = standardize((w[i - 1],) + w[j:])
    return DecompositionRecord(n=len(w), cls=cls, j=j, u=u, v=v)


def split(w: Sequence[int]) -> DecompositionRecord:
    """Decompose an alternating host with exactly one 321 into its record.

    Any sequence is accepted; one that is not a permutation raises ValueError.

    Re-checks what the characterization promises (both blocks 321-avoiding
    with the right shapes and boundaries, and the record rebuilding w) and
    raises InvariantViolation if either fails despite a unique occurrence.

    >>> format_record(split((1, 4, 3, 5, 2, 6)))
    'n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4'
    """
    w = perm(w)
    record = _read(w)
    problems = _record_problems(record)
    if not problems and (rebuilt := _rebuild(record)) != w:
        problems = [f"{format_record(record)} rebuilds {format_perm(rebuilt)}"]
    if problems:
        raise InvariantViolation(
            f"unique-321 host {format_perm(w)} produced an invalid record: " + "; ".join(problems)
        )
    return record


def _rebuild(record: DecompositionRecord) -> Perm:
    """Value assignment derived from the characterization (no verification)."""
    n, j, u, v = record.n, record.j, record.u, record.v
    w_i = j - 1 + v[0]  # v's first entry ranks w_i among {w_k} u {j+1..n}
    w_k = u[-1]  # u's values are {1..j-1} u {w_i}, so ranks below j are literal
    # rank r -> values[r]; index 0 is padding
    left_values = [*range(j), w_i]
    right_values = [0, w_k, *range(j + 1, n + 1)]
    return (*map(left_values.__getitem__, u[:-1]), j, *map(right_values.__getitem__, v[1:]))


def _rebuild_and_read_back(record: DecompositionRecord) -> Perm:
    """The host `_rebuild` makes of a valid record, once the record read back
    off it equals `record`; InvariantViolation otherwise."""
    w = _rebuild(record)
    try:
        read = _read(w)
    except ValueError as exc:
        raise InvariantViolation(
            f"rebuilt host {format_perm(w)} of {format_record(record)} does not split: {exc}"
        ) from exc
    if read != record:
        raise InvariantViolation(
            f"rebuilt host {format_perm(w)} splits to {format_record(read)}, "
            f"not to {format_record(record)}"
        )
    return w


def reconstruct(record: DecompositionRecord) -> Perm:
    """The unique host whose split is `record`.

    Validates the record (InvalidRecord), rebuilds the host, then reads the
    record back off it and compares; any disagreement means the derived
    value-assignment rules contradict the reading, and raises
    InvariantViolation.  The record is valid and the host is its rebuild, so
    reading it back covers every check a full `split` would repeat.

    >>> rec = parse_record("n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4")
    >>> reconstruct(rec)
    (1, 4, 3, 5, 2, 6)
    """
    validate_record(record)
    return _rebuild_and_read_back(record)


def _checked_blocks(name: str, blocks: GenerationFilter, n: int, cls: AlternationClass, j: int) -> Iterator[Perm]:
    """The `name` blocks `blocks` generates for the length-n `cls` hosts with middle
    position j, each passed through `_block_problems` on its way out;
    InvariantViolation at the first that fails."""
    for block in generate(blocks):
        _, problems = _block_problems(name, block, blocks.length, blocks.cls, j)
        if problems:
            raise InvariantViolation(
                f"generated block {name}={format_perm(block)} of n={n};class={cls.value};j={j} is invalid: "
                + "; ".join(problems)
            )
        yield block


def enumerate_by_decomposition(n: int, cls: AlternationClass) -> Iterator[Perm]:
    """All length-n `cls` hosts with exactly one 321, built from records.

    Iterates j ascending and the valid (U, V) block pairs lexicographically.
    Each generated block passes the record's block check once, before its
    pairs are built (InvariantViolation if one fails; j lies in 2..n-1 by
    construction), and every pair is rebuilt and read back to its record, so
    every emitted host has already been read back as `reconstruct` would.
    """
    check_class(cls)
    for j in range(2, n):
        right_filter = GenerationFilter(
            cls=suffix_class(cls, j), length=n - j + 1, avoid=PATTERN_321, begins_with_smallest=False
        )
        right_blocks = list(_checked_blocks("V", right_filter, n, cls, j))
        if not right_blocks:
            continue
        left_filter = GenerationFilter(cls=cls, length=j, avoid=PATTERN_321, ends_in_largest=False)
        for u in _checked_blocks("U", left_filter, n, cls, j):
            for v in right_blocks:
                yield _rebuild_and_read_back(DecompositionRecord(n, cls, j, u, v))
