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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .enumeration import GenerationFilter, generate
from .perm_core import (
    AlternationClass,
    Occurrence,
    PATTERN_321,
    Perm,
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


class InvariantViolation(RuntimeError):
    """The two directions of the bijection disagree on a host or a valid record.

    Never recoverable: it would falsify the decomposition characterization (or expose a
    transcription bug), so callers must not catch and continue.
    """


@dataclass(frozen=True)
class DecompositionRecord:
    """Right-hand side of the bijection: host length and class, the 1-based
    position j of the occurrence's middle entry, and the standardized blocks
    U (length j) and V (length n-j+1), stored as tuples whatever sequences are given."""

    n: int
    cls: AlternationClass
    j: int
    u: Perm
    v: Perm

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "v", tuple(self.v))


def format_record(record: DecompositionRecord) -> str:
    """Text form, e.g. "n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4"."""
    return (
        f"n={record.n};class={record.cls.value};j={record.j};"
        f"U={format_perm(record.u)};V={format_perm(record.v)}"
    )


def parse_record(text: str) -> DecompositionRecord:
    """Inverse of format_record; raises ValueError on malformed text."""
    malformed = ValueError(
        f"malformed record text {text!r}: expected fields n;class;j;U;V in that order"
    )
    parts = [part.split("=", 1) for part in text.strip().split(";")]
    if any(len(part) != 2 for part in parts) or [key for key, _ in parts] != ["n", "class", "j", "U", "V"]:
        raise malformed
    fields = dict(parts)
    try:
        n, j = int(fields["n"]), int(fields["j"])
    except ValueError:
        raise malformed from None
    return DecompositionRecord(
        n=n,
        cls=AlternationClass.from_code(fields["class"]),
        j=j,
        u=parse_perm(fields["U"]),
        v=parse_perm(fields["V"]),
    )


def locate_unique_321(w: Perm) -> Occurrence:
    """The (i, j, k) of the single 321 occurrence; NotExactlyOne otherwise.

    Counts without listing, by the middle entries (perm_core.middle_counts: one
    pass of binary searches over the entries seen so far), so this is O(n log n)
    comparisons and O(n) memory however many occurrences there are.

    >>> locate_unique_321((1, 4, 3, 5, 2, 6))
    (2, 3, 5)
    """
    middles = middle_counts(w, PATTERN_321)
    total = sum(middles)
    if total != 1:
        raise NotExactlyOne(total)
    middle = middles.index(1)
    b = w[middle]
    i = next(t for t in range(middle) if w[t] > b)
    k = next(t for t in range(middle + 1, len(w)) if w[t] < b)
    return i + 1, middle + 1, k + 1


def _record_problems(record: DecompositionRecord) -> list[str]:
    """All constraint violations of a record (empty list when valid)."""
    n, j, u, v = record.n, record.j, record.u, record.v
    problems = []
    if not 2 <= j <= n - 1:
        problems.append(f"j={j} outside 2..{n - 1}")
    if not is_permutation(u):
        problems.append("U is not a permutation")
    if not is_permutation(v):
        problems.append("V is not a permutation")
    if problems:
        return problems
    if len(u) != j:
        problems.append(f"U has length {len(u)}, expected j={j}")
    if len(v) != n - j + 1:
        problems.append(f"V has length {len(v)}, expected n-j+1={n - j + 1}")
    if problems:
        return problems
    if any(middle_counts(u, PATTERN_321)):
        problems.append("U contains 321")
    if any(middle_counts(v, PATTERN_321)):
        problems.append("V contains 321")
    if not is_alternating(u, record.cls):
        problems.append(f"U is not {record.cls.value}-alternating")
    v_cls = suffix_class(record.cls, j)
    if not is_alternating(v, v_cls):
        problems.append(f"V is not {v_cls.value}-alternating (required for j={j})")
    if u[-1] == j:
        problems.append("U ends in its largest entry")
    if v[0] == 1:
        problems.append("V begins with its smallest entry")
    return problems


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
    left_values = list(range(1, j)) + [w_i]  # rank r -> left_values[r-1]
    right_values = [w_k] + list(range(j + 1, n + 1))
    prefix = tuple(left_values[r - 1] for r in u[:-1])
    suffix = tuple(right_values[r - 1] for r in v[1:])
    return prefix + (j,) + suffix


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


def enumerate_by_decomposition(n: int, cls: AlternationClass) -> Iterator[Perm]:
    """All length-n `cls` hosts with exactly one 321, built from records.

    Iterates j ascending and the valid (U, V) block pairs lexicographically,
    reconstructing each; every emitted host has already been read back to
    its record.
    """
    for j in range(2, n):
        right_blocks = list(
            generate(
                GenerationFilter(
                    cls=suffix_class(cls, j),
                    length=n - j + 1,
                    avoid=PATTERN_321,
                    begins_with_smallest=False,
                )
            )
        )
        if not right_blocks:
            continue
        left_filter = GenerationFilter(
            cls=cls, length=j, avoid=PATTERN_321, ends_in_largest=False
        )
        for u in generate(left_filter):
            for v in right_blocks:
                yield reconstruct(DecompositionRecord(n=n, cls=cls, j=j, u=u, v=v))
