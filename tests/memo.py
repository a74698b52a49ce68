"""A second exact counter of 321 occurrences, used as an independent check in tests.

It shares no code with the oracle's walk: it never builds a permutation, and walks
forward level by level over summary states of a prefix, one level per entry placed.
For a prefix, let A(y) be the number of its entries above the unused value y. The
state is (cnt, r, up): cnt[h] counts the unused values with A = t + 1 - h (A capped
at t + 1), which lie below those of group h + 1 because A falls as y grows; r is the
number of unused values below the last entry, and up says whether the next entry
must exceed it (None: either). Let F be the 321s inside the prefix plus, for each
unused value, the 21-pairs of the prefix above it: F never falls, is the count of
321s once every value is placed, and placing the unused value at index i of group h
adds a·i, a = t + 1 - h, since each of the a entries above it starts a new 21-pair
with it over each of the i unused values below it. A capped a is exact where it
matters: with i >= 1 it makes F exceed t either way, and with i = 0 it adds nothing.
Each state maps to its counts by F = 0..t, so the last level sums to the counts of
each target up to t. 123 in a class is 321 in the other class, by complement.
Flagged counts are not covered.
"""

from math import comb

from altperms.perm_core import PATTERN_321


def distribution(n, t, rise):
    """[the length-n permutations with exactly f 321s, for f = 0..t] of those that alternate
    with a rise into the second entry when rise is True (up-down), a fall when it is False
    (down-up), or of all of S_n when rise is None."""
    top = t + 1
    # the first entry at index i: the i values below it get A = 1, the rest keep A = 0
    level = {((0,) * t + (i, n - 1 - i), i, rise): [1] + [0] * t for i in range(n)}
    for _ in range(n - 1):
        nxt = {}
        for (cnt, r, up), vec in level.items():
            start = 0  # the index of group h's smallest value
            for h, size in enumerate(cnt):
                a, lo, hi = top - h, start, start + size
                if up is not None:
                    lo, hi = (max(lo, r), hi) if up else (lo, min(hi, r))
                if a:
                    hi = min(hi, t // a + 1)
                for i in range(lo, hi):
                    # every value below this one gains an entry above it, and moves down a
                    # group (group 0 stays): the groups before h and j values of group h
                    j = i - start
                    below = (*cnt[:h], j)
                    moved = (below[0] + below[1], *below[2:]) if h else ()
                    key = ((*moved, cnt[h] - j - 1, *cnt[h + 1:]),
                           0 if up is None else i, None if up is None else not up)
                    add = a * i
                    if key not in nxt:
                        nxt[key] = [0] * add + vec[:top - add]
                    else:
                        old = nxt[key]
                        for f in range(add, top):
                            old[f] += vec[f - add]
                start += size
        level = nxt
    return [sum(column) for column in zip(*level.values())] if n else [1] + [0] * t


def count(cls, n, pattern, target):
    """Length-n permutations of the AlternationClass `cls` with exactly `target` occurrences of
    `pattern`, 321 or 123."""
    if target > comb(n, 3):
        return 0
    return distribution(n, target, cls.rises_into(2) == (tuple(pattern) == PATTERN_321))[target]
