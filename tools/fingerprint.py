#!/usr/bin/env python3
"""Print one SHA-256 over the oracle's counts and one over its generate streams on a fixed grid.

    python tools/fingerprint.py

The grid has 3,240 filters: n = 0..13, both classes and all nine
(ends_in_largest, begins_with_smallest) pairs, each with 321 and with 123 at
targets 0, 1, 2, 3, 5 and 10^6, plus the unscored filters up to n = 11. The
first digest hashes one line per filter, its fields and its count; the second
hashes each filter's line and then every permutation of its generate stream, in
order, one byte per entry. An oracle change that keeps its outputs keeps both
digests, so CI compares this script's output with tests/golden/fingerprint.txt.
Regenerate that file only when an output change is intended:

    python tools/fingerprint.py > tests/golden/fingerprint.txt

The script reads the package from the `src` directory next to its own
directory, uses the standard library only, and runs in about 5 s on a 2-CPU x86
host.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from altperms import PATTERN_123, PATTERN_321, AlternationClass, GenerationFilter, count, generate  # noqa: E402

FLAGS = (None, True, False)
TARGETS = (0, 1, 2, 3, 5, 10**6)


def grid():
    """The 3,240 filters, scored first, in a fixed order."""
    for n, cls, ends, begins in product(range(14), AlternationClass, FLAGS, FLAGS):
        for pattern, target in product((PATTERN_321, PATTERN_123), TARGETS):
            yield GenerationFilter(cls, n, exact_occurrences=(pattern, target), ends_in_largest=ends,
                                   begins_with_smallest=begins)
    for n, cls, ends, begins in product(range(12), AlternationClass, FLAGS, FLAGS):
        yield GenerationFilter(cls, n, ends_in_largest=ends, begins_with_smallest=begins)


def main():
    counts, streams = hashlib.sha256(), hashlib.sha256()
    filters = 0
    for filt in grid():
        filters += 1
        pattern, target = filt.exact_occurrences or ("", "")
        line = (f"{filt.cls.value} {filt.length} {''.join(map(str, pattern))} {target} "
                f"{filt.ends_in_largest} {filt.begins_with_smallest}")
        counts.update(f"{line} {count(filt)}\n".encode())
        streams.update(f"{line}\n".encode())
        for w in generate(filt):
            streams.update(bytes(w))
    print(f"filters {filters}")
    print(f"count {counts.hexdigest()}")
    print(f"generate {streams.hexdigest()}")


if __name__ == "__main__":
    main()
