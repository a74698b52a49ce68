"""The one place tests read the oracle's cached tables: which builders there are, cold caches
that record every build, and a decoder from the packed layout to plain values. A change of
layout edits decode here, and no test body."""

from functools import lru_cache

from altperms import enumeration

#: The oracle's cached table builders: the scored orders a head (k, rise, ends, pattern, cap)
#: keeps, the tails of a (head, vec), and the getters generate reads a table's orders with
CACHED = ("_order_scores", "_tails", "_getters")
#: Each builder's own function, uncached, read once at import, before a test swaps a cache in
BUILDS = {name: getattr(enumeration, name).__wrapped__ for name in CACHED}


def cold_caches(monkeypatch):
    """Swap an empty cache, with the parameters of the one it replaces, in for each of CACHED,
    around the builder's own function; monkeypatch puts the warm caches back after the test.
    Returns {name: [(key, value), ...]}, one entry per build as it returns, key the builder's
    arguments: a head, (head, vec) or (k, rise, pattern, cap)."""
    builds: dict = {}
    for name in CACHED:
        def build(*key, own=BUILDS[name], built=builds.setdefault(name, [])):
            built.append((key, value := own(*key)))
            return value
        cache = lru_cache(**getattr(enumeration, name).cache_parameters())
        monkeypatch.setattr(enumeration, name, cache(build))
    return builds


def cache_sizes():
    """The number of values each of CACHED holds."""
    return [getattr(enumeration, name).cache_info().currsize for name in CACHED]


def cache_misses():
    """The misses of each of CACHED so far."""
    return [getattr(enumeration, name).cache_info().misses for name in CACHED]


def columns(head):
    """The cached columns of head, each of them bytes."""
    built = enumeration._order_scores(*head)
    assert all(type(column) is bytes for column in built), head
    return built


def positions(packed, size):
    """The size 2-byte positions packed holds, as ints."""
    assert type(packed) is bytes and len(packed) == 2 * size, size
    return memoryview(packed).cast("H").tolist()


def decode(head, vec=None):
    """The orders head = (k, rise, ends, pattern, cap) keeps, as plain values: one row
    (order, ends_on_k, first, inner, c) per order, lexicographically, order a tuple of the
    ranks 0..k and c = (c_0, ..., c_k), () with no pattern. With vec, a fresh, uncached build
    of head's tails under vec instead: {total: (orders, start)}, orders those with that score,
    lexicographically, as rank tuples, and start the k + 2 offsets at which each first entry's
    orders begin, from 0 to len(orders).

    The layout it reads: every column of _order_scores(*head) is bytes. The head with ends
    None lists its orders in one blob, k + 1 bytes per order. A head with ends True or False
    keeps the rows of the orders its flag picks, cut from the head with ends None, with 2-byte
    positions of those orders in that blob in place of the blob; a _tails list holds such
    positions too, whatever the head's flag, and start is a tuple."""
    k, ends = head[0], head[2]
    blob = columns((*head[:2], None, *head[3:]))[2]

    def orders(rows):
        return [tuple(blob[p * (k + 1):(p + 1) * (k + 1)]) for p in rows]

    if vec is not None:
        tails = {}
        for total, (packed, start) in BUILDS["_tails"](head, vec).items():
            assert len(start) == k + 2 and start[0] == 0, (head, vec, total)
            tails[total] = (orders(positions(packed, start[k + 1])), tuple(start))
        return tails
    ends_on_k, firsts, where, inners, *c = columns(head)
    rows = range(len(blob) // (k + 1)) if ends is None else positions(where, len(firsts))
    return list(zip(orders(rows), ends_on_k, firsts, inners, list(zip(*c)) or [()] * len(firsts), strict=True))
