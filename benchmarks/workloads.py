"""The three benchmark workloads: inputs drawn from a seed, one request, its check.

Each workload is a closed loop with one caller.  Its requests come in rounds
of fixed composition; the seed draws the free choices (host, n within a
range, order), and `cli` cycles each command through all four (pattern,
class) pairs over consecutive rounds.  Requests differ in cost by up to two
orders of magnitude, so a fixed composition is what keeps the medians, the
tail and the throughput of one run comparable with a run under another seed.

Every output is checked against an independent method, outside the timed
region; see `check` on each workload.  The program is called through the
package namespace (`altperms.count`), where the traced run binds its wrappers.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import altperms
from altperms import PATTERN_123, PATTERN_321, AlternationClass, GenerationFilter, SequenceSpec
from child import PEAK_MARK
from tracing import SPANS_MARK

UD, DU = AlternationClass.UP_DOWN, AlternationClass.DOWN_UP
COMBOS = ((PATTERN_321, UD), (PATTERN_321, DU), (PATTERN_123, UD), (PATTERN_123, DU))
CODE = {PATTERN_321: "321", PATTERN_123: "123"}
BOOTSTRAP = Path(__file__).resolve().parent / "child.py"

#: Rounds built in set-up; the timed loop cycles through them.
ROUNDS = 64


def _flip(pattern):
    return PATTERN_123 if pattern == PATTERN_321 else PATTERN_321


def _host_class(pattern, cls):
    """Class of the one-321 hosts a (pattern, class) exactly-once query counts."""
    return cls.flipped if pattern == PATTERN_123 else cls


# Independent reference for the decomposition: brute force on the definition.


def _ranks(values):
    order = sorted(values)
    return tuple(order.index(x) + 1 for x in values)


def naive_record(w) -> str:
    """Record text of a one-321 alternating host, from the definition alone."""
    n = len(w)
    found, total = None, 0
    for mid in range(n):
        above = [i for i in range(mid) if w[i] > w[mid]]
        below = [k for k in range(mid + 1, n) if w[k] < w[mid]]
        total += len(above) * len(below)
        if above and below:
            found = (above[0], mid, below[0])
    if total != 1:
        raise ValueError(f"{w} has {total} occurrences of 321, not one")
    i, mid, k = found
    u = _ranks(w[:mid] + (w[k],))
    v = _ranks((w[i],) + w[mid + 1:])
    up = all((w[t] < w[t + 1]) == (t % 2 == 0) for t in range(n - 1))
    down = all((w[t] > w[t + 1]) == (t % 2 == 0) for t in range(n - 1))
    if not (up or down):
        raise ValueError(f"{w} is not alternating")
    text = ",".join
    return (f"n={n};class={'UD' if up else 'DU'};j={mid + 1};"
            f"U={text(map(str, u))};V={text(map(str, v))}")


#: Input sizes: "full" for the benchmark, "tiny" for its smoke test.
PROFILES = {
    "full": {
        # oracle: grid lengths; unrestricted counts stop earlier
        "grid_n": range(9, 13), "unrestricted_max": 11,
        # hosts: the oracle's whole host sets at these lengths, plus hosts_per_n
        # rebuilt hosts per length from records with blocks of <= block_max
        "oracle_hosts": (9, 10, 11), "block_max": 11, "built_hosts": range(14, 22), "hosts_per_n": 64,
        # bijection: per round, this many round trips plus one enumeration per (n, class)
        "round_trips": 600, "enumerate_n": (9, 10, 11),
        # cli: n of formula counts, --n-max of sequence and verify-identity, n of oracle counts
        "count_n": (1400, 1500), "sequence_n": (10, 60), "identity_n": 200, "small_n": 9,
    },
    "tiny": {
        "grid_n": range(5, 7), "unrestricted_max": 6,
        "oracle_hosts": (5, 6), "block_max": 5, "built_hosts": range(7, 10), "hosts_per_n": 4,
        "round_trips": 4, "enumerate_n": (5, 6),
        "count_n": (20, 40), "sequence_n": (4, 8), "identity_n": 20, "small_n": 6,
    },
}


def host_pool(rng: random.Random, profile: dict):
    """Unique-321 hosts of both classes, by length, plus the oracle's host sets.

    Short hosts are the oracle's whole host sets.  Long hosts are rebuilt from
    seed-drawn records whose blocks come from exhaustive 321-avoiding block
    sets; each is checked against the brute-force record before use.
    """
    host_sets = {}
    pool = {}
    for n in profile["oracle_hosts"]:
        for cls in (UD, DU):
            hosts = list(altperms.generate(
                GenerationFilter(cls, n, exact_occurrences=(PATTERN_321, 1))))
            host_sets[(n, cls)] = frozenset(hosts)
            pool.setdefault(n, []).extend(hosts)
    blocks = {}
    for length in range(2, profile["block_max"] + 1):
        for cls in (UD, DU):
            blocks[("u", cls, length)] = list(altperms.generate(
                GenerationFilter(cls, length, avoid=PATTERN_321, ends_in_largest=False)))
            blocks[("v", cls, length)] = list(altperms.generate(
                GenerationFilter(cls, length, avoid=PATTERN_321, begins_with_smallest=False)))
    top = profile["block_max"]
    for n in profile["built_hosts"]:
        hosts = pool.setdefault(n, [])
        while len(hosts) < profile["hosts_per_n"]:
            cls = rng.choice((UD, DU))
            j = rng.randint(max(2, n + 1 - top), min(n - 1, top))
            us = blocks[("u", cls, j)]
            vs = blocks[("v", altperms.suffix_class(cls, j), n - j + 1)]
            if not us or not vs:
                continue
            record = altperms.DecompositionRecord(n, cls, j, rng.choice(us), rng.choice(vs))
            host = altperms.reconstruct(record)
            if naive_record(host) != altperms.format_record(record):
                raise AssertionError(f"record {altperms.format_record(record)} rebuilt as {host}")
            hosts.append(host)
    return pool, host_sets


class Workload:
    """A seeded request list (`rounds`) and the check of each output.

    `plant_wrong_reference` corrupts one reference value, so the smoke test
    can see a wrong output counted as a failure.
    """

    name: str
    #: Seconds one round takes on a 2-CPU x86 container; turns --seconds into rounds.
    nominal_round_s: float
    #: Timings per request; its latency is the best of them.
    repeats: int

    def __init__(self, seed: int, profile: str = "full"):
        self.seed = seed
        self.profile = PROFILES[profile]
        self.rounds: list[list] = []
        #: set for the traced pass: `cli` children then hand back their spans
        self.trace = False

    def items(self, req, out) -> int:
        return 1

    def finish(self) -> list[str]:
        """Checks that need every output of the pass; returns their failures."""
        return []

    def child_spans(self, out):
        return None

    def child_peak_kib(self, out) -> int:
        return 0


class Oracle(Workload):
    """In-process `count(GenerationFilter(...))` over pattern, class, target and n.

    One round is the whole grid, each request once, in seed-drawn order: one
    request costs from 0.02 s to 2.9 s, so any sample smaller than the grid
    would make the run's throughput and median depend on the seed.
    """

    name = "oracle"
    nominal_round_s = 22.0
    repeats = 2

    def __init__(self, seed: int, profile: str = "full"):
        super().__init__(seed, profile)
        self.pending = []

    def setup(self) -> None:
        rng = random.Random(f"oracle:{self.seed}")
        p = self.profile
        grid = [(target, n, pattern, cls) for target in ("avoid", 1, 2) for n in p["grid_n"]
                for pattern, cls in COMBOS]
        grid += [("unrestricted", n, None, cls) for n in p["grid_n"] if n <= p["unrestricted_max"]
                 for cls in (UD, DU)]
        self.rounds = [rng.sample(grid, len(grid)) for _ in range(ROUNDS)]
        self.expected = {req: self._reference(req) for req in grid if req[0] != 2}
        warm = grid[0]  # the same cheap request for every seed
        if self.check(warm, self.execute(warm)):
            raise AssertionError(f"warm-up request {warm} failed its check")
        self.pending = []

    @staticmethod
    def _reference(req):
        target, n, pattern, cls = req
        if target == "unrestricted":
            return altperms.euler_zigzag(n)
        if target == "avoid":
            # complementation maps 123-avoiders of one class onto 321-avoiders of the other
            return altperms.table1_formula(cls if pattern == PATTERN_321 else cls.flipped, n, "total")
        return altperms.a_n(SequenceSpec(pattern, cls), n)

    def execute(self, req):
        target, n, pattern, cls = req
        if target == "unrestricted":
            filt = GenerationFilter(cls, n)
        elif target == "avoid":
            filt = GenerationFilter(cls, n, avoid=pattern)
        else:
            filt = GenerationFilter(cls, n, exact_occurrences=(pattern, target))
        return altperms.count(filt)

    def items(self, req, out) -> int:
        return out

    def check(self, req, out):
        if req[0] == 2:
            self.pending.append((req, out))
            return None
        if out != self.expected[req]:
            return f"{req}: got {out}, reference {self.expected[req]}"
        return None

    def finish(self):
        """Symmetry check of exactly-2 counts against their complement twins."""
        seen = {req: out for req, out in self.pending}
        errors = []
        for req, out in self.pending:
            target, n, pattern, cls = req
            twin = (target, n, _flip(pattern), cls.flipped)
            if twin not in seen:
                seen[twin] = self.execute(twin)
            if out != seen[twin]:
                errors.append(f"symmetry: {req} gave {out}, complement twin gave {seen[twin]}")
        self.pending = []
        return errors

    def plant_wrong_reference(self) -> None:
        req = next(req for req in self.rounds[0] if req[0] != 2)
        self.expected[req] += 1


class Bijection(Workload):
    """In-process split/format/parse/reconstruct round trips, plus whole
    `enumerate_by_decomposition` runs."""

    name = "bijection"
    nominal_round_s = 1.1
    repeats = 3

    def setup(self) -> None:
        rng = random.Random(f"bijection:{self.seed}")
        pool, self.host_sets = host_pool(rng, self.profile)
        lengths = sorted(pool)
        enumerations = [("enumerate", n, cls) for n in self.profile["enumerate_n"] for cls in (UD, DU)]
        self.rounds = []
        for _ in range(ROUNDS):
            hosts = [rng.choice(pool[rng.choice(lengths)]) for _ in range(self.profile["round_trips"])]
            rnd = [("round_trip", w, w) for w in hosts] + enumerations
            self.rounds.append(rng.sample(rnd, len(rnd)))
        warm = next(req for req in self.rounds[0] if req[0] == "round_trip")
        if self.check(warm, self.execute(warm)):
            raise AssertionError(f"warm-up round trip of {warm[1]} failed its check")

    def execute(self, req):
        if req[0] == "enumerate":
            return list(altperms.enumerate_by_decomposition(req[1], req[2]))
        text = altperms.format_record(altperms.split(req[1]))
        return altperms.reconstruct(altperms.parse_record(text))

    def items(self, req, out) -> int:
        return len(out) if req[0] == "enumerate" else 1

    def check(self, req, out):
        if req[0] == "round_trip":
            return None if out == req[2] else f"round trip of {req[1]} gave {out}"
        expected = self.host_sets[(req[1], req[2])]
        built = set(out)
        if len(built) != len(out) or built != expected:
            return (f"enumerate_by_decomposition({req[1]}, {req[2].value}): {len(out)} hosts, "
                    f"{len(built)} distinct, oracle has {len(expected)}")
        return None

    def plant_wrong_reference(self) -> None:
        req = self.rounds[0][0]
        if req[0] == "round_trip":
            self.rounds[0][0] = (req[0], req[1], tuple(reversed(req[2])))
        else:
            key = (req[1], req[2])
            self.host_sets[key] = frozenset(list(self.host_sets[key])[1:])


class Cli(Workload):
    """Fresh `altperms` processes, one at a time, over the README commands."""

    name = "cli"
    nominal_round_s = 1.3
    repeats = 3
    TIMEOUT_S = 60

    def __init__(self, seed: int, profile: str = "full"):
        super().__init__(seed, profile)
        self.references = {}

    def setup(self) -> None:
        rng = random.Random(f"cli:{self.seed}")
        pool, _ = host_pool(rng, self.profile)
        hosts = [w for n in sorted(pool) for w in pool[n]]
        p = self.profile
        # the two ~100 ms small-n counts run twice, so that the median request
        # falls inside their group rather than on the edge of the ~75 ms one
        kinds = ("closed_form", "convolution", "decomposition_sum", "sequence", "decompose", "reconstruct",
                 "verify-identity", "oracle", "bijection", "oracle", "bijection")
        # round r gives each command entry r mod 4 of its own shuffled COMBOS
        cycles = [rng.sample(COMBOS, len(COMBOS)) for _ in kinds]
        self.rounds = []
        for r in range(ROUNDS):
            rnd = []
            for i in rng.sample(range(len(kinds)), len(kinds)):
                kind = kinds[i]
                pattern, cls = cycles[i][r % 4]
                flags = ["--pattern", CODE[pattern], "--class", cls.value]
                if kind in ("closed_form", "convolution", "decomposition_sum"):
                    n = rng.randint(*p["count_n"])
                    if kind == "convolution" and n % 2 == 0 and _host_class(pattern, cls) is DU:
                        # no displayed sum covers even-length 123 counts; the other class has one
                        flags = ["--pattern", CODE[pattern], "--class", cls.flipped.value]
                    argv = ["count", *flags, "--n", str(n), "--exactly", "1", "--method", kind]
                elif kind in ("oracle", "bijection"):
                    argv = ["count", *flags, "--n", str(p["small_n"]), "--exactly", "1",
                            "--method", kind]
                elif kind == "sequence":
                    argv = ["sequence", *flags, "--n-max", str(rng.randint(*p["sequence_n"]))]
                elif kind == "verify-identity":
                    argv = ["verify-identity", "--n-max", str(p["identity_n"])]
                elif kind == "decompose":
                    argv = ["decompose", "--perm", ",".join(map(str, rng.choice(hosts)))]
                else:
                    host = rng.choice(hosts)
                    record = naive_record(host)
                    argv = ["reconstruct", "--record", record]
                    self.references[tuple(argv)] = [({"record": record}, ",".join(map(str, host)))]
                rnd.append(tuple(argv))
            self.rounds.append(rnd)

    def execute(self, argv):
        return subprocess.run(
            [sys.executable, str(BOOTSTRAP), "1" if self.trace else "0", *argv],
            capture_output=True, timeout=self.TIMEOUT_S,
        )

    def child_spans(self, out):
        _, mark, payload = out.stderr.rpartition(SPANS_MARK)
        return json.loads(payload) if mark else None

    def child_peak_kib(self, out) -> int:
        _, mark, rest = out.stderr.rpartition(PEAK_MARK)
        return int(rest.split(b"\n", 1)[0]) if mark else 0

    def expected_lines(self, argv):
        """Reference (inputs, value) pairs for every line the command prints."""
        if argv in self.references:
            return self.references[argv]
        opts = dict(zip(argv[1::2], argv[2::2]))
        command = argv[0]
        if command in ("count", "sequence"):
            pattern = {"321": PATTERN_321, "123": PATTERN_123}[opts["--pattern"]]
            cls = AlternationClass.from_code(opts["--class"])
            host = _host_class(pattern, cls)
        if command == "count":
            n = int(opts["--n"])
            if opts["--method"] == "closed_form":
                value = altperms.decomposition_sum(n, host) if n >= 3 else 0
            else:
                value = altperms.a_n(SequenceSpec(pattern, cls), n)
            inputs = {"class": cls.value, "n": n, "pattern": opts["--pattern"], "exactly": 1}
            lines = [(inputs, str(value))]
        elif command == "sequence":
            lines = [({"pattern": opts["--pattern"], "class": cls.value, "n": n},
                      str(altperms.decomposition_sum(n, host)))
                     for n in range(3, int(opts["--n-max"]) + 1)]
        elif command == "verify-identity":
            bound = int(opts["--n-max"])
            lines = [({"family": "even_321", "m_max": bound}, str(max(bound - 1, 0))),
                     ({"family": "odd", "m_max": bound}, str(bound)),
                     ({"family": "decomposition_UD", "n_max": bound}, str(max(bound - 2, 0))),
                     ({"family": "decomposition_DU", "n_max": bound}, str(max(bound - 2, 0)))]
        elif command == "decompose":
            w = tuple(int(x) for x in opts["--perm"].split(","))
            lines = [({"perm": opts["--perm"]}, naive_record(w))]
        else:
            raise KeyError(f"{argv}: reconstruct references are made in set-up")
        self.references[argv] = lines
        return lines

    def check(self, argv, out):
        if out.returncode != 0:
            return f"{' '.join(argv)}: exit {out.returncode}: {out.stderr[-300:]!r}"
        try:
            got = [json.loads(line) for line in out.stdout.decode().splitlines()]
        except ValueError as exc:
            return f"{' '.join(argv)}: output is not JSON lines: {exc}"
        expected = self.expected_lines(argv)
        if len(got) != len(expected):
            return f"{' '.join(argv)}: {len(got)} lines, expected {len(expected)}"
        for line, (inputs, value) in zip(got, expected):
            if line.get("command") != argv[0] or line.get("inputs") != inputs or line.get("value") != value:
                return f"{' '.join(argv)}: got {line}, reference inputs {inputs} value {value}"
        return None

    def plant_wrong_reference(self) -> None:
        argv = self.rounds[0][0]
        inputs, value = self.expected_lines(argv)[0]
        self.references[argv] = [(inputs, value + "0")] + self.references[argv][1:]


WORKLOADS = {cls.name: cls for cls in (Oracle, Bijection, Cli)}
