#!/usr/bin/env python3
"""Time altperms layer by layer on fixed inputs and write BENCH_<pr>.json.

    python tools/trajectory.py PR

Each case below is measured REPEATS times, in rounds that measure every case
once, and reported by its median, in its unit: seconds, or MiB for the four
memory cases. `calibration.loop` times a fixed pure-Python loop in each round,
a yardstick of the host's speed: a case's runs divided by the loop's runs of
the same rounds spread less between runs of one tree than the raw runs do.
The five layers are the occurrence counter (`perm_core`), the
oracle (`enumeration`: one pass over a fixed grid of counts, warm and cold, and
the grid's peak memory cold, the time and peak memory of a longer loop of
counts, of a sweep over every target of one length and of one mid-target count
at n = 14, single cold counts, scored and flagged, where a user pays for
building the tables, and warm scored counts past the grid, each of them timing
`count` over a list of rows; and two warm `generate` streams, one unscored and
one scored), the closed forms (`formulas`, cold and warm, at large
n), the bijection (`decompose`: split, reconstruct, the text round trip and
one enumeration) and the CLI as a process. A cold case runs each repetition
in a fresh interpreter, which times its one call inside; a CLI case times the
whole process, start-up included, on a copy of the package that holds no
bytecode, so every run compiles the package afresh.

The script reads the package from the `src` directory next to its own
directory, writes BENCH_<PR>.json to the root of that checkout (with the
environment it ran in), and prints each median with the min-max of its runs
and its ratio to the same case in the newest BENCH_<n>.json there with
n < PR. A ratio marked `~` lies inside this run's own spread, min/median to
max/median, so it tells no change from noise. It uses the standard library
only, and runs in about two minutes on a 2-CPU x86 host.
"""

from __future__ import annotations

import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REPEATS = 5

# A count row is (class, n, pattern, target, ends_in_largest), pattern None for an unrestricted count.

#: The oracle grid: every count of the `oracle` benchmark workload.
GRID = [(cls, n, pattern, target, None) for target in (0, 1, 2) for n in range(9, 13)
        for pattern in ("321", "123") for cls in ("UD", "DU")]
GRID += [(cls, n, None, None, None) for n in range(9, 12) for cls in ("UD", "DU")]

#: The memory case's loop, whose tables stay in the process.
LOOP = [(cls, n, pattern, target, None) for n in range(6, 14) for target in (*range(8), 10**6)
        for pattern in ("321", "123") for cls in ("UD", "DU")]

#: The warm scored counts past the grid.
SCORED_N17 = [(cls, 17, pattern, target, None) for target in range(3) for pattern in ("321", "123")
              for cls in ("UD", "DU")]

#: The target sweep: every target of UD 321 at n = 10; the counts sum to E_10 = 50,521.
SWEEP = [("UD", 10, "321", target, None) for target in range(81)]

#: One mid-target count at n = 14, whose cap of its own builds tables no other target shares.
MID_N14 = [("DU", 14, "321", 130, None)]

#: CLI cases: argv after `altperms`
CLI = {
    "cli.count_closed_form": ["count", "--pattern", "321", "--n", "8", "--exactly", "1"],
    "cli.count_oracle": ["count", "--pattern", "321", "--class", "UD", "--n", "10", "--exactly", "1",
                         "--method", "oracle"],
    "cli.decompose": ["decompose", "--perm", "1,4,3,5,2,6"],
    "cli.verify_table_21": ["verify-table", "--n-max", "21"],
}


def occurrence_counts():
    from altperms import PATTERN_123, PATTERN_321, count_occurrences

    rng = random.Random(0)
    hosts = [rng.sample(range(1, 61), 60) for _ in range(2000)]
    start = time.perf_counter()
    for w in hosts:
        count_occurrences(w, PATTERN_321)
        count_occurrences(w, PATTERN_123)
    return time.perf_counter() - start


def filters(rows):
    """The GenerationFilter of each count row."""
    from altperms import PATTERN_123, PATTERN_321, AlternationClass, GenerationFilter

    patterns = {"321": PATTERN_321, "123": PATTERN_123}
    return [GenerationFilter(AlternationClass(cls), n, ends_in_largest=ends,
                             exact_occurrences=None if pattern is None else (patterns[pattern], target))
            for cls, n, pattern, target, ends in rows]


def counts(rows):
    """A timer of the oracle counts of `rows`, the filters made before the clock starts."""
    def timed():
        from altperms import count

        made = filters(rows)
        start = time.perf_counter()
        for filt in made:
            count(filt)
        return time.perf_counter() - start
    return timed


def stream(row):
    """A timer of the generate stream of one count row, the filter made before the clock starts."""
    def timed():
        from altperms import generate

        (filt,) = filters([row])
        start = time.perf_counter()
        for _ in generate(filt):
            pass
        return time.perf_counter() - start
    return timed


def peak_mib():
    """This process's peak resident memory in MiB: VmHWM from /proc where there is one, as
    ru_maxrss of a child started by fork also counts its parent's pages; else ru_maxrss (KiB)."""
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def peak(case):
    """A measure of this process's peak MiB after case()."""
    def measured():
        case()
        return peak_mib()
    return measured


def formula(call):
    """A timer of call(altperms), with the package imported before the clock starts."""
    def timed():
        import altperms

        start = time.perf_counter()
        call(altperms)
        return time.perf_counter() - start
    return timed


def warm(case):
    """`case` timed on its second run in this process, after the first filled the caches."""
    def timed():
        case()
        return case()
    return timed


def bijection(which):
    def timed():
        from altperms import (PATTERN_321, AlternationClass, GenerationFilter, format_record, generate,
                              parse_record, reconstruct, split)

        hosts = [w for cls in AlternationClass
                 for w in generate(GenerationFilter(cls, 11, exact_occurrences=(PATTERN_321, 1)))]
        records = [split(w) for w in hosts]
        start = time.perf_counter()
        if which == "split":
            for w in hosts:
                split(w)
        elif which == "reconstruct":
            for record in records:
                reconstruct(record)
        else:
            for w in hosts:
                reconstruct(parse_record(format_record(split(w))))
        return time.perf_counter() - start
    return timed


def enumerate_n11():
    from altperms import AlternationClass, enumerate_by_decomposition

    start = time.perf_counter()
    for cls in AlternationClass:
        for _ in enumerate_by_decomposition(11, cls):
            pass
    return time.perf_counter() - start


def calibration():
    """A fixed pure-Python loop that calls nothing of the package: the host's own speed."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return time.perf_counter() - start


#: name: (layer, input, in-process measure or None for a CLI case, cold); each measure returns
#: seconds, or the unit UNITS gives
CASES = {
    "calibration.loop": ("calibration", "2,000,000 additions in a pure-Python loop", calibration, False),
    "perm_core.count_occurrences": ("perm_core", "2000 random permutations of 60, 321 and 123 each",
                                    occurrence_counts, False),
    "enumeration.grid_cold": ("enumeration", f"{len(GRID)} counts: targets 0-2 at n 9-12, both patterns and "
                              "classes, unrestricted at n 9-11; fresh process", counts(GRID), True),
    "enumeration.grid_warm": ("enumeration", "the same grid after one pass", warm(counts(GRID)), False),
    "enumeration.grid_peak_rss": ("enumeration", "peak RSS after the same grid once; fresh process",
                                  peak(counts(GRID)), True),
    "enumeration.loop_peak_rss": ("enumeration", f"peak RSS after {len(LOOP)} counts: n 6-13, targets 0-7 "
                                  "and 10^6, both patterns and classes; fresh process", peak(counts(LOOP)), True),
    "enumeration.loop_s": ("enumeration", "the same counts' seconds; fresh process", counts(LOOP), True),
    **{f"enumeration.cold_321_t{target}_n{n}": ("enumeration", f"one count, UD 321 target {target} at n {n}; "
                                                "fresh process", counts([("UD", n, "321", target, None)]), True)
       for target, n in ((1, 11), (1, 16), (3, 16))},
    **{f"enumeration.cold_unscored_n10_ends_{ends}": ("enumeration", f"one count, UD n 10, ends_in_largest={ends}; "
                                                      "fresh process", counts([("UD", 10, None, None, ends)]), True)
       for ends in (False, True)},
    "enumeration.cold_321_t1_n13_ends_False": ("enumeration", "one count, UD 321 target 1 at n 13, "
                                               "ends_in_largest=False; fresh process",
                                               counts([("UD", 13, "321", 1, False)]), True),
    "enumeration.scored_warm_n17": ("enumeration", f"{len(SCORED_N17)} counts at n 17: targets 0-2, both patterns "
                                    "and classes, after one pass", warm(counts(SCORED_N17)), False),
    "enumeration.sweep_n10_s": ("enumeration", f"{len(SWEEP)} counts, UD 321 at n 10, targets 0-80; fresh process",
                                counts(SWEEP), True),
    "enumeration.sweep_n10_peak_rss": ("enumeration", "peak RSS after the same counts; fresh process",
                                       peak(counts(SWEEP)), True),
    "enumeration.mid_target_n14_s": ("enumeration", "one count, DU 321 target 130 at n 14; fresh process",
                                     counts(MID_N14), True),
    "enumeration.mid_target_n14_peak_rss": ("enumeration", "peak RSS after the same count; fresh process",
                                            peak(counts(MID_N14)), True),
    "enumeration.generate_unscored_n11_warm": ("enumeration", "the generate stream of UD n 11, unscored, "
                                               "after one pass", warm(stream(("UD", 11, None, None, None))), False),
    "enumeration.generate_321_t2_n13_warm": ("enumeration", "the generate stream of UD 321 target 2 at n 13, "
                                             "after one pass", warm(stream(("UD", 13, "321", 2, None))), False),
    "formulas.catalan_cold": ("formulas", "catalan(30000), fresh process", formula(lambda a: a.catalan(30_000)), True),
    "formulas.catalan_warm": ("formulas", "catalan(30000) again", warm(formula(lambda a: a.catalan(30_000))), False),
    "formulas.a_n_cold": ("formulas", "a_n(321, UD, 200001), fresh process",
                          formula(lambda a: a.a_n(a.SequenceSpec(a.PATTERN_321, a.AlternationClass.UP_DOWN), 200_001)),
                          True),
    "formulas.decomposition_sum_cold": ("formulas", "decomposition_sum(20000, UD), fresh process",
                                        formula(lambda a: a.decomposition_sum(20_000, a.AlternationClass.UP_DOWN)), True),
    "decompose.split": ("decompose", "split every one-321 host of length 11, both classes", bijection("split"), False),
    "decompose.reconstruct": ("decompose", "reconstruct their records", bijection("reconstruct"), False),
    "decompose.round_trip": ("decompose", "split, format_record, parse_record and reconstruct each of those hosts",
                             bijection("round_trip"), False),
    "decompose.enumerate_n11": ("decompose", "enumerate_by_decomposition(11, cls), both classes, after one pass",
                                warm(enumerate_n11), False),
    **{name: ("cli", "altperms " + " ".join(argv) + ", package without bytecode", None, True)
       for name, argv in CLI.items()},
}
UNITS = {name: "MiB" for name in CASES if name.endswith("_peak_rss")}


def child(name):
    """Run one in-process case in this interpreter and print its measure."""
    sys.path.insert(0, str(SRC))
    print(json.dumps(CASES[name][2]()))


def run_case(name, package):
    layer, _, timer, cold = CASES[name]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if layer == "cli":
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "altperms.cli", *CLI[name]], env=dict(env, PYTHONPATH=package),
                       check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start
    if cold:
        out = subprocess.run([sys.executable, __file__, "--child", name], env=env, check=True,
                             capture_output=True, text=True).stdout
        return json.loads(out)
    return timer()


def environment():
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine(), "cpus": os.cpu_count(),
            "commit": commit, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def previous(pr):
    """The newest BENCH_<n>.json in the checkout with n < pr, or None."""
    found = {int(m[1]): path for path in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))}
    older = [n for n in found if n < pr]
    return found[max(older)] if older else None


def main(argv):
    if len(argv) == 2 and argv[0] == "--child":
        return child(argv[1])
    if len(argv) != 1 or not argv[0].isdigit():
        sys.exit(__doc__)
    pr = int(argv[0])
    sys.path.insert(0, str(SRC))
    before = previous(pr)
    old = json.loads(before.read_text())["cases"] if before else {}
    runs = {name: [] for name in CASES}
    with tempfile.TemporaryDirectory() as package:
        shutil.copytree(SRC / "altperms", Path(package) / "altperms",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for _ in range(REPEATS):  # each round times every case once, so a slow spell of the host hits all alike
            for name in CASES:
                runs[name].append(run_case(name, package))
    cases = {}
    for name, (layer, what, _, cold) in CASES.items():
        unit, values = UNITS.get(name, "s"), runs[name]
        median, low, high = statistics.median(values), min(values), max(values)
        cases[name] = {"layer": layer, "input": what, "cold": cold, "unit": unit, "median": median, "runs": values}
        scale, shown = (1000, "ms") if unit == "s" else (1, unit)
        line = f"{name:42} {median * scale:10.4g} {shown:3}  [{low * scale:.4g}-{high * scale:.4g}]"
        if name in old:
            ratio = median / old[name]["median"]
            line += f"  {ratio:.2f}x" + ("~" if low / median <= ratio <= high / median else "")
        else:
            line += "  new"
        print(line)
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps({"pr": pr, "repeats": REPEATS, "environment": environment(), "cases": cases,
                               "compared_with": before.name if before else None}, indent=1) + "\n")
    print(f"wrote {out.name}" + (f"; ratios are this run over {before.name}, ~ where inside this run's "
                                 "min/median to max/median" if before else ""))


if __name__ == "__main__":
    main(sys.argv[1:])
