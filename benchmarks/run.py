"""Benchmark entry point: one workload per run, or all three with --workload all.

    python3 benchmarks/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Builds the workload (several times; the median is `setup_s`), runs its timed
phase, checks every output, prints each metric by name with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, measured
with no tracing installed and scaled to the host's reference speed
(HostSpeed).  With --trace 1 they are the per-layer ones: the same fixed
request list runs once untraced and once traced, and the traced pass gives
the layer numbers.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-ups per run: SETUPS_MIN before the timed phase, then, while they would
#: sum to under SETUP_BUDGET_S, more spread evenly between its requests.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 200, 2.0
TAIL_BEYOND = 10
clock = time.perf_counter

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "enumeration.calls": "count",
    "enumeration.leaves": "count",
    "enumeration.self_s": "s",
    "enumeration.leaves_per_s": "1/s",
    "perm_core.calls": "count",
    "perm_core.self_s": "s",
    "perm_core.us_per_call": "us",
    "decompose.split_calls": "count",
    "decompose.reconstruct_calls": "count",
    "decompose.splits_per_host": "ratio",
    "decompose.self_s": "s",
    "formulas.calls": "count",
    "formulas.self_s": "s",
    "formulas.catalan_max_index": "index",
    "formulas.oracle_fallbacks": "count",
    "cli.startup_ms": "ms",
    "cli.self_s": "s",
    "cli.exit_nonzero": "count",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_program():
    """Import altperms from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import altperms

    if Path(altperms.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"altperms was imported from {altperms.__file__}, not from {SRC}")


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


def commit_hash() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit_hash(),
        "src_sha256": digest.hexdigest(),
    }


class HostSpeed:
    """Converts a timing to the host's reference speed.

    On a shared 2-CPU x86 host, identical work was measured to run up to 1.8x
    slower for minutes at a time; best-of-k timings cannot remove a slow spell
    longer than the run.  So every timing is scaled by NOMINAL_S over the time
    of a fixed Python snippet, measured next to it.  The snippet sorts, ranks
    and zips small tuples: it calls nothing in altperms, and it slowed down as
    the round trips did (within 3% over 70 s, while raw times moved 1.63x).
    """

    #: The snippet's time on that host at its fast speed.
    NOMINAL_S = 0.6e-3
    #: The snippet is re-timed only when this much time has passed since.
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        rng = random.Random(0)
        self._data = [tuple(rng.sample(range(1, 13), 12)) for _ in range(150)]
        self._at = float("-inf")
        self._time = self.NOMINAL_S

    def _snippet(self) -> float:
        started = clock()
        acc = 0
        for w in self._data:
            rank = {v: i for i, v in enumerate(sorted(w))}
            acc += len(tuple(rank[v] for v in w if v > w[0]))
            acc += sum(1 for a, b in zip(w, w[1:]) if a < b)
        return clock() - started

    def now(self) -> float:
        """The snippet's current time (best of two), re-timed at most every INTERVAL_S."""
        if clock() - self._at >= self.INTERVAL_S:
            self._time = min(self._snippet(), self._snippet())
            self._at = clock()
        return self._time

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.NOMINAL_S * 2 / (before + after)


class Pass:
    """Outcome of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # per request, the best of its timings
        self.raw: list[float] = []  # the same, before scaling to the reference speed
        self.busy = 0.0  # raw seconds, summed over every execution
        self.attempted = 0
        self.items = 0
        self.failed = 0
        self.nonzero_exits = 0
        self.child_peak_kib = 0
        self.errors: list[str] = []


def _execute(wl, req, result: Pass, tracer, speed) -> tuple[float, float, int]:
    """Time one execution of `req`, then check it.

    Returns (seconds, seconds at the reference speed, items).
    """
    before = speed.now() if speed else 0.0
    if tracer:
        tracer.request = result.attempted
        span = tracer.new_span(tracer.name_id("harness.request"))
        tracer.enter(span, tracing.HARNESS)
        tracer.active = True
    error = None
    started = clock()
    try:
        out = wl.execute(req)
    except Exception as exc:  # the run goes on; the request counts as failed
        out, error = None, f"{req}: {type(exc).__name__}: {exc}"
    elapsed = clock() - started
    scaled = speed.scale(elapsed, before, speed.now()) if speed else elapsed
    if tracer:
        tracer.active = False
        tracer.leave()
        payload = wl.child_spans(out) if out is not None else None
        if payload:
            tracer.graft(span, payload)
    result.attempted += 1
    result.busy += elapsed
    if error is None:
        result.nonzero_exits += getattr(out, "returncode", 0) != 0
        result.child_peak_kib = max(result.child_peak_kib, wl.child_peak_kib(out))
        error = wl.check(req, out)
    if error is None:
        return elapsed, scaled, wl.items(req, out)
    result.failed += 1
    result.errors.append(error)
    return elapsed, scaled, 0


def timed_phase(wl, rounds: int, repeats: int = 1, tracer=None, speed: HostSpeed | None = None,
                between=None, between_calls: int = 0) -> Pass:
    """Run `rounds` rounds, then run the same requests `repeats - 1` more times.

    A request's latency is the best of its `repeats` timings, scaled by
    `speed` when given: a spell of slow host lasting seconds rarely covers
    repeats a pass apart.  `between()` is called `between_calls` times,
    evenly spaced between requests.  Only the call into the program is timed;
    its check runs after the clock stops.  A request that raises, exits
    nonzero or returns a wrong value is a failure.
    """
    result = Pass()
    requests = [req for r in range(rounds) for req in wl.rounds[r % len(wl.rounds)]]
    total = len(requests) * repeats
    for k in range(total):
        i = k % len(requests)
        elapsed, scaled, items = _execute(wl, requests[i], result, tracer, speed)
        if k < len(requests):
            result.raw.append(elapsed)
            result.latencies.append(scaled)
            result.items += items
        else:
            result.raw[i] = min(result.raw[i], elapsed)
            result.latencies[i] = min(result.latencies[i], scaled)
        if (k + 1) * between_calls // total > k * between_calls // total:
            between()
    late = wl.finish()
    result.failed += len(late)
    result.errors.extend(late)
    return result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond); with too few samples it is
    the maximum, with the shortfall visible in the count.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(setups: list[float], run: Pass) -> tuple[dict, dict]:
    value, pct, beyond = tail(run.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": run.items / sum(run.latencies),
        "request_p50_ms": statistics.median(run.latencies) * 1000.0,
        "request_tail_ms": value * 1000.0,
        "failed_ratio": run.failed / run.attempted,
        # `cli` does its work in child processes, which report their own peak
        "peak_rss_mb": (run.child_peak_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0,
    }
    raw_tail, _, _ = tail(run.raw)
    notes = {"request_tail_ms": f"p{pct:.3f}, {beyond} of {len(run.latencies)} samples beyond; "
                                f"unscaled {raw_tail * 1000.0:.4f} ms",
             "request_p50_ms": f"unscaled {statistics.median(run.raw) * 1000.0:.4f} ms",
             "items_per_s": f"unscaled {run.items / sum(run.raw):.4f} 1/s",
             "setup_s": f"median of {len(setups)} set-ups, {min(setups):.4f} to {max(setups):.4f} s"}
    return metrics, notes


def per_layer(wl, tracer, base: Pass, traced: Pass) -> tuple[dict, dict]:
    summary = tracer.summary()

    def total(table: dict, layer: str):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = total(summary["spans"], layer)
        metrics[f"{layer}.self_s"] = float(total(summary["self_s"], layer))
    calls = summary["calls"]
    leaves = total(summary["items"], "enumeration")
    request_id = tracer.name_index["harness.request"]
    requests = [i for i, name in enumerate(tracer.s_name) if name == request_id]
    outside = [tracer.s_busy[i] - tracer.s_child[i] for i in requests]
    metrics.update({
        "enumeration.leaves": leaves,
        "enumeration.leaves_per_s": leaves / metrics["enumeration.self_s"] if leaves else 0.0,
        "perm_core.us_per_call": (metrics["perm_core.self_s"] * 1e6 / metrics["perm_core.calls"]
                                  if metrics["perm_core.calls"] else 0.0),
        "decompose.split_calls": calls.get("decompose.split", 0),
        "decompose.reconstruct_calls": calls.get("decompose.reconstruct", 0),
        "decompose.splits_per_host": calls.get("decompose.split", 0) / max(traced.items, 1),
        "formulas.catalan_max_index": summary["max_arg"].get("formulas.catalan", 0),
        "formulas.oracle_fallbacks": summary["oracle_from_formulas"],
        "cli.startup_ms": statistics.median(outside) * 1000.0 if wl.name == "cli" else 0.0,
        "cli.exit_nonzero": traced.nonzero_exits,
        "harness.self_s": sum(outside),
        "trace.wall_s": sum(tracer.s_busy[i] for i in requests),
        "trace.overhead_ratio": (base.items / base.busy) / (traced.items / traced.busy),
    })
    accounted = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) + metrics["harness.self_s"]
    notes = {"trace.wall_s": f"layer self times {accounted - metrics['harness.self_s']:.4f} s "
                             f"+ harness {metrics['harness.self_s']:.4f} s = {accounted:.4f} s",
             "trace.overhead_ratio": f"untraced pass {base.busy:.3f} s, traced pass {traced.busy:.3f} s, "
                                     f"{traced.attempted} requests each"}
    return {name: metrics[name] for name in PER_LAYER_UNITS}, notes


def measure(name: str, seed: int, seconds: float, trace: bool, profile: str = "full",
            plant_wrong_reference: bool = False) -> dict:
    """Set up, run and check one workload; returns metrics, notes and counts."""
    from workloads import WORKLOADS

    setups = []
    speed = HostSpeed()

    def set_up():
        wl = WORKLOADS[name](seed, profile)
        before = speed.now()
        started = clock()
        wl.setup()
        setups.append(speed.scale(clock() - started, before, speed.now()))
        return wl

    for _ in range(SETUPS_MIN):
        wl = set_up()
    # a set-up of a few ms is timed many times across the run, so that its
    # median does not hang on whether the host ran slow in one short window
    spread = min(SETUPS_MAX, int(SETUP_BUDGET_S / statistics.median(setups))) - SETUPS_MIN
    if plant_wrong_reference:
        wl.plant_wrong_reference()
    # --seconds sizes the request list, so that a seed always gives the same
    # requests: the timed passes take about `seconds` at the nominal speed
    passes = 2 if trace else wl.repeats
    rounds = max(1, round(seconds / passes / wl.nominal_round_s))
    if not trace:
        run = timed_phase(wl, rounds, repeats=wl.repeats, speed=speed, between=set_up,
                          between_calls=max(spread, 0))
        metrics, notes = end_to_end(setups, run)
        runs = [run]
    else:
        base = timed_phase(wl, rounds)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        wl.trace = True
        run = timed_phase(wl, rounds, tracer=tracer)
        metrics, notes = per_layer(wl, tracer, base, run)
        runs = [base, run]
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "errors": [e for r in runs for e in r.errors][:20],
    }


def run_one(args, bench: dict, why: dict) -> int:
    print("run:", json.dumps({"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                              "why": why.get(args.workload), **environment(args.seed)}))
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.profile)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in outcome["metrics"].items():
        note = outcome["notes"].get(name)
        print(f"{name} = {value!r} {units[name]}" + (f"  ({note})" if note else ""))
    for error in outcome["errors"]:
        print("failed:", error)
    listed = bench.get("per_layer" if args.trace else "end_to_end")
    names = [m["name"] for m in listed] if listed else list(outcome["metrics"])
    print("detail:", json.dumps({"metrics": outcome["metrics"], "notes": outcome["notes"]}))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": units[name]} for name in names},
    }))
    return 0


def run_all(args, names: list[str], why: dict) -> int:
    """Every workload in its own process; prints every metric and writes a report."""
    report = {"environment": environment(args.seed), "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    status = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--profile", args.profile]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail: "))[len("detail: "):])
        report["workloads"][name] = {"why": why.get(name), "result": result, **detail}
        print(f"[{name}] {why.get(name)}")
        for metric, value in detail["metrics"].items():
            note = detail["notes"].get(metric)
            print(f"  {metric} = {value!r} {units[metric]}" + (f"  ({note})" if note else ""))
        print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        status |= not result["correct"]
    out = HERE / "results" / f"seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report: {out.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    bench = spec()
    why = {w["name"]: w["why"] for w in bench.get("workloads", [])}
    names = list(why) or ["oracle", "bijection", "cli"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench.get("run_seconds", 30))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the smoke test")
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names, why)
    return run_one(args, bench, why)


if __name__ == "__main__":
    sys.exit(main())
