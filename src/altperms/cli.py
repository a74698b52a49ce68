"""Command-line surface: counts, sequences, verification batteries, and the
decompose/reconstruct pair, one JSON object per stdout line.

Exit codes: 0 success, 1 usage error (bad flags or inputs outside a command's
domain), 2 verification failure (two methods for the same quantity disagreed,
which would falsify a formula or the bijection).  Counts are serialized as
decimal strings, of any length, because they outgrow 64-bit integers quickly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterator, Sequence
from functools import partial
from itertools import chain

# The oracle (enumeration) and the bijection (decompose) are imported where they are used,
# so a formula command compiles neither.
from .formulas import (
    OutOfValidityRange,
    SequenceSpec,
    _closed_forms,
    a_n,
    closed_form_even_321,
    closed_form_odd,
    convolution_even_321,
    convolution_odd_321,
    decomposition_sum,
    euler_zigzag,
    host_class,
    table1_formula,
)
from .perm_core import (
    STATISTICS,
    AlternationClass,
    InvariantViolation,
    PATTERN_123,
    PATTERN_321,
    Pattern,
    count_occurrences,
    format_perm,
    parse_perm,
    reverse,
)

OK = 0
USAGE_ERROR = 1
VERIFICATION_FAILURE = 2

_PATTERNS = {"321": PATTERN_321, "123": PATTERN_123}
_METHODS = ("closed_form", "convolution", "decomposition_sum", "oracle", "bijection")
#: The index up to which selftest checks every identity; verify-identity's default --n-max
_IDENTITY_BOUND = 200
#: The largest --n (count) or --n-max (the commands that loop over lengths) of each request,
#: keyed by the argv words that select it: where the request's slowest (pattern, class) pair
#: takes up to about 50 s as a CLI process on a 2-CPU x86 host (Python 3.11); README's
#: limit table gives each row's time. Oracle targets 0-4 have a row each (targets 0-2, and so
#: verify-table and sequence, read their last eleven entries off tables the three share);
#: every larger target shares the row "--exactly 5+".
_LIMITS = {
    "count --method oracle": 16,
    **{f"count --method oracle --exactly {k}": limit for k, limit in enumerate((27, 26, 25, 22, 21))},
    "count --method oracle --exactly 5+": 15,
    "count --method closed_form": 2_000_000, "count --method convolution": 60_000,
    "count --method decomposition_sum": 60_000, "count --method bijection": 22,
    "verify-identity": 2200, "verify-table": 25, "selftest": 16,
    "sequence --method oracle": 25, "sequence --method closed_form": 40_000,
}


class UsageError(Exception):
    """Bad flags or inputs; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; usage errors must exit 1
        raise UsageError(f"{self.prog}: error: {message}")

    def print_help(self, file=None):  # stdout carries JSON lines only
        super().print_help(file or sys.stderr)


def _integer_at_least(minimum: int, rule: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(rule) from None
    if value < minimum:
        raise argparse.ArgumentTypeError(rule)
    return value


_positive = partial(_integer_at_least, 1, "must be a positive integer")
_nonnegative = partial(_integer_at_least, 0, "must be a nonnegative integer")


def _print_line(command: str, inputs: dict, fields: dict, started: float, **extra) -> None:
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(json.dumps({"command": command, "inputs": inputs, **fields, "elapsed_ms": elapsed_ms, **extra}))


def _text(value: object) -> str:
    """The JSON string of a value; ints past str()'s digit limit go through Decimal."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def _emit(command: str, inputs: dict, value: int | str, method: str, started: float, **extra) -> None:
    _print_line(command, inputs, {"value": _text(value), "method": method}, started, **extra)


def _emit_mismatch(command: str, inputs: dict, expected, actual, started: float) -> None:
    expected, actual = _text(expected), _text(actual)
    _print_line(command, inputs, {"error": "mismatch", "expected": expected, "actual": actual}, started)
    print(f"{command}: mismatch at {inputs}: expected {expected}, got {actual}", file=sys.stderr)


def _refuse_past_limit(key: str, flag: str, size: int, exactly_one: bool) -> None:
    """Refuse a size past its row of `_LIMITS` before any work runs. An exactly-one
    request by another method is told how far closed_form, which answers it too, reaches."""
    limit = _LIMITS[key]
    if size > limit:
        closed_form = f"{key.split()[0]} --method closed_form"
        hint = ""
        if exactly_one and key != closed_form:
            hint = f"; --method closed_form reaches {flag} {_LIMITS[closed_form]}"
        raise UsageError(f"{flag} {size}: {key} stops at {flag} {limit}{hint}")


def _count(pattern: Pattern | None, cls: AlternationClass, n: int, exactly: int | None, method: str) -> int:
    """Length-n `cls` permutations with `exactly` occurrences of `pattern` (all
    of them if `pattern` is None), by `method`: the one place that decides
    which method may answer which request."""
    if method == "oracle":
        from .enumeration import GenerationFilter, count

        target = None if pattern is None else (pattern, exactly)
        return count(GenerationFilter(cls=cls, length=n, exact_occurrences=target))
    if pattern is None:
        raise UsageError(f"--method {method}: unrestricted counts only support oracle")
    if exactly != 1:
        raise UsageError(f"--method {method}: only --exactly 1 has formula backing")
    m, odd = divmod(n, 2)
    if method == "convolution" and not odd and host_class(pattern, cls) is not AlternationClass.UP_DOWN:
        raise UsageError(
            "--method convolution: no displayed sum covers even-length 123 counts; "
            "use decomposition_sum or closed_form"
        )
    if n < 3:  # shorter than the pattern
        return 0
    if method == "closed_form":
        return a_n(SequenceSpec(pattern, cls), n)
    if method == "decomposition_sum":
        return decomposition_sum(n, host_class(pattern, cls))
    if method == "bijection":
        from .decompose import enumerate_by_decomposition

        return sum(1 for _ in enumerate_by_decomposition(n, host_class(pattern, cls)))
    # argparse's choices leave only convolution
    return convolution_odd_321(m) if odd else convolution_even_321(m)


def _cmd_count(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inputs: dict = {"class": args.cls, "n": args.n}
    if args.pattern is not None and args.exactly is None:
        raise UsageError("--pattern requires --exactly (occurrence target)")
    if args.exactly is not None and args.pattern is None:
        raise UsageError("--exactly requires --pattern")
    pattern = _PATTERNS.get(args.pattern)
    if pattern is not None:
        inputs.update({"pattern": args.pattern, "exactly": args.exactly})
    method = args.method or ("closed_form" if args.exactly == 1 else "oracle")
    key = f"count --method {method}"
    if method == "oracle" and pattern is not None:  # the oracle's per-target rows; 5+ holds the rest
        target = f"{key} --exactly {args.exactly}"
        key = target if target in _LIMITS else f"{key} --exactly 5+"
    _refuse_past_limit(key, "--n", args.n, args.exactly == 1)
    value = _count(pattern, AlternationClass.from_code(args.cls), args.n, args.exactly, method)
    _emit("count", inputs, value, method, started)
    return OK


def _cmd_sequence(args: argparse.Namespace) -> int:
    cls = AlternationClass.from_code(args.cls)
    pattern = _PATTERNS[args.pattern]
    # closed_form reads one stream per parity of n, even from 4 and odd from 3, each stepping C_m
    streams = [_closed_forms(host_class(pattern, cls), range(first, args.n_max + 1, 2)) for first in (4, 3)]
    for n in range(3, args.n_max + 1):
        started = time.perf_counter()
        value = _count(pattern, cls, n, 1, "oracle") if args.method == "oracle" else next(streams[n % 2])
        inputs = {"pattern": args.pattern, "class": args.cls, "n": n}
        _emit("sequence", inputs, value, args.method, started)
    return OK


def _cmd_verify_table(args: argparse.Namespace) -> int:
    started = t0 = time.perf_counter()
    checks = 0
    for inputs, expected, actual in _table1_checks(args.n_max):
        checks += 1
        if expected is None:
            _emit("verify-table", inputs, actual, "oracle", t0, note="out_of_validity")
        elif expected != actual:
            _emit_mismatch("verify-table", inputs, expected, actual, t0)
            return VERIFICATION_FAILURE
        else:
            _emit("verify-table", inputs, actual, "closed_form", t0)
        t0 = time.perf_counter()
    _emit("verify-table", {"n_max": args.n_max}, checks, "oracle", started)
    return OK


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    for family, bound_key, method, checks in _identity_families(args.n_max):
        started = time.perf_counter()
        done, failure = _first_failure(checks)
        if failure is not None:
            _emit_mismatch("verify-identity", *failure, started)
            return VERIFICATION_FAILURE
        _emit("verify-identity", {"family": family, bound_key: args.n_max}, done, method, started)
    return OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .decompose import NotExactlyOne, format_record, split

    started = time.perf_counter()
    w = parse_perm(args.perm)
    try:
        record = split(w)
    except NotExactlyOne:
        if count_occurrences(w, PATTERN_123) == 1:
            # 123-hosts are out of the engine's domain; reversal maps them to 321-hosts
            print(
                f"hint: {args.perm} contains 123 exactly once; decompose its reversal "
                f"{format_perm(reverse(w))} instead",
                file=sys.stderr,
            )
        raise
    _emit("decompose", {"perm": args.perm}, format_record(record), "bijection", started)
    return OK


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    from .decompose import parse_record, reconstruct

    started = time.perf_counter()
    record = parse_record(args.record)
    w = reconstruct(record)
    _emit("reconstruct", {"record": args.record}, format_perm(w), "bijection", started)
    return OK


# A check is (inputs, expected, actual) and fails when expected != actual;
# expected is None where there is nothing to compare against.
Check = tuple[dict, object, object]


def _verdict(holds: bool, expected: str, actual: str) -> tuple[str, str]:
    """(expected, actual) of a yes/no check: `actual` only shows when it fails."""
    return expected, expected if holds else actual


def _first_failure(checks: Iterator[Check]) -> tuple[int, Check | None]:
    """Run checks up to the first failure: (checks run, failing check or None)."""
    done = 0
    for check in checks:
        done += 1
        _, expected, actual = check
        if expected is not None and expected != actual:
            return done, check
    return done, None


def _closed_form_vs_oracle_checks(n_max: int) -> Iterator[Check]:
    for code, pattern in _PATTERNS.items():
        for cls in AlternationClass:
            for n in range(3, n_max + 1):
                expected = _count(pattern, cls, n, 1, "closed_form")
                actual = _count(pattern, cls, n, 1, "oracle")
                yield {"pattern": code, "class": cls.value, "n": n}, expected, actual


def _table1_checks(n_max: int) -> Iterator[Check]:
    """Every Table 1 cell up to n_max; cells below their validity bound expect None."""
    from .enumeration import table1_oracle

    for n in range(0, n_max + 1):
        for cls in AlternationClass:
            for statistic in STATISTICS:
                actual = table1_oracle(cls, n, statistic)
                try:
                    expected = table1_formula(cls, n, statistic)
                except OutOfValidityRange:
                    expected = None
                yield {"class": cls.value, "n": n, "statistic": statistic}, expected, actual


def _identity_checks(family: str, var: str, indices: range, expected, actual) -> Iterator[Check]:
    for i in indices:
        yield {"family": family, var: i}, expected(i), actual(i)


def _identity_families(bound: int):
    """Each identity as (family, bound key, method, its checks up to `bound`)."""
    rows = [
        ("even_321", "m", 2, "convolution", closed_form_even_321, convolution_even_321),
        ("odd", "m", 1, "convolution", closed_form_odd, convolution_odd_321),
        *((f"decomposition_{cls.value}", "n", 3, "decomposition_sum", partial(a_n, SequenceSpec(PATTERN_321, cls)),
           partial(decomposition_sum, cls=cls)) for cls in AlternationClass),
    ]
    for family, var, first, method, expected, actual in rows:
        yield family, f"{var}_max", method, _identity_checks(family, var, range(first, bound + 1), expected, actual)


def _identity_suite(_n_max: int) -> Iterator[Check]:
    return chain.from_iterable(checks for *_, checks in _identity_families(_IDENTITY_BOUND))


def _bijection_checks(n_max: int) -> Iterator[Check]:
    from .decompose import enumerate_by_decomposition, format_record, reconstruct, split
    from .enumeration import GenerationFilter, generate

    for n in range(3, n_max + 1):
        for cls in AlternationClass:
            oracle = set(generate(GenerationFilter(cls=cls, length=n, exact_occurrences=(PATTERN_321, 1))))
            built = list(enumerate_by_decomposition(n, cls))
            same = len(built) == len(set(built)) and set(built) == oracle
            yield {"class": cls.value, "n": n}, *_verdict(same, f"{len(oracle)} distinct hosts", f"{len(built)} built")
            for w in sorted(oracle):
                record = split(w)
                holds = reconstruct(record) == w and w[record.j - 1] == record.j
                inputs = {"class": cls.value, "perm": format_perm(w)}
                yield inputs, *_verdict(holds, format_perm(w), format_record(record))


def _zigzag_checks(n_max: int) -> Iterator[Check]:
    from .enumeration import GenerationFilter, count

    for n in range(0, n_max + 1):
        yield {"n": n}, euler_zigzag(n), count(GenerationFilter(cls=AlternationClass.UP_DOWN, length=n))


def _symmetry_checks(n_max: int) -> Iterator[Check]:
    from .enumeration import GenerationFilter, generate

    for n in range(3, n_max + 1):
        for cls in AlternationClass:
            image = cls if n % 2 else cls.flipped  # reversal keeps an odd-length zigzag's shape
            one_123, one_321 = (set(generate(GenerationFilter(cls=c, length=n, exact_occurrences=(p, 1))))
                                for c, p in ((cls, PATTERN_123), (image, PATTERN_321)))
            same = {reverse(w) for w in one_123} == one_321
            expected = f"reversal maps {cls.value} one-123 onto {image.value} one-321"
            yield {"class": cls.value, "n": n}, *_verdict(same, expected, "sets differ")


_SUITES = (
    ("closed_form_vs_oracle", "closed_form", _closed_form_vs_oracle_checks),
    ("table1", "closed_form", _table1_checks),
    ("identities", "convolution", _identity_suite),
    ("bijection", "bijection", _bijection_checks),
    ("zigzag", "oracle", _zigzag_checks),
    ("symmetry", "oracle", _symmetry_checks),
)


def _cmd_selftest(args: argparse.Namespace) -> int:
    for name, method, suite in _SUITES:
        started = time.perf_counter()
        checks, failure = _first_failure(suite(args.n_max))
        inputs = {"suite": name, "n_max": args.n_max}
        if failure is not None:
            where, expected, actual = failure
            _emit_mismatch("selftest", {"suite": name, **where}, expected, actual, started)
            _emit("selftest", inputs, "fail", method, started, checks=checks)
            return VERIFICATION_FAILURE
        _emit("selftest", inputs, "pass", method, started, checks=checks)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="altperms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("count", _cmd_count, help="count alternating permutations, optionally by occurrence target")
    p.add_argument("--pattern", choices=sorted(_PATTERNS))
    p.add_argument("--class", dest="cls", choices=["UD", "DU"], default="UD")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--exactly", type=_nonnegative)
    p.add_argument("--method", choices=_METHODS)

    p = add("sequence", _cmd_sequence, help="exactly-once counts for n = 3..n-max")
    p.add_argument("--pattern", choices=sorted(_PATTERNS), required=True)
    p.add_argument("--class", dest="cls", choices=["UD", "DU"], default="UD")
    p.add_argument("--n-max", type=_positive, default=10)
    p.add_argument("--method", choices=("closed_form", "oracle"), default="closed_form")

    p = add("verify-table", _cmd_verify_table, help="tabulated 321-avoiding counts vs the oracle")
    p.add_argument("--n-max", type=_positive, default=10)

    p = add("verify-identity", _cmd_verify_identity, help="convolutions and decomposition sums vs closed forms")
    p.add_argument("--n-max", type=_positive, default=_IDENTITY_BOUND)

    p = add("decompose", _cmd_decompose, help="split a one-321 alternating permutation into its record")
    p.add_argument("--perm", required=True)

    p = add("reconstruct", _cmd_reconstruct, help="rebuild the host permutation from a record")
    p.add_argument("--record", required=True)

    p = add("selftest", _cmd_selftest, help="run all verification suites")
    p.add_argument("--n-max", type=_positive, default=10)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute one subcommand, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        key = f"sequence --method {args.method}" if args.command == "sequence" else args.command
        if key in _LIMITS:  # the commands that take --n-max; count refuses its own --n
            _refuse_past_limit(key, "--n-max", args.n_max, args.command == "sequence")
        return args.func(args)
    except SystemExit:  # argparse exits after printing help; error() raises UsageError instead
        return OK
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvariantViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
