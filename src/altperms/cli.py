"""Command-line surface: counts, sequences, verification batteries, and the
decompose/reconstruct pair, one JSON object per stdout line.

Exit codes: 0 success, 1 usage error (bad flags or inputs outside a command's
domain), 2 verification failure (two methods for the same quantity disagreed,
which would falsify a formula or the bijection).  Counts are serialized as
decimal strings because they outgrow 64-bit integers quickly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from itertools import chain, permutations
from typing import Iterator, Sequence

from .decompose import (
    InternalInconsistency,
    InvalidRecord,
    InvariantViolation,
    NotAlternating,
    NotExactlyOne,
    enumerate_by_decomposition,
    format_record,
    parse_record,
    reconstruct,
    split,
)
from .enumeration import STATISTICS, GenerationFilter, count, euler_zigzag, generate, table1_oracle
from .formulas import (
    OutOfValidityRange,
    SequenceSpec,
    a_n,
    closed_form_even_321,
    closed_form_odd,
    convolution_even_321,
    convolution_odd_321,
    decomposition_sum,
    host_class,
    table1_formula,
)
from .perm_core import (
    AlternationClass,
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


class UsageError(Exception):
    """Bad flags or inputs; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; usage errors must exit 1
        raise UsageError(f"{self.prog}: error: {message}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _print_line(command: str, inputs: dict, fields: dict, started: float, **extra) -> None:
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(json.dumps({"command": command, "inputs": inputs, **fields, "elapsed_ms": elapsed_ms, **extra}))


def _emit(command: str, inputs: dict, value: str, method: str, started: float, **extra) -> None:
    _print_line(command, inputs, {"value": value, "method": method}, started, **extra)


def _emit_mismatch(command: str, inputs: dict, expected, actual, started: float) -> None:
    _print_line(command, inputs, {"error": "mismatch", "expected": str(expected), "actual": str(actual)}, started)
    print(f"{command}: mismatch at {inputs}: expected {expected}, got {actual}", file=sys.stderr)


def _count_exactly_one(pattern: Pattern, cls: AlternationClass, n: int, method: str) -> int:
    if method == "oracle":
        return count(GenerationFilter(cls=cls, length=n, exact_occurrences=(pattern, 1)))
    if method == "closed_form":
        return a_n(SequenceSpec(pattern, cls), n)
    host = host_class(pattern, cls)
    if method == "decomposition_sum":
        return decomposition_sum(n, host) if n >= 3 else 0
    if method == "bijection":
        return sum(1 for _ in enumerate_by_decomposition(n, host))
    if method == "convolution":
        m, odd = divmod(n, 2)
        if odd:
            return convolution_odd_321(m) if m >= 1 else 0
        if host is not AlternationClass.UP_DOWN:
            raise UsageError(
                "--method convolution: no displayed sum covers even-length 123 counts; "
                "use decomposition_sum or closed_form"
            )
        return convolution_even_321(m) if m >= 2 else 0
    raise UsageError(f"--method: unknown method {method!r}")


def _cmd_count(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cls = AlternationClass.from_code(args.cls)
    inputs: dict = {"class": args.cls, "n": args.n}
    if args.exactly is None:
        if args.pattern is not None:
            raise UsageError("--pattern requires --exactly (occurrence target)")
        method = args.method or "oracle"
        if method != "oracle":
            raise UsageError(f"--method {method}: unrestricted counts only support oracle")
        value = count(GenerationFilter(cls=cls, length=args.n))
    elif args.pattern is None:
        raise UsageError("--exactly requires --pattern")
    else:
        pattern = _PATTERNS[args.pattern]
        inputs.update({"pattern": args.pattern, "exactly": args.exactly})
        method = args.method or ("closed_form" if args.exactly == 1 else "oracle")
        if args.exactly == 1:
            value = _count_exactly_one(pattern, cls, args.n, method)
        elif method != "oracle":
            raise UsageError(f"--method {method}: only --exactly 1 has formula backing")
        else:
            value = count(GenerationFilter(cls=cls, length=args.n, exact_occurrences=(pattern, args.exactly)))
    _emit("count", inputs, str(value), method, started)
    return OK


def _cmd_sequence(args: argparse.Namespace) -> int:
    cls = AlternationClass.from_code(args.cls)
    pattern = _PATTERNS[args.pattern]
    method = args.method or "closed_form"
    if method not in ("closed_form", "oracle"):
        raise UsageError(f"--method {method}: sequence supports closed_form or oracle")
    for n in range(3, args.n_max + 1):
        started = time.perf_counter()
        value = _count_exactly_one(pattern, cls, n, method)
        inputs = {"pattern": args.pattern, "class": args.cls, "n": n}
        _emit("sequence", inputs, str(value), method, started)
    return OK


def _cmd_verify_table(args: argparse.Namespace) -> int:
    started = t0 = time.perf_counter()
    checks = 0
    for inputs, expected, actual in _table1_checks(args.n_max):
        checks += 1
        if expected is None:
            _emit("verify-table", inputs, str(actual), "oracle", t0, note="out_of_validity")
        elif expected != actual:
            _emit_mismatch("verify-table", inputs, expected, actual, t0)
            return VERIFICATION_FAILURE
        else:
            _emit("verify-table", inputs, str(actual), "closed_form", t0)
        t0 = time.perf_counter()
    _emit("verify-table", {"n_max": args.n_max}, str(checks), "oracle", started)
    return OK


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    for family, bound_key, method, checks in _identity_families(args.n_max):
        started = time.perf_counter()
        done, failure = _first_failure(checks)
        if failure is not None:
            _emit_mismatch("verify-identity", *failure, started)
            return VERIFICATION_FAILURE
        _emit("verify-identity", {"family": family, bound_key: args.n_max}, str(done), method, started)
    return OK


def _cmd_decompose(args: argparse.Namespace) -> int:
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
                expected = _count_exactly_one(pattern, cls, n, "closed_form")
                actual = _count_exactly_one(pattern, cls, n, "oracle")
                yield {"pattern": code, "class": cls.value, "n": n}, expected, actual


def _table1_checks(n_max: int) -> Iterator[Check]:
    """Every Table 1 cell up to n_max; cells below their validity bound expect None."""
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
    yield "even_321", "m_max", "convolution", _identity_checks(
        "even_321", "m", range(2, bound + 1), closed_form_even_321, convolution_even_321
    )
    yield "odd", "m_max", "convolution", _identity_checks(
        "odd", "m", range(1, bound + 1), closed_form_odd, convolution_odd_321
    )
    for cls in AlternationClass:
        family = f"decomposition_{cls.value}"
        yield family, "n_max", "decomposition_sum", _identity_checks(
            family, "n", range(3, bound + 1),
            partial(a_n, SequenceSpec(PATTERN_321, cls)), partial(decomposition_sum, cls=cls),
        )


def _identity_suite(_n_max: int, bound: int = 200) -> Iterator[Check]:
    return chain.from_iterable(checks for *_, checks in _identity_families(bound))


def _bijection_checks(n_max: int) -> Iterator[Check]:
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
    for n in range(0, n_max + 1):
        yield {"n": n}, euler_zigzag(n), count(GenerationFilter(cls=AlternationClass.UP_DOWN, length=n))


def _symmetry_checks(n_max: int) -> Iterator[Check]:
    for n in range(0, min(n_max, 8) + 1):
        for w in permutations(range(1, n + 1)):
            same = count_occurrences(w, PATTERN_123) == count_occurrences(reverse(w), PATTERN_321)
            yield {"perm": format_perm(w)}, *_verdict(same, "equal counts", "unequal")
        if n >= 4 and n % 2 == 0:
            ud_123 = set(generate(GenerationFilter(cls=AlternationClass.UP_DOWN, length=n,
                                                   exact_occurrences=(PATTERN_123, 1))))
            du_321 = set(generate(GenerationFilter(cls=AlternationClass.DOWN_UP, length=n,
                                                   exact_occurrences=(PATTERN_321, 1))))
            same = {reverse(w) for w in ud_123} == du_321
            yield {"n": n}, *_verdict(same, "reversal maps UD one-123 onto DU one-321", "sets differ")


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
    p.add_argument("--method", choices=_METHODS)

    p = add("verify-table", _cmd_verify_table, help="tabulated 321-avoiding counts vs the oracle")
    p.add_argument("--n-max", type=_positive, default=10)

    p = add("verify-identity", _cmd_verify_identity, help="convolutions and decomposition sums vs closed forms")
    p.add_argument("--n-max", type=_positive, default=200)

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
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except (NotExactlyOne, NotAlternating, InvalidRecord, OutOfValidityRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (InvariantViolation, InternalInconsistency) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
