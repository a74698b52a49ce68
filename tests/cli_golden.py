"""Golden CLI transcript: exit code, stdout and stderr of a fixed command list.

Every command runs in-process through `altperms.cli.run`; `elapsed_*` fields
are masked because they are the only output that varies between runs.  The
list covers the README commands, every `--method` x pattern x class of the
exactly-once count at n in {1, 2, 3, 6, 7}, the default method of each
count, the usage errors (bad, missing or conflicting flags, an unknown
command), the decompose/reconstruct domain errors, the verification commands
at small bounds, each verification suite run with one of the functions it
checks replaced by a wrong one, and decompose and reconstruct with a wrong
rebuild (exit 2). This transcript is the record of what the CLI prints:
`tests/test_cli.py` keeps only what it does not hold: the requests at and
past their limits with the work stubbed out, helper unit tests, probes in a
fresh interpreter, `--help` and two large inputs.

`tests/test_cli_golden.py` runs each entry of `CASES` as its own test and
compares it with the same entry of the committed file (`golden_entries`).

Regenerate the committed transcript (only when an output change is intended):

    PYTHONPATH=src python tests/cli_golden.py > tests/golden/cli.txt
"""

from __future__ import annotations

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import altperms.cli as cli
from altperms.formulas import table1_formula

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

RECORD = "n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4"

README = [
    ["count", "--pattern", "321", "--class", "UD", "--n", "8", "--exactly", "1"],
    ["count", "--pattern", "321", "--class", "UD", "--n", "8", "--exactly", "1", "--method", "oracle"],
    ["sequence", "--pattern", "123", "--n-max", "10"],
    ["decompose", "--perm", "1,4,3,5,2,6"],
    ["reconstruct", "--record", RECORD],
    ["verify-identity", "--n-max", "200"],
]

METHOD_GRID = [
    ["count", "--pattern", pattern, "--class", cls, "--n", str(n), "--exactly", "1", "--method", method]
    for method in ("closed_form", "convolution", "decomposition_sum", "oracle", "bijection")
    for pattern in ("321", "123")
    for cls in ("UD", "DU")
    for n in (1, 2, 3, 6, 7)
]

OTHERS = [
    ["count", "--class", "DU", "--n", "7"],
    ["count", "--pattern", "123", "--class", "DU", "--n", "6", "--exactly", "2"],
    ["count", "--pattern", "321", "--n", "5", "--exactly", "1", "--method", "bogus"],
    ["count", "--pattern", "321", "--n", "5", "--exactly", "2", "--method", "closed_form"],
    ["count", "--n", "5", "--method", "bijection"],
    ["sequence", "--pattern", "321", "--class", "DU", "--n-max", "8", "--method", "oracle"],
    ["sequence", "--pattern", "321", "--n-max", "6", "--method", "bijection"],
    ["decompose", "--perm", "1,3,2,4"],  # no 321
    ["decompose", "--perm", "2,5,3,4,1"],  # two 321s
    ["decompose", "--perm", "1,2,3,4"],  # not alternating
    ["decompose", "--perm", "1,2,2"],  # not a permutation
    ["decompose", "--perm", "1,4,2,3"],  # one 123: reversal hint
    ["decompose", "--perm", ""],
    ["reconstruct", "--record", "n=4;class=UD;j=2;U=1,2;V=3,1,2"],
    ["reconstruct", "--record", "n=6;class=UD;j=5;U=1,3,2;V=2,3,1,4"],
    ["reconstruct", "--record", "garbage"],
    ["verify-table", "--n-max", "8"],
    ["verify-identity", "--n-max", "40"],
    ["verify-identity", "--n-max", "1"],
    ["verify-identity", "--n-max", str(cli._LIMITS["verify-identity"] + 1)],  # refused
    ["verify-table", "--n-max", str(cli._LIMITS["verify-table"] + 1)],  # refused
    ["selftest", "--n-max", str(cli._LIMITS["selftest"] + 1)],  # refused
    *(  # refused; the oracle's message names closed_form
        ["sequence", "--pattern", "321", "--method", method,
         "--n-max", str(cli._LIMITS[f"sequence --method {method}"] + 1)]
        for method in ("closed_form", "oracle")
    ),
    ["count", "--n", str(cli._LIMITS["count --method oracle"] + 1)],  # refused
    *(  # refused; an exactly-one oracle count names closed_form
        ["count", "--pattern", "321", "--exactly", target, "--method", "oracle",
         "--n", str(cli._LIMITS[f"count --method oracle --exactly {target}"] + 1)]
        for target in ("0", "1")
    ),
    ["count", "--pattern", "321", "--exactly", "7", "--method", "oracle",  # refused by the row for targets >= 5
     "--n", str(cli._LIMITS["count --method oracle --exactly 5+"] + 1)],
    ["selftest", "--n-max", "6"],
    ["count", "--n", "x"],  # integer flags report their rule, not their parser
    ["count", "--n", "1.5"],
    ["count", "--pattern", "321", "--n", "5", "--exactly", "y"],
    ["count", "--pattern", "321", "--n", "5", "--exactly", "-1"],
    ["sequence", "--n-max", "z"],
    ["verify-table", "--n-max", "ten"],
    ["count", "--n", "5", "--pattern", "321"],  # usage errors: --pattern without --exactly
    ["count", "--n", "5", "--exactly", "1"],  # --exactly without --pattern
    ["count", "--n", "5", "--method", "closed_form"],  # unrestricted, not the oracle
    ["count", "--pattern", "213", "--n", "5", "--exactly", "1"],  # unsupported pattern
    ["count", "--pattern", "321", "--n", "0", "--exactly", "1"],  # --n must be positive
    ["count"],  # missing --n
    ["bogus-command"],
    ["count", "--pattern", "321", "--n", "6", "--exactly", "2"],  # the default method past exactly one
    *(["count", "--pattern", "321", "--class", "UD", "--n", "8", "--exactly", "1", "--method", method]
      for method in ("convolution", "decomposition_sum", "bijection")),  # the README's 66 by every method
    ["sequence", "--pattern", "321", "--n-max", "8"],
    ["sequence", "--pattern", "321", "--n-max", "8", "--method", "oracle"],
]

#: (module.name under altperms where the CLI reads the function, wrong replacement, argv): every suite
#: fails at least once, and so does the rebuild check of decompose and reconstruct.
SABOTAGES = [
    ("cli.a_n", lambda spec, n: -1, ["selftest", "--n-max", "4"]),
    ("cli.table1_formula", lambda cls, n, statistic: -1, ["selftest", "--n-max", "4"]),
    ("cli.table1_formula", lambda cls, n, statistic: -1, ["verify-table", "--n-max", "4"]),
    ("cli.closed_form_even_321", lambda m: -1, ["selftest", "--n-max", "4"]),
    ("cli.closed_form_even_321", lambda m: -1, ["verify-identity", "--n-max", "10"]),
    ("cli.closed_form_odd", lambda m: -1, ["verify-identity", "--n-max", "10"]),
    ("cli.a_n", lambda spec, n: -1, ["verify-identity", "--n-max", "10"]),
    ("decompose.reconstruct", lambda record: (), ["selftest", "--n-max", "4"]),
    ("decompose.enumerate_by_decomposition", lambda n, cls: iter(()), ["selftest", "--n-max", "4"]),
    ("cli.euler_zigzag", lambda n: 7, ["selftest", "--n-max", "4"]),
    ("cli.reverse", lambda w: tuple(w), ["selftest", "--n-max", "4"]),
    # only the odd lengths, where reversal keeps the class
    ("cli.reverse", lambda w: tuple(w) if len(w) % 2 else tuple(reversed(w)), ["selftest", "--n-max", "5"]),
    # one cell wrong: verify-table stops at the first n = 6 cell
    ("cli.table1_formula", lambda cls, n, statistic: table1_formula(cls, n, statistic) + (n == 6),
     ["verify-table", "--n-max", "8"]),
    *(("decompose._rebuild", lambda record: (2, 4, 3, 5, 1, 6), argv)  # a wrong host: exit 2, no line
      for argv in (["decompose", "--perm", "1,4,3,5,2,6"], ["reconstruct", "--record", RECORD])),
]

_ELAPSED = re.compile(r'"(elapsed_\w+)": [0-9]+')  # ints only: a float elapsed_ms would show


def run_masked(argv: list[str]) -> str:
    """One transcript entry: the command, its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    stdout = _ELAPSED.sub(r'"\1": "*"', out.getvalue())
    return f"$ altperms {shlex.join(argv)}\nexit {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}"


#: (target, fake, argv) of every transcript entry, in transcript order; target is None for a plain run.
CASES = [(None, None, argv) for argv in README + METHOD_GRID + OTHERS] + SABOTAGES


def entry(target, fake, argv: list[str]) -> str:
    """One case's transcript entry, run with altperms.<target> replaced by fake when target is set."""
    if target is None:
        return run_masked(argv)
    with mock.patch(f"altperms.{target}", fake):
        return f"# with altperms.{target} replaced\n" + run_masked(argv)


def transcript() -> str:
    return "\n".join(entry(*case) for case in CASES)


def golden_entries() -> list[str]:
    """The committed transcript cut at the blank line before each entry: transcript's join undone."""
    return re.split(r"(?<=\n)\n(?=\$ altperms |# with altperms\.)", GOLDEN.read_text())


if __name__ == "__main__":
    print(transcript(), end="")
