"""Golden CLI transcript: exit code, stdout and stderr of a fixed command list.

Every command runs in-process through `altperms.cli.run`; `elapsed_*` fields
are masked because they are the only output that varies between runs.  The
list covers the README commands, every `--method` x pattern x class of the
exactly-once count at n in {1, 2, 3, 6, 7}, the decompose/reconstruct domain
errors, the verification commands at small bounds, and each verification
suite run with one of the functions it checks replaced by a wrong one.

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
]

#: (module.name under altperms where the CLI reads the function, wrong replacement, argv): every suite
#: fails at least once.
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
]

_ELAPSED = re.compile(r'"(elapsed_\w+)": [0-9.]+')


def run_masked(argv: list[str]) -> str:
    """One transcript entry: the command, its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    stdout = _ELAPSED.sub(r'"\1": "*"', out.getvalue())
    return f"$ altperms {shlex.join(argv)}\nexit {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}"


def transcript() -> str:
    entries = [run_masked(argv) for argv in README + METHOD_GRID + OTHERS]
    for target, fake, argv in SABOTAGES:
        with mock.patch(f"altperms.{target}", fake):
            entries.append(f"# with altperms.{target} replaced\n" + run_masked(argv))
    return "\n".join(entries)


if __name__ == "__main__":
    print(transcript(), end="")
