"""Property-based fuzzing of the text parsers, of the CLI commands that take
text, and of whole CLI argument lists."""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, given, settings, strategies as st

import altperms.cli as cli
from altperms.decompose import format_record, parse_record, split
from altperms.perm_core import PATTERN_321, format_perm, parse_perm

import naive
from test_cli import limit_request

# Arbitrary text, plus text over the record alphabet, which reaches past the field checks.
texts = st.one_of(st.text(max_size=40), st.text(alphabet="nclasjUVD=;,0123456789- ", max_size=40))


@given(texts)
def test_parse_perm_roundtrips_or_rejects(text):
    try:
        w = parse_perm(text)
    except ValueError:
        return
    assert parse_perm(format_perm(w)) == w


@given(texts)
def test_parse_record_roundtrips_or_rejects(text):
    try:
        record = parse_record(text)
    except ValueError:
        return
    assert parse_record(format_record(record)) == record


@given(texts)
def test_cli_text_inputs_exit_0_or_1(text):
    for argv in (["decompose", "--perm", text], ["reconstruct", "--record", text]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        assert code in (0, 1), argv


_parser = cli.build_parser()
(_subcommands,) = [action for action in _parser._actions if isinstance(action, argparse._SubParsersAction)]
COMMANDS = sorted(_subcommands.choices)
#: Each subcommand's flags that take a value (-h and --help come in as stray words).
OPTIONS = {
    name: [action for action in sub._actions if action.option_strings and action.nargs != 0]
    for name, sub in _subcommands.choices.items()
}
FLAGS = sorted({"-h", "--help"}.union(*(action.option_strings for actions in OPTIONS.values() for action in actions)))
WORDS = [*cli._METHODS, "bogus", "UD", "DU", "XX"]
_HOSTS = [w for n in (5, 6, 7) for cls in ("UD", "DU") for w in naive.matching_perms(cls, n, exactly=(PATTERN_321, 1))]
#: Values of each text flag: the one-321 hosts of length 5-7 and their records (split at
#: the first draw, so that a broken split fails the test rather than its collection).
TEXTS = {"perm": st.sampled_from([format_perm(w) for w in _HOSTS]),
         "record": st.deferred(lambda: st.sampled_from([format_record(split(w)) for w in _HOSTS]))}
#: Commands that take --n-max; the fuzzer gives each a cheap cap, then maybe a refused one.
BOUNDED = {"selftest", "sequence", "verify-table", "verify-identity"}
#: Each limited command's refused tails: a 20-digit size (--n for count, --n-max for the
#: others), and for each row of the limits table the request test_cli.limit_request makes for
#: it one past the row's limit, after its command.
REFUSED = {}
for key, limit in cli._LIMITS.items():
    (command, *tail), size = limit_request(key, limit + 1)
    REFUSED.setdefault(command, [[size, "9" * 20]]).append(tail)

# Integers stay <= 9, but for the values LARGE adds, and permutations at 7; no word or free
# text holds a digit (a misfit --n 20 with a pattern target is inside the oracle's limits, and
# would run for seconds) and no permutation parses as an integer, so no request runs long
# (LARGE names the slowest). A bounded command always gets an --n-max, as selftest's default,
# 10, is slower than 9. The larger sizes above are all refused before anything runs.
INTEGERS = [str(k) for k in range(-1, 10)]
#: Larger values of each (command, flag) where every request they make stays cheap. Each
#: value's slowest request, timed in a fresh process on a 2-CPU x86 host, took at most
#: 0.4 s: `count --n 12 --exactly 120 --method oracle`. At --n 1000 the oracle and bijection
#: refuse and a formula method takes milliseconds; sequence --n-max 1000 refuses the oracle.
LARGE = {("count", "n"): ["12", "1000"], ("count", "exactly"): ["10", "120", str(10**6)],
         ("sequence", "n_max"): ["12", "1000"], ("verify-table", "n_max"): ["12"],
         ("verify-identity", "n_max"): ["200"], ("selftest", "n_max"): ["11"]}
values = st.one_of(
    st.sampled_from(INTEGERS),
    st.sampled_from(WORDS),
    st.permutations(range(1, 7)).map(format_perm),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=8),
)
strays = st.one_of(st.sampled_from(COMMANDS + FLAGS), values)
DEFECTS = ("none", "stray word", "misfit value", "dropped required flag", "refused cap")


def _takes(action: argparse.Action, text: str) -> bool:
    try:
        action.type(text)
    except argparse.ArgumentTypeError:
        return False
    return True


def fitting(command: str, action: argparse.Action):
    """Values `action` accepts after `command`: its choices, an integer its type takes (LARGE
    adds some), or a text of its kind."""
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is not None:
        larger = LARGE.get((command, action.dest), [])
        return st.sampled_from([text for text in INTEGERS + larger if _takes(action, text)])
    return TEXTS[action.dest]


@st.composite
def argvs(draw):
    """A whole command line, then at most one defect.

    The line is a subcommand, its required flags, some of its other flags and,
    where it takes one, a cheap --n-max, each with a value it accepts, so that
    most lists reach a command body. The defect is a stray word anywhere, a
    misfit value, a dropped required flag or a refused --n or --n-max."""
    command = draw(st.sampled_from(COMMANDS))
    chosen = [a for a in OPTIONS[command] if a.required or a.dest == "n_max" or draw(st.booleans())]
    if command == "count" and len({a.dest for a in chosen} & {"pattern", "exactly"}) == 1:  # each needs the other
        chosen = [a for a in OPTIONS[command] if a in chosen or a.dest in ("pattern", "exactly")]
    pieces = [[draw(st.sampled_from(a.option_strings)), draw(fitting(command, a))] for a in chosen]
    defect = draw(st.sampled_from(DEFECTS[:1] * 5 + DEFECTS[1:]))  # five lists in nine stay whole
    if defect == "misfit value" and pieces:
        pieces[draw(st.integers(min_value=0, max_value=len(pieces) - 1))][1] = draw(values)
    elif defect == "dropped required flag":
        pieces = [piece for piece, a in zip(pieces, chosen) if not a.required]
    elif defect == "refused cap" and command in REFUSED:
        if command == "count":  # the tail picks its own row: a target drawn earlier would pick another
            pieces = [piece for piece, a in zip(pieces, chosen) if a.dest not in ("pattern", "exactly")]
        pieces.append(draw(st.sampled_from(REFUSED[command])))  # the last size counts
    argv = [command]
    for piece in pieces:  # a flag and its value as two words or as one, joined by "="
        argv += ["=".join(piece)] if len(piece) == 2 and draw(st.booleans()) else piece
    if defect == "stray word":
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), draw(strays))
    event(f"defect: {defect}")
    return argv


@settings(deadline=None)
@given(argvs())
def test_cli_argv_exits_0_1_or_2_with_json_stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code in (0, 1, 2), argv
    event(f"exit {code}" + (" with output" if out.getvalue() else ""))
    for line in out.getvalue().splitlines():
        json.loads(line)
