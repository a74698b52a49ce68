"""Property-based fuzzing of the text parsers, of the CLI commands that take
text, and of whole CLI argument lists."""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, given, settings, strategies as st

import altperms.cli as cli
from altperms.decompose import format_record, parse_record
from altperms.perm_core import format_perm, parse_perm

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
WORDS = [*cli._METHODS, "bogus", "UD", "DU", "XX", "321", "123", "132"]
RECORDS = ["n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4", "n=7;class=DU;j=4;U=2,1,4,3;V=2,3,1,4"]
#: Commands that take --n-max; the fuzzer ends each with a small cap or a refused one.
BOUNDED = {"selftest", "sequence", "verify-table", "verify-identity"}
#: Each bounded command's refused tails: a 20-digit --n-max, and for each of its limits the
#: flags in the limit's key (sequence's --method) with --n-max one past the limit.
REFUSED = {command: [["--n-max", "9" * 20]] for command in BOUNDED}
for key, limit in cli._N_MAX_LIMIT.items():
    command, *flags = key.split()
    REFUSED[command].append([*flags, "--n-max", str(limit + 1)])

# Integers stay <= 9, permutations at 6, and the free text has no digits, so no
# request can run long; the larger caps above are all refused before anything runs.
integers = st.integers(min_value=-1, max_value=9).map(str)
values = st.one_of(
    integers,
    st.sampled_from(WORDS),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=8),
)
strays = st.one_of(st.sampled_from(COMMANDS + FLAGS), values).map(lambda word: [word])


def fitting(action: argparse.Action):
    """Values of the kind `action` parses: its choices, an integer, or a perm or record text."""
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is not None:
        return integers
    return st.permutations(range(1, 7)).map(format_perm) | st.sampled_from(RECORDS)


def option(action: argparse.Action):
    value = st.one_of(fitting(action), fitting(action), values)
    return st.tuples(st.sampled_from(action.option_strings), value).map(list)


@st.composite
def argvs(draw):
    """A subcommand (or none), then mostly its own flags, each with a value that
    usually fits, so that many lists get past the parser; stray words too."""
    command = draw(st.sampled_from([None, *COMMANDS]))
    actions = OPTIONS[command] if command else [a for actions in OPTIONS.values() for a in actions]
    options = st.sampled_from(actions).flatmap(option)
    pieces = draw(st.lists(st.one_of(options, options, options, strays), max_size=6))
    argv = ([command] if command else []) + [word for piece in pieces for word in piece]
    if command and draw(st.booleans()):  # its required flags too, so that more lists run
        argv += [word for a in OPTIONS[command] if a.required for word in (a.option_strings[0], draw(fitting(a)))]
    if argv and argv[0] in BOUNDED:  # a stray word may be the command that runs
        caps = st.integers(min_value=1, max_value=6).map(lambda n_max: ["--n-max", str(n_max)])
        argv += draw(st.one_of(caps, caps, st.sampled_from(REFUSED[argv[0]])))
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
