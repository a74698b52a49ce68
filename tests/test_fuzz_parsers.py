"""Property-based fuzzing of the text parsers and of the CLI commands that take text."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, strategies as st

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
