import shlex

import pytest

import cli_golden

GOLDEN = cli_golden.golden_entries()


def _case_id(case) -> str:
    target, _, argv = case
    return shlex.join(argv) if target is None else f"{target} replaced: {shlex.join(argv)}"


def test_golden_has_one_entry_per_case():
    # With every case below equal to its entry, this makes the whole transcript equal the file.
    assert len(GOLDEN) == len(cli_golden.CASES)


@pytest.mark.parametrize("index", range(len(cli_golden.CASES)),
                         ids=[_case_id(case) for case in cli_golden.CASES])
def test_cli_entry_matches_golden(index):
    # On an intended output change, regenerate the file as cli_golden's docstring says.
    assert cli_golden.entry(*cli_golden.CASES[index]) == GOLDEN[index]
