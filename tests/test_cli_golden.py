import cli_golden


def test_cli_transcript_matches_golden():
    # On an intended output change, regenerate the file as cli_golden's docstring says.
    assert cli_golden.transcript() == cli_golden.GOLDEN.read_text()
