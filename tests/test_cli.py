import json

import pytest

import altperms.cli as cli
from altperms.enumeration import GenerationFilter, count
from altperms.perm_core import AlternationClass, PATTERN_321


def run_lines(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, lines, captured.err


def test_count_default_method_is_closed_form(capsys):
    code, lines, _ = run_lines(capsys, ["count", "--pattern", "321", "--class", "UD", "--n", "8", "--exactly", "1"])
    assert code == 0
    (line,) = lines
    assert line["value"] == "66"
    assert line["method"] == "closed_form"
    assert line["inputs"]["pattern"] == "321"
    assert isinstance(line["elapsed_ms"], int)


@pytest.mark.parametrize("method", ["oracle", "closed_form", "convolution", "decomposition_sum", "bijection"])
def test_count_methods_agree(capsys, method):
    code, lines, _ = run_lines(
        capsys,
        ["count", "--pattern", "321", "--class", "UD", "--n", "8", "--exactly", "1", "--method", method],
    )
    assert code == 0
    assert lines[0]["value"] == "66"
    assert lines[0]["method"] == method


def test_count_123_even_all_supported_methods(capsys):
    for method in ("oracle", "closed_form", "decomposition_sum", "bijection"):
        code, lines, _ = run_lines(
            capsys,
            ["count", "--pattern", "123", "--class", "UD", "--n", "6", "--exactly", "1", "--method", method],
        )
        assert code == 0
        assert lines[0]["value"] == "10"


def test_count_convolution_unavailable_for_even_123(capsys):
    code, _, err = run_lines(
        capsys,
        ["count", "--pattern", "123", "--class", "UD", "--n", "6", "--exactly", "1", "--method", "convolution"],
    )
    assert code == 1
    assert "convolution" in err


def test_count_unrestricted_matches_zigzag(capsys):
    code, lines, _ = run_lines(capsys, ["count", "--class", "DU", "--n", "7"])
    assert code == 0
    assert lines[0]["value"] == "272"
    assert lines[0]["method"] == "oracle"


def test_count_exactly_two_uses_oracle(capsys):
    expected = count(GenerationFilter(AlternationClass.UP_DOWN, 6, exact_occurrences=(PATTERN_321, 2)))
    code, lines, _ = run_lines(capsys, ["count", "--pattern", "321", "--n", "6", "--exactly", "2"])
    assert code == 0
    assert lines[0]["value"] == str(expected)
    assert lines[0]["method"] == "oracle"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "5", "--pattern", "321"],  # --pattern without --exactly
        ["count", "--n", "5", "--exactly", "1"],  # --exactly without --pattern
        ["count", "--n", "5", "--method", "closed_form"],  # unrestricted non-oracle
        ["count", "--pattern", "321", "--n", "5", "--exactly", "2", "--method", "closed_form"],
        ["count", "--pattern", "213", "--n", "5", "--exactly", "1"],  # unsupported pattern
        ["count", "--pattern", "321", "--n", "0", "--exactly", "1"],  # --n must be positive
        ["count"],  # missing --n
        ["bogus-command"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, lines, err = run_lines(capsys, argv)
    assert code == 1
    assert err


def test_sequence_frozen_values(capsys):
    code, lines, _ = run_lines(capsys, ["sequence", "--pattern", "123", "--n-max", "10"])
    assert code == 0
    assert [line["inputs"]["n"] for line in lines] == list(range(3, 11))
    assert [line["value"] for line in lines] == ["0", "2", "5", "10", "26", "40", "108", "150"]


def test_sequence_oracle_agrees_with_closed_form(capsys):
    code, closed, _ = run_lines(capsys, ["sequence", "--pattern", "321", "--n-max", "8"])
    code2, oracle, _ = run_lines(capsys, ["sequence", "--pattern", "321", "--n-max", "8", "--method", "oracle"])
    assert code == code2 == 0
    assert [line["value"] for line in closed] == [line["value"] for line in oracle]


def test_verify_table_passes_and_logs_out_of_validity(capsys):
    code, lines, _ = run_lines(capsys, ["verify-table", "--n-max", "6"])
    assert code == 0
    notes = [line for line in lines if line.get("note") == "out_of_validity"]
    # UD n in {0,1,2} and DU n=1 fall below the validity bounds: 12 cells
    assert len(notes) == 12
    assert all(line["method"] == "oracle" for line in notes)
    summary = lines[-1]
    assert summary["inputs"] == {"n_max": 6}
    assert summary["value"] == str(7 * 2 * 3)


def test_verify_identity_passes(capsys):
    code, lines, _ = run_lines(capsys, ["verify-identity", "--n-max", "40"])
    assert code == 0
    assert [line["inputs"]["family"] for line in lines] == [
        "even_321",
        "odd",
        "decomposition_UD",
        "decomposition_DU",
    ]


def test_verify_identity_detects_sabotage(capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_form_odd", lambda m: 10**9)
    code, lines, err = run_lines(capsys, ["verify-identity", "--n-max", "10"])
    assert code == 2
    assert any(line.get("error") == "mismatch" for line in lines)
    assert "mismatch" in err


def test_decompose_and_reconstruct_roundtrip(capsys):
    code, lines, _ = run_lines(capsys, ["decompose", "--perm", "1,4,3,5,2,6"])
    assert code == 0
    record_text = lines[0]["value"]
    assert record_text == "n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4"
    code, lines, _ = run_lines(capsys, ["reconstruct", "--record", record_text])
    assert code == 0
    assert lines[0]["value"] == "1,4,3,5,2,6"


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--perm", "1,3,2,4"],  # no 321 occurrence
        ["decompose", "--perm", "1,2,3,4"],  # not alternating
        ["decompose", "--perm", "1,2,2"],  # not a permutation
        ["reconstruct", "--record", "n=4;class=UD;j=2;U=1,2;V=3,1,2"],  # invalid record
        ["reconstruct", "--record", "garbage"],
    ],
)
def test_domain_errors_exit_1(capsys, argv):
    code, _, err = run_lines(capsys, argv)
    assert code == 1
    assert err


def test_decompose_hints_at_reversal_for_unique_123(capsys):
    # 1,4,2,3 contains 123 once and 321 never: out of domain, but fixable
    code, _, err = run_lines(capsys, ["decompose", "--perm", "1,4,2,3"])
    assert code == 1
    assert "reversal" in err or "3,2,4,1" in err


def test_selftest_small_bound(capsys):
    code, lines, _ = run_lines(capsys, ["selftest", "--n-max", "5"])
    assert code == 0
    assert [line["inputs"]["suite"] for line in lines] == [
        "closed_form_vs_oracle",
        "table1",
        "identities",
        "bijection",
        "zigzag",
        "symmetry",
    ]
    assert all(line["value"] == "pass" for line in lines)
    assert all(line["checks"] > 0 for line in lines)


# (name in cli, wrong replacement, failing suite, mismatch inputs, expected, actual)
SELFTEST_SABOTAGES = [
    ("a_n", lambda spec, n: -1, "closed_form_vs_oracle", {"pattern": "321", "class": "UD", "n": 3}, "-1", "0"),
    ("table1_formula", lambda cls, n, statistic: -1, "table1", {"class": "UD", "n": 0, "statistic": "total"}, "-1", "1"),
    ("closed_form_even_321", lambda m: -1, "identities", {"family": "even_321", "m": 2}, "-1", "0"),
    ("reconstruct", lambda record: (), "bijection", {"class": "DU", "perm": "3,2,4,1"},
     "3,2,4,1", "n=4;class=DU;j=2;U=2,1;V=2,3,1"),
    ("euler_zigzag", lambda n: 7, "zigzag", {"n": 0}, "7", "1"),
    ("count_occurrences", lambda w, p: len(w) if p == (1, 2, 3) else 0, "symmetry", {"perm": "1"},
     "equal counts", "unequal"),
]


def test_selftest_reports_first_counterexample(capsys, monkeypatch):
    for name, fake, suite, where, expected, actual in SELFTEST_SABOTAGES:
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, fake)
            code, lines, err = run_lines(capsys, ["selftest", "--n-max", "4"])
        assert code == 2, name
        (mismatch,) = [line for line in lines if line.get("error") == "mismatch"]
        assert mismatch["inputs"] == {"suite": suite, **where}
        assert (mismatch["expected"], mismatch["actual"]) == (expected, actual)
        assert lines[-1]["value"] == "fail"
        assert lines[-1]["inputs"] == {"suite": suite, "n_max": 4}
        assert [line["value"] for line in lines[:-2]] == ["pass"] * (len(lines) - 2)
        assert err == f"selftest: mismatch at {mismatch['inputs']}: expected {expected}, got {actual}\n"


def test_verify_table_detects_sabotage(capsys, monkeypatch):
    formula = cli.table1_formula
    monkeypatch.setattr(cli, "table1_formula", lambda cls, n, statistic: formula(cls, n, statistic) + (n == 6))
    code, lines, err = run_lines(capsys, ["verify-table", "--n-max", "8"])
    assert code == 2
    assert len(lines) == 6 * 2 * 3 + 1  # every cell below n = 6, then the first n = 6 cell
    assert lines[-1]["inputs"] == {"class": "UD", "n": 6, "statistic": "total"}
    assert (lines[-1]["error"], lines[-1]["expected"], lines[-1]["actual"]) == ("mismatch", "15", "14")
    assert "verify-table: mismatch" in err


def test_all_output_lines_are_json_objects(capsys):
    for argv in (
        ["count", "--pattern", "123", "--class", "DU", "--n", "7", "--exactly", "1"],
        ["verify-table", "--n-max", "4"],
        ["selftest", "--n-max", "4"],
    ):
        code, lines, _ = run_lines(capsys, argv)
        assert code == 0
        assert lines
        for line in lines:
            assert {"command", "inputs", "elapsed_ms"} <= set(line)
