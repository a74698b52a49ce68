import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import altperms.cli as cli
import altperms.decompose as decompose_module
import altperms.enumeration as enumeration_module
from altperms.enumeration import GenerationFilter, count
from altperms.formulas import OutOfValidityRange
from altperms.perm_core import AlternationClass, PATTERN_321


SRC = Path(__file__).resolve().parent.parent / "src"


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


def limit_request(key, size):
    """The argv of the request that a row of `cli._LIMITS` selects, at `size`, and its size flag.
    The oracle's row for every larger target, "--exactly 5+", is requested with --exactly 5."""
    command, *words = key.replace("5+", "5").split()
    if command != "count":
        pattern = ["--pattern", "123"] if command == "sequence" else []
        return [command, *pattern, *words, "--n-max", str(size)], "--n-max"
    if words != ["--method", "oracle"] and "--exactly" not in words:  # the formula methods count one 321
        words += ["--exactly", "1"]
    pattern = ["--pattern", "321"] if "--exactly" in words else []  # the plain oracle row: no pattern
    return ["count", *pattern, *words, "--n", str(size)], "--n"


def row_id(key):
    return key.replace(" --", "-").replace(" ", "-")


#: The rows whose requests are exactly-one requests closed_form also answers.
REACHED_BY_CLOSED_FORM = {
    "count --method oracle --exactly 1", "count --method convolution", "count --method decomposition_sum",
    "count --method bijection", "sequence --method oracle",
}


@pytest.mark.parametrize("key", sorted(cli._LIMITS), ids=row_id)
def test_refused_past_limit(capsys, monkeypatch, key):
    def never(*args):
        raise AssertionError(f"{key} ran past its limit")

    for name in ("_count", "_identity_families"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(enumeration_module, "table1_oracle", never)
    monkeypatch.setattr(cli, "_SUITES", [("never", "oracle", never)])
    limit = cli._LIMITS[key]
    for size in (limit + 1, 10**20):
        argv, flag = limit_request(key, size)
        code, lines, err = run_lines(capsys, argv)
        assert (code, lines) == (1, [])
        message = f"{flag} {size}: {key} stops at {flag} {limit}"
        if key in REACHED_BY_CLOSED_FORM:
            message += f"; --method closed_form reaches {flag} {cli._LIMITS[argv[0] + ' --method closed_form']}"
        assert err == message + "\n"


@pytest.mark.parametrize("target", [5, 10**20])
def test_count_oracle_targets_past_the_table_share_one_row(capsys, monkeypatch, target):
    # every target from 5 on reads the row "--exactly 5+", no higher than the unrestricted row: a
    # scored walk is a subtree of the unrestricted one, but scores every node above its tail
    monkeypatch.setattr(enumeration_module, "count", lambda filt: filt.length)
    argv = ["count", "--pattern", "123", "--method", "oracle", "--exactly", str(target), "--n"]
    limit = cli._LIMITS["count --method oracle --exactly 5+"]
    assert limit <= cli._LIMITS["count --method oracle"]
    code, lines, _ = run_lines(capsys, argv + [str(limit)])
    assert (code, lines[0]["value"]) == (0, str(limit))
    code, lines, err = run_lines(capsys, argv + [str(limit + 1)])
    assert (code, lines) == (1, [])
    assert err == f"--n {limit + 1}: count --method oracle --exactly 5+ stops at --n {limit}\n"


@pytest.mark.parametrize("n", [cli._LIMITS["count --method oracle"] + 1, 40])
def test_count_unrestricted_refused_above_limit(capsys, monkeypatch, n):
    def never(filt):
        raise AssertionError(f"the oracle ran at n = {filt.length}")

    monkeypatch.setattr(enumeration_module, "count", never)
    code, lines, err = run_lines(capsys, ["count", "--class", "UD", "--n", str(n)])
    assert code == 1
    assert lines == []
    limit = cli._LIMITS["count --method oracle"]
    assert err == f"--n {n}: count --method oracle stops at --n {limit}\n"


def test_count_unrestricted_at_limit_reaches_the_oracle(capsys, monkeypatch):
    monkeypatch.setattr(enumeration_module, "count", lambda filt: filt.length)  # stands in for E_16's ~17-19 s
    limit = cli._LIMITS["count --method oracle"]
    code, lines, _ = run_lines(capsys, ["count", "--class", "UD", "--n", str(limit)])
    assert code == 0
    assert lines[0]["value"] == str(limit)


COUNT_ROWS = sorted(key for key in cli._LIMITS if key.startswith("count "))


@pytest.mark.parametrize("key", [key for key in COUNT_ROWS if key != "count --method oracle"], ids=row_id)
def test_count_at_limit_runs(capsys, monkeypatch, key):
    # each stands in for up to about a minute at the limit
    for name in ("a_n", "decomposition_sum", "convolution_odd_321", "convolution_even_321"):
        monkeypatch.setattr(cli, name, lambda *args: 7)
    monkeypatch.setattr(decompose_module, "enumerate_by_decomposition", lambda *args: range(7))
    monkeypatch.setattr(enumeration_module, "count", lambda filt: 7)
    argv, _ = limit_request(key, cli._LIMITS[key])
    code, lines, _ = run_lines(capsys, argv)
    assert code == 0
    assert lines[0]["value"] == "7"


def test_count_prints_values_past_the_int_to_str_limit(capsys):
    # str() refuses ints over 4300 digits unless the process-wide limit is raised
    code, lines, _ = run_lines(capsys, ["count", "--pattern", "321", "--n", "14500", "--exactly", "1"])
    assert code == 0
    value = lines[0]["value"]
    assert (len(value), value[:12], value[-6:]) == (4361, "251419374844", "794560")


@pytest.mark.parametrize("digits", [0, 640, 4300])
def test_text_prints_ints_either_side_of_the_decimal_cutoff(digits):
    # ints that str() refuses go through Decimal; both sides print whole, and 0 means no limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        edges = (2 ** (3 * digits) - 1, 2 ** (3 * digits), 10**digits - 1, 10**digits, -(10**digits))
        for value in (0, -1, 66, 10**700, 10**5000 + 1, *edges):
            assert cli._text(value) == str(Decimal(value))
        assert cli._text("pass") == "pass"
    finally:
        sys.set_int_max_str_digits(saved)


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


def test_verify_identity_at_limit_runs_its_families(capsys, monkeypatch):
    # stands in for about a minute of sums at the limit
    monkeypatch.setattr(cli, "_identity_families", lambda bound: [("odd", "m_max", "convolution", iter([({}, 1, 1)]))])
    limit = cli._LIMITS["verify-identity"]
    code, lines, _ = run_lines(capsys, ["verify-identity", "--n-max", str(limit)])
    assert code == 0
    assert [(line["inputs"], line["value"]) for line in lines] == [({"family": "odd", "m_max": limit}, "1")]


def test_identity_families_keep_their_own_checks_when_built_up_front():
    # checks that read the loop's variables late would all run the last family's sums
    families = list(cli._identity_families(6))
    assert [family for family, *_ in families] == ["even_321", "odd", "decomposition_UD", "decomposition_DU"]
    for family, _, _, checks in families:
        checks = list(checks)
        assert checks
        assert all(inputs["family"] == family and expected == actual for inputs, expected, actual in checks)


def test_selftest_at_limit_runs_every_suite(capsys, monkeypatch):
    def stub(n_max):  # stands in for the suites' ~24 s at the limit
        return iter([({"n": n_max}, n_max, n_max)])

    monkeypatch.setattr(cli, "_SUITES", [("first", "oracle", stub), ("second", "closed_form", stub)])
    limit = cli._LIMITS["selftest"]
    code, lines, _ = run_lines(capsys, ["selftest", "--n-max", str(limit)])
    assert code == 0
    assert [(line["inputs"]["suite"], line["value"], line["checks"]) for line in lines] == [
        ("first", "pass", 1),
        ("second", "pass", 1),
    ]


@pytest.mark.parametrize("method", ["closed_form", "oracle"])
def test_sequence_at_limit_counts_every_length(capsys, monkeypatch, method):
    # stands in for up to a minute of counts at the limit: closed_form reads one stream per
    # parity of n, which here yields its lengths, and the oracle counts each length
    monkeypatch.setattr(cli, "_closed_forms", lambda cls, lengths: iter(lengths))
    monkeypatch.setattr(cli, "_count", lambda pattern, cls, n, exactly, method: n)
    limit = cli._LIMITS[f"sequence --method {method}"]
    code, lines, _ = run_lines(capsys, ["sequence", "--pattern", "321", "--method", method, "--n-max", str(limit)])
    assert code == 0
    assert [line["value"] for line in lines] == [str(n) for n in range(3, limit + 1)]
    assert {line["method"] for line in lines} == {method}


def test_verify_table_at_limit_checks_every_cell(capsys, monkeypatch):
    def formula_or_zero(cls, n, statistic):  # stands in for the oracle's ~41 s at the limit
        try:
            return cli.table1_formula(cls, n, statistic)
        except OutOfValidityRange:
            return 0

    monkeypatch.setattr(enumeration_module, "table1_oracle", formula_or_zero)
    limit = cli._LIMITS["verify-table"]
    code, lines, _ = run_lines(capsys, ["verify-table", "--n-max", str(limit)])
    assert code == 0
    assert (lines[-1]["inputs"], lines[-1]["value"]) == ({"n_max": limit}, str((limit + 1) * 2 * 3))


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


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--perm", "1,4,3,5,2,6"],
        ["reconstruct", "--record", "n=6;class=UD;j=3;U=1,3,2;V=2,3,1,4"],
    ],
)
def test_broken_rebuild_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(decompose_module, "_rebuild", lambda record: (2, 4, 3, 5, 1, 6))
    code, lines, err = run_lines(capsys, argv)
    assert code == 2
    assert lines == []
    assert err.startswith("verification failure:")


def test_decompose_hints_at_reversal_for_unique_123(capsys):
    # 1,4,2,3 contains 123 once and 321 never: out of domain, but fixable
    code, _, err = run_lines(capsys, ["decompose", "--perm", "1,4,2,3"])
    assert code == 1
    assert "reversal" in err or "3,2,4,1" in err


def test_decompose_long_host_without_321_exits_1_without_hint(capsys):
    # 1,3,2,5,4,...,999,998,1000 has no 321 and ~10^8 123s; neither is listed
    w = [1] + [v for top in range(3, 1000, 2) for v in (top, top - 1)] + [1000]
    code, lines, err = run_lines(capsys, ["decompose", "--perm", ",".join(map(str, w))])
    assert code == 1
    assert lines == []
    assert err == "error: expected exactly one 321 occurrence, found 0\n"


@pytest.mark.parametrize("argv", [["--help"], ["count", "-h"]])
def test_help_returns_0(capsys, argv):
    code, lines, err = run_lines(capsys, argv)
    assert code == 0
    assert lines == []  # help goes to stderr: stdout carries JSON lines only
    assert err.startswith("usage: altperms")


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


# (the dotted name where cli reads the function, wrong replacement, failing suite, mismatch inputs,
# expected, actual)
SELFTEST_SABOTAGES = [
    ("altperms.cli.a_n", lambda spec, n: -1, "closed_form_vs_oracle", {"pattern": "321", "class": "UD", "n": 3}, "-1", "0"),
    ("altperms.cli.table1_formula", lambda cls, n, statistic: -1, "table1", {"class": "UD", "n": 0, "statistic": "total"}, "-1", "1"),
    ("altperms.cli.closed_form_even_321", lambda m: -1, "identities", {"family": "even_321", "m": 2}, "-1", "0"),
    ("altperms.decompose.reconstruct", lambda record: (), "bijection", {"class": "DU", "perm": "3,2,4,1"},
     "3,2,4,1", "n=4;class=DU;j=2;U=2,1;V=2,3,1"),
    ("altperms.cli.euler_zigzag", lambda n: 7, "zigzag", {"n": 0}, "7", "1"),
    ("altperms.cli.reverse", lambda w: tuple(w), "symmetry", {"class": "UD", "n": 4},
     "reversal maps UD one-123 onto DU one-321", "sets differ"),
    # only the odd lengths, where reversal keeps the class
    ("altperms.cli.reverse", lambda w: tuple(w) if len(w) % 2 else tuple(reversed(w)), "symmetry", {"class": "UD", "n": 5},
     "reversal maps UD one-123 onto UD one-321", "sets differ"),
]


def test_selftest_reports_first_counterexample(capsys, monkeypatch):
    for target, fake, suite, where, expected, actual in SELFTEST_SABOTAGES:
        with monkeypatch.context() as patch:
            patch.setattr(target, fake)
            code, lines, err = run_lines(capsys, ["selftest", "--n-max", "5"])
        assert code == 2, target
        (mismatch,) = [line for line in lines if line.get("error") == "mismatch"]
        assert mismatch["inputs"] == {"suite": suite, **where}
        assert (mismatch["expected"], mismatch["actual"]) == (expected, actual)
        assert lines[-1]["value"] == "fail"
        assert lines[-1]["inputs"] == {"suite": suite, "n_max": 5}
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


def test_cli_import_skips_heavy_modules():
    # -S keeps site's .pth files from preloading modules; the CLI itself must not load these.
    probe = "import sys, altperms.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(("argv", "loaded"), [
    ([], []),  # the import alone
    (["count", "--pattern", "321", "--n", "8", "--exactly", "1", "--method", "closed_form"], []),
    (["sequence", "--pattern", "123", "--n-max", "10"], []),
    (["verify-identity", "--n-max", "20"], []),
    (["count", "--pattern", "321", "--n", "8", "--exactly", "1", "--method", "oracle"], ["altperms.enumeration"]),
    (["decompose", "--perm", "1,4,3,5,2,6"], ["altperms.decompose", "altperms.enumeration"]),
], ids=["import", "count closed_form", "sequence", "verify-identity", "count oracle", "decompose"])
def test_cli_commands_load_only_the_layers_they_run(argv, loaded):
    # a fresh process compiles every module it imports: a formula command pays for neither the
    # oracle nor the bijection, an oracle count for the oracle alone
    run = f"assert cli.run({argv!r}) == 0; " if argv else ""
    probe = (f"import sys, altperms.cli as cli; {run}"
             "print(sorted({'altperms.enumeration', 'altperms.decompose'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines()[-1] == str(loaded)


def test_cli_import_leaves_the_zigzag_table_unbuilt():
    # the oracle walk builds each of its tables on first use, so CLI start-up pays nothing for them
    probe = ("import altperms.cli, altperms.enumeration as e; "
             "print([f.cache_info().currsize for f in (e._order_scores, e._tails)])")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[0, 0]\n", "")
