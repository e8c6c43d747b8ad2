import json
from pathlib import Path

import pytest

from star_frobenius.cli import main

GOLDEN_DIMACS = """\
c all eight sign patterns over three variables
p cnf 3 8
1 2 3 0
1 2 -3 0
1 -2 3 0
1 -2 -3 0
-1 2 3 0
-1 2 -3 0
-1 -2 3 0
-1 -2 -3 0
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def test_decide_two_or_three(capsys):
    code, env = run_json(capsys, ["decide", "aa+aaa"])
    assert code == 0
    assert env["schema_version"] == "1"
    assert env["command"] == "decide"
    assert env["input_echo"] == {"alphabet": "a", "form": "regex", "regex": "aa+aaa"}
    body = env["result"]
    assert body["cofinite"] is True
    assert body["frobenius_length"] == 1
    assert body["witness"] == "a"
    assert body["window_witness"] is None
    assert body["t"] == 5
    assert "timing_ms" not in env


def test_decide_parity(capsys):
    code, env = run_json(capsys, ["decide", "aa"])
    assert code == 0
    assert env["result"]["cofinite"] is False
    assert env["result"]["window_witness"] == {"length": 3, "word": "aaa"}


def test_decide_declared_alphabet(capsys):
    code, env = run_json(capsys, ["decide", "--alphabet", "ab", "a"])
    assert code == 0
    assert env["result"]["cofinite"] is False


def test_decide_eps_alias(capsys):
    code, env = run_json(capsys, ["decide", "EPS"])
    assert code == 0
    assert env["input_echo"]["regex"] == "ε"
    assert env["result"]["cofinite"] is True


def test_decide_parse_error_exit_2(capsys):
    code, out, err = run(capsys, ["decide", "((a"])
    assert code == 2
    assert out == ""
    assert "offset 3" in err


def test_decide_alphabet_mismatch_exit_3(capsys):
    code, out, err = run(capsys, ["decide", "--alphabet", "a", "ab"])
    assert code == 3
    assert "missing" in err


def test_decide_from_file(capsys, tmp_path):
    path = tmp_path / "pattern.txt"
    path.write_text("aa+aaa\n", encoding="utf-8")
    code, env = run_json(capsys, ["decide", "-f", str(path)])
    assert code == 0
    assert env["result"]["frobenius_length"] == 1


def test_decide_nfa_file(capsys, tmp_path):
    path = tmp_path / "machine.nfa"
    path.write_text(
        "states 2\nalphabet a\ninitial 0\naccepting 1\n0 a 1\n",
        encoding="utf-8",
    )
    code, env = run_json(capsys, ["decide", "--nfa", "-f", str(path)])
    assert code == 0
    assert env["input_echo"]["form"] == "nfa"
    assert env["result"]["cofinite"] is True
    assert env["result"]["frobenius_length"] is None
    assert env["result"]["t"] is None


def test_decide_missing_input(capsys):
    code, out, err = run(capsys, ["decide"])
    assert code == 2
    assert "missing input" in err


def test_frobenius_word_set(capsys):
    code, env = run_json(capsys, ["frobenius", "aa", "aaa"])
    assert code == 0
    assert env["result"]["frobenius_length"] == 1
    assert env["input_echo"]["words"] == ["aa", "aaa"]


def test_reduce_golden(capsys, tmp_path):
    path = tmp_path / "golden.cnf"
    path.write_text(GOLDEN_DIMACS, encoding="utf-8")
    code, env = run_json(capsys, ["reduce", str(path)])
    assert code == 0
    body = env["result"]
    assert body["n"] == 3
    assert body["m"] == 8
    assert body["regex"].startswith("FFF+")
    assert body["symbol_count"] == 8 * 3 + 2 * 3 + 2


def test_reduce_decide_chains(capsys, tmp_path):
    path = tmp_path / "golden.cnf"
    path.write_text(GOLDEN_DIMACS, encoding="utf-8")
    code, env = run_json(capsys, ["reduce", str(path), "--decide"])
    assert code == 0
    decision = env["result"]["decision"]
    assert decision["cofinite"] is True
    assert decision["frobenius_length"] == 5
    assert decision["witness"] == "FFFFF"


def test_reduce_tautology_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 -1 2 0\n", encoding="utf-8")
    code, out, err = run(capsys, ["reduce", str(path)])
    assert code == 2
    assert "tautology" in err


def test_sat_command(capsys, tmp_path):
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 3 1\n1 -2 3 0\n", encoding="utf-8")
    code, env = run_json(capsys, ["sat", str(path)])
    assert code == 0
    assert env["result"] == {
        "satisfiable": True,
        "assignment": [False, False, False],
    }

    golden = tmp_path / "golden.cnf"
    golden.write_text(GOLDEN_DIMACS, encoding="utf-8")
    code, env = run_json(capsys, ["sat", str(golden)])
    assert code == 0
    assert env["result"] == {"satisfiable": False, "assignment": None}


def test_numeric_command(capsys):
    code, env = run_json(capsys, ["numeric", "3", "5"])
    assert code == 0
    assert env["result"] == {"g": 7, "inputs": [3, 5]}


def test_numeric_gcd_exit_3(capsys):
    code, out, err = run(capsys, ["numeric", "4", "6"])
    assert code == 3
    assert "gcd" in err


def test_oracle_command(capsys):
    code, env = run_json(
        capsys, ["oracle", "aa+aaa", "--horizon", "10", "--bound", "3"]
    )
    assert code == 0
    body = env["result"]
    assert body["conclusive"] is True
    assert body["verdict"] == {
        "cofinite": True,
        "frobenius_length": 1,
        "witness": "a",
    }
    assert body["missing"] == [{"length": 1, "count": 1, "smallest": "a"}]


def test_oracle_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STAR_FROBENIUS_BUDGET", "10")
    code, out, err = run(
        capsys, ["oracle", "a+b", "--horizon", "4"]
    )
    assert code == 4
    assert "budget" in err


def test_selftest_small(capsys):
    code, env = run_json(capsys, ["selftest", "--seed", "42", "--cases", "10"])
    assert code == 0
    assert env["result"]["all_passed"] is True
    assert len(env["result"]["suites"]) == 7


def test_text_format(capsys):
    code, out, err = run(capsys, ["decide", "aa+aaa", "--format", "text"])
    assert code == 0
    assert 'frobenius_length: 1' in out
    assert err == ""


def test_timing_flag_adds_field(capsys):
    code, env = run_json(capsys, ["decide", "a", "--timing"])
    assert code == 0
    assert isinstance(env["timing_ms"], int)


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, ["decide", "aa+aaa"])
    _, second, _ = run(capsys, ["decide", "aa+aaa"])
    assert first == second


# Default stdout pinned byte for byte.  Each case is (name, argv, files):
# "{name}" in argv is replaced by the path of a file written from ``files``.
GOLDEN_NFA = """\
states 4
alphabet a
initial 0
accepting 2 3
0 a 1
1 a 2
2 a 3
"""
GOLDEN_CASES = [
    ("decide-missing-word", ["decide", "aa+aaa"], {}),
    ("decide-nothing-missing", ["decide", "a+b"], {}),
    ("decide-not-cofinite", ["decide", "aa"], {}),
    ("decide-widened-alphabet", ["decide", "--alphabet", "abc", "aa+aaa+b"], {}),
    ("decide-widened-not-cofinite", ["decide", "--alphabet", "ab", "a"], {}),
    ("decide-nfa", ["decide", "--nfa", "-f", "{machine}"], {"machine": GOLDEN_NFA}),
    (
        "decide-nfa-widened",
        ["decide", "--nfa", "--alphabet", "ab", "-f", "{machine}"],
        {"machine": GOLDEN_NFA},
    ),
    ("decide-text", ["decide", "aa", "--format", "text"], {}),
    ("frobenius-missing-word", ["frobenius", "aa", "aaa"], {}),
    ("frobenius-widened", ["frobenius", "--alphabet", "ab", "a", "ab", "b"], {}),
    ("frobenius-text", ["frobenius", "ab", "ba", "--format", "text"], {}),
    (
        "reduce-decide-cofinite",
        ["reduce", "{golden}", "--decide"],
        {"golden": GOLDEN_DIMACS},
    ),
    (
        "reduce-decide-not-cofinite",
        ["reduce", "{one}", "--decide"],
        {"one": "p cnf 3 1\n1 -2 3 0\n"},
    ),
    (
        "reduce-decide-text",
        ["reduce", "{golden}", "--decide", "--format", "text"],
        {"golden": GOLDEN_DIMACS},
    ),
]
GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")


def golden_stdout(capsys, tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.format_map({n: str(tmp_path / n) for n in files}) for arg in argv]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize(
    "name, argv, files", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES]
)
def test_golden_stdout(capsys, tmp_path, name, argv, files):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden_stdout(capsys, tmp_path, argv, files) == expected[name]


def test_oracle_alphabet_mismatch_exit_3(capsys):
    code, out, err = run(capsys, ["oracle", "ab", "--alphabet", "a", "--horizon", "4"])
    assert code == 3
    assert out == ""
    assert "declared alphabet is missing 'b'" in err
