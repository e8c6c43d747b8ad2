import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import star_frobenius
from star_frobenius import cli
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


@pytest.mark.parametrize(
    "argv, text, line",
    [
        (["decide", "--nfa", "-f"], "states 12\nalphabet a\ninitial 0\naccepting 1_1\n", 4),
        (["reduce"], "p cnf 3 1\n+1 -2 3 0\n", 2),
    ],
)
def test_numbers_other_than_ascii_digits_exit_2(capsys, tmp_path, argv, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [*argv, str(path)])
    assert (code, out) == (2, "")
    assert f"line {line}:" in err


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


def test_sat_over_brute_force_limit_exit_4(capsys, tmp_path):
    path = tmp_path / "wide.cnf"
    clauses = [(v, v + 1, v + 2) for v in range(1, 24, 3)] + [(23, 24, 25)]
    path.write_text(
        "p cnf 25 9\n" + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses),
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["sat", str(path)])
    assert (code, out) == (4, "")
    assert "brute-force limit of 24" in err


def test_numeric_command(capsys):
    code, env = run_json(capsys, ["numeric", "3", "5"])
    assert code == 0
    assert env["result"] == {"g": 7, "inputs": [3, 5]}


def test_numeric_gcd_exit_3(capsys):
    code, out, err = run(capsys, ["numeric", "4", "6"])
    assert code == 3
    assert "gcd" in err


def test_numeric_large_coins_exit_4_before_the_table(capsys):
    # the residue table would have min(xs) = 10^9 + 7 entries
    code, out, err = run(capsys, ["numeric", "1000000007", "1000000009"])
    assert (code, out) == (4, "")
    assert "budget" in err


def test_numeric_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STAR_FROBENIUS_BUDGET", "100")
    code, out, err = run(capsys, ["numeric", "101", "103"])
    assert (code, out) == (4, "")
    assert "budget" in err
    code, env = run_json(capsys, ["numeric", "100", "103"])
    assert code == 0
    assert env["result"] == {"g": 100 * 103 - 100 - 103, "inputs": [100, 103]}


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


def test_oracle_huge_horizon_exits_4_at_once(capsys):
    # 2**100001 - 1 words: the check stops counting at the budget
    started = time.perf_counter()
    code, out, err = run(capsys, ["oracle", "a+b", "--horizon", "100000"])
    assert time.perf_counter() - started < 1
    assert (code, out) == (4, "")
    assert "budget" in err


def test_selftest_small(capsys):
    code, env = run_json(capsys, ["selftest", "--seed", "42", "--cases", "10"])
    assert code == 0
    assert env["result"]["all_passed"] is True
    assert len(env["result"]["suites"]) == 7


def test_selftest_negative_cases_exit_2(capsys):
    code, out, err = run(capsys, ["selftest", "--cases", "-1"])
    assert (code, out) == (2, "")
    assert "cases" in err


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
    ("numeric-three-coins", ["numeric", "6", "10", "15"], {}),
    ("numeric-all-representable", ["numeric", "1", "7"], {}),
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


def golden_argv(tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return [arg.format_map({n: str(tmp_path / n) for n in files}) for arg in argv]


def golden_stdout(capsys, tmp_path, argv, files):
    code, out, err = run(capsys, golden_argv(tmp_path, argv, files))
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize(
    "name, argv, files", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES]
)
def test_golden_stdout(capsys, tmp_path, name, argv, files):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden_stdout(capsys, tmp_path, argv, files) == expected[name]


# A None entry in sys.modules makes every import of numpy raise ImportError.
WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None
from star_frobenius.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "name", ["decide-not-cofinite", "decide-nfa-widened", "reduce-decide-not-cofinite"]
)
def test_window_witness_runs_without_numpy(tmp_path, name):
    _, argv, files = next(case for case in GOLDEN_CASES if case[0] == name)
    env = dict(os.environ, PYTHONPATH=str(Path(star_frobenius.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, *golden_argv(tmp_path, argv, files)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected[name])


@pytest.mark.parametrize(
    "argv, exit_code, message",
    [
        (["frobenius", "a b"], 2, "symbol ' '"),
        (["frobenius", "--alphabet", "a", "ab"], 3, "declared alphabet is missing 'b'"),
    ],
)
def test_frobenius_error_exits(capsys, argv, exit_code, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (exit_code, "")
    assert message in err


def test_oracle_alphabet_mismatch_exit_3(capsys):
    code, out, err = run(capsys, ["oracle", "ab", "--alphabet", "a", "--horizon", "4"])
    assert code == 3
    assert out == ""
    assert "declared alphabet is missing 'b'" in err


@pytest.mark.parametrize(
    "argv, exit_code, message",
    [
        (["ab", "--alphabet", "a", "--horizon", "0"], 3, "missing 'b'"),
        (["ε", "--horizon", "3"], 2, "alphabet must be non-empty"),
        (["a", "--horizon", "0"], 2, "horizon must be >= 1"),
    ],
)
def test_oracle_error_exits(capsys, argv, exit_code, message):
    code, out, err = run(capsys, ["oracle", *argv])
    assert (code, out) == (exit_code, "")
    assert message in err


def test_oracle_takes_regex_input_only(capsys, tmp_path):
    path = tmp_path / "machine.nfa"
    path.write_text(GOLDEN_NFA, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--nfa", "-f", str(path), "--horizon", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --nfa" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--help"])
    assert info.value.code == 0
    assert "--nfa" not in capsys.readouterr().out


def test_inline_and_file_input_together_exit_2(capsys, tmp_path):
    path = tmp_path / "regex.txt"
    path.write_text("aa", encoding="utf-8")
    code, out, err = run(capsys, ["decide", "a", "-f", str(path)])
    assert (code, out) == (2, "")
    assert "not both" in err


def test_reduce_reads_standard_input(capsys, monkeypatch, tmp_path):
    path = tmp_path / "golden.cnf"
    path.write_text(GOLDEN_DIMACS, encoding="utf-8")
    from_file = run(capsys, ["reduce", str(path)])
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN_DIMACS))
    assert run(capsys, ["reduce", "-"]) == from_file
    assert from_file[0] == 0


def test_closed_stdout_exits_1_without_traceback():
    # reduce - waits for its input, so the read end of its stdout is closed
    # before it prints
    env = dict(os.environ, PYTHONPATH=str(Path(star_frobenius.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "star_frobenius.cli", "reduce", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(GOLDEN_DIMACS.encode(), timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_decide_deep_literal(capsys):
    code, env = run_json(capsys, ["decide", "ab" * 1500])
    assert code == 0
    assert env["result"]["t"] == 3000


def test_oracle_deep_literal_exit_4(capsys):
    code, out, err = run(capsys, ["oracle", "ab" * 1500, "--horizon", "4"])
    assert code == 4
    assert out == ""
    assert "depth 3000" in err


@pytest.mark.parametrize(
    "argv", [["decide", "aa"], ["reduce", "cnf.txt", "--decide"]]
)
def test_memory_error_exit_4(capsys, monkeypatch, tmp_path, argv):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 48.6 GiB for an array")

    monkeypatch.setattr(cli, "decide_cofinite", exhausted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cnf.txt").write_text(GOLDEN_DIMACS)
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 48.6 GiB for an array\n"


def test_reduce_many_clauses(capsys, tmp_path):
    n, m = 12, 1000
    lines = [f"p cnf {n} {m}"]
    for i in range(m):
        variables = (i % n + 1, (i + 1) % n + 1, (i + 3) % n + 1)
        signs = (1 - 2 * (i >> bit & 1) for bit in range(3))
        lines.append(" ".join(str(s * v) for s, v in zip(signs, variables)) + " 0")
    path = tmp_path / "many.cnf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, env = run_json(capsys, ["reduce", str(path)])
    assert code == 0
    # Each clause pattern has 3 single symbols and 9 (T+F) blocks.
    assert env["result"]["symbol_count"] == m * (3 + 2 * (n - 3)) + 2 * (n + 1)


def test_frobenius_all_words_of_length_ten(capsys):
    words = ["".join(w) for w in itertools.product("ab", repeat=10)]
    code, env = run_json(capsys, ["frobenius", *words])
    assert code == 0
    assert env["result"]["t"] == 10 * 1024


def main_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    if code == 0:
        json.loads(out.getvalue())
    return code


# Short texts keep determinization small.
regex_texts = st.text(alphabet="ab()+*ε∅ E", max_size=15)


@st.composite
def nfa_texts(draw):
    """NFA files of at most 4 states; some name a target state or a symbol
    out of range, or miss a line."""
    n = draw(st.integers(1, 4))
    ids = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda xs: " ".join(map(str, xs))
    )
    lines = [
        f"states {n}",
        f"alphabet {draw(st.sampled_from(['ab', 'a', '']))}",
        f"initial {draw(ids)}",
        f"accepting {draw(ids)}",
    ]
    edges = st.tuples(
        st.integers(0, n - 1), st.sampled_from("abc"), st.integers(0, n)
    )
    for p, a, q in draw(st.lists(edges, max_size=6)):
        lines.append(f"{p} {a} {q}")
    if draw(st.integers(0, 3)) == 3:
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(regex_texts, st.sampled_from([[], ["--alphabet", "ab"], ["--alphabet", "a"]]))
def test_decide_regex_exits_cleanly(text, extra):
    assert main_exit_code(["decide", *extra, text]) in (0, 2, 3, 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nfa_texts(), st.sampled_from([[], ["--alphabet", "abc"], ["--alphabet", "a"]]))
def test_decide_nfa_exits_cleanly(text, extra):
    assert main_exit_code(["decide", "--nfa", *extra, text]) in (0, 2, 3, 4)


@st.composite
def dimacs_texts(draw):
    """DIMACS-like texts over at most 4 variables.  Most clauses have three
    distinct variables; some texts have a clause of another size, a literal
    out of range, an unused variable, the wrong clause count or a stray line."""
    n = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        if n >= 3 and draw(st.integers(0, 5)):
            variables = draw(st.permutations(range(1, n + 1)))[:3]
        else:
            variables = draw(st.lists(st.integers(1, n + 1), min_size=1, max_size=4))
        signs = draw(st.lists(st.booleans(), min_size=4, max_size=4))
        literals = (v if s else -v for v, s in zip(variables, signs))
        lines.append(" ".join(map(str, literals)) + " 0")
    m = len(lines) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    lines[:0] = ["c drawn at random", f"p cnf {n} {m}"]
    if not draw(st.integers(0, 5)):
        stray = draw(st.sampled_from(["p cnf 2 1", "1 x 0", "0", "p", "c", "1 2 3"]))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    return "\n".join(lines) + "\n"


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(dimacs_texts())
def test_reduce_decide_exits_cleanly(tmp_path, text):
    path = tmp_path / "drawn.cnf"
    path.write_text(text, encoding="utf-8")
    assert main_exit_code(["reduce", str(path), "--decide"]) in (0, 2, 3, 4)
