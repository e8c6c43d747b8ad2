"""Command-line interface.

Every command prints one envelope::

    {
      "schema_version": "1",
      "command": "...",
      "input_echo": {...normalized input...},
      "result": {...command-specific body...}
    }

JSON output is deterministic (sorted keys); ``--timing`` adds a
``timing_ms`` field and is off by default so that identical invocations
stay byte-identical.  Exit codes: 0 success, 2 input error, 3 semantic
error (alphabet mismatch, gcd), 4 enumeration budget exceeded, 1 internal
failure or selftest property violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .automata import Nfa, parse_nfa
from .errors import BudgetExceeded, InputError, SemanticError
from .frobenius import (
    CofiniteResult,
    decide_cofinite,
    frobenius_of_finite_set,
    numeric_frobenius,
)
from .oracle import DEFAULT_BUDGET, bruteforce_cofinite
from .reduction import cnf_to_regex, parse_dimacs, sat_bruteforce
from .regex import (
    Alphabet,
    RegexAst,
    alphabet_of,
    format_regex,
    parse_regex,
    resolve_alphabet,
    symbol_length,
)
from .selftest import run_selftest

BUDGET_ENV_VAR = "STAR_FROBENIUS_BUDGET"


def _read_source(args) -> str:
    if args.file is not None:
        if args.pattern is not None:
            raise ValueError("give the input inline or with -f, not both")
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    if args.pattern is None:
        raise ValueError("missing input: pass it inline or with -f FILE")
    return args.pattern


def _parse_alphabet(text: str | None) -> Alphabet | None:
    return None if text is None else Alphabet(text)


def _load_input(args) -> tuple[RegexAst | Nfa, dict]:
    text = _read_source(args)
    if args.nfa:
        nfa = parse_nfa(text)
        echo = {
            "form": "nfa",
            "nfa_states": nfa.state_count,
            "alphabet": "".join(nfa.alphabet),
        }
        return nfa, echo
    ast = parse_regex(text)
    return ast, {"form": "regex", "regex": format_regex(ast)}


def _decide_body(result: CofiniteResult) -> dict:
    window = result.window_witness
    return {
        "cofinite": result.cofinite,
        "frobenius_length": result.frobenius_length,
        "witness": result.witness,
        "window_witness": (
            None if window is None else {"length": window[0], "word": window[1]}
        ),
        "dfa_states": result.dfa_states,
        "nfa_states": result.nfa_states,
        "t": result.symbol_count,
    }


def cmd_decide(args) -> tuple[dict, dict, int]:
    source, echo = _load_input(args)
    inferred = source.alphabet if isinstance(source, Nfa) else alphabet_of(source)
    effective = resolve_alphabet(inferred, _parse_alphabet(args.alphabet))
    echo["alphabet"] = "".join(effective)
    return echo, _decide_body(decide_cofinite(source, effective)), 0


def cmd_frobenius(args) -> tuple[dict, dict, int]:
    words = list(args.words)
    if args.alphabet is not None:
        alphabet = Alphabet(args.alphabet)
    else:
        alphabet = Alphabet(sorted({ch for word in words for ch in word}))
    result = frobenius_of_finite_set(words, alphabet)
    echo = {"words": sorted(set(words)), "alphabet": "".join(alphabet)}
    return echo, _decide_body(result), 0


def _read_cnf(path: str):
    if path == "-":
        return parse_dimacs(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


def cmd_reduce(args) -> tuple[dict, dict, int]:
    cnf = _read_cnf(args.cnf)
    ast = cnf_to_regex(cnf)
    body = {
        "regex": format_regex(ast),
        "n": cnf.variable_count,
        "m": len(cnf.clauses),
        "symbol_count": symbol_length(ast),
    }
    if args.decide:
        body["decision"] = _decide_body(decide_cofinite(ast))
    echo = {
        "variables": cnf.variable_count,
        "clauses": [list(clause) for clause in cnf.clauses],
    }
    return echo, body, 0


def cmd_sat(args) -> tuple[dict, dict, int]:
    cnf = _read_cnf(args.cnf)
    assignment = sat_bruteforce(cnf)
    body = {
        "satisfiable": assignment is not None,
        "assignment": None if assignment is None else list(assignment),
    }
    echo = {
        "variables": cnf.variable_count,
        "clauses": [list(clause) for clause in cnf.clauses],
    }
    return echo, body, 0


def cmd_numeric(args) -> tuple[dict, dict, int]:
    result = numeric_frobenius(args.integers)
    return (
        {"inputs": list(result.inputs)},
        {"inputs": list(result.inputs), "g": result.g},
        0,
    )


def cmd_oracle(args) -> tuple[dict, dict, int]:
    source, echo = _load_input(args)
    if isinstance(source, Nfa):
        raise ValueError("the oracle command takes a regex, not an NFA")
    alphabet = resolve_alphabet(alphabet_of(source), _parse_alphabet(args.alphabet))
    budget = int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET))
    report = bruteforce_cofinite(
        source, alphabet, args.horizon, args.bound, budget=budget
    )
    echo.update(
        {
            "alphabet": "".join(alphabet),
            "horizon": args.horizon,
            "bound": args.bound,
        }
    )
    verdict = report.verdict
    body = {
        "horizon": report.horizon,
        "missing": [
            {"length": row.length, "count": row.count, "smallest": row.smallest}
            for row in report.missing
        ],
        "conclusive": report.conclusive,
        "verdict": (
            None
            if verdict is None
            else {
                "cofinite": verdict.cofinite,
                "frobenius_length": verdict.frobenius_length,
                "witness": verdict.witness,
            }
        ),
    }
    return echo, body, 0


def cmd_selftest(args) -> tuple[dict, dict, int]:
    results = run_selftest(args.seed, args.cases)
    body = {
        "suites": [
            {
                "name": r.name,
                "cases": r.cases,
                "failures": list(r.failures),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    echo = {"seed": args.seed, "cases": args.cases}
    return echo, body, 0 if body["all_passed"] else 1


def _render_text(value, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(inner, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {json.dumps(inner)}")
    elif isinstance(value, list):
        if not value:
            lines.append(f"{indent}(none)")
        for inner in value:
            if isinstance(inner, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_render_text(inner, indent + "  "))
            else:
                lines.append(f"{indent}- {json.dumps(inner)}")
    else:
        lines.append(f"{indent}{json.dumps(value)}")
    return lines


def _emit(command: str, echo: dict, body: dict, args, elapsed_ms: int) -> None:
    envelope = {
        "schema_version": "1",
        "command": command,
        "input_echo": echo,
        "result": body,
    }
    if args.timing:
        envelope["timing_ms"] = elapsed_ms
    if args.format == "json":
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(envelope)))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output format (default: json)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include timing_ms in the envelope (breaks byte-identity)",
    )


def _add_regex_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("pattern", nargs="?", help="inline regex text")
    parser.add_argument("-f", "--file", help="read the input from a file")
    parser.add_argument(
        "--nfa",
        action="store_true",
        help="treat the input as an NFA description instead of a regex",
    )
    parser.add_argument("--alphabet", help="declared alphabet, e.g. 'ab'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-frobenius",
        description=(
            "Decide whether the Kleene closure of a regular expression or "
            "NFA is co-finite, and if so find the longest missing word."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="run the co-finiteness decision")
    _add_regex_input(p)
    _add_common(p)
    p.set_defaults(handler=cmd_decide)

    p = sub.add_parser(
        "frobenius", help="decide for an explicit finite set of words"
    )
    p.add_argument("words", nargs="*", help="the words ('' for the empty word)")
    p.add_argument("--alphabet", help="declared alphabet (default: inferred)")
    _add_common(p)
    p.set_defaults(handler=cmd_frobenius)

    p = sub.add_parser("reduce", help="turn a DIMACS CNF into a regex")
    p.add_argument("cnf", help="DIMACS file, or - for standard input")
    p.add_argument(
        "--decide",
        action="store_true",
        help="also run the decision pipeline on the produced regex",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("sat", help="brute-force a DIMACS CNF instance")
    p.add_argument("cnf", help="DIMACS file, or - for standard input")
    _add_common(p)
    p.set_defaults(handler=cmd_sat)

    p = sub.add_parser("numeric", help="numeric Frobenius number")
    p.add_argument("integers", nargs="+", type=int, help="positive integers")
    _add_common(p)
    p.set_defaults(handler=cmd_numeric)

    p = sub.add_parser("oracle", help="brute-force enumeration report")
    _add_regex_input(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument(
        "--bound",
        type=int,
        help="sound window bound; enables a conclusive verdict when the "
        "horizon reaches 2*bound - 1",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("selftest", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=100)
    _add_common(p)
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        echo, body, code = args.handler(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    _emit(args.command, echo, body, args, elapsed_ms)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
