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
error (alphabet mismatch, gcd), 4 budget exceeded (the oracle's word
enumeration or matcher stack, or the numeric solver's residue table of
min(xs) entries; STAR_FROBENIUS_BUDGET, in ASCII decimal digits, sets
the size limit) or out of memory, 1 internal failure, selftest property
violation or standard output closed early.  ``oracle`` takes regex input only; ``decide`` also
reads an NFA description (``--nfa``).  ``--alphabet`` goes to the library
as declared, and the echoed alphabet is the effective one it chose.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .automata import parse_nfa
from .errors import DEFAULT_BUDGET, BudgetExceeded, InputError, SemanticError
from .frobenius import (
    CofiniteResult,
    decide_cofinite,
    frobenius_of_finite_set,
    numeric_frobenius,
)
from .oracle import bruteforce_cofinite
from .reduction import cnf_to_regex, parse_dimacs, sat_bruteforce
from .regex import Alphabet, RegexAst, format_regex, parse_regex, symbol_length
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


def _load_regex(args) -> tuple[RegexAst, dict]:
    ast = parse_regex(_read_source(args))
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
    if args.nfa:
        source = parse_nfa(_read_source(args))
        echo = {"form": "nfa", "nfa_states": source.state_count}
    else:
        source, echo = _load_regex(args)
    result = decide_cofinite(source, _parse_alphabet(args.alphabet))
    echo["alphabet"] = "".join(result.alphabet)
    return echo, _decide_body(result), 0


def cmd_frobenius(args) -> tuple[dict, dict, int]:
    words = list(args.words)
    result = frobenius_of_finite_set(words, _parse_alphabet(args.alphabet))
    echo = {"words": sorted(set(words)), "alphabet": "".join(result.alphabet)}
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


def _budget() -> int:
    text = os.environ.get(BUDGET_ENV_VAR)
    if text is None:
        return DEFAULT_BUDGET
    # ASCII digits only: int() also takes signs, "_", spaces and other scripts' digits
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"{BUDGET_ENV_VAR} must be a decimal integer, got {text!r}")
    return int(text)


def cmd_numeric(args) -> tuple[dict, dict, int]:
    result = numeric_frobenius(args.integers, budget=_budget())
    return (
        {"inputs": list(result.inputs)},
        {"inputs": list(result.inputs), "g": result.g},
        0,
    )


def cmd_oracle(args) -> tuple[dict, dict, int]:
    ast, echo = _load_regex(args)
    report = bruteforce_cofinite(
        ast, _parse_alphabet(args.alphabet), args.horizon, args.bound, budget=_budget()
    )
    echo.update(
        {
            "alphabet": "".join(report.alphabet),
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
    sys.stdout.flush()


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
    p.add_argument(
        "--nfa",
        action="store_true",
        help="treat the input as an NFA description instead of a regex",
    )
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    try:
        _emit(args.command, echo, body, args, elapsed_ms)
    except BrokenPipeError:
        # Standard output was closed early (`... | head -1`).  Point it at
        # devnull so that the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
