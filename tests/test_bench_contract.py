"""The benchmark's traced decision against decide_cofinite.

``bench/tracing.py`` calls the automata layers one by one, so a change to
their names or results shows here rather than only in a traced benchmark
run.
"""

import sys
from pathlib import Path

import pytest

from conftest import sign_patterns
from star_frobenius import (
    CnfInstance,
    cnf_to_regex,
    decide_cofinite,
    parse_nfa,
    parse_regex,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

# name -> (input, whether its closure is co-finite)
SOURCES = {
    "sat": (cnf_to_regex(CnfInstance(3, ((1, -2, 3), (-1, 2, 3)))), False),
    "unsat": (cnf_to_regex(CnfInstance(3, tuple(sign_patterns((1, 2, 3))))), True),
    "nfa": (
        parse_nfa(
            "states 3\nalphabet ab\ninitial 0\naccepting 2\n0 a 1\n1 b 2\n0 b 2\n"
        ),
        False,
    ),
    "a": (parse_regex("a"), True),
    "two-or-three": (parse_regex("aa+aaa"), True),
}


@pytest.mark.parametrize("name", SOURCES)
def test_traced_decide_matches_decide_cofinite(name):
    source, cofinite = SOURCES[name]
    expected = decide_cofinite(source)
    assert expected.cofinite == cofinite
    assert tracing.traced_decide(tracing.Tracer(), source) == expected
