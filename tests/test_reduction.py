import random

import pytest

from conftest import exhaustive_three_var_instances, sign_patterns, words_up_to
from star_frobenius import (
    Alphabet,
    BadLengths,
    CnfInstance,
    FormatError,
    NotThreeSat,
    TooLarge,
    UnusedVariable,
    alphabet_of,
    check_lemma,
    cnf_to_regex,
    decide_cofinite,
    format_dimacs,
    format_regex,
    parse_dimacs,
    sat_bruteforce,
    symbol_length,
)
from star_frobenius.oracle import Matcher
from star_frobenius.selftest import random_cnf


def test_parse_dimacs_basic():
    cnf = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
    assert cnf.variable_count == 3
    assert cnf.clauses == ((1, -2, 3),)


def test_parse_dimacs_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\n1 -2\n3 0 -1\n2 -3 0\n"
    cnf = parse_dimacs(text)
    assert cnf.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_dimacs_not_three_sat():
    with pytest.raises(NotThreeSat):
        parse_dimacs("p cnf 2 1\n1 2 0\n")


def test_parse_dimacs_unused_variable():
    with pytest.raises(UnusedVariable) as info:
        parse_dimacs("p cnf 4 1\n1 -2 3 0\n")
    assert info.value.index == 4


def test_parse_dimacs_tautology():
    with pytest.raises(NotThreeSat, match="tautology"):
        parse_dimacs("p cnf 2 1\n1 -1 2 0\n")


@pytest.mark.parametrize(
    "text",
    [
        "1 -2 3 0\n",
        "p cnf x 1\n1 -2 3 0\n",
        "p cnf 3 2\n1 -2 3 0\n",
        "p cnf 3 1\n1 -2 4 0\n",
        "p cnf 3 1\n1 -2 3\n",
        "p cnf 3 1\n1 -2 three 0\n",
        "p cnf 0 0\n",
        "",
        # numbers are ASCII digits: int() would read 1_0 as 10 and +1 as 1
        "p cnf 3 1_0\n" + "1 -2 3 0\n" * 10,
        "p cnf 3 1\n+1 -2 3 0\n",
    ],
)
def test_parse_dimacs_format_errors(text):
    with pytest.raises(FormatError):
        parse_dimacs(text)


def test_format_dimacs_roundtrip():
    cnf = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert parse_dimacs(format_dimacs(cnf)) == cnf


def test_cnf_to_regex_single_clause():
    cnf = CnfInstance(3, ((1, -2, 3),))
    ast = cnf_to_regex(cnf)
    assert format_regex(ast) == "FTF+(T+F)(T+F)(T+F)(T+F)"
    assert list(alphabet_of(ast)) == ["F", "T"]


def test_cnf_to_regex_all_patterns_cover_sigma3():
    ast = cnf_to_regex(CnfInstance(3, tuple(sign_patterns((1, 2, 3)))))
    matcher = Matcher(ast)
    for word in words_up_to("FT", 5):
        assert matcher.matches(word) == (len(word) in (3, 4))


def test_cnf_to_regex_language_sandwich():
    rng = random.Random(31)
    for _ in range(8):
        cnf = random_cnf(rng, 4, 6)
        n = cnf.variable_count
        ast = cnf_to_regex(cnf)
        matcher = Matcher(ast)
        for word in words_up_to("FT", n + 2):
            member = matcher.matches(word)
            if len(word) == n + 1:
                assert member
            elif len(word) != n:
                assert not member


def test_cnf_to_regex_symbol_count_formula():
    rng = random.Random(13)
    for _ in range(12):
        cnf = random_cnf(rng, 6, 10)
        n, m = cnf.variable_count, len(cnf.clauses)
        assert symbol_length(cnf_to_regex(cnf)) == m * (2 * n - 3) + 2 * n + 2


def test_sat_bruteforce_single_clause():
    assignment = sat_bruteforce(CnfInstance(3, ((1, -2, 3),)))
    assert assignment == (False, False, False)


def test_sat_bruteforce_unsatisfiable():
    assert sat_bruteforce(CnfInstance(3, tuple(sign_patterns((1, 2, 3))))) is None


def test_sat_bruteforce_too_large():
    clauses = [(v, v + 1, v + 2) for v in range(1, 24, 3)] + [(23, 24, 25)]
    cnf = CnfInstance(25, tuple(clauses))
    with pytest.raises(TooLarge):
        sat_bruteforce(cnf)


def test_duplicate_clauses_allowed():
    cnf = parse_dimacs("p cnf 3 2\n1 -2 3 0\n1 -2 3 0\n")
    assert len(cnf.clauses) == 2
    assert sat_bruteforce(cnf) is not None


def test_cnf_instance_validation():
    with pytest.raises(NotThreeSat):
        CnfInstance(2, ((1, 2),))
    with pytest.raises(UnusedVariable):
        CnfInstance(4, ((1, -2, 3),))
    with pytest.raises(ValueError):
        CnfInstance(2, ((1, 2, 5),))
    with pytest.raises(ValueError):
        CnfInstance(1, ())


def test_cnf_instance_needs_a_variable():
    with pytest.raises(ValueError, match="at least one variable"):
        CnfInstance(0, ((1, 2, 3),))


def test_reduction_equivalence_boundary_instances():
    # all single-clause instances and the full instance over three variables
    patterns = sign_patterns((1, 2, 3))
    for pattern in patterns:
        cnf = CnfInstance(3, (pattern,))
        assert sat_bruteforce(cnf) is not None
        assert not decide_cofinite(cnf_to_regex(cnf)).cofinite
    full = CnfInstance(3, tuple(patterns))
    assert sat_bruteforce(full) is None
    assert decide_cofinite(cnf_to_regex(full)).cofinite


def test_check_lemma_sigma_m_included():
    words = {"".join(t) for t in words_up_to("ab", 2) if len(t) == 2}
    words |= {"aaa"}
    verdict = check_lemma(words, 2, 3, Alphabet("ab"))
    assert verdict.sigma_m_subset
    assert verdict.lemma_respected


def test_check_lemma_forces_not_cofinite():
    words = {"ab"} | {w for w in words_up_to("ab", 3) if len(w) == 3}
    verdict = check_lemma(words, 2, 3, Alphabet("ab"))
    assert not verdict.sigma_m_subset
    assert not verdict.cofinite
    assert verdict.lemma_respected


def test_check_lemma_validation():
    with pytest.raises(ValueError):
        check_lemma({"aa"}, 3, 2, Alphabet("ab"))
    with pytest.raises(BadLengths):
        check_lemma({"aaaa"}, 2, 3, Alphabet("ab"))


def test_exhaustive_three_var_count():
    assert sum(1 for _ in exhaustive_three_var_instances()) == 255


def test_random_cnf_covers_every_variable_at_minimal_m():
    # m = ⌈n/3⌉ leaves no slack: the coverage triples are all the clauses
    for n in range(12, 19):
        m = (n + 2) // 3
        cnf = random_cnf(random.Random(n), n, m, min_vars=n)
        assert cnf.variable_count == n
        assert len(cnf.clauses) == len(set(cnf.clauses)) == m
        assert {abs(lit) for clause in cnf.clauses for lit in clause} == set(
            range(1, n + 1)
        )
        assert all(len({abs(lit) for lit in clause}) == 3 for clause in cnf.clauses)


def test_satisfiable_n10_reduction_has_window_witness_outside_closure():
    # beyond the benchmark's sizes: about 53,000 DFA states
    cnf = random_cnf(random.Random(10), 10, 40, min_vars=10)
    assert cnf.variable_count == 10
    assert sat_bruteforce(cnf) is not None
    ast = cnf_to_regex(cnf)
    result = decide_cofinite(ast)
    assert not result.cofinite
    length, word = result.window_witness
    n_prime = result.trimmed_complement_states
    assert n_prime <= length < 2 * n_prime
    assert len(word) == length
    # E holds only words of length n (the clause patterns) and n + 1 (the
    # all-words block), so E* membership is a dynamic program over blocks
    # of those two lengths, each matched by the oracle's matcher
    n, matcher = cnf.variable_count, Matcher(ast)
    reach = [True] + [False] * length
    for i in range(length):
        if reach[i]:
            for size in (n, n + 1):
                if i + size <= length and matcher.matches(word[i : i + size]):
                    reach[i + size] = True
    assert not reach[length]
