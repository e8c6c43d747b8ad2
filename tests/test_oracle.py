import random
import time

import pytest

from conftest import words_up_to
from star_frobenius import (
    Alphabet,
    BudgetExceeded,
    bruteforce_cofinite,
    dfa_accepts,
    glushkov,
    glushkov_star,
    member_star_dp,
    parse_regex,
    regex_match,
    subset_construct,
)
from star_frobenius.oracle import Matcher, _star_reachable
from star_frobenius.selftest import random_regex


def test_regex_match_examples():
    assert regex_match(parse_regex("(T+F)F"), "TF")
    assert regex_match(parse_regex("a*"), "")
    assert not regex_match(parse_regex("aa+aaa"), "aaaa")
    assert regex_match(parse_regex("ε"), "")
    assert not regex_match(parse_regex("∅"), "")


def test_member_star_examples():
    ast = parse_regex("aa+aaa")
    assert member_star_dp(ast, "aaaaa")
    assert not member_star_dp(ast, "a")
    assert member_star_dp(ast, "")
    assert member_star_dp(parse_regex("∅"), "")


def test_matcher_agrees_with_plain_automaton():
    rng = random.Random(123)
    for _ in range(30):
        ast = random_regex(rng, "ab", 6)
        alphabet = Alphabet("ab")
        dfa = subset_construct(glushkov(ast, alphabet), alphabet)
        matcher = Matcher(ast)
        for word in words_up_to(alphabet, 6):
            assert matcher.matches(word) == dfa_accepts(dfa, word)


def test_star_dp_agrees_with_star_automaton():
    rng = random.Random(321)
    for _ in range(30):
        ast = random_regex(rng, "ab", 6)
        alphabet = Alphabet("ab")
        dfa = subset_construct(glushkov_star(ast, alphabet), alphabet)
        matcher = Matcher(ast)
        for word in words_up_to(alphabet, 6):
            assert _star_reachable(matcher, word) == dfa_accepts(dfa, word)


def test_closure_under_concatenation():
    rng = random.Random(99)
    for _ in range(20):
        ast = random_regex(rng, "ab", 5)
        members = [
            w for w in words_up_to("ab", 4) if member_star_dp(ast, w)
        ][:8]
        for left in members:
            for right in members:
                assert member_star_dp(ast, left + right)


def test_report_conclusive_cofinite():
    report = bruteforce_cofinite(parse_regex("aa+aaa"), Alphabet("a"), 10, 3)
    assert report.conclusive
    assert report.verdict.cofinite
    assert report.verdict.frobenius_length == 1
    assert report.verdict.witness == "a"
    assert [(r.length, r.count, r.smallest) for r in report.missing] == [(1, 1, "a")]


def test_report_conclusive_not_cofinite():
    report = bruteforce_cofinite(parse_regex("aa"), Alphabet("a"), 10, 2)
    assert report.conclusive
    assert not report.verdict.cofinite
    assert report.verdict.witness == "aaa"


def test_report_inconclusive():
    report = bruteforce_cofinite(parse_regex("aa+aaa"), Alphabet("a"), 2)
    assert not report.conclusive
    assert report.verdict is None
    assert [(r.length, r.count) for r in report.missing] == [(1, 1)]


def test_report_nothing_missing():
    report = bruteforce_cofinite(parse_regex("a"), Alphabet("a"), 5, 0)
    assert report.conclusive
    assert report.verdict.cofinite
    assert report.verdict.frobenius_length is None
    assert report.missing == ()


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        bruteforce_cofinite(parse_regex("ab"), Alphabet("ab"), 23)
    with pytest.raises(BudgetExceeded):
        bruteforce_cofinite(
            parse_regex("ab"), Alphabet("ab"), 4, budget=10
        )


def test_budget_guard_one_letter_at_once():
    # over one letter there are horizon + 1 words: no count up to the budget
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="up to 100000000 exceed"):
        bruteforce_cofinite(parse_regex("a"), Alphabet("a"), 10**12, budget=10**8)
    assert time.perf_counter() - started < 0.5
    # the boundary: 10 words fit a budget of 10, 11 do not
    report = bruteforce_cofinite(parse_regex("a"), Alphabet("a"), 9, budget=10)
    assert report.horizon == 9
    with pytest.raises(BudgetExceeded, match="up to 10 exceed"):
        bruteforce_cofinite(parse_regex("a"), Alphabet("a"), 10, budget=10)


def test_preconditions():
    with pytest.raises(ValueError):
        bruteforce_cofinite(parse_regex("a"), Alphabet("a"), 0)
    with pytest.raises(ValueError):
        bruteforce_cofinite(parse_regex("ε"), Alphabet(""), 3)
    with pytest.raises(ValueError):
        bruteforce_cofinite(parse_regex("a"), Alphabet("a"), 3, -1)
