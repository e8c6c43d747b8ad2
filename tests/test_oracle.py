import random
import time

import pytest

from conftest import words_up_to
from star_frobenius import (
    Alphabet,
    AlphabetMismatch,
    BudgetExceeded,
    alphabet_of,
    bruteforce_cofinite,
    decide_cofinite,
    dfa_accepts,
    frobenius_of_finite_set,
    glushkov,
    glushkov_star,
    member_star_dp,
    parse_regex,
    regex_match,
    subset_construct,
)
from star_frobenius.oracle import Matcher, _star_reachable
from star_frobenius.regex import resolve_alphabet
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


def test_declared_alphabet_missing_a_letter_beats_the_horizon_check():
    for horizon in (0, 3):
        with pytest.raises(AlphabetMismatch, match="missing 'b'"):
            bruteforce_cofinite(parse_regex("ab"), Alphabet("a"), horizon)


def test_inferred_alphabet():
    for text in ("aa+aaa", "(a+b)*b", "ab+ba+c"):
        ast = parse_regex(text)
        report = bruteforce_cofinite(ast, None, 5, 3)
        assert report == bruteforce_cofinite(ast, alphabet_of(ast), 5, 3)
        assert report.alphabet == alphabet_of(ast)
    widened = bruteforce_cofinite(parse_regex("a*"), Alphabet("ab"), 2)
    assert widened.alphabet == Alphabet("ab")
    assert [(r.length, r.count, r.smallest) for r in widened.missing] == [
        (1, 1, "b"),
        (2, 3, "ab"),
    ]


def entry_points(ast, words):
    """Every library function that chooses an alphabet, keyed by name, as
    (the letters its input uses, declared alphabet -> effective alphabet)."""
    nfa = glushkov(ast)
    used = alphabet_of(ast)
    return {
        "decide_cofinite": (used, lambda d: decide_cofinite(ast, d).alphabet),
        "decide_cofinite(nfa)": (used, lambda d: decide_cofinite(nfa, d).alphabet),
        "frobenius_of_finite_set": (
            Alphabet(set("".join(words))),
            lambda d: frobenius_of_finite_set(words, d).alphabet,
        ),
        "bruteforce_cofinite": (
            used,
            lambda d: bruteforce_cofinite(ast, d, 2).alphabet,
        ),
        "glushkov": (used, lambda d: glushkov(ast, d).alphabet),
        "subset_construct": (used, lambda d: subset_construct(nfa, d).alphabet),
    }


def test_one_alphabet_rule_in_every_entry_point():
    # declared alphabets: None, and random subsets of "abcd", so subsets,
    # supersets and neither of the letters used all occur
    rng = random.Random(2021)
    outcomes = set()
    for _ in range(120):
        letters = rng.choice(("a", "ab", "abc"))
        ast = random_regex(rng, letters, 5)
        words = [
            "".join(rng.choices(letters, k=rng.randint(0, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        declared = None
        if rng.random() < 0.85:
            declared = Alphabet(rng.sample("abcd", rng.randint(0, 4)))
        for name, (used, effective) in entry_points(ast, words).items():
            if declared is not None and not set(used) <= set(declared):
                with pytest.raises(AlphabetMismatch):
                    effective(declared)
                outcomes.add("mismatch")
            else:
                expected = used if declared is None else declared
                assert expected == resolve_alphabet(used, declared)
                assert effective(declared) == expected, (name, ast, declared)
                outcomes.add("inferred" if declared is None else "widened")
    assert outcomes == {"mismatch", "inferred", "widened"}
