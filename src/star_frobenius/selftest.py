"""Seeded cross-module consistency suites.

Backs the CLI ``selftest`` command and provides the random generators the
test suite reuses.  Every suite is driven by its own deterministically
derived RNG, so a (seed, cases) pair always reproduces the same run.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .automata import (
    complement,
    dfa_accepts,
    glushkov_star,
    nfa_accepts,
    subset_construct,
    trim_useful,
    verify_rejected,
    window_accepts,
)
from .frobenius import decide_cofinite, numeric_frobenius
from .oracle import Matcher, _star_reachable
from .reduction import CnfInstance, check_lemma, cnf_to_regex, sat_bruteforce
from .regex import (
    Alphabet,
    Concat,
    EmptySet,
    Epsilon,
    RegexAst,
    Star,
    Symbol,
    Union,
    alphabet_of,
    format_regex,
    parse_regex,
    symbol_length,
)


def random_regex(
    rng: random.Random, alphabet: str, max_symbols: int
) -> RegexAst:
    """Random syntax tree with between 1 and max_symbols symbol leaves."""
    while True:
        ast = _random_node(rng, alphabet, rng.randint(1, 3))
        if 1 <= symbol_length(ast) <= max_symbols:
            return ast


def _random_node(rng: random.Random, alphabet: str, depth: int) -> RegexAst:
    if depth == 0:
        roll = rng.random()
        if roll < 0.80:
            return Symbol(rng.choice(alphabet))
        if roll < 0.92:
            return Epsilon()
        return EmptySet()
    roll = rng.random()
    if roll < 0.30:
        return Union(
            _random_node(rng, alphabet, depth - 1),
            _random_node(rng, alphabet, depth - 1),
        )
    if roll < 0.65:
        return Concat(
            _random_node(rng, alphabet, depth - 1),
            _random_node(rng, alphabet, depth - 1),
        )
    if roll < 0.85:
        return Star(_random_node(rng, alphabet, depth - 1))
    return _random_node(rng, alphabet, 0)


def random_cnf(
    rng: random.Random, max_vars: int, max_clauses: int, min_vars: int = 3
) -> CnfInstance:
    """Random 3SAT instance with distinct-variable clauses, every variable
    used, and deduplicated clauses: 1..n shuffled and cut into ⌈n/3⌉
    triples (the last padded from the other variables; each has a variable
    of its own, so they are distinct), then random clauses up to m."""
    n = rng.randint(min_vars, max_vars)
    distinct = 8 * n * (n - 1) * (n - 2) // 6
    m = rng.randint(max(1, (n + 2) // 3), min(max_clauses, distinct))

    def signed(variables: list[int]) -> tuple[int, ...]:
        return tuple(sorted(v if rng.random() < 0.5 else -v for v in variables))

    order = rng.sample(range(1, n + 1), n)
    triples = [order[i : i + 3] for i in range(0, n, 3)]
    triples[-1] += rng.sample(order[: n - len(triples[-1])], 3 - len(triples[-1]))
    clauses = {signed(triple) for triple in triples}
    while len(clauses) < m:
        clauses.add(signed(rng.sample(range(1, n + 1), 3)))
    return CnfInstance(n, tuple(sorted(clauses)))


def random_two_length_set(
    rng: random.Random, m: int, n: int, alphabet: str
) -> set[str]:
    """Random subset of the words of lengths m and n; sometimes the whole
    length-m block is forced in so the co-finite branch gets exercised."""
    short = ["".join(t) for t in itertools.product(alphabet, repeat=m)]
    long = ["".join(t) for t in itertools.product(alphabet, repeat=n)]
    words: set[str] = set()
    if rng.random() < 0.4:
        words |= set(short)
    else:
        words |= {w for w in short if rng.random() < 0.5}
    words |= {w for w in long if rng.random() < rng.choice((0.15, 0.5, 0.9))}
    return words


def all_words(alphabet, max_length: int):
    for length in range(max_length + 1):
        for letters in itertools.product(list(alphabet), repeat=length):
            yield "".join(letters)


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _suite_roundtrip(rng: random.Random, cases: int) -> SuiteResult:
    result = SuiteResult("regex-roundtrip", cases)
    for i in range(cases):
        ast = random_regex(rng, "ab", 8)
        text = format_regex(ast)
        if parse_regex(text) != ast:
            result.failures.append(f"case {i}: {text!r} does not round-trip")
    return result


def _suite_state_bound(rng: random.Random, cases: int) -> SuiteResult:
    result = SuiteResult("state-bound", cases)
    for i in range(cases):
        ast = random_regex(rng, "ab", 8)
        nfa = glushkov_star(ast)
        if nfa.state_count != symbol_length(ast) + 1:
            result.failures.append(
                f"case {i}: {format_regex(ast)!r} gives {nfa.state_count} states"
            )
    return result


def _suite_language_agreement(rng: random.Random, cases: int) -> SuiteResult:
    result = SuiteResult("language-agreement", cases)
    for i in range(cases):
        ast = random_regex(rng, "ab", 6)
        alphabet = alphabet_of(ast)
        star_nfa = glushkov_star(ast)
        dfa = subset_construct(star_nfa, alphabet)
        matcher = Matcher(ast)
        routes = (
            ("DFA", lambda w: dfa_accepts(dfa, w)),
            ("NFA", lambda w: nfa_accepts(star_nfa, w)),
            ("matrix verifier", lambda w: not verify_rejected(star_nfa, w)),
        )
        for word in all_words(alphabet, 6):
            expected = _star_reachable(matcher, word)
            wrong = next((name for name, run in routes if run(word) != expected), None)
            if wrong is not None:
                result.failures.append(
                    f"case {i}: {wrong} disagrees on {word!r} for "
                    f"{format_regex(ast)!r}"
                )
                break
    return result


def _suite_window_criterion(rng: random.Random, cases: int) -> SuiteResult:
    result = SuiteResult("window-criterion", cases)
    for i in range(cases):
        ast = random_regex(rng, rng.choice(("a", "ab")), 6)
        alphabet = alphabet_of(ast).union(Alphabet("a"))
        comp = complement(subset_construct(glushkov_star(ast), alphabet))
        view = trim_useful(comp)
        n_prime = len(view.states)
        hit = window_accepts(comp, n_prime, 2 * n_prime) is not None
        if (view.best is None) != hit:
            result.failures.append(
                f"case {i}: window and cycle disagree for {format_regex(ast)!r}"
            )
    return result


def _suite_reduction_equivalence(rng: random.Random, cases: int) -> SuiteResult:
    result = SuiteResult("reduction-equivalence", cases)
    for i in range(cases):
        cnf = random_cnf(rng, 5, 8)
        satisfiable = sat_bruteforce(cnf) is not None
        verdict = decide_cofinite(cnf_to_regex(cnf))
        if satisfiable != (not verdict.cofinite):
            result.failures.append(
                f"case {i}: satisfiable={satisfiable} but "
                f"cofinite={verdict.cofinite} for {cnf}"
            )
    return result


def _suite_numeric(rng: random.Random, cases: int) -> SuiteResult:
    result = SuiteResult("numeric-frobenius", cases)
    for i in range(cases):
        while True:
            p, q = rng.randint(2, 10**4), rng.randint(2, 10**4)
            if math.gcd(p, q) == 1:
                break
        got = numeric_frobenius([p, q]).g
        if got != p * q - p - q:
            result.failures.append(f"case {i}: g({p},{q}) = {got}")
    return result


def _suite_lemma(rng: random.Random, cases: int) -> SuiteResult:
    result = SuiteResult("two-length-lemma", cases)
    for i in range(cases):
        m = rng.randint(1, 4)
        n = rng.randint(m + 1, 5)
        words = random_two_length_set(rng, m, n, "ab")
        verdict = check_lemma(words, m, n, Alphabet("ab"))
        if not verdict.lemma_respected:
            result.failures.append(
                f"case {i}: lemma violated for m={m} n={n} words={sorted(words)}"
            )
    return result


_SUITES = (
    _suite_roundtrip,
    _suite_state_bound,
    _suite_language_agreement,
    _suite_window_criterion,
    _suite_reduction_equivalence,
    _suite_numeric,
    _suite_lemma,
)


def run_selftest(seed: int, cases: int) -> list[SuiteResult]:
    """Run every suite with per-suite RNGs derived from the seed."""
    if cases < 0:
        raise ValueError("cases must be >= 0")
    results = []
    for suite in _SUITES:
        rng = random.Random(f"{seed}/{suite.__name__}")
        results.append(suite(rng, cases))
    return results
