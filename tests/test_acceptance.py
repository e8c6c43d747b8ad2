"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import random
import time

import pytest

from conftest import (
    exhaustive_three_var_instances,
    naive_bool_matrices,
    naive_bool_product,
    sign_patterns,
    words_up_to,
)
from star_frobenius import (
    Alphabet,
    CnfInstance,
    bruteforce_cofinite,
    check_lemma,
    cnf_to_regex,
    complement,
    decide_cofinite,
    format_regex,
    glushkov_star,
    is_infinite,
    numeric_frobenius,
    sat_bruteforce,
    subset_construct,
    symbol_length,
    trim_useful,
    verify_rejected,
    window_accepts,
)
from star_frobenius.cli import main
from star_frobenius.oracle import Matcher, _star_reachable
from star_frobenius.selftest import random_cnf, random_regex, random_two_length_set

ORACLE_WORD_BUDGET = 2**19


def _report(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {label}: {status}")
    assert not failures, f"criterion {number} ({label}): {failures[:5]}"


@pytest.fixture(scope="module")
def corpus():
    """500 seeded random regexes with t <= 6 over {a} and {a,b}, plus their
    pipeline results and complement DFAs."""
    rng = random.Random(20240810)
    entries = []
    for index in range(500):
        letters = "a" if index % 2 == 0 else "ab"
        ast = random_regex(rng, letters, 6)
        alphabet = Alphabet(letters)
        result = decide_cofinite(ast, alphabet)
        comp = complement(
            subset_construct(glushkov_star(ast, alphabet), alphabet)
        )
        entries.append((ast, alphabet, result, comp))
    return entries


def _exhaustive_four_var_pairs():
    patterns = []
    for variables in itertools.combinations((1, 2, 3, 4), 3):
        patterns.extend(sign_patterns(variables))
    for left, right in itertools.combinations(patterns, 2):
        used = {abs(lit) for lit in left} | {abs(lit) for lit in right}
        if len(used) == 4:
            yield CnfInstance(4, tuple(sorted((left, right))))


def test_criterion_1_reduction_equivalence():
    started = time.perf_counter()
    failures = []
    checked = 0

    def check(cnf):
        nonlocal checked
        checked += 1
        satisfiable = sat_bruteforce(cnf) is not None
        verdict = decide_cofinite(cnf_to_regex(cnf))
        if satisfiable != (not verdict.cofinite):
            failures.append(
                f"disagreement on n={cnf.variable_count} clauses={cnf.clauses}"
            )

    for cnf in exhaustive_three_var_instances():
        check(cnf)
    for cnf in _exhaustive_four_var_pairs():
        check(cnf)
    rng = random.Random(41)
    for _ in range(300):
        check(random_cnf(rng, 4, 8, min_vars=4))
    rng = random.Random(42)
    for _ in range(200):
        check(random_cnf(rng, 6, 10))

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(
        1,
        f"reduction equivalence on {checked} instances in {elapsed:.1f}s",
        failures,
    )


def test_criterion_2_golden_instance():
    failures = []
    cnf = CnfInstance(3, tuple(sign_patterns((1, 2, 3))))
    result = decide_cofinite(cnf_to_regex(cnf))
    if not (
        result.cofinite
        and result.frobenius_length == 5
        and result.witness == "FFFFF"
    ):
        failures.append(f"pipeline said {result}")

    report = bruteforce_cofinite(cnf_to_regex(cnf), Alphabet("FT"), 12)
    table = [(row.length, row.count, row.smallest) for row in report.missing]
    if table != [(1, 2, "F"), (2, 4, "FF"), (5, 32, "FFFFF")]:
        failures.append(f"oracle missing table {table}")
    _report(2, "golden 8-clause instance gives length 5, witness FFFFF", failures)


def test_criterion_3_oracle_agreement(corpus):
    failures = []
    conclusive = 0
    for ast, alphabet, result, _ in corpus:
        bound = result.trimmed_complement_states
        horizon = max(1, 2 * bound - 1)
        report = bruteforce_cofinite(
            ast, alphabet, horizon, bound, budget=ORACLE_WORD_BUDGET
        )
        if not report.conclusive:
            continue
        conclusive += 1
        verdict = report.verdict
        witness = result.witness if result.cofinite else result.window_witness[1]
        pipeline = (result.cofinite, result.frobenius_length, witness)
        if (verdict.cofinite, verdict.frobenius_length, verdict.witness) != pipeline:
            failures.append(
                f"{format_regex(ast)!r} over {''.join(alphabet)}: "
                f"oracle {verdict} vs pipeline {pipeline}"
            )
    if conclusive != len(corpus):
        failures.append(f"only {conclusive}/{len(corpus)} runs were conclusive")
    _report(3, f"oracle agreement on {conclusive} conclusive verdicts", failures)


def test_criterion_4_state_bound(corpus):
    failures = []
    for ast, alphabet, _, _ in corpus:
        nfa = glushkov_star(ast, alphabet)
        if nfa.state_count != symbol_length(ast) + 1:
            failures.append(format_regex(ast))
    rng = random.Random(17)
    for _ in range(50):
        ast = cnf_to_regex(random_cnf(rng, 6, 10))
        if glushkov_star(ast).state_count != symbol_length(ast) + 1:
            failures.append(format_regex(ast))
    _report(4, "starred position automaton has exactly t + 1 states", failures)


def test_criterion_5_window_criterion(corpus):
    failures = []
    for ast, alphabet, _, comp in corpus:
        n_prime = len(trim_useful(comp).states)
        infinite = is_infinite(comp)
        hit = window_accepts(comp, n_prime, 2 * n_prime)
        if infinite != (hit is not None):
            failures.append(
                f"{format_regex(ast)!r}: infinite={infinite} window={hit}"
            )
    _report(5, "cycle criterion matches the [n', 2n') window on 500 DFAs", failures)


def test_criterion_6_matrix_verifier(corpus):
    failures = []
    words_checked = 0
    for ast, alphabet, _, _ in corpus:
        nfa = glushkov_star(ast, alphabet)
        matcher = Matcher(ast)
        for word in words_up_to(alphabet, 7):
            words_checked += 1
            if verify_rejected(nfa, word) != (not _star_reachable(matcher, word)):
                failures.append(f"{format_regex(ast)!r} on {word!r}")
                break

    # incremental matrix equals the naive k-fold boolean product
    rng = random.Random(4)
    for ast, alphabet, _, _ in corpus[:40]:
        nfa = glushkov_star(ast, alphabet)
        naive = naive_bool_matrices(nfa)
        word = "".join(
            rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 7))
        )
        from star_frobenius import ReachabilityMatrix

        matrix = ReachabilityMatrix.identity(nfa.state_count)
        grid = [
            [p == q for q in range(nfa.state_count)]
            for p in range(nfa.state_count)
        ]
        for ch in word:
            matrix = matrix.multiply(ReachabilityMatrix.for_letter(nfa, ch))
            grid = naive_bool_product(grid, naive[ch])
        if any(
            matrix.entry(p, q) != grid[p][q]
            for p in range(nfa.state_count)
            for q in range(nfa.state_count)
        ):
            failures.append(f"matrix product mismatch for {format_regex(ast)!r}")
    _report(6, f"matrix verifier agrees with the DP on {words_checked} words", failures)


def _representable(value, xs):
    reach = {0}
    frontier = {0}
    while frontier:
        frontier = {
            r + x for r in frontier for x in xs if r + x <= value
        } - reach
        reach |= frontier
    return value in reach


def test_criterion_7_numeric_frobenius():
    started = time.perf_counter()
    failures = []
    expected = {(2, 3): 1, (3, 5): 7, (6, 10, 15): 29}
    for inputs, value in expected.items():
        if numeric_frobenius(list(inputs)).g != value:
            failures.append(f"g{inputs} != {value}")
    for p, q in [(n, n + 1) for n in range(2, 13)] + [(9973, 10007)]:
        if numeric_frobenius([p, q]).g != p * q - p - q:
            failures.append(f"pair identity fails at ({p}, {q})")
    # independent confirmation: the reported g is a gap, everything after is not
    for inputs in list(expected) + [(n, n + 1) for n in range(2, 13)]:
        g = numeric_frobenius(list(inputs)).g
        if _representable(g, inputs):
            failures.append(f"g{inputs} is representable")
        if not all(_representable(g + k, inputs) for k in range(1, min(inputs) + 1)):
            failures.append(f"values after g{inputs} not all representable")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(7, f"numeric Frobenius values in {elapsed:.2f}s", failures)


def test_criterion_8_lemma_suite():
    failures = []
    rng = random.Random(20240808)
    for index in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(m + 1, 5)
        words = random_two_length_set(rng, m, n, "ab")
        verdict = check_lemma(words, m, n, Alphabet("ab"))
        if not verdict.lemma_respected:
            failures.append(f"case {index}: m={m} n={n} words={sorted(words)}")
    _report(8, "two-length lemma respected on 500 samples", failures)


def test_criterion_9_determinism(capsys, tmp_path):
    failures = []
    golden = tmp_path / "golden.cnf"
    golden.write_text(
        "p cnf 3 8\n"
        + "\n".join(
            " ".join(str(s * v) for s, v in zip(signs, (1, 2, 3))) + " 0"
            for signs in itertools.product((1, -1), repeat=3)
        )
        + "\n",
        encoding="utf-8",
    )
    commands = [
        ["decide", "aa+aaa"],
        ["reduce", str(golden), "--decide"],
        ["selftest", "--seed", "42"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = main(argv)
            outputs.append(capsys.readouterr().out)
            if code != 0:
                failures.append(f"{argv} exited with {code}")
        if outputs[0] != outputs[1]:
            failures.append(f"{argv} output differs between runs")
        json.loads(outputs[0])
    _report(9, "decide/reduce/selftest output is byte-identical", failures)
