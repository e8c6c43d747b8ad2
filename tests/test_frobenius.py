import itertools
import math
import random
from functools import reduce

import pytest

from conftest import accepting_states, sign_patterns
from star_frobenius import (
    Alphabet,
    AlphabetMismatch,
    BudgetExceeded,
    CnfInstance,
    GcdNotOne,
    cnf_to_regex,
    complement,
    decide_cofinite,
    dfa_accepts,
    frobenius_of_finite_set,
    glushkov_star,
    length_spectrum,
    numeric_frobenius,
    parse_regex,
    subset_construct,
)
from star_frobenius.selftest import random_regex

GOLDEN_CNF = CnfInstance(3, tuple(sign_patterns((1, 2, 3))))


def test_decide_sigma_star():
    result = decide_cofinite(parse_regex("a"), Alphabet("a"))
    assert result.cofinite
    assert result.frobenius_length is None
    assert result.witness is None


def test_decide_parity_not_cofinite():
    result = decide_cofinite(parse_regex("aa"), Alphabet("a"))
    assert not result.cofinite
    assert result.window_witness is not None
    length, word = result.window_witness
    assert length >= result.trimmed_complement_states
    assert word == "a" * length


def test_decide_two_or_three():
    result = decide_cofinite(parse_regex("aa+aaa"), Alphabet("a"))
    assert result.cofinite
    assert result.frobenius_length == 1
    assert result.witness == "a"


def test_decide_foreign_letter():
    result = decide_cofinite(parse_regex("a"), Alphabet("ab"))
    assert not result.cofinite


def test_decide_empty_alphabet_degenerate():
    result = decide_cofinite(parse_regex("ε"))
    assert result.cofinite
    assert result.frobenius_length is None


def test_decide_golden_reduction():
    result = decide_cofinite(cnf_to_regex(GOLDEN_CNF))
    assert result.cofinite
    assert result.frobenius_length == 5
    assert result.witness == "FFFFF"


def test_decide_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        decide_cofinite(parse_regex("ab"), Alphabet("a"))


def test_window_witness_is_pumpable():
    # A not-co-finite verdict must come with a witness long enough to pump.
    for text, alpha in [("aa", "a"), ("a", "ab"), ("ab+ba", "ab")]:
        alphabet = Alphabet(alpha)
        result = decide_cofinite(parse_regex(text), alphabet)
        assert not result.cofinite
        length, word = result.window_witness
        assert length == len(word)
        assert length >= result.trimmed_complement_states

        comp = complement(
            subset_construct(glushkov_star(parse_regex(text), alphabet), alphabet)
        )
        assert dfa_accepts(comp, word)
        # locate a cycle on the accepting path and pump it 1..3 times
        path = [comp.start]
        for ch in word:
            path.append(comp.row(path[-1])[alphabet.symbols.index(ch)])
        first_visit = {}
        loop = None
        for index, state in enumerate(path):
            if state in first_visit:
                loop = (first_visit[state], index)
                break
            first_visit[state] = index
        assert loop is not None
        start, end = loop
        prefix, infix, suffix = word[:start], word[start:end], word[end:]
        for repeats in (2, 3, 4):
            assert dfa_accepts(comp, prefix + infix * repeats + suffix)


def test_frobenius_maximality_layers():
    # every length in (L, L + n'] must have all words present in the closure
    for text, alpha in [("aa+aaa", "a"), ("aaa+aaaa", "a")]:
        alphabet = Alphabet(alpha)
        result = decide_cofinite(parse_regex(text), alphabet)
        assert result.cofinite and result.frobenius_length is not None
        comp = complement(
            subset_construct(glushkov_star(parse_regex(text), alphabet), alphabet)
        )
        accepting = accepting_states(comp.accepting)
        current = {comp.start}
        for level in range(result.frobenius_length + result.trimmed_complement_states + 1):
            if level > result.frobenius_length:
                assert not (current & accepting)
            current = {q for p in current for q in comp.row(p)}


def test_finite_set_two_or_three():
    result = frobenius_of_finite_set(["aa", "aaa"], Alphabet("a"))
    assert result.cofinite
    assert result.frobenius_length == 1


def test_finite_set_all_length_three_words():
    # lengths of the closure are multiples of 3, so infinitely many lengths
    # are missing: not co-finite (adjudicated by the pipeline and checked
    # against the length structure directly)
    words = {"".join(t) for t in itertools.product("FT", repeat=3)}
    result = frobenius_of_finite_set(words, Alphabet("FT"))
    assert not result.cofinite


def test_finite_set_epsilon_only():
    result = frobenius_of_finite_set([""], Alphabet("a"))
    assert not result.cofinite


def test_finite_set_empty():
    result = frobenius_of_finite_set([], Alphabet("a"))
    assert not result.cofinite


def test_finite_set_word_outside_alphabet():
    with pytest.raises(AlphabetMismatch):
        frobenius_of_finite_set(["ab"], Alphabet("a"))


def reference_numeric_frobenius(xs):
    """Scan upward marking representable values; once min(xs) consecutive
    values are representable every larger value is too, so the last gap
    seen is the Frobenius number.  O(g·k) time: small inputs only."""
    smallest = min(xs)
    reachable = [True]
    last_gap = -1
    run = 0
    v = 1
    while run < smallest:
        hit = any(v >= x and reachable[v - x] for x in xs)
        reachable.append(hit)
        if hit:
            run += 1
        else:
            run = 0
            last_gap = v
        v += 1
    return last_gap


def test_numeric_examples():
    assert numeric_frobenius([2, 3]).g == 1
    assert numeric_frobenius([1, 7]).g == -1
    assert numeric_frobenius([3, 5]).g == 7
    assert numeric_frobenius([6, 10, 15]).g == 29
    assert numeric_frobenius([15, 6, 10, 6]).inputs == (15, 6, 10, 6)
    with pytest.raises(GcdNotOne):
        numeric_frobenius([4, 6])


def test_numeric_pair_identity():
    rng = random.Random(13)
    pairs = [(n, n + 1) for n in range(2, 13)]
    pairs += [(rng.randint(2, 10**4), rng.randint(2, 10**4)) for _ in range(40)]
    for p, q in pairs:
        if math.gcd(p, q) == 1:
            assert numeric_frobenius([p, q]).g == p * q - p - q


def test_numeric_matches_reference_scan():
    rng = random.Random(12)
    draws = [[rng.randint(1, 60) for _ in range(rng.randint(1, 4))] for _ in range(1500)]
    draws += [[1], [1, 1], [1, 60], [7, 7, 9], [9, 7, 9, 7], [60, 59, 59]]
    coprime = [xs for xs in draws if reduce(math.gcd, xs) == 1]
    assert any(1 in xs for xs in coprime)
    assert any(len(set(xs)) < len(xs) for xs in coprime)
    for xs in coprime:
        assert numeric_frobenius(xs).g == reference_numeric_frobenius(xs), xs


def roberts(a, d, s):
    """Roberts (1956): g(a, a + d, ..., a + s·d) for gcd(a, d) = 1."""
    return ((a - 2) // s + 1) * a + (d - 1) * (a - 1) - 1


def test_numeric_arithmetic_sequences_closed_form():
    rng = random.Random(14)
    cases = [(4999, 3, 3), (7919, 10, 2)]
    while len(cases) < 40:
        a, d, s = rng.randint(2, 8000), rng.randint(1, 50), rng.randint(1, 6)
        if math.gcd(a, d) == 1:
            cases.append((a, d, s))
    for a, d, s in cases:
        coins = [a + i * d for i in range(s + 1)]
        assert numeric_frobenius(coins).g == roberts(a, d, s), coins


def _representable(value, xs):
    reach = {0}
    for _ in range(value):
        reach |= {r + x for r in reach for x in xs if r + x <= value}
    return value in reach


def test_numeric_beyond_pairwise_bound():
    # the two smallest inputs share a factor; the answer lies past their
    # product
    assert numeric_frobenius([4, 6, 99]).g == 101
    assert not _representable(101, [4, 6, 99])
    for v in range(102, 140):
        assert _representable(v, [4, 6, 99])


def test_numeric_validation():
    with pytest.raises(ValueError):
        numeric_frobenius([])
    with pytest.raises(ValueError):
        numeric_frobenius([0, 3])
    with pytest.raises(ValueError):
        numeric_frobenius([2.5, 3])
    with pytest.raises(ValueError, match="inputs must be positive integers"):
        numeric_frobenius([True, 3])


def test_numeric_budget_bounds_the_table():
    # the table has min(xs) entries; the check comes after the gcd test
    with pytest.raises(BudgetExceeded):
        numeric_frobenius([101, 103], budget=100)
    with pytest.raises(GcdNotOne):
        numeric_frobenius([202, 206], budget=100)
    assert numeric_frobenius([100, 103], budget=100).g == 100 * 103 - 100 - 103


def test_length_spectrum_examples():
    assert length_spectrum(parse_regex("aa"), 10) == ({2}, 2)
    assert length_spectrum(parse_regex("aa+aaa"), 10) == ({2, 3}, 1)
    cnf = CnfInstance(3, ((1, -2, 3),))
    assert length_spectrum(cnf_to_regex(cnf), 10) == ({3, 4}, 1)
    assert length_spectrum(parse_regex("ε"), 5) == ({0}, 0)
    assert length_spectrum(parse_regex("a*"), 4) == ({0, 1, 2, 3, 4}, 1)


def test_length_spectrum_needs_a_positive_horizon():
    with pytest.raises(ValueError, match="horizon"):
        length_spectrum(parse_regex("a"), 0)


def _minimal_generators(lengths):
    generators = []
    representable = {0}
    for value in sorted(lengths):
        if value == 0:
            continue
        if value not in representable:
            generators.append(value)
        horizon = max(lengths)
        new = set(representable)
        frontier = set(representable)
        while frontier:
            frontier = {
                r + g
                for r in frontier
                for g in generators
                if r + g <= horizon
            } - new
            new |= frontier
        representable = new
    return generators


def test_unary_consistency():
    # over a one-letter alphabet the decision must agree with the numeric
    # coin problem on the minimal generating lengths
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        ast = random_regex(rng, "a", 6)
        lengths, gcd_value = length_spectrum(ast, 64)
        result = decide_cofinite(ast, Alphabet("a"))
        nonzero = {l for l in lengths if l}
        if not nonzero:
            assert not result.cofinite
            continue
        assert reduce(math.gcd, nonzero) == gcd_value
        assert result.cofinite == (gcd_value == 1)
        if not result.cofinite:
            continue
        generators = _minimal_generators(nonzero)
        g = numeric_frobenius(generators).g
        if g == -1:
            assert result.frobenius_length is None
        else:
            assert result.frobenius_length == g
        checked += 1
    assert checked >= 10

    # wider seeded coin sets: a^p+a^q(+a^r) with coins from 10 to 200
    rng = random.Random(78)
    for _ in range(8):
        while True:
            coins = sorted(rng.sample(range(10, 201), rng.randint(2, 3)))
            if reduce(math.gcd, coins) == 1:
                break
        ast = parse_regex("+".join("a" * c for c in coins))
        result = decide_cofinite(ast, Alphabet("a"))
        g = numeric_frobenius(coins).g
        assert result.cofinite
        assert result.frobenius_length == g
        assert result.witness == "a" * g
