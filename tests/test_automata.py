import random
import time
import tracemalloc
from functools import reduce

import pytest

from conftest import (
    acceptance_table,
    accepting_states,
    naive_bool_matrices,
    naive_bool_product,
    words_up_to,
)
from star_frobenius import (
    Alphabet,
    AlphabetMismatch,
    alphabet_of,
    Concat,
    Dfa,
    InfiniteLanguage,
    Nfa,
    NfaFormatError,
    ReachabilityMatrix,
    UnknownSymbol,
    bruteforce_cofinite,
    cnf_to_regex,
    complement,
    decide_cofinite,
    dfa_accepts,
    glushkov,
    glushkov_star,
    is_infinite,
    longest_accepted,
    member_star_dp,
    nfa_accepts,
    parse_nfa,
    parse_regex,
    regex_match,
    star_closure,
    subset_construct,
    symbol_length,
    trim_useful,
    Union,
    verify_rejected,
    window_accepts,
    words_to_regex,
)
from star_frobenius.oracle import Matcher, _star_reachable
from star_frobenius.selftest import random_cnf, random_regex

SIGMA34 = words_to_regex(
    [w for w in words_up_to("FT", 4) if len(w) in (3, 4)]
)


def test_glushkov_star_single_symbol():
    nfa = glushkov_star(parse_regex("a"))
    assert nfa.state_count == 2
    assert nfa.initial == 0b1
    assert nfa.accepting == 0b11
    for word, expected in [("", True), ("a", True), ("aaaa", True)]:
        assert nfa_accepts(nfa, word) == expected


def test_glushkov_tables():
    # positions 1 = a, 2 = b, 3 = b; follow(0) = first = {1, 3},
    # follow(1) = {2}, follow(3) = {3}; p's entry for a letter is
    # follow(p) & the positions of that letter (a: {1}, b: {2, 3})
    nfa = glushkov(parse_regex("ab+b*"))
    assert nfa.alphabet == Alphabet("ab")
    assert nfa.transitions == [0b10, 0b1000, 0, 0b100, 0, 0, 0, 0b1000]
    assert nfa.row(3) == [0, 0b1000]
    assert nfa.accepting == 0b1101
    # the star adds follow(2) = follow(3) = first
    star = glushkov_star(parse_regex("ab+b*"))
    assert star.transitions == [0b10, 0b1000, 0, 0b100, 0b10, 0b1000, 0b10, 0b1000]
    assert star.accepting == 0b1101
    # a declared letter the expression lacks gets a zero column
    star = glushkov_star(parse_regex("ab"), Alphabet("abc"))
    assert star.transitions == [0b10, 0, 0, 0, 0b100, 0, 0b10, 0, 0]
    assert star.accepting == 0b101


def test_star_closure_tables():
    # a*b: 0 -a-> 0, 0 -b-> 1; the fresh state 2 copies row 0, and the
    # accepting state 1 gains row 0 as well
    nfa = parse_nfa(NFA_TEXT)
    assert nfa.transitions == [0b1, 0b10, 0, 0]
    closed = star_closure(nfa)
    assert closed.transitions == [0b1, 0b10, 0b1, 0b10, 0b1, 0b10]
    assert (closed.initial, closed.accepting) == (0b100, 0b110)
    # two initial states: the fresh row is the union of their rows, and it
    # is ORed into each accepting row (an initial one included)
    nfa = parse_nfa(
        "states 3\nalphabet ab\ninitial 0 1\naccepting 0 2\n"
        "0 a 1\n1 b 2\n2 a 0\n"
    )
    assert nfa.transitions == [0b10, 0, 0, 0b100, 0b1, 0]
    closed = star_closure(nfa)
    assert closed.transitions == [0b10, 0b100, 0, 0b100, 0b11, 0b100, 0b10, 0b100]
    assert (closed.initial, closed.accepting) == (0b1000, 0b1101)


def test_glushkov_star_two_or_three():
    ast = parse_regex("aa+aaa")
    nfa = glushkov_star(ast)
    assert nfa.state_count == 6
    for word in words_up_to("a", 10):
        assert nfa_accepts(nfa, word) == member_star_dp(ast, word)
    assert not nfa_accepts(nfa, "a")


def test_glushkov_star_empty_set():
    nfa = glushkov_star(parse_regex("∅"))
    assert nfa.state_count == 1
    assert nfa_accepts(nfa, "")
    assert not nfa_accepts(nfa, "a")


def test_glushkov_plain_matches_direct_matcher():
    rng = random.Random(5)
    for _ in range(30):
        ast = random_regex(rng, "ab", 6)
        nfa = glushkov(ast)
        assert nfa.state_count == symbol_length(ast) + 1
        for word in words_up_to("ab", 5):
            assert nfa_accepts(nfa, word) == regex_match(ast, word)


def test_subset_construct_a_star():
    dfa = subset_construct(glushkov_star(parse_regex("a")), Alphabet("a"))
    # reachable subsets {0} and {1}; both accept, so the language is a*
    assert dfa.state_count == 2
    assert dfa.accepting == b"\1\1"
    for word in words_up_to("a", 6):
        assert dfa_accepts(dfa, word)


def test_subset_construct_parity():
    ast = parse_regex("aa")
    dfa = subset_construct(glushkov_star(ast), Alphabet("a"))
    assert dfa.state_count == 3
    for word in words_up_to("a", 10):
        assert dfa_accepts(dfa, word) == (len(word) % 2 == 0)
        assert dfa_accepts(dfa, word) == member_star_dp(ast, word)


def test_subset_construct_sink_for_foreign_letter():
    dfa = subset_construct(glushkov_star(parse_regex("a"), Alphabet("ab")), Alphabet("ab"))
    for word in words_up_to("ab", 4):
        assert dfa_accepts(dfa, word) == ("b" not in word)


def test_subset_construct_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        subset_construct(glushkov_star(parse_regex("ab")), Alphabet("a"))
    # a declared letter without edges counts too, as in decide_cofinite
    nfa = nfa_with_edges(2, "ab", [(0, "a", 1)])
    with pytest.raises(AlphabetMismatch):
        subset_construct(nfa, Alphabet("a"))
    with pytest.raises(AlphabetMismatch):
        decide_cofinite(nfa, Alphabet("a"))


def reference_subset_construct(nfa, alphabet):
    """Plain subset construction: for every subset and every letter, the
    union of that letter's rows over the subset's members, one bit at a
    time; states are numbered in breadth-first order."""
    rows = {a: [0] * nfa.state_count for a in alphabet}
    for p in range(nfa.state_count):
        for a, targets in zip(nfa.alphabet, nfa.row(p)):
            if targets:
                rows[a][p] = targets
    start = nfa.initial
    id_of = {start: 0}
    masks = [start]
    transitions = []
    for mask in masks:
        for a in alphabet:
            nxt = 0
            rest = mask
            while rest:
                low = rest & -rest
                nxt |= rows[a][low.bit_length() - 1]
                rest ^= low
            if nxt not in id_of:
                id_of[nxt] = len(masks)
                masks.append(nxt)
            transitions.append(id_of[nxt])
    accepting = {i for i, m in enumerate(masks) if m & nfa.accepting}
    table = acceptance_table(accepting, len(masks))
    return Dfa(len(masks), alphabet, 0, table, transitions)


def assert_same_dfa(nfa, alphabet):
    dfa = subset_construct(nfa, alphabet)
    assert dfa == reference_subset_construct(nfa, alphabet)
    return dfa


def test_subset_construct_matches_reference_on_random_regexes():
    rng = random.Random(31)
    for _ in range(150):
        letters = rng.choice(["a", "ab", "abc"])
        ast = reduce(
            rng.choice([Concat, Union]),
            [random_regex(rng, letters, 8) for _ in range(rng.randint(1, 5))],
        )
        for build in (glushkov, glushkov_star):
            nfa = build(ast)
            assert_same_dfa(nfa, nfa.alphabet)
            assert_same_dfa(nfa, nfa.alphabet.union(Alphabet("bcd")))


def random_nfa(rng):
    n = rng.randint(1, 12) if rng.random() < 0.8 else rng.randint(13, 40)
    alphabet = Alphabet(rng.sample("abc", rng.randint(0, 3)))
    density = rng.choice([0.1, 0.3]) if n <= 12 else 0.05
    transitions = [
        sum(1 << q for q in range(n) if rng.random() < density)
        for p in range(n)
        for a in alphabet
    ]
    initial = sum(1 << q for q in range(n) if rng.random() < 0.3)
    accepting = sum(1 << q for q in range(n) if rng.random() < 0.4)
    return Nfa(n, alphabet, initial, accepting, transitions)


def test_subset_construct_matches_reference_on_random_nfas():
    rng = random.Random(47)
    for _ in range(150):
        nfa = random_nfa(rng)
        for automaton in (nfa, star_closure(nfa)):
            assert_same_dfa(automaton, automaton.alphabet)
            assert_same_dfa(automaton, Alphabet("abc"))


def nfa_with_edges(state_count, alphabet, edges):
    alphabet = Alphabet(alphabet)
    transitions = [0] * (state_count * len(alphabet))
    for p, a, q in edges:
        transitions[p * len(alphabet) + alphabet.symbols.index(a)] |= 1 << q
    return Nfa(state_count, alphabet, 1, 1 << state_count - 1, transitions)


@pytest.mark.parametrize(
    "nfa, alphabet",
    [
        # a and b both enter state 1, so they need separate letter groups
        (nfa_with_edges(2, "ab", [(0, "a", 1), (0, "b", 1), (1, "a", 1)]), "ab"),
        # a and c enter disjoint states, but b, between them, overlaps a
        (
            nfa_with_edges(
                3, "abc", [(0, "a", 1), (1, "b", 1), (0, "c", 2), (2, "b", 0)]
            ),
            "abc",
        ),
        # only b overlaps: it shares state 1 with a and state 2 with c
        (
            nfa_with_edges(
                3,
                "abc",
                [(0, "a", 1), (0, "b", 1), (1, "b", 2), (2, "c", 2), (1, "a", 0)],
            ),
            "abc",
        ),
        # declared letters that enter no state, first, between and last
        (nfa_with_edges(3, "bd", [(0, "b", 1), (1, "d", 2), (2, "b", 0)]), "abcde"),
        (glushkov_star(parse_regex("ab")), "abcd"),
        # the empty alphabet: one state and no transitions
        (nfa_with_edges(1, "", []), ""),
        (star_closure(nfa_with_edges(2, "", [])), ""),
    ],
)
def test_subset_construct_named_cases(nfa, alphabet):
    dfa = assert_same_dfa(nfa, Alphabet(alphabet))
    for word in words_up_to(alphabet, 5):
        assert dfa_accepts(dfa, word) == nfa_accepts(nfa, word)


def test_subset_construct_long_literal():
    dfa = assert_same_dfa(glushkov_star(parse_regex("ab" * 1500)), Alphabet("ab"))
    assert dfa.state_count == 3002


def scattered_nfa(rng):
    """A position automaton of 64-280 states under shuffled ids, beside up
    to 40 states that no initial state reaches, started from position 0
    and up to three other positions.  Its subsets span several 64-bit
    chunks, in any order of ids."""
    letters = rng.choice(["ab", "abc"])
    ast = random_regex(rng, letters, 8)
    target = rng.randint(64, 280)
    while symbol_length(ast) < target:
        ast = rng.choice([Concat, Union])(ast, random_regex(rng, letters, 8))
    base = glushkov(ast)
    m, k = base.state_count, len(base.alphabet)
    n = m + rng.randint(0, 40)
    ids = rng.sample(range(n), n)

    def move(mask):
        return sum(1 << ids[q] for q in range(m) if mask >> q & 1)

    table = [0] * (n * k)
    for p in range(n):
        for i in range(k):
            if p < m:
                targets = move(base.transitions[p * k + i])
            else:  # unreachable, with edges into the reachable part too
                targets = 1 << ids[rng.randrange(n)] | 1 << ids[rng.randrange(n)]
            table[ids[p] * k + i] = targets
    starts = 1 | sum(1 << rng.randrange(m) for _ in range(rng.randint(0, 3)))
    hidden_accepting = sum(1 << ids[q] for q in range(m, n) if rng.random() < 0.5)
    return Nfa(n, base.alphabet, move(starts), move(base.accepting) | hidden_accepting, table)


def reachable_count(nfa):
    seen = frontier = nfa.initial
    while frontier:
        reached = 0
        for i in range(len(nfa.alphabet)):
            reached |= nfa.image(frontier, i)
        frontier = reached & ~seen
        seen |= reached
    return seen.bit_count()


def test_subset_construct_matches_reference_across_chunks():
    rng = random.Random(59)
    wide = 0
    for _ in range(40):
        nfa = scattered_nfa(rng)
        wide += reachable_count(nfa) > 64
        for automaton in (nfa, star_closure(nfa)):
            assert_same_dfa(automaton, automaton.alphabet)
            # d (and c for two-letter automata) enters no state
            assert_same_dfa(automaton, Alphabet("abcd"))
    assert wide >= 30


def test_subset_construct_matches_reference_on_reductions():
    rng = random.Random(61)
    sizes = []
    for _ in range(12):
        nfa = glushkov_star(cnf_to_regex(random_cnf(rng, 5, 24, min_vars=4)))
        sizes.append(nfa.state_count)
        assert_same_dfa(nfa, nfa.alphabet)
    assert max(sizes) > 128


def dense_nfa(n, reachable, seed):
    """Rows of about half of the first ``reachable`` states each, from
    state 3; the states from ``reachable`` on are unreachable."""
    rng = random.Random(seed)
    rows = [rng.getrandbits(reachable) for _ in range(2 * n)]
    return Nfa(n, Alphabet("ab"), 1 << 3, rng.getrandbits(n), rows)


@pytest.mark.parametrize(
    "nfa, alphabet",
    [
        # ids already breadth-first; {63, 64} and {127, 128} are subsets
        (glushkov_star(parse_regex("(a+a)" * 70)), "ab"),
        (glushkov(parse_regex("(a+b)" * 70 + "(a+b)*")), "abc"),
        # rows too dense to rename: the subsets are read under the given ids
        (dense_nfa(150, 130, 3), "ab"),
        (star_closure(dense_nfa(200, 190, 4)), "abc"),
        # no initial state: the DFA is the empty subset alone
        (Nfa(100, Alphabet("a"), 0, 1, [1 << (p + 1) % 100 for p in range(100)]), "a"),
        # the reachable states are 70..199: a reads {p} to {p + 1, p + 2},
        # b reads every state back to 70
        (
            Nfa(
                200,
                Alphabet("ab"),
                1 << 70,
                1 << 199 | 1 << 5,
                [0] * 140
                + [m for p in range(70, 200) for m in ((3 << p + 1) % (1 << 200), 1 << 70)],
            ),
            "ab",
        ),
    ],
)
def test_subset_construct_chunk_boundaries(nfa, alphabet):
    dfa = assert_same_dfa(nfa, Alphabet(alphabet))
    for word in words_up_to(alphabet, 4):
        assert dfa_accepts(dfa, word) == nfa_accepts(nfa, word)


def test_complement_involution():
    dfa = subset_construct(
        glushkov_star(parse_regex("ab+ba"), Alphabet("ab")), Alphabet("ab")
    )
    twice = complement(complement(dfa))
    for word in words_up_to("ab", 6):
        assert dfa_accepts(twice, word) == dfa_accepts(dfa, word)


def test_complement_of_sigma_star_is_empty():
    comp = complement(subset_construct(glushkov_star(parse_regex("a")), Alphabet("a")))
    for word in words_up_to("a", 6):
        assert not dfa_accepts(comp, word)


def test_complement_parity_flip():
    comp = complement(subset_construct(glushkov_star(parse_regex("aa")), Alphabet("a")))
    for word in words_up_to("a", 9):
        assert dfa_accepts(comp, word) == (len(word) % 2 == 1)


def test_complement_allocates_one_table():
    # a million states and no letters: the complement's acceptance table
    # is one byte per state, with no per-state set of ids
    dfa = Dfa(10**6, Alphabet(), 0, bytes(10**6), [])
    tracemalloc.start()
    try:
        comp = complement(dfa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert comp.accepting == b"\1" * 10**6
    assert complement(comp) == dfa


def test_trim_excludes_unreachable_accepting():
    dfa = Dfa(
        state_count=3,
        alphabet=Alphabet("a"),
        start=0,
        accepting=b"\1\0\1",
        transitions=[0, 2, 2],
    )
    view = trim_useful(dfa)
    assert view.states == [0]
    assert 2 not in view.states


def test_trim_empty_when_no_accepting():
    comp = complement(subset_construct(glushkov_star(parse_regex("a")), Alphabet("a")))
    assert trim_useful(comp).states == []


def test_trim_parity_complement_keeps_cycle():
    comp = complement(subset_construct(glushkov_star(parse_regex("aa")), Alphabet("a")))
    assert len(trim_useful(comp).states) == 3


def test_is_infinite_examples():
    parity_comp = complement(
        subset_construct(glushkov_star(parse_regex("aa")), Alphabet("a"))
    )
    assert is_infinite(parity_comp)

    empty_comp = complement(
        subset_construct(glushkov_star(parse_regex("a")), Alphabet("a"))
    )
    assert not is_infinite(empty_comp)


def test_sigma34_complement_is_finite():
    comp = complement(subset_construct(glushkov_star(SIGMA34), Alphabet("FT")))
    assert not is_infinite(comp)
    # brute-force enumeration: exactly the lengths {1, 2, 5} are missing
    report = bruteforce_cofinite(SIGMA34, Alphabet("FT"), 12)
    assert {row.length for row in report.missing} == {1, 2, 5}
    for word in words_up_to("FT", 8):
        assert dfa_accepts(comp, word) == (len(word) in {1, 2, 5})


def test_window_accepts_examples():
    parity_comp = complement(
        subset_construct(glushkov_star(parse_regex("aa")), Alphabet("a"))
    )
    assert window_accepts(parity_comp, 2, 4) == (3, "aaa")

    empty_comp = complement(
        subset_construct(glushkov_star(parse_regex("a")), Alphabet("a"))
    )
    assert window_accepts(empty_comp, 0, 10) is None

    sigma34_comp = complement(
        subset_construct(glushkov_star(SIGMA34), Alphabet("FT"))
    )
    assert window_accepts(sigma34_comp, 6, 12) is None
    assert window_accepts(sigma34_comp, 0, 12) == (1, "F")


def test_window_accepts_validates_bounds():
    dfa = subset_construct(glushkov_star(parse_regex("a")), Alphabet("a"))
    with pytest.raises(ValueError):
        window_accepts(dfa, 3, 2)
    with pytest.raises(ValueError):
        window_accepts(dfa, -1, 2)


def test_window_accepts_fails_fast_on_huge_window():
    # a 2-state cycle: the witness buffer of lo = 2**47 letters needs
    # 1 PiB of pointers, which is refused before the first backward layer
    dfa = Dfa(2, Alphabet("a"), 0, b"\0\1", [1, 0])
    with pytest.raises(MemoryError):
        window_accepts(dfa, 2**47, 2**48)


def reference_window_accepts(dfa, lo, hi):
    """Forward state sets from the start to find the smallest accepted
    length ℓ in [lo, hi), then ℓ + 1 backward sets, the states with an
    accepted word of exactly r letters, to walk the smallest word."""
    if not 0 <= lo <= hi:
        raise ValueError("window must satisfy 0 <= lo <= hi")
    if lo == hi:
        return None
    n, k = dfa.state_count, len(dfa.alphabet)
    rows = [dfa.transitions[p * k : (p + 1) * k] for p in range(n)]
    accepting = accepting_states(dfa.accepting)
    current = {dfa.start}
    for length in range(hi):
        if length >= lo and not current.isdisjoint(accepting):
            break
        if not current:
            return None
        current = {q for p in current for q in rows[p]}
    else:
        return None
    predecessors = [[] for _ in range(n)]
    for p in range(n):
        for q in rows[p]:
            predecessors[q].append(p)
    backward = [accepting]
    for _ in range(length):
        backward.append({p for q in backward[-1] for p in predecessors[q]})
    state, out = dfa.start, []
    for remaining in range(length - 1, -1, -1):
        for a, q in zip(dfa.alphabet.symbols, rows[state]):
            if q in backward[remaining]:
                out.append(a)
                state = q
                break
    return length, "".join(out)


def random_dfa(rng, max_states=30):
    n = rng.randint(1, max_states)
    alphabet = Alphabet(rng.sample("abc", rng.randint(0, 3)))
    density = rng.choice([0.05, 0.2, 0.5])
    return Dfa(
        n,
        alphabet,
        rng.randrange(n),
        acceptance_table({q for q in range(n) if rng.random() < density}, n),
        [rng.randrange(n) for _ in range(n * len(alphabet))],
    )


def test_window_accepts_matches_reference_on_random_dfas():
    rng = random.Random(83)
    for _ in range(1500):
        dfa = random_dfa(rng)
        lo = rng.randint(0, 80)
        hi = lo + rng.randint(0, 80)
        assert window_accepts(dfa, lo, hi) == reference_window_accepts(dfa, lo, hi)


def cycles_dfa(lengths, alphabet):
    """From the start, the i-th letter enters a cycle of lengths[i] states,
    which every letter advances; the last state of each cycle accepts."""
    k = len(alphabet)
    offsets = [1 + sum(lengths[:i]) for i in range(k)]
    transitions = list(offsets)
    accepting = set()
    for offset, size in zip(offsets, lengths):
        for i in range(size):
            transitions += [offset + (i + 1) % size] * k
        accepting.add(offset + size - 1)
    n = len(transitions) // k
    return Dfa(n, Alphabet(alphabet), 0, acceptance_table(accepting, n), transitions)


def test_window_accepts_matches_reference_when_period_exceeds_window():
    # the layers repeat with period 97 · 101 · 127, far beyond hi
    dfa = cycles_dfa([97, 101, 127], "abc")
    for lo, hi in [(0, 50), (98, 99), (100, 300), (300, 400), (329, 650), (500, 520)]:
        assert window_accepts(dfa, lo, hi) == reference_window_accepts(dfa, lo, hi)
    assert window_accepts(dfa, 100, 300) == (101, "b" + "a" * 100)


def test_window_accepts_start_never_reaches_acceptance():
    # 0 loops on itself; only 1 and 2, which 0 never reaches, accept
    dfa = Dfa(3, Alphabet("ab"), 0, b"\0\1\1", [0, 0, 2, 1, 1, 2])
    for lo, hi in [(0, 1), (0, 40), (5, 9), (30, 31)]:
        assert window_accepts(dfa, lo, hi) is None
        assert reference_window_accepts(dfa, lo, hi) is None


def test_window_accepts_empty_alphabet():
    accepting = Dfa(1, Alphabet(), 0, b"\1", [])
    rejecting = Dfa(2, Alphabet(), 0, b"\0\1", [])
    for dfa in (accepting, rejecting):
        for lo, hi in [(0, 1), (0, 5), (1, 5), (3, 3)]:
            assert window_accepts(dfa, lo, hi) == reference_window_accepts(dfa, lo, hi)
    assert window_accepts(accepting, 0, 5) == (0, "")
    assert window_accepts(accepting, 1, 5) is None


def test_window_accepts_long_window():
    # a 7-state cycle: a advances one state, b two; 6 accepts
    dfa = Dfa(
        7,
        Alphabet("ab"),
        0,
        b"\0\0\0\0\0\0\1",
        [q for p in range(7) for q in ((p + 1) % 7, (p + 2) % 7)],
    )
    started = time.perf_counter()
    length, word = window_accepts(dfa, 10**6, 2 * 10**6)
    assert time.perf_counter() - started < 2
    assert length == len(word) == 10**6
    assert dfa_accepts(dfa, word)


def test_longest_accepted_examples():
    empty_comp = complement(
        subset_construct(glushkov_star(parse_regex("a")), Alphabet("a"))
    )
    assert longest_accepted(empty_comp) is None

    a_or_aa = subset_construct(glushkov(parse_regex("a+aa")), Alphabet("a"))
    assert longest_accepted(a_or_aa) == (2, "aa")

    sigma34_comp = complement(
        subset_construct(glushkov_star(SIGMA34), Alphabet("FT"))
    )
    assert longest_accepted(sigma34_comp) == (5, "FFFFF")

    # finite word sets W, not starred: the longest word of W is the
    # greatest length in W, and its witness the smallest word of that length
    rng = random.Random(61)
    for _ in range(300):
        words = {
            "".join(rng.choice("ab") for _ in range(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 8))
        }
        dfa = subset_construct(glushkov(words_to_regex(words)), Alphabet("ab"))
        length = max(map(len, words))
        smallest = min(w for w in words if len(w) == length)
        assert longest_accepted(dfa) == (length, smallest)


def brute_force_trim(dfa):
    """The useful states, whether the language is infinite, and the longest
    accepted word with its smallest witness (None when the language is
    empty or infinite), from plain searches and from enumerating every
    word of up to |Q| letters."""
    n, symbols = dfa.state_count, dfa.alphabet.symbols
    reachable = {dfa.start}
    while True:
        more = reachable | {q for p in reachable for q in dfa.row(p)}
        if more == reachable:
            break
        reachable = more
    accepting = accepting_states(dfa.accepting)
    coreachable = set(accepting)
    while True:
        more = coreachable | {
            p for p in range(n) if any(q in coreachable for q in dfa.row(p))
        }
        if more == coreachable:
            break
        coreachable = more
    # A run of |Q| letters repeats a state, so the language is infinite iff
    # such a run can still be completed to an accepted word.
    infinite = False
    longest = None
    for word in words_up_to(symbols, n):
        state = dfa.start
        for ch in word:
            state = dfa.row(state)[symbols.index(ch)]
        if len(word) == n and state in coreachable:
            infinite = True
        if state in accepting and (longest is None or len(word) > longest[0]):
            longest = (len(word), word)
    return reachable & coreachable, infinite, None if infinite else longest


def assert_trim_matches_brute_force(dfa):
    states, infinite, longest = brute_force_trim(dfa)
    view = trim_useful(dfa)
    assert sorted(view.states) == sorted(states)
    assert (view.best is None) == infinite == is_infinite(dfa)
    if infinite:
        with pytest.raises(InfiniteLanguage):
            longest_accepted(dfa)
    else:
        assert longest_accepted(dfa) == longest
        assert view.best[dfa.start] == (-1 if longest is None else longest[0])
        assert all(view.best[q] == -1 for q in set(range(dfa.state_count)) - states)


@pytest.mark.parametrize(
    "dfa, states, infinite, longest",
    [
        # 2 accepts but is unreachable; 3 is a rejecting sink
        (
            Dfa(4, Alphabet("a"), 0, b"\0\1\1\0", [1, 3, 1, 3]),
            {0, 1},
            False,
            (1, "a"),
        ),
        # b leads into the dead cycle 2 <-> 3, which never reaches acceptance
        (
            Dfa(5, Alphabet("ab"), 0, b"\0\1\0\0\0", [1, 2, 4, 4, 3, 3, 2, 2, 4, 4]),
            {0, 1},
            False,
            (1, "a"),
        ),
        # an accepting self-loop: a*
        (Dfa(2, Alphabet("ab"), 0, b"\1\0", [0, 1, 1, 1]), {0}, True, None),
        # a rejecting self-loop before acceptance: a*b
        (
            Dfa(3, Alphabet("ab"), 0, b"\0\1\0", [0, 1, 2, 2, 2, 2]),
            {0, 1},
            True,
            None,
        ),
        # two paths of different lengths into one accepting state: a+bbbb
        (
            Dfa(
                6,
                Alphabet("ab"),
                0,
                b"\0\0\0\0\1\0",
                [4, 1, 5, 2, 5, 3, 5, 4, 5, 5, 5, 5],
            ),
            {0, 1, 2, 3, 4},
            False,
            (4, "bbbb"),
        ),
        # nothing accepts
        (Dfa(2, Alphabet("a"), 0, b"\0\0", [1, 0]), set(), False, None),
    ],
)
def test_trim_hand_built(dfa, states, infinite, longest):
    assert brute_force_trim(dfa) == (states, infinite, longest)
    assert_trim_matches_brute_force(dfa)


def random_forward_dfa(rng, max_states):
    """Edges mostly to higher states, so that many languages are finite
    and hold long words; the last state loops on itself, and an occasional
    edge to any state can close a cycle, live or dead."""
    n = rng.randint(1, max_states)
    alphabet = Alphabet(rng.sample("abc", rng.randint(1, 3)))
    back = rng.choice([0, 0.05, 0.2])
    transitions = [
        rng.randrange(n)
        if rng.random() < back
        else rng.randint(min(p + 1, n - 1), n - 1)
        for p in range(n)
        for _ in alphabet
    ]
    return Dfa(
        n,
        alphabet,
        rng.choice([0, rng.randrange(n)]),
        acceptance_table({q for q in range(n - 1) if rng.random() < 0.4}, n),
        transitions,
    )


def test_trim_matches_brute_force_on_random_dfas():
    rng = random.Random(97)
    for _ in range(800):
        assert_trim_matches_brute_force(random_dfa(rng, max_states=7))
        assert_trim_matches_brute_force(random_forward_dfa(rng, max_states=8))


def test_longest_accepted_rejects_infinite():
    parity_comp = complement(
        subset_construct(glushkov_star(parse_regex("aa")), Alphabet("a"))
    )
    with pytest.raises(InfiniteLanguage):
        longest_accepted(parity_comp)


def test_verify_rejected_examples():
    nfa = glushkov_star(parse_regex("aa"))
    assert verify_rejected(nfa, "a")
    assert not verify_rejected(nfa, "aaaa")

    nfa = glushkov_star(parse_regex("aa+aaa"))
    assert verify_rejected(nfa, "a")
    assert not verify_rejected(nfa, "aaaaa")
    assert not verify_rejected(nfa, "")


def test_verify_rejected_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        verify_rejected(glushkov_star(parse_regex("aa")), "ab")


def test_verify_rejected_agrees_with_dp():
    rng = random.Random(9)
    for _ in range(25):
        ast = random_regex(rng, "ab", 6)
        alphabet = Alphabet("ab")
        nfa = glushkov_star(ast, alphabet)
        for word in words_up_to(alphabet, 5):
            assert verify_rejected(nfa, word) == (not member_star_dp(ast, word))


def test_language_equality_four_routes():
    # DFA acceptance, direct NFA simulation, the matrix verifier, and the
    # prefix DP must agree on every word up to length 8
    rng = random.Random(2718)
    for _ in range(40):
        ast = random_regex(rng, "ab", 8)
        alphabet = alphabet_of(ast)
        nfa = glushkov_star(ast)
        dfa = subset_construct(nfa, alphabet)
        matcher = Matcher(ast)
        for word in words_up_to(alphabet, 8):
            expected = _star_reachable(matcher, word)
            assert dfa_accepts(dfa, word) == expected
            assert nfa_accepts(nfa, word) == expected
            assert verify_rejected(nfa, word) == (not expected)


def test_reachability_matrix_identity_and_product():
    nfa = glushkov_star(parse_regex("ab+ba"))
    identity = ReachabilityMatrix.identity(nfa.state_count)
    assert all(
        identity.entry(p, q) == (p == q)
        for p in range(nfa.state_count)
        for q in range(nfa.state_count)
    )

    naive = naive_bool_matrices(nfa)
    rng = random.Random(3)
    for _ in range(20):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 7)))
        matrix = ReachabilityMatrix.identity(nfa.state_count)
        grid = [
            [p == q for q in range(nfa.state_count)]
            for p in range(nfa.state_count)
        ]
        for ch in word:
            matrix = matrix.multiply(ReachabilityMatrix.for_letter(nfa, ch))
            grid = naive_bool_product(grid, naive[ch])
        for p in range(nfa.state_count):
            for q in range(nfa.state_count):
                assert matrix.entry(p, q) == grid[p][q]


NFA_TEXT = """
# loops on a, then one b
states 2
alphabet ab
initial 0
accepting 1
0 a 0
0 b 1
"""


def test_dfa_accepts_rejects_a_letter_outside_the_alphabet():
    dfa = subset_construct(glushkov_star(parse_regex("a")), None)
    assert dfa_accepts(dfa, "aa")
    assert not dfa_accepts(dfa, "ab")


def test_reachability_matrix_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ReachabilityMatrix.identity(2).multiply(ReachabilityMatrix.identity(3))


def test_parse_nfa_roundtrip_language():
    nfa = parse_nfa(NFA_TEXT)
    assert nfa.state_count == 2
    assert nfa.initial == 0b1
    assert nfa.accepting == 0b10
    for word in words_up_to("ab", 5):
        expected = set(word[:-1]) <= {"a"} and word.endswith("b")
        assert nfa_accepts(nfa, word) == expected


@pytest.mark.parametrize(
    "text",
    [
        "states 2\nalphabet ab\ninitial 0\naccepting 1\n0 c 1\n",
        "states 2\nalphabet ab\ninitial 0\naccepting 2\n",
        "states 2\nalphabet ab\ninitial 0\naccepting 1\n0 a\n",
        "alphabet ab\nstates 2\ninitial 0\naccepting 1\n",
        "states 2\nalphabet ab\ninitial 0\n",
        "states 0\nalphabet ab\ninitial\naccepting\n",
        "states 2\nalphabet ab\ninitial 0\naccepting 1\n0 a x\n",
        "states 2\nalphabet ab cd\ninitial 0\naccepting 1\n",
        "states 2\nalphabet a+\ninitial 0\naccepting 1\n",
        "states 2 3\nalphabet ab\ninitial 0\naccepting 1\n",
        "states \u00b2\nalphabet a\ninitial 0\naccepting 0\n",
        # ids are ASCII digits: int() would read these as 0, 11, 11, 3 and 3
        "states 12\nalphabet a\ninitial +0\naccepting 0\n",
        "states 12\nalphabet a\ninitial 0\naccepting 1_1\n",
        "states 12\nalphabet a\ninitial 0\naccepting 0\n0 a 1_1\n",
        "states 4\nalphabet a\ninitial \u0663\naccepting 0\n",
        "states \u0663\nalphabet a\ninitial 0\naccepting 0\n",
    ],
)
def test_parse_nfa_errors(text):
    with pytest.raises(NfaFormatError):
        parse_nfa(text)


def test_nfa_range_check_allocates_nothing_per_state():
    tracemalloc.start()
    try:
        Nfa(10**6, Alphabet(), 1, 1, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_subset_construct_allocates_nothing_per_unreachable_state():
    nfa = Nfa(100_000, Alphabet("a"), 1, 1, [0] * 100_000)
    tracemalloc.start()
    try:
        dfa = subset_construct(nfa, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dfa.state_count == 2
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "initial, accepting, transitions, message",
    [
        ({0}, {2}, [0, 0, 0, 0], "initial/accepting state out of range"),
        ({2}, {1}, [0, 0, 0, 0], "initial/accepting state out of range"),
        # a mask with a bit >= |Q|, and a negative mask (infinitely many bits)
        ({0}, {1}, [2, 0, 4, 0], "transition state out of range"),
        ({0}, {1}, [2, 0, -1, 0], "transition state out of range"),
        # the table must hold exactly |Q| * |alphabet| masks
        ({0}, {1}, [2, 0, 0], "transition table length"),
        ({0}, {1}, [2, 0, 0, 0, 0, 0], "transition table length"),
    ],
)
def test_nfa_rejects_bad_states_and_symbols(
    initial, accepting, transitions, message
):
    initial, accepting = (sum(1 << q for q in ids) for ids in (initial, accepting))
    with pytest.raises(ValueError, match=message):
        Nfa(2, Alphabet("ab"), initial, accepting, transitions)


@pytest.mark.parametrize(
    "initial, accepting", [(0b1, 1 << 70), (-1, 0b10), (0b1, -2), (-1, -1)]
)
def test_nfa_rejects_initial_and_accepting_masks_out_of_range(initial, accepting):
    # a bit >= |Q|, or a negative mask, whose bits run on without end
    with pytest.raises(ValueError, match="initial/accepting state out of range"):
        Nfa(2, Alphabet("ab"), initial, accepting, [0, 0, 0, 0])


@pytest.mark.parametrize(
    "start, accepting, transitions, message",
    [
        (0, [0, 1], [0, 1, 1], "transition table length"),
        (0, [0, 1], [0, 1, 1, 0, 0], "transition table length"),
        (2, [0, 1], [0, 1, 1, 0], "start/accepting state out of range"),
        (-1, [0, 1], [0, 1, 1, 0], "start/accepting state out of range"),
        # a table of |Q| + 1 bytes that marks state 2, and one of |Q| - 1
        (0, [0, 0, 1], [0, 1, 1, 0], "start/accepting state out of range"),
        (0, [1], [0, 1, 1, 0], "start/accepting state out of range"),
        # a byte other than 0 and 1
        (0, [0, 2], [0, 1, 1, 0], "accepting table is not bytes of 0 or 1"),
        # a target >= |Q|, and a negative one, which would index from the end
        (0, [0, 1], [0, 2, 1, 0], "transition state out of range"),
        (0, [0, 1], [0, -1, 1, 0], "transition state out of range"),
    ],
)
def test_dfa_rejects_bad_table_and_states(start, accepting, transitions, message):
    with pytest.raises(ValueError, match=message):
        Dfa(2, Alphabet("ab"), start, bytes(accepting), transitions)


def test_dfa_rejects_accepting_states_not_given_as_bytes():
    for accepting in (frozenset({1}), [0, 1], bytearray(b"\0\1")):
        with pytest.raises(ValueError, match="accepting table is not bytes"):
            Dfa(2, Alphabet("ab"), 0, accepting, [0, 1, 1, 0])


def test_star_closure_rejects_spurious_words():
    # language a*b; its closure must reject words that end mid-piece
    nfa = parse_nfa(NFA_TEXT)
    closed = star_closure(nfa)
    assert closed.state_count == nfa.state_count + 1
    expected_member = lambda w: member_star_dp(parse_regex("a*b"), w)
    for word in words_up_to("ab", 7):
        assert nfa_accepts(closed, word) == expected_member(word)


def test_decide_cofinite_accepts_nfa_input():
    text = """
states 6
alphabet a
initial 0
accepting 2 5
0 a 1
1 a 2
0 a 3
3 a 4
4 a 5
"""
    result = decide_cofinite(parse_nfa(text))
    assert result.cofinite
    assert result.frobenius_length == 1
    assert result.witness == "a"
    assert result.symbol_count is None
