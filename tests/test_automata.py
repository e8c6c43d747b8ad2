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
    sat_bruteforce,
    star_closure,
    subset_construct,
    symbol_length,
    trim_useful,
    Union,
    verify_rejected,
    window_accepts,
    words_to_regex,
)
from star_frobenius import automata
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


@pytest.fixture
def plan_shapes(monkeypatch):
    """The plans subset_construct makes, one per letter group when the
    reachable states span two or more 64-bit chunks: each as (its shift
    offsets, its number of tests), or None for a group that has none."""
    shapes = []
    make = automata._plan

    def record(*args):
        plan = make(*args)
        shapes.append(plan and (sorted(d for _, d in plan[0]), len(plan[1])))
        return plan

    monkeypatch.setattr(automata, "_plan", record)
    return shapes


def plans_over_both_alphabets(nfa, shapes):
    """assert_same_dfa over the NFA's alphabet and over one widened by
    letters that enter no state (they join a letter group, so the plans
    stay the same); the plans made."""
    shapes.clear()
    assert_same_dfa(nfa, nfa.alphabet)
    made = list(shapes)
    assert_same_dfa(nfa, nfa.alphabet.union(Alphabet("xyz")))
    assert shapes == made * 2
    return made


def unary_coins(*coins):
    return glushkov_star(parse_regex("+".join("a" * c for c in coins)))


def reversed_chain(n):
    """p reads a into p - 1, from state n - 1 to the accepting state 0."""
    table = [1 << p - 1 if p else 0 for p in range(n)]
    return Nfa(n, Alphabet("a"), 1 << n - 1, 1, table)


def forward_chain(n):
    table = [1 << p + 1 if p < n - 1 else 0 for p in range(n)]
    return Nfa(n, Alphabet("a"), 1, 1 << n - 1, table)


def steps(n, offsets):
    """The i-th letter reads p into the states p + d, for d in offsets[i],
    that lie in 0..n-1; start 0, accepting n - 1.  Letters enter
    overlapping states, so each is a letter group of its own."""
    table = [
        sum(1 << p + d for d in letter if 0 <= p + d < n)
        for p in range(n)
        for letter in offsets
    ]
    return Nfa(n, Alphabet("abc"[: len(offsets)]), 1, 1 << n - 1, table)


@pytest.mark.parametrize(
    "coins", [(31, 34), (40, 29, 30), (7, 121), (64, 65), (3, 497), (100, 150, 250)]
)
def test_subset_construct_unary_coin_plans(coins, plan_shapes):
    # 65 to 500 positions: the edges p -> p + 1 are one shift, and the star
    # row, shared by position 0 and each coin's last position, one test
    nfa = unary_coins(*coins)
    assert plans_over_both_alphabets(nfa, plan_shapes) == [([1], 1)]


@pytest.mark.parametrize(
    "nfa, plan",
    [
        (glushkov_star(parse_regex("ab" * 40)), ([-79, 1], 0)),
        (glushkov_star(parse_regex("ab" * 600)), ([-1199, 1], 0)),
        (reversed_chain(70), ([-1], 0)),
        (reversed_chain(2000), ([-1], 0)),
        (star_closure(reversed_chain(300)), ([-1], 1)),
    ],
)
def test_subset_construct_negative_offset_plans(nfa, plan, plan_shapes):
    assert plans_over_both_alphabets(nfa, plan_shapes) == [plan]


def test_subset_construct_shuffled_ids_take_no_plan(plan_shapes):
    # a position automaton under shuffled ids, beside unreachable states,
    # has no offset worth a shift: it is renumbered and read in chunks
    rng = random.Random(67)
    made = []
    for _ in range(12):
        nfa = scattered_nfa(rng)
        made += plans_over_both_alphabets(nfa, plan_shapes)
        made += plans_over_both_alphabets(star_closure(nfa), plan_shapes)
    assert len(made) >= 15
    assert made == [None] * len(made)


@pytest.mark.parametrize("before, after", [(0, 40), (25, 0), (30, 50)])
def test_subset_construct_plans_beside_unreachable_states(before, after, plan_shapes):
    # "(ab+c)" * 100 moves by 1 to 4 positions; unreachable states before
    # and after the positions, with edges into the positions, change no
    # offset and no letter group
    base = glushkov_star(parse_regex("(ab+c)" * 100))
    m, k = base.state_count, len(base.alphabet)
    n = before + m + after
    rng = random.Random(before + after)
    table = [
        1 << before + rng.randrange(m) | 1 << rng.randrange(n) for _ in range(before * k)
    ]
    table += [row << before for row in base.transitions]
    table += [1 << rng.randrange(n) | 1 << before for _ in range(after * k)]
    nfa = Nfa(n, base.alphabet, 1 << before, base.accepting << before, table)
    assert plans_over_both_alphabets(nfa, plan_shapes) == [([1, 2, 3, 4], 1)]


def test_subset_construct_rest_states_take_no_plan(plan_shapes):
    # b's row {c, d, e, f, g} has too many members to shift, and no other
    # state shares it, so a plan would leave b alone: the group is read in
    # chunks
    nfa = glushkov_star(parse_regex("a" * 130 + "+" + "a" * 135 + "+b(c+d+e+f+g)"))
    assert plans_over_both_alphabets(nfa, plan_shapes) == [None]


def behind_unreachable_states(nfa, before):
    """``nfa`` with its ids raised by ``before``, above as many edgeless
    unreachable states."""
    table = [0] * (before * len(nfa.alphabet))
    table += [row << before for row in nfa.transitions]
    return Nfa(
        before + nfa.state_count,
        nfa.alphabet,
        nfa.initial << before,
        nfa.accepting << before,
        table,
    )


@pytest.mark.parametrize(
    "nfa, plan",
    [
        (unary_coins(31, 34), ([1], 1)),
        (glushkov_star(parse_regex("(ab+c)" * 100)), ([1, 2, 3, 4], 1)),
    ],
)
def test_subset_construct_plans_behind_a_long_unreachable_prefix(nfa, plan, plan_shapes):
    # the 100,000 unreachable states below the positions are dropped before
    # planning, so they widen no subset and no table
    peaks = []
    for case in (nfa, behind_unreachable_states(nfa, 100_000)):
        tracemalloc.start()
        try:
            dfa = subset_construct(case, None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert dfa == reference_subset_construct(case, case.alphabet)
    assert plan_shapes == [plan, plan]
    assert peaks[1] < peaks[0] + 2**18


def chains_across_a_gap(gap):
    """Two 50-state chains on a, the first's end joined to the second's
    start across ``gap`` unreachable ids; start 0, the last state accepts."""
    n = 100 + gap
    table = [0] * n
    for p in range(49):
        table[p] = 1 << p + 1
        table[n - 50 + p] = 1 << n - 49 + p
    table[49] = 1 << n - 50
    return Nfa(n, Alphabet("a"), 1, 1 << n - 1, table)


def test_subset_construct_renumbers_across_a_long_unreachable_gap(plan_shapes):
    # the reachable ids are renumbered by rank, so the 100,000 unreachable
    # ids between the chains widen no subset
    gapless, gapped = chains_across_a_gap(0), chains_across_a_gap(100_000)
    peaks, dfas = [], []
    for case in (gapless, gapped):
        tracemalloc.start()
        try:
            dfas.append(subset_construct(case, None))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert dfas[0] == dfas[1] == reference_subset_construct(gapped, gapped.alphabet)
    assert dfas[0].state_count == 101
    assert plan_shapes == [([1], 0), ([1], 0)]
    assert peaks[1] < 2 * peaks[0]


@pytest.mark.parametrize(
    "nfa, plans",
    [
        (
            steps(150, [(1, 3), (2,), (-1,)]),
            [([1, 3], 0), ([2], 0), ([-1], 0)],
        ),
        (
            star_closure(steps(200, [(1,), (2,), (-1,)])),
            [([1], 1), ([2], 1), ([-1], 0)],
        ),
    ],
)
def test_subset_construct_plans_per_letter_group(nfa, plans, plan_shapes):
    assert plans_over_both_alphabets(nfa, plan_shapes) == plans


def test_subset_construct_one_group_without_a_plan(plan_shapes, monkeypatch):
    # a reads p into p + 1 and p + 2, and every 25th state reads b into a
    # random state: a's group has a plan and b's none, so neither plan is
    # used and both groups are read in chunks
    monkeypatch.setattr(automata, "_compiled_step", lambda shape: pytest.fail())
    rng = random.Random(71)
    n = 150
    table = [
        row % (1 << n)
        for p in range(n)
        for row in (3 << p + 1, 1 << rng.randrange(n) if p % 25 == 0 else 0)
    ]
    nfa = Nfa(n, Alphabet("ab"), 1, 1 << n - 1, table)
    assert plans_over_both_alphabets(nfa, plan_shapes) == [([1, 2], 0), None]


def planned_nfa(rng):
    """A random NFA with plans of a random shape, built from the plans: 20
    to 90 states, one to three letter groups of one to three letters, each
    group with one to three shifts (offsets of either sign) and zero to
    three tests, and some letters that enter nothing.  Each state lies in
    at most one shift's mask or test's states, and a test's row holds one
    state and maybe the last, which has no edges, so a subset of the one
    to three initial states holds at most four.  Returns the NFA, the
    alphabet widened by the letters that enter nothing, and the (union
    rows, enters) groups and plans that _planned takes."""
    n = rng.randint(20, 90)
    names = iter("abcdefghi")
    groups, plans, rows_of, declared = [], [], {}, []
    for _ in range(rng.randint(1, 3)):
        offsets = [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(rng.randint(1, 3))]
        slots = offsets + [None] * rng.randint(0, 3)  # None for a test
        members = [[] for _ in slots]
        for p in range(n - 1):
            j = rng.randrange(len(slots))
            if slots[j] is None or 0 <= p + slots[j] < n:
                members[j].append(p)
        union = [0] * n
        shifts, tests = [], []
        for d, states in zip(slots, members):
            mask = sum(1 << p for p in states)
            if d is None:
                row = 1 << rng.randrange(n) | rng.randrange(2) << n - 1
                tests.append((mask, row))
                for p in states:
                    union[p] |= row
            else:
                shifts.append((mask, d))
                for p in states:
                    union[p] |= 1 << p + d
        letters = [next(names) for _ in range(rng.randint(1, 3))]
        live = rng.sample(letters, rng.randint(1, len(letters)))
        owner = [rng.choice(live) for _ in range(n)]  # the letter entering q
        enters = []
        for a in letters:
            enters.append(sum(1 << q for q in range(n) if owner[q] == a))
            if a in live:
                rows_of[a] = [row & enters[-1] for row in union]
        declared += letters
        groups.append((union, enters))
        plans.append((shifts, tests))
    own = Alphabet(rows_of)
    table = [rows_of[a][p] for p in range(n) for a in own.symbols]
    initial = sum(1 << p for p in rng.sample(range(n), rng.randint(1, 3)))
    accepting = sum(1 << p for p in range(n) if rng.random() < 0.3)
    nfa = Nfa(n, own, initial, accepting, table)
    return nfa, Alphabet(declared), groups, plans


def test_compiled_step_matches_reference_on_random_shapes():
    rng = random.Random(97)
    shapes, widened = set(), 0
    for _ in range(100):
        nfa, declared, groups, plans = planned_nfa(rng)
        reference = reference_subset_construct(nfa, declared)
        dfa = automata._planned(groups, plans, nfa.initial, nfa.accepting, declared)
        assert dfa == reference
        assert subset_construct(nfa, declared) == reference
        widened += declared != nfa.alphabet
        shapes.add(
            tuple(
                (tuple(sorted({d > 0 for _, d in shifts})), len(tests), len(enters))
                for (shifts, tests), (_, enters) in zip(plans, groups)
            )
        )
    groups_of = [group for shape in shapes for group in shape]
    assert {len(shape) for shape in shapes} == {1, 2, 3}
    directions = {signs for signs, _, _ in groups_of}
    assert directions == {(False,), (True,), (False, True)}
    assert {tests for _, tests, _ in groups_of} == {0, 1, 2, 3}
    assert {letters for _, _, letters in groups_of} == {1, 2, 3}
    assert widened >= 20


def test_compiled_step_is_cached_by_shape(monkeypatch):
    # two unary coin sets of one shape, one shift, one test and one letter,
    # but other masks, compile one loop between them
    compile_step = automata._compiled_step
    keys = []

    def record(shape):
        keys.append(shape)
        return compile_step(shape)

    monkeypatch.setattr(automata, "_compiled_step", record)
    compile_step.cache_clear()
    for nfa in (unary_coins(31, 34), unary_coins(7, 121)):
        assert_same_dfa(nfa, nfa.alphabet)
    assert keys[0] == keys[1]
    assert compile_step.cache_info().misses == 1
    assert compile_step.cache_info().hits == 1

    def scalars(key):
        if type(key) is tuple:
            return all(map(scalars, key))
        return type(key) in (int, bool)

    assert scalars(keys[0])


def mostly_deterministic_nfa(rng):
    """65-120 states over two or three letters; each state reads a letter
    into one random state, two, or none."""
    n = rng.randint(65, 120)
    alphabet = Alphabet("abc"[: rng.randint(2, 3)])
    table = []
    for _ in range(n * len(alphabet)):
        x = rng.random()
        count = 1 if x < 0.5 else 2 if x < 0.53 else 0
        table.append(sum(1 << rng.randrange(n) for _ in range(count)))
    accepting = sum(1 << q for q in range(n) if rng.random() < 0.2)
    return Nfa(n, alphabet, 1 << rng.randrange(n), accepting, table)


def test_subset_construct_star_closures_of_several_letter_groups(plan_shapes):
    # a random NFA's edges share no offset, so each of its star's two or
    # three letter groups, when more than 64 states are reachable, is
    # renumbered and read in chunks
    rng = random.Random(73)
    made = []
    for _ in range(12):
        made += plans_over_both_alphabets(
            star_closure(mostly_deterministic_nfa(rng)), plan_shapes
        )
    assert len(made) >= 6
    assert made == [None] * len(made)


def test_subset_construct_reversed_chain_keeps_its_ids():
    # the reversed chain runs against breadth-first order, but its edges
    # are one shift, so no renamed copy of its rows is made
    peaks = []
    for nfa in (forward_chain(2000), reversed_chain(2000)):
        tracemalloc.start()
        try:
            subset_construct(nfa, None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


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


def plain_searches(dfa):
    """The reachable and the co-reachable states, by repeated set unions."""
    n = dfa.state_count
    reachable = {dfa.start}
    while True:
        more = reachable | {q for p in reachable for q in dfa.row(p)}
        if more == reachable:
            break
        reachable = more
    coreachable = accepting_states(dfa.accepting)
    while True:
        more = coreachable | {
            p for p in range(n) if any(q in coreachable for q in dfa.row(p))
        }
        if more == coreachable:
            break
        coreachable = more
    return reachable, coreachable


def brute_force_trim(dfa):
    """The useful states, whether the language is infinite, and the longest
    accepted word with its smallest witness (None when the language is
    empty or infinite), from plain searches and from enumerating every
    word of up to |Q| letters."""
    n, symbols = dfa.state_count, dfa.alphabet.symbols
    reachable, coreachable = plain_searches(dfa)
    accepting = accepting_states(dfa.accepting)
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


def memoized_longest(dfa, useful):
    """best[p] for each useful p, the longest accepted length from p, by a
    depth-first search that memoizes each state once its useful successors
    are done; None when the search meets a state still open (a cycle)."""
    accepting = accepting_states(dfa.accepting)
    best, open_states = {}, set()
    for root in useful:
        stack = [root]
        while stack:
            p = stack[-1]
            if p in best:
                stack.pop()
                continue
            successors = [q for q in dfa.row(p) if q in useful]
            if any(q in open_states for q in successors if q not in best):
                return None
            pending = [q for q in successors if q not in best]
            if pending:
                open_states.add(p)
                stack += pending
                continue
            stack.pop()
            open_states.discard(p)
            lengths = [best[q] + 1 for q in successors]
            best[p] = max(lengths + [0] if p in accepting else lengths)
    return best


def benchmark_sized_complements():
    """Complements of DFAs of about a thousand states: those of a seeded
    satisfiable and a seeded unsatisfiable n = 6 reduction, and of
    a^31 + a^34."""
    rng = random.Random(6)
    reductions = {}
    while len(reductions) < 2:
        cnf = random_cnf(rng, 6, 40, min_vars=6)
        reductions.setdefault(sat_bruteforce(cnf) is not None, cnf_to_regex(cnf))
    expressions = [
        reductions[True],
        reductions[False],
        parse_regex("a" * 31 + "+" + "a" * 34),
    ]
    return [complement(subset_construct(glushkov_star(ast), None)) for ast in expressions]


def test_trim_longest_and_window_on_benchmark_sized_dfas():
    dfas = benchmark_sized_complements()
    assert [dfa.state_count > 1000 for dfa in dfas] == [True] * 3
    for dfa, infinite in zip(dfas, (True, False, False)):
        reachable, coreachable = plain_searches(dfa)
        useful = reachable & coreachable
        view = trim_useful(dfa)
        assert sorted(view.states) == sorted(useful)
        best = memoized_longest(dfa, useful)
        assert (best is None) == (view.best is None) == infinite
        if infinite:
            with pytest.raises(InfiniteLanguage):
                longest_accepted(dfa)
        else:
            assert view.best == [best.get(p, -1) for p in range(dfa.state_count)]
            # the smallest longest word: the smallest letter that leaves a
            # word of the remaining length
            length, p, word = best[dfa.start], dfa.start, ""
            for r in range(length - 1, -1, -1):
                a, p = next(
                    (a, q)
                    for a, q in zip(dfa.alphabet.symbols, dfa.row(p))
                    if best.get(q) == r
                )
                word += a
            assert longest_accepted(dfa) == (length, word)
        n = len(useful)
        for lo, hi in ((n, 2 * n), (n // 2, n), (0, n)):
            assert window_accepts(dfa, lo, hi) == reference_window_accepts(dfa, lo, hi)


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
