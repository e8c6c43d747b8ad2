"""The five seeded workloads: how their inputs are made, turned into program
inputs, decided, and checked.

Every generator lives here and draws only from the ``random.Random`` it is
given, so a seed fixes the inputs whatever the program's own generators do.
The program receives text only: DIMACS, regex text, NFA text or integers.
Each workload is a fixed list of slots that one round runs in order; the
seed picks the instance in each slot, while the slot fixes its size (the
number of variables, or the target Frobenius number).  That keeps the cost
of a round nearly the same for every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from star_frobenius import (
    Alphabet,
    bruteforce_cofinite,
    cnf_to_regex,
    decide_cofinite,
    member_star_dp,
    numeric_frobenius,
    parse_dimacs,
    parse_nfa,
    parse_regex,
)
from star_frobenius.regex import Concat, EmptySet, Epsilon, Star, Symbol, Union

import checks
from checks import Clause, SmallNfa


@dataclass(frozen=True)
class Case:
    """One input: the text the program gets, and the benchmark's own
    description of it, which the checks use."""

    text: str
    meta: object


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: Callable[[random.Random], list[Case]]
    prepare: Callable[[str], object]  # set-up: text to program input
    operate: Callable[[object], object]  # one timed operation
    check: Callable[[list[Case], list[object]], list[str]]


# ---- 3SAT ---------------------------------------------------------------


@dataclass(frozen=True)
class CnfMeta:
    n: int
    clauses: tuple[Clause, ...]


def random_3cnf(rng: random.Random, n: int, m: int) -> tuple[Clause, ...]:
    """m distinct clauses over three distinct variables each, with random
    signs, using every one of the n variables."""
    while True:
        clauses: set[Clause] = set()
        while len(clauses) < m:
            variables = rng.sample(range(1, n + 1), 3)
            clauses.add(
                tuple(sorted(v if rng.random() < 0.5 else -v for v in variables))
            )
        if len({abs(lit) for c in clauses for lit in c}) == n:
            return tuple(sorted(clauses))


def dimacs_text(n: int, clauses: tuple[Clause, ...]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def cnf_cases(
    rng: random.Random, slots: list[tuple[int, int]], sat: bool
) -> list[Case]:
    cases = []
    for n, m in slots:
        while True:
            clauses = random_3cnf(rng, n, m)
            if checks.satisfiable(n, clauses) == sat:
                break
        cases.append(Case(dimacs_text(n, clauses), CnfMeta(n, clauses)))
    return cases


def reduce_dimacs(text: str):
    return cnf_to_regex(parse_dimacs(text))


def check_sat_window(cases, outputs) -> list[str]:
    errors = []
    for i, (case, r) in enumerate(zip(cases, outputs)):
        meta = case.meta
        if r.cofinite or r.window_witness is None:
            errors.append(f"case {i}: satisfiable instance judged co-finite")
            continue
        length, word = r.window_witness
        n_prime = r.trimmed_complement_states
        if not (n_prime <= length < 2 * n_prime and len(word) == length):
            errors.append(f"case {i}: window length {length} outside [n', 2n')")
        elif checks.in_reduction_closure(word, meta.n, meta.clauses):
            errors.append(f"case {i}: window witness is in E*")
    return errors


def check_unsat_longest(cases, outputs) -> list[str]:
    errors = []
    for i, (case, r) in enumerate(zip(cases, outputs)):
        n, clauses = case.meta.n, case.meta.clauses
        # Every length-n word falsifies a clause, so E* holds every length
        # a*n + b*(n+1): the Frobenius number of (n, n+1) is n^2 - n - 1.
        g = n * n - n - 1
        if not r.cofinite or r.frobenius_length != g:
            errors.append(f"case {i}: expected Frobenius length {g}")
        elif r.witness != "F" * g:
            errors.append(f"case {i}: witness is not F^{g}")
        elif checks.in_reduction_closure(r.witness, n, clauses):
            errors.append(f"case {i}: witness is in E*")
    return errors


# ---- coin sets ------------------------------------------------------------


@dataclass(frozen=True)
class CoinSlot:
    """k coins drawn from [lo, hi] whose Frobenius number lies within 1%
    of the target."""

    k: int
    lo: int
    hi: int
    target: int


def coin_set(rng: random.Random, slot: CoinSlot) -> tuple[list[int], int]:
    tolerance = 0.01 * slot.target
    while True:
        coins = sorted(rng.sample(range(slot.lo, slot.hi + 1), slot.k))
        if math.gcd(*coins) != 1:
            continue
        g = checks.frobenius_number(coins)
        if abs(g - slot.target) <= tolerance:
            return coins, g


def coin_cases(rng: random.Random, slots: list[CoinSlot], text) -> list[Case]:
    cases = []
    for slot in slots:
        coins, g = coin_set(rng, slot)
        cases.append(Case(text(coins), (coins, g)))
    return cases


def unary_text(coins: list[int]) -> str:
    return "+".join("a" * c for c in coins)


def check_unary(cases, outputs) -> list[str]:
    errors = []
    for i, (case, r) in enumerate(zip(cases, outputs)):
        coins, g = case.meta
        if not r.cofinite or r.frobenius_length != g or r.witness != "a" * g:
            errors.append(f"case {i}: {coins} expected a^{g}")
    return errors


def check_numeric(cases, outputs) -> list[str]:
    errors = []
    for i, (case, r) in enumerate(zip(cases, outputs)):
        coins, g = case.meta
        if len(coins) == 2 and g != coins[0] * coins[1] - sum(coins):
            errors.append(f"case {i}: residue classes disagree with pq-p-q")
        if r.g != g:
            errors.append(f"case {i}: {coins} gave {r.g}, expected {g}")
    return errors


# ---- small regexes and NFAs -------------------------------------------------


def random_tree(rng: random.Random, depth: int):
    """Regex tree as nested tuples: ('sym', c), ('eps',), ('empty',),
    ('union', l, r), ('concat', l, r) or ('star', c)."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        roll = rng.random()
        if roll < 0.85:
            return ("sym", rng.choice("ab"))
        return ("eps",) if roll < 0.95 else ("empty",)
    if roll < 0.40:
        return ("union", random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if roll < 0.80:
        return ("concat", random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    return ("star", random_tree(rng, depth - 1))


def tree_symbols(tree) -> list[str]:
    if tree[0] == "sym":
        return [tree[1]]
    return [c for child in tree[1:] for c in tree_symbols(child)]


def regex_text(tree) -> str:
    """Text that parses back to exactly this tree: '+' and juxtaposition
    associate to the left, so only right operands need brackets."""
    if tree[0] == "union":
        return regex_text(tree[1]) + "+" + _concat_text(tree[2])
    return _concat_text(tree)


def _concat_text(tree) -> str:
    if tree[0] == "concat":
        return _concat_text(tree[1]) + _factor_text(tree[2])
    return _factor_text(tree)


def _factor_text(tree) -> str:
    if tree[0] == "star":
        return _factor_text(tree[1]) + "*"
    if tree[0] == "sym":
        return tree[1]
    if tree[0] in ("eps", "empty"):
        return "ε" if tree[0] == "eps" else "∅"
    return "(" + regex_text(tree) + ")"


def tree_ast(tree):
    """The tree as program syntax nodes, built without the parser."""
    kind = tree[0]
    if kind == "sym":
        return Symbol(tree[1])
    if kind == "eps":
        return Epsilon()
    if kind == "empty":
        return EmptySet()
    if kind == "star":
        return Star(tree_ast(tree[1]))
    node = Union if kind == "union" else Concat
    return node(tree_ast(tree[1]), tree_ast(tree[2]))


def random_nfa(rng: random.Random, states: int) -> SmallNfa:
    edges = frozenset(
        (p, a, q)
        for p in range(states)
        for a in "ab"
        for q in range(states)
        if rng.random() < 1.3 / states
    )
    accepting = frozenset(rng.sample(range(states), rng.randint(1, states - 1)))
    initial = frozenset({0} | ({1} if rng.random() < 0.2 else set()))
    return SmallNfa(states, "ab", initial, accepting, edges)


def nfa_text(nfa: SmallNfa) -> str:
    lines = [
        f"states {nfa.states}",
        f"alphabet {nfa.alphabet}",
        "initial " + " ".join(map(str, sorted(nfa.initial))),
        "accepting " + " ".join(map(str, sorted(nfa.accepting))),
    ]
    lines += [f"{p} {a} {q}" for p, a, q in sorted(nfa.edges)]
    return "\n".join(lines) + "\n"


# Every symbol count 1..12 and every state count 2..8 gets the same number
# of cases, so the mix of sizes is the same for every seed.
REGEXES_PER_SIZE = 80
NFAS_PER_SIZE = 48
MAX_SYMBOLS = 12
MAX_NFA_STATES = 8
ORACLE_SAMPLE = 24  # cases per run re-decided by enumeration
ORACLE_MAX_N_PRIME = 6  # enumeration up to length 11 over {a, b}


def small_cases(rng: random.Random) -> list[Case]:
    cases = []
    for t in range(1, MAX_SYMBOLS + 1):
        for _ in range(REGEXES_PER_SIZE):
            tree = random_tree(rng, 4)
            while len(tree_symbols(tree)) != t:
                tree = random_tree(rng, 4)
            cases.append(Case(regex_text(tree), tree))
    for states in range(2, MAX_NFA_STATES + 1):
        for _ in range(NFAS_PER_SIZE):
            nfa = random_nfa(rng, states)
            cases.append(Case(nfa_text(nfa), nfa))
    rng.shuffle(cases)
    return cases


def decide_text(text: str):
    # NFA texts start with their "states" line; regex texts are over {a, b}.
    source = parse_nfa(text) if text.startswith("states") else parse_regex(text)
    return decide_cofinite(source)


def _verdict(r):
    if r.cofinite:
        return True, r.frobenius_length, r.witness
    return False, *r.window_witness


def check_small(cases, outputs) -> list[str]:
    errors = []
    candidates = []
    for i, (case, r) in enumerate(zip(cases, outputs)):
        if isinstance(case.meta, SmallNfa):
            missing = lambda w, nfa=case.meta: not checks.in_nfa_star(nfa, w)
        else:
            ast = tree_ast(case.meta)
            if parse_regex(case.text) != ast:
                errors.append(f"case {i}: {case.text!r} parsed to another tree")
                continue
            missing = lambda w, ast=ast: not member_star_dp(ast, w)
        cofinite, length, word = _verdict(r)
        n_prime = r.trimmed_complement_states
        if not cofinite and not n_prime <= length < 2 * n_prime:
            errors.append(f"case {i}: window length {length} outside [n', 2n')")
        if word is not None and (len(word) != length or not missing(word)):
            errors.append(f"case {i}: witness {word!r} is not a missing word")
        if n_prime <= ORACLE_MAX_N_PRIME:
            candidates.append(i)
    # The cases depend on the seed; which of them are sampled does not.
    sample = random.Random(0).sample(candidates, min(ORACLE_SAMPLE, len(candidates)))
    for i in sample:
        case, r = cases[i], outputs[i]
        bound = r.trimmed_complement_states
        if isinstance(case.meta, SmallNfa):
            expected = checks.nfa_star_verdict(case.meta, bound)
        else:
            ast = tree_ast(case.meta)
            letters = sorted(set(tree_symbols(case.meta)))
            report = bruteforce_cofinite(
                ast, Alphabet(letters), max(1, 2 * bound - 1), bound
            )
            v = report.verdict
            expected = (v.cofinite, v.frobenius_length, v.witness)
            if not v.cofinite:
                expected = (False, len(v.witness), v.witness)
        if _verdict(r) != expected:
            errors.append(f"case {i}: enumeration gives {expected}")
    return errors


# ---- the workloads ----------------------------------------------------------

# (variables, clauses) per slot, in round order.  Mostly n = 7, so that the
# median is an n = 7 decision, with two n = 8 decisions for the large DFAs
# and the memory peak.  The clause count fixes the expression size.
SAT_SLOTS = [(7, 25), (7, 26), (7, 27), (8, 26), (7, 28), (7, 29), (7, 30), (8, 29)]
UNSAT_SLOTS = [(7, 40), (7, 42), (7, 44), (8, 44), (7, 46), (7, 48), (7, 50), (8, 48)]

UNARY_SLOTS = [
    CoinSlot(2, 20, 60, 1000),
    CoinSlot(3, 50, 90, 1000),
    CoinSlot(2, 30, 90, 2000),
    CoinSlot(3, 90, 130, 2600),
    CoinSlot(2, 50, 110, 4500),
    CoinSlot(3, 120, 170, 4500),
    CoinSlot(2, 80, 130, 9500),
]

NUMERIC_SLOTS = [
    CoinSlot(4, 300, 1000, 10000),
    CoinSlot(4, 300, 1000, 15000),
    CoinSlot(3, 300, 1000, 25000),
    CoinSlot(3, 300, 1000, 35000),
    CoinSlot(3, 300, 1000, 50000),
    CoinSlot(2, 300, 1000, 250000),
    CoinSlot(2, 300, 1000, 450000),
]


def _identity(text):
    return text


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sat-window",
            lambda rng: cnf_cases(rng, SAT_SLOTS, sat=True),
            reduce_dimacs,
            decide_cofinite,
            check_sat_window,
        ),
        Workload(
            "unsat-longest",
            lambda rng: cnf_cases(rng, UNSAT_SLOTS, sat=False),
            reduce_dimacs,
            decide_cofinite,
            check_unsat_longest,
        ),
        Workload(
            "unary-coins",
            lambda rng: coin_cases(rng, UNARY_SLOTS, unary_text),
            parse_regex,
            decide_cofinite,
            check_unary,
        ),
        Workload(
            "numeric-coins",
            lambda rng: coin_cases(rng, NUMERIC_SLOTS, lambda c: " ".join(map(str, c))),
            lambda text: [int(v) for v in text.split()],
            numeric_frobenius,
            check_numeric,
        ),
        Workload("small-batch", small_cases, _identity, decide_text, check_small),
    ]
}
