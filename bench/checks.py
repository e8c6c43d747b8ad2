"""Output checks that share no code with the program's automata.

Each checker recomputes an answer from the benchmark's own description of
an input (clause lists, coin lists, NFA tuples), never from the program's
parsed objects:

* ``satisfiable`` and ``in_reduction_closure`` decide 3SAT instances and
  membership in the closure of their reduction expression by brute force
  and by a block dynamic program;
* ``frobenius_number`` solves the coin problem by shortest paths over
  residue classes (Nijenhuis 1979);
* ``in_nfa_star`` and ``nfa_star_verdict`` simulate the closure of a small
  NFA directly and enumerate its missing words.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

Clause = tuple[int, int, int]


def satisfiable(n: int, clauses: list[Clause]) -> bool:
    """True iff some assignment of variables 1..n satisfies every clause."""
    for values in itertools.product((False, True), repeat=n):
        if all(
            any(values[lit - 1] if lit > 0 else not values[-lit - 1] for lit in c)
            for c in clauses
        ):
            return True
    return False


def _falsifies(block: str, clause: Clause) -> bool:
    # Letter j of a block is the value of variable j + 1: T true, F false.
    return all((block[abs(lit) - 1] == "T") != (lit > 0) for lit in clause)


def in_reduction_closure(word: str, n: int, clauses: list[Clause]) -> bool:
    """Membership in E* for the reduction expression E of a 3SAT instance.

    E holds every word of length n + 1 over {F, T} and every length-n word
    that, read as an assignment, falsifies some clause.  So a word is in E*
    iff it splits into such blocks, which a prefix dynamic program decides.
    """
    if set(word) - {"F", "T"}:
        return False
    reach = [False] * (len(word) + 1)
    reach[0] = True
    for i in range(len(word)):
        if not reach[i]:
            continue
        if i + n + 1 <= len(word):
            reach[i + n + 1] = True
        block = word[i : i + n]
        if len(block) == n and any(_falsifies(block, c) for c in clauses):
            reach[i + n] = True
    return reach[len(word)]


def frobenius_number(coins: list[int]) -> int:
    """Largest integer that is no non-negative combination of the coins.

    Dijkstra over the residues modulo the smallest coin: the shortest
    representable value in each class, minus that coin, bounds the class's
    gaps.  Returns -1 when every integer is representable.
    """
    a = min(coins)
    dist = [math.inf] * a
    dist[0] = 0
    queue = [(0, 0)]
    while queue:
        d, r = heapq.heappop(queue)
        if d > dist[r]:
            continue
        for x in coins:
            nd = d + x
            if nd < dist[nd % a]:
                dist[nd % a] = nd
                heapq.heappush(queue, (nd, nd % a))
    if math.inf in dist:
        raise ValueError(f"coins {coins} have a common divisor")
    return max(dist) - a


@dataclass(frozen=True)
class SmallNfa:
    """An NFA as the benchmark generated it, before it became text."""

    states: int
    alphabet: str
    initial: frozenset[int]
    accepting: frozenset[int]
    edges: frozenset[tuple[int, str, int]]

    def step(self, current: frozenset[int], letter: str) -> frozenset[int]:
        return frozenset(q for p, a, q in self.edges if p in current and a == letter)


def _star_step(nfa: SmallNfa, state, letter: str):
    # State of the closure run: the NFA states reachable from some block
    # boundary, and whether the prefix read so far ends on a boundary.
    current, boundary = state
    start = current | nfa.initial if boundary else current
    nxt = nfa.step(start, letter)
    return nxt, bool(nxt & nfa.accepting)


def in_nfa_star(nfa: SmallNfa, word: str) -> bool:
    """True iff the word splits into non-empty blocks accepted by the NFA."""
    state = (frozenset(), True)
    for letter in word:
        state = _star_step(nfa, state, letter)
    return state[1]


def nfa_star_verdict(nfa: SmallNfa, bound: int):
    """The oracle's verdict rule applied to L(nfa)*, by enumeration.

    Enumerates every word up to length 2 * bound - 1.  With a sound bound
    (at least the trimmed size of the closure's complement DFA) the closure
    is not co-finite iff a word with length in [bound, 2 * bound) is
    missing.  Returns (cofinite, length, word): the smallest missing word
    in that window, or else the longest missing word (length None when no
    word is missing).
    """
    horizon = max(1, 2 * bound - 1)
    smallest: dict[int, str] = {}
    layer = [("", (frozenset(), True))]
    for length in range(horizon + 1):
        for word, state in layer:
            if not state[1] and length not in smallest:
                smallest[length] = word
        if length < horizon:
            layer = [
                (word + a, _star_step(nfa, state, a))
                for word, state in layer
                for a in sorted(nfa.alphabet)
            ]
    window = [n for n in smallest if bound <= n < 2 * bound]
    if window:
        return False, min(window), smallest[min(window)]
    if smallest:
        return True, max(smallest), smallest[max(smallest)]
    return True, None, None
