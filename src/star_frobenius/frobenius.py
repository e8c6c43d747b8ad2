"""End-to-end co-finiteness decision and the numeric coin-problem solver.

The pipeline takes a regular expression (or an NFA, whose language is
starred first), determinizes the closure automaton over the effective
alphabet, complements, and then analyses the complement: an infinite
complement yields a NotCofinite verdict with a pumpable window witness,
a finite one yields the Frobenius length (longest missing word) or the
conclusion that nothing is missing at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .automata import (
    Nfa,
    _longest_path,
    _mask,
    complement,
    glushkov,
    glushkov_star,
    star_closure,
    subset_construct,
    trim_useful,
    window_accepts,
)
from .errors import DEFAULT_BUDGET, BudgetExceeded, GcdNotOne
from .regex import (
    Alphabet,
    Concat,
    EmptySet,
    Epsilon,
    RegexAst,
    Symbol,
    Union,
)


@dataclass(frozen=True)
class CofiniteResult:
    """Verdict of the closure decision.

    ``cofinite`` with ``frobenius_length is None`` means the complement of
    the closure is empty (no word is missing).  When a length L is present,
    ``witness`` is the lexicographically smallest missing word of length L.
    For a non-co-finite closure, ``window_witness`` is a missing word whose
    length is at least the trimmed complement size, hence pumpable.
    ``alphabet`` is the effective alphabet the closure was judged over; it
    echoes the input, so results compare equal without it.
    """

    cofinite: bool
    frobenius_length: int | None = None
    witness: str | None = None
    window_witness: tuple[int, str] | None = None
    nfa_states: int = 0
    dfa_states: int = 0
    trimmed_complement_states: int = 0
    symbol_count: int | None = None
    alphabet: Alphabet | None = field(default=None, compare=False)


def decide_cofinite(
    source: RegexAst | Nfa, alphabet: Alphabet | None = None
) -> CofiniteResult:
    """Decide whether the Kleene closure of the input is co-finite.

    ``source`` is either a regex syntax tree (the closure of its language
    is analysed) or an NFA (its language is starred first).  The effective
    alphabet defaults to the symbols occurring in the input and may be
    widened by ``alphabet``; a declared alphabet that misses a used symbol
    raises AlphabetMismatch.  An empty effective alphabet is legal and
    yields the degenerate co-finite result (the closure equals {ε} = Σ*).

    A regex is walked once: building its position automaton also yields
    t (the automaton has t + 1 states) and the symbols it uses.  After
    determinization the complement is read by one trim_useful call, whose
    view gives the trimmed size, the cycle test (``best is None``) and the
    longest-path table that the Frobenius witness is read off.
    """
    if isinstance(source, Nfa):
        star_nfa = star_closure(source)
        t = None
    else:
        star_nfa = glushkov_star(source)
        t = star_nfa.state_count - 1

    dfa = subset_construct(star_nfa, alphabet)
    comp = complement(dfa)
    view = trim_useful(comp)
    n_prime = len(view.states)
    sizes = dict(
        nfa_states=star_nfa.state_count,
        dfa_states=dfa.state_count,
        trimmed_complement_states=n_prime,
        symbol_count=t,
        alphabet=dfa.alphabet,
    )

    if view.best is None:
        witness = window_accepts(comp, n_prime, 2 * n_prime)
        assert witness is not None, "window criterion must produce a witness"
        return CofiniteResult(cofinite=False, window_witness=witness, **sizes)

    longest = _longest_path(comp, view)
    if longest is None:
        return CofiniteResult(cofinite=True, **sizes)
    length, word = longest
    return CofiniteResult(
        cofinite=True, frobenius_length=length, witness=word, **sizes
    )


def words_to_regex(words: Iterable[str]) -> RegexAst:
    """Union-of-literals syntax tree for an explicit finite word set."""
    def literal(word: str) -> RegexAst:
        return reduce(Concat, map(Symbol, word)) if word else Epsilon()

    unique = sorted(set(words))
    if not unique:
        return EmptySet()
    return reduce(Union, map(literal, unique))


def frobenius_of_finite_set(
    words: Iterable[str], alphabet: Alphabet | None = None
) -> CofiniteResult:
    """decide_cofinite applied to an explicit finite set of words; the
    alphabet defaults to the letters the words use, as in decide_cofinite."""
    return decide_cofinite(words_to_regex(words), alphabet)


@dataclass(frozen=True)
class NumericFrobenius:
    """Largest integer not representable as a non-negative combination of
    the inputs; -1 when every non-negative integer is representable."""

    inputs: tuple[int, ...]
    g: int


def numeric_frobenius(
    xs: Sequence[int], *, budget: int = DEFAULT_BUDGET
) -> NumericFrobenius:
    """Coin-problem solver: the round-robin residue table of Böcker and
    Lipták (Algorithmica 2007).

    With a = min(xs), n[r] is the smallest representable value congruent
    to r modulo a, so the largest gap is max(n) - a.  The table starts as
    n[0] = 0 and every other entry at infinity.  Each further coin b splits
    the residues into gcd(a, b) cycles r -> (r + b) mod a; one walk around a
    cycle from its smallest entry relaxes n[(r + b) mod a] with n[r] + b and
    settles every entry.  That is O(k·min xs) time for k coins and
    O(min xs) memory.  The table has min(xs) entries, so BudgetExceeded is
    raised before building it when min(xs) exceeds ``budget``.
    """
    values = tuple(xs)
    if not values:
        raise ValueError("need at least one positive integer")
    if any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in values):
        raise ValueError("inputs must be positive integers")
    if reduce(math.gcd, values) != 1:
        raise GcdNotOne(f"gcd of {list(values)} exceeds 1")

    a = min(values)
    if a > budget:
        raise BudgetExceeded(
            f"a residue table of {a} entries exceeds the budget of {budget}"
        )
    n = [math.inf] * a
    n[0] = 0
    for b in set(values):
        d = math.gcd(a, b)
        if d == a:  # a multiple of a, a itself included, adds nothing
            continue
        for r in range(d):
            p = min(range(r, a, d), key=n.__getitem__)
            m = n[p]
            for _ in range(a // d - 1):
                p = (p + b) % a
                m += b
                if n[p] < m:
                    m = n[p]
                else:
                    n[p] = m
    return NumericFrobenius(values, max(n) - a)


def length_spectrum(
    source: RegexAst | Nfa, horizon: int
) -> tuple[set[int], int]:
    """Lengths (up to the horizon) of words in the input's language, and the
    gcd of the non-zero lengths (0 when there are none).

    For a regex the language is L(E) itself, not its closure; an NFA is
    likewise analysed as-is.  A gcd above 1 over a non-empty alphabet means
    the closure cannot be co-finite.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    nfa = source if isinstance(source, Nfa) else glushkov(source)
    current, accept = _mask(nfa.initial), _mask(nfa.accepting)
    letters = range(len(nfa.alphabet))
    lengths: set[int] = set()
    for length in range(horizon + 1):
        if current & accept:
            lengths.add(length)
        if not current or length == horizon:
            break
        current = reduce(or_, (nfa.image(current, i) for i in letters), 0)
    g = 0
    for length in lengths:
        if length:
            g = math.gcd(g, length)
    return lengths, g
