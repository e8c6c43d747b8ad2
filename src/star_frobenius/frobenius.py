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
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .automata import (
    Nfa,
    _longest_path,
    complement,
    glushkov,
    glushkov_star,
    star_closure,
    subset_construct,
    topological_order,
    trim_useful,
    window_accepts,
)
from .errors import GcdNotOne
from .regex import (
    Alphabet,
    Concat,
    EmptySet,
    Epsilon,
    RegexAst,
    Symbol,
    Union,
    alphabet_of,
    resolve_alphabet,
    symbol_length,
)


@dataclass(frozen=True)
class CofiniteResult:
    """Verdict of the closure decision.

    ``cofinite`` with ``frobenius_length is None`` means the complement of
    the closure is empty (no word is missing).  When a length L is present,
    ``witness`` is the lexicographically smallest missing word of length L.
    For a non-co-finite closure, ``window_witness`` is a missing word whose
    length is at least the trimmed complement size, hence pumpable.
    """

    cofinite: bool
    frobenius_length: int | None = None
    witness: str | None = None
    window_witness: tuple[int, str] | None = None
    nfa_states: int = 0
    dfa_states: int = 0
    trimmed_complement_states: int = 0
    symbol_count: int | None = None


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

    The complement is trimmed and topologically sorted once; the cycle test
    and the longest-path step share that result.
    """
    if isinstance(source, Nfa):
        effective = resolve_alphabet(source.alphabet, alphabet)
        star_nfa = star_closure(source)
        t = None
    else:
        effective = resolve_alphabet(alphabet_of(source), alphabet)
        star_nfa = glushkov_star(source, effective)
        t = symbol_length(source)

    dfa = subset_construct(star_nfa, effective)
    comp = complement(dfa)
    view = trim_useful(comp)
    order = topological_order(view)
    n_prime = len(view.states)
    sizes = dict(
        nfa_states=star_nfa.state_count,
        dfa_states=dfa.state_count,
        trimmed_complement_states=n_prime,
        symbol_count=t,
    )

    if order is None:
        witness = window_accepts(comp, n_prime, 2 * n_prime)
        assert witness is not None, "window criterion must produce a witness"
        return CofiniteResult(cofinite=False, window_witness=witness, **sizes)

    longest = _longest_path(comp, view, order)
    if longest is None:
        return CofiniteResult(cofinite=True, **sizes)
    length, word = longest
    return CofiniteResult(
        cofinite=True, frobenius_length=length, witness=word, **sizes
    )


def words_to_regex(words: Iterable[str]) -> RegexAst:
    """Union-of-literals syntax tree for an explicit finite word set."""
    def literal(word: str) -> RegexAst:
        if not word:
            return Epsilon()
        node: RegexAst = Symbol(word[0])
        for ch in word[1:]:
            node = Concat(node, Symbol(ch))
        return node

    unique = sorted(set(words))
    if not unique:
        return EmptySet()
    node = literal(unique[0])
    for word in unique[1:]:
        node = Union(node, literal(word))
    return node


def frobenius_of_finite_set(
    words: Iterable[str], alphabet: Alphabet
) -> CofiniteResult:
    """decide_cofinite applied to an explicit finite set of words."""
    return decide_cofinite(words_to_regex(words), alphabet)


@dataclass(frozen=True)
class NumericFrobenius:
    """Largest integer not representable as a non-negative combination of
    the inputs; -1 when every non-negative integer is representable."""

    inputs: tuple[int, ...]
    g: int


def numeric_frobenius(xs: Sequence[int]) -> NumericFrobenius:
    """Coin-problem dynamic program.

    Scans upward marking representable values; once min(xs) consecutive
    values are representable every larger value is too, so the last gap
    seen is the Frobenius number.  gcd(xs) = 1 guarantees the scan stops.
    """
    values = tuple(xs)
    if not values:
        raise ValueError("need at least one positive integer")
    if any(not isinstance(x, int) or x < 1 for x in values):
        raise ValueError("inputs must be positive integers")
    if reduce(math.gcd, values) != 1:
        raise GcdNotOne(f"gcd of {list(values)} exceeds 1")

    smallest = min(values)
    reachable = [True]
    last_gap = -1
    run = 0
    v = 1
    while run < smallest:
        hit = any(v >= x and reachable[v - x] for x in values)
        reachable.append(hit)
        if hit:
            run += 1
        else:
            run = 0
            last_gap = v
        v += 1
    return NumericFrobenius(values, last_gap)


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
    current = set(nfa.initial)
    lengths: set[int] = set()
    for length in range(horizon + 1):
        if current & nfa.accepting:
            lengths.add(length)
        if not current or length == horizon:
            break
        current = {
            q
            for p in current
            for a in nfa.alphabet
            for q in nfa.transitions.get((p, a), frozenset())
        }
    g = 0
    for length in lengths:
        if length:
            g = math.gcd(g, length)
    return lengths, g
