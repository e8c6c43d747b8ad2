"""Automaton-free ground truth for cross-validation.

Membership is decided straight off the syntax tree: a memoized span matcher
for L(E) and a prefix dynamic program for L(E)*.  Nothing here touches the
automata module, so disagreements between the two routes indicate a real
bug rather than a shared one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .errors import DEFAULT_BUDGET, BudgetExceeded
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
    fold,
    resolve_alphabet,
)

# Interpreter stack levels the recursive matcher spends per tree level: a
# Union calls _match directly, a Concat or Star goes through any() over a
# generator.  The word-tree walk of bruteforce_cofinite spends one per
# letter, and the callers' frames get _STACK_RESERVE.
_NODE_LEVELS = {Union: 1, Concat: 3, Star: 3}
_STACK_RESERVE = 100


class Matcher:
    """Memoized recursive matcher for one syntax tree.

    Results are cached by (subexpression identity, span content), so a
    single instance can be reused across many words and enumeration over a
    word tree shares work between words with common substrings.
    """

    def __init__(self, ast: RegexAst):
        self.ast = ast
        self._memo: dict[tuple[int, str], bool] = {}

    def matches(self, word: str) -> bool:
        return self._match(self.ast, word)

    def _match(self, node: RegexAst, text: str) -> bool:
        key = (id(node), text)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        match node:
            case EmptySet():
                result = False
            case Epsilon():
                result = text == ""
            case Symbol(letter):
                result = text == letter
            case Union(left, right):
                result = self._match(left, text) or self._match(right, text)
            case Concat(left, right):
                result = any(
                    self._match(left, text[:k]) and self._match(right, text[k:])
                    for k in range(len(text) + 1)
                )
            case Star(child):
                # One non-empty chunk in L(child), then recurse on the rest.
                result = text == "" or any(
                    self._match(child, text[:k]) and self._match(node, text[k:])
                    for k in range(1, len(text) + 1)
                )
            case _:
                raise TypeError(f"not a regex node: {node!r}")
        self._memo[key] = result
        return result


def _tree_depth_and_levels(ast: RegexAst) -> tuple[int, int]:
    """The tree's depth, and the stack levels Matcher can need on it."""
    def visit(node: RegexAst, below: tuple) -> tuple[int, int]:
        depth = max((d for d, _ in below), default=0)
        levels = max((n for _, n in below), default=0)
        return depth + 1, levels + _NODE_LEVELS.get(type(node), 1)

    return fold(ast, visit)


def _length_over_budget(letters: int, horizon: int, budget: int) -> int | None:
    """The first length up to which the words over ``letters`` letters
    outnumber ``budget``, or None when every length up to ``horizon`` fits.
    The count stops at the budget; over one letter it is length + 1."""
    if letters == 1:
        return max(budget, 0) if horizon >= budget else None
    total, words = 0, 1
    for length in range(horizon + 1):
        total += words
        words *= letters
        if total > budget:
            return length
    return None


def regex_match(ast: RegexAst, word: str) -> bool:
    """True iff the word is in L(ast)."""
    return Matcher(ast).matches(word)


def _star_reachable(matcher: Matcher, word: str) -> bool:
    # Position j is reachable iff some reachable i < j has word[i:j] in L(E).
    reach = [False] * (len(word) + 1)
    reach[0] = True
    for j in range(1, len(word) + 1):
        reach[j] = any(
            reach[i] and matcher.matches(word[i:j]) for i in range(j)
        )
    return reach[len(word)]


def member_star_dp(ast: RegexAst, word: str) -> bool:
    """True iff the word is in (L(ast))*, by prefix dynamic programming."""
    return _star_reachable(Matcher(ast), word)


@dataclass(frozen=True)
class MissingRow:
    """Words of one length absent from the closure: how many, and the
    lexicographically smallest one."""

    length: int
    count: int
    smallest: str


@dataclass(frozen=True)
class OracleVerdict:
    cofinite: bool
    frobenius_length: int | None
    witness: str | None


@dataclass(frozen=True)
class OracleReport:
    """Outcome of exhaustive enumeration up to a horizon.

    ``verdict`` is present only when the report is conclusive, i.e. a sound
    window bound b was supplied and the horizon covers [b, 2b).
    ``alphabet`` is the effective alphabet the words were drawn from; it
    echoes the input, so reports compare equal without it.
    """

    horizon: int
    missing: tuple[MissingRow, ...]
    conclusive: bool
    verdict: OracleVerdict | None
    alphabet: Alphabet | None = field(default=None, compare=False)


def bruteforce_cofinite(
    ast: RegexAst,
    alphabet: Alphabet | None,
    horizon: int,
    conclusive_bound: int | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> OracleReport:
    """Enumerate every word of length <= horizon and classify it against
    (L(ast))*.

    Words are drawn from the effective alphabet, by decide_cofinite's rule:
    the symbols of ``ast``, widened by ``alphabet`` (None for none); a
    declared one missing a used symbol raises AlphabetMismatch at any horizon.

    With a sound ``conclusive_bound`` b (at least the trimmed size of the
    complement DFA, or any over-approximation of it) and horizon >= 2b - 1,
    the report carries a verdict: the closure is not co-finite iff some
    word of length in [b, 2b) is missing, and otherwise the longest missing
    word (all of which lie below b) gives the Frobenius length.

    Raises BudgetExceeded when the word count exceeds ``budget``, or when
    the tree is too deep, or the horizon too long, for the recursive
    matcher and the word-tree walk to fit the interpreter's stack.
    """
    alphabet = resolve_alphabet(alphabet_of(ast), alphabet)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    if conclusive_bound is not None and conclusive_bound < 0:
        raise ValueError("conclusive_bound must be >= 0")

    length = _length_over_budget(len(alphabet), horizon, budget)
    if length is not None:
        raise BudgetExceeded(
            f"the words of length up to {length} exceed the budget of {budget}"
        )

    depth, levels = _tree_depth_and_levels(ast)
    limit = sys.getrecursionlimit() - _STACK_RESERVE
    if levels + horizon > limit:
        raise BudgetExceeded(
            f"a syntax tree of depth {depth} at horizon {horizon} needs "
            f"about {levels + horizon} stack levels in the recursive "
            f"matcher, more than the {limit} available"
        )

    matcher = Matcher(ast)
    symbols = list(alphabet)
    counts = [0] * (horizon + 1)
    smallest: list[str | None] = [None] * (horizon + 1)

    # Depth-first walk of the word tree; the prefix-reachability column is
    # extended by one entry per step instead of being recomputed per word.
    # Children are visited in alphabet order, so within each length the
    # first miss recorded is the lexicographically smallest one.
    def visit(prefix: str, reach: list[bool]) -> None:
        depth = len(prefix)
        if not reach[depth]:
            counts[depth] += 1
            if smallest[depth] is None:
                smallest[depth] = prefix
        if depth == horizon:
            return
        for ch in symbols:
            word = prefix + ch
            reach.append(
                any(
                    reach[i] and matcher.matches(word[i:])
                    for i in range(depth + 1)
                )
            )
            visit(word, reach)
            reach.pop()

    visit("", [True])
    rows = [
        MissingRow(length, counts[length], smallest[length])
        for length in range(horizon + 1)
        if counts[length]
    ]

    conclusive = (
        conclusive_bound is not None and horizon >= 2 * conclusive_bound - 1
    )
    verdict = None
    if conclusive:
        bound = conclusive_bound
        in_window = [
            row for row in rows if bound <= row.length < 2 * bound
        ]
        if in_window:
            verdict = OracleVerdict(
                cofinite=False,
                frobenius_length=None,
                witness=in_window[0].smallest,
            )
        elif rows:
            verdict = OracleVerdict(
                cofinite=True,
                frobenius_length=rows[-1].length,
                witness=rows[-1].smallest,
            )
        else:
            verdict = OracleVerdict(
                cofinite=True, frobenius_length=None, witness=None
            )
    return OracleReport(
        horizon=horizon,
        missing=tuple(rows),
        conclusive=conclusive,
        verdict=verdict,
        alphabet=alphabet,
    )
