"""Regular expression syntax trees: parsing, printing, and basic metrics.

Grammar (whitespace between tokens is ignored)::

    expr   := term ('+' term)*
    term   := factor factor*
    factor := atom '*'*
    atom   := symbol | 'ε' | 'EPS' | '∅' | 'EMPTY' | '(' expr ')'

``*`` binds tightest, then juxtaposition (concatenation), then ``+``.
A symbol is any single printable, non-whitespace character other than the
metacharacters ``+ ( ) * ε ∅``.  The ASCII keywords ``EPS`` and ``EMPTY``
are reserved: they always lex as the empty word and the empty set, so the
letter runs ``E P S`` and ``E M P T Y`` cannot be spelled as symbol
sequences without separating parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, TypeVar, Union as TypingUnion

from .errors import AlphabetMismatch, RegexSyntaxError

METACHARACTERS = frozenset("+()*ε∅")


def is_valid_symbol(ch: str) -> bool:
    """True for a single printable non-whitespace non-metacharacter char."""
    return (
        len(ch) == 1
        and ch.isprintable()
        and not ch.isspace()
        and ch not in METACHARACTERS
    )


@dataclass(frozen=True, slots=True)
class EmptySet:
    """Matches no word at all."""


@dataclass(frozen=True, slots=True)
class Epsilon:
    """Matches exactly the empty word."""


@dataclass(frozen=True, slots=True)
class Symbol:
    """Matches exactly one alphabet symbol."""

    letter: str

    def __post_init__(self):
        if not is_valid_symbol(self.letter):
            raise ValueError(f"invalid symbol {self.letter!r}")


@dataclass(frozen=True, slots=True)
class Union:
    left: "RegexAst"
    right: "RegexAst"


@dataclass(frozen=True, slots=True)
class Concat:
    left: "RegexAst"
    right: "RegexAst"


@dataclass(frozen=True, slots=True)
class Star:
    child: "RegexAst"


RegexAst = TypingUnion[EmptySet, Epsilon, Symbol, Union, Concat, Star]


class Alphabet:
    """Ordered set of symbols; order is ascending codepoint.

    Duplicates are rejected so that a typo in a declared alphabet surfaces
    instead of being silently collapsed.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[str] = ()):
        seen = []
        for ch in symbols:
            if not is_valid_symbol(ch):
                raise ValueError(f"invalid alphabet symbol {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate alphabet symbol {ch!r}")
            seen.append(ch)
        self.symbols: tuple[str, ...] = tuple(sorted(seen))

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, ch) -> bool:
        return ch in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def issuperset(self, other: "Alphabet") -> bool:
        return set(self.symbols) >= set(other.symbols)

    def union(self, other: "Alphabet") -> "Alphabet":
        return Alphabet(sorted(set(self.symbols) | set(other.symbols)))


_KEYWORDS = (
    ("ε", Epsilon),
    ("∅", EmptySet),
    ("EMPTY", EmptySet),
    ("EPS", Epsilon),
)


def parse_regex(text: str) -> RegexAst:
    """Parse regex text into a syntax tree.

    Raises RegexSyntaxError (with the offending offset) on unbalanced
    parentheses, empty alternation branches, dangling stars, and symbols
    outside the permitted character set.

    One loop over the text with a stack of open groups; each group holds
    its finished union terms and the factors of the term being read, so
    nesting depth is bounded only by memory.
    """
    if not text.strip():
        raise RegexSyntaxError("empty pattern", len(text))
    groups: list[tuple[list[RegexAst], list[RegexAst]]] = [([], [])]
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        ch = text[pos] if pos < len(text) else None
        terms, factors = groups[-1]
        if factors and ch == "*":
            factors[-1] = Star(factors[-1])
            pos += 1
            continue
        if factors and (ch is None or ch in "+)"):
            terms.append(reduce(Concat, factors))
            factors.clear()
            if ch is None:
                if len(groups) > 1:
                    raise RegexSyntaxError("expected ')'", pos)
                return reduce(Union, terms)
            if ch == ")":
                if len(groups) == 1:
                    raise RegexSyntaxError("unexpected ')'", pos)
                groups.pop()
                groups[-1][1].append(reduce(Union, terms))
            pos += 1
            continue
        if ch is None or ch in "+)":
            raise RegexSyntaxError("expected an atom", pos)
        if ch == "*":
            raise RegexSyntaxError("dangling '*'", pos)
        if ch == "(":
            groups.append(([], []))
            pos += 1
            continue
        for word, leaf in _KEYWORDS:
            if text.startswith(word, pos):
                factors.append(leaf())
                pos += len(word)
                break
        else:
            if not is_valid_symbol(ch):
                raise RegexSyntaxError(f"invalid symbol {ch!r}", pos)
            factors.append(Symbol(ch))
            pos += 1


def _children(node: RegexAst) -> tuple[RegexAst, ...]:
    if isinstance(node, (Union, Concat)):
        return node.left, node.right
    if isinstance(node, Star):
        return (node.child,)
    return ()


T = TypeVar("T")


def fold(ast: RegexAst, visit: Callable[[RegexAst, tuple], T]) -> T:
    """Post-order fold: ``visit(node, child_values)`` runs bottom-up, left
    child before right, so Symbol leaves are met left to right.

    The walk keeps its own stack, so tree depth is bounded only by memory.
    """
    values: list = []
    stack: list[tuple[RegexAst, int | None]] = [(ast, None)]
    while stack:
        node, arity = stack.pop()
        if arity is None:
            children = _children(node)
            if children:
                stack.append((node, len(children)))
                stack.extend((child, None) for child in reversed(children))
                continue
            arity = 0
        args = tuple(values[len(values) - arity :])
        del values[len(values) - arity :]
        values.append(visit(node, args))
    return values[0]


# Binding strength of the printed forms, loosest first.
_UNION, _CONCAT, _STAR, _ATOM = range(4)


# A node's printed form is a rope: a string, or a tuple of ropes to be
# printed in order.  Building one costs O(1) per node, where joining the
# children's strings would copy a left-deep chain's text at every level.
_Rope = TypingUnion[str, tuple]


def _wrap(child: tuple[_Rope, int], strength: int) -> _Rope:
    rope, own = child
    return rope if own >= strength else ("(", rope, ")")


def _format_node(node: RegexAst, children: tuple) -> tuple[_Rope, int]:
    match node:
        case Symbol(letter):
            return letter, _ATOM
        case Epsilon():
            return "ε", _ATOM
        case EmptySet():
            return "∅", _ATOM
        case Union():
            left, right = children
            return (left[0], "+", _wrap(right, _CONCAT)), _UNION
        case Concat():
            left, right = children
            return (_wrap(left, _CONCAT), _wrap(right, _STAR)), _CONCAT
        case Star():
            return (_wrap(children[0], _STAR), "*"), _STAR
    raise TypeError(f"not a regex node: {node!r}")


def format_regex(ast: RegexAst) -> str:
    """Print a tree so that re-parsing yields a structurally identical tree."""
    pieces: list[str] = []
    stack = [fold(ast, _format_node)[0]]
    while stack:
        rope = stack.pop()
        if isinstance(rope, str):
            pieces.append(rope)
        else:
            stack.extend(reversed(rope))
    return "".join(pieces)


def symbol_length(ast: RegexAst) -> int:
    """Number of Symbol leaves in the tree."""
    return fold(
        ast, lambda node, counts: 1 if isinstance(node, Symbol) else sum(counts)
    )


def alphabet_of(ast: RegexAst) -> Alphabet:
    """The distinct symbols occurring in the tree, in codepoint order."""
    def letters(node: RegexAst, below: tuple) -> frozenset[str]:
        if isinstance(node, Symbol):
            return frozenset({node.letter})
        return frozenset().union(*below)

    return Alphabet(fold(ast, letters))


def resolve_alphabet(inferred: Alphabet, declared: Alphabet | None) -> Alphabet:
    """The effective alphabet: the inferred one, or the declared one when it
    covers every inferred symbol; otherwise AlphabetMismatch."""
    if declared is None:
        return inferred
    if not declared.issuperset(inferred):
        missing = "".join(sorted(set(inferred) - set(declared)))
        raise AlphabetMismatch(f"declared alphabet is missing {missing!r}")
    return declared
