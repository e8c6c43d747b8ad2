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
from typing import Iterable, Union as TypingUnion

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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def at_keyword(self, word: str) -> bool:
        self.skip_ws()
        return self.text.startswith(word, self.pos)

    def expr(self) -> RegexAst:
        node = self.term()
        while self.peek() == "+":
            self.pos += 1
            node = Union(node, self.term())
        return node

    def term(self) -> RegexAst:
        node = self.factor()
        while self._at_atom():
            node = Concat(node, self.factor())
        return node

    def factor(self) -> RegexAst:
        node = self.atom()
        while self.peek() == "*":
            self.pos += 1
            node = Star(node)
        return node

    def _at_atom(self) -> bool:
        ch = self.peek()
        return ch is not None and ch not in "+)*"

    def atom(self) -> RegexAst:
        ch = self.peek()
        if ch is None or ch in "+)":
            raise RegexSyntaxError("expected an atom", self.pos)
        if ch == "*":
            raise RegexSyntaxError("dangling '*'", self.pos)
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                raise RegexSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch == "ε":
            self.pos += 1
            return Epsilon()
        if ch == "∅":
            self.pos += 1
            return EmptySet()
        if self.at_keyword("EMPTY"):
            self.pos += 5
            return EmptySet()
        if self.at_keyword("EPS"):
            self.pos += 3
            return Epsilon()
        if not is_valid_symbol(ch):
            raise RegexSyntaxError(f"invalid symbol {ch!r}", self.pos)
        self.pos += 1
        return Symbol(ch)


def parse_regex(text: str) -> RegexAst:
    """Parse regex text into a syntax tree.

    Raises RegexSyntaxError (with the offending offset) on unbalanced
    parentheses, empty alternation branches, dangling stars, and symbols
    outside the permitted character set.
    """
    parser = _Parser(text)
    if parser.peek() is None:
        raise RegexSyntaxError("empty pattern", parser.pos)
    node = parser.expr()
    if parser.peek() is not None:
        raise RegexSyntaxError(f"unexpected {parser.peek()!r}", parser.pos)
    return node


def format_regex(ast: RegexAst) -> str:
    """Print a tree so that re-parsing yields a structurally identical tree."""
    return _union_str(ast)


def _union_str(node: RegexAst) -> str:
    if isinstance(node, Union):
        return _union_str(node.left) + "+" + _concat_str(node.right)
    return _concat_str(node)


def _concat_str(node: RegexAst) -> str:
    if isinstance(node, Concat):
        return _concat_str(node.left) + _factor_str(node.right)
    return _factor_str(node)


def _factor_str(node: RegexAst) -> str:
    if isinstance(node, Star):
        inner = node.child
        if isinstance(inner, Star):
            return _factor_str(inner) + "*"
        return _atom_str(inner) + "*"
    return _atom_str(node)


def _atom_str(node: RegexAst) -> str:
    if isinstance(node, Symbol):
        return node.letter
    if isinstance(node, Epsilon):
        return "ε"
    if isinstance(node, EmptySet):
        return "∅"
    return "(" + _union_str(node) + ")"


def symbol_length(ast: RegexAst) -> int:
    """Number of Symbol leaves in the tree."""
    match ast:
        case Symbol():
            return 1
        case Union(left, right) | Concat(left, right):
            return symbol_length(left) + symbol_length(right)
        case Star(child):
            return symbol_length(child)
        case _:
            return 0


def alphabet_of(ast: RegexAst) -> Alphabet:
    """The distinct symbols occurring in the tree, in codepoint order."""
    letters: set[str] = set()
    _collect_letters(ast, letters)
    return Alphabet(sorted(letters))


def resolve_alphabet(inferred: Alphabet, declared: Alphabet | None) -> Alphabet:
    """The effective alphabet: the inferred one, or the declared one when it
    covers every inferred symbol; otherwise AlphabetMismatch."""
    if declared is None:
        return inferred
    if not declared.issuperset(inferred):
        missing = "".join(sorted(set(inferred) - set(declared)))
        raise AlphabetMismatch(f"declared alphabet is missing {missing!r}")
    return declared


def _collect_letters(ast: RegexAst, out: set[str]) -> None:
    match ast:
        case Symbol(letter):
            out.add(letter)
        case Union(left, right) | Concat(left, right):
            _collect_letters(left, out)
            _collect_letters(right, out)
        case Star(child):
            _collect_letters(child, out)
