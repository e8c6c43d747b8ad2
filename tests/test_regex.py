import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from star_frobenius import (
    Alphabet,
    Concat,
    EmptySet,
    Epsilon,
    RegexSyntaxError,
    Star,
    Symbol,
    Union,
    alphabet_of,
    format_regex,
    parse_regex,
    symbol_length,
)


def test_parse_single_symbol():
    assert parse_regex("a") == Symbol("a")


def test_parse_paper_block():
    t_or_f = Union(Symbol("T"), Symbol("F"))
    assert parse_regex("(T+F)(T+F)") == Concat(t_or_f, t_or_f)


def test_parse_precedence():
    aa = Concat(Symbol("a"), Symbol("a"))
    aaa = Concat(aa, Symbol("a"))
    assert parse_regex("aa+aaa") == Union(aa, aaa)


def test_star_binds_tightest():
    assert parse_regex("ab*") == Concat(Symbol("a"), Star(Symbol("b")))
    assert parse_regex("a**") == Star(Star(Symbol("a")))
    assert parse_regex("(a+b)*") == Star(Union(Symbol("a"), Symbol("b")))


def test_epsilon_and_empty_atoms():
    assert parse_regex("ε") == Epsilon()
    assert parse_regex("∅") == EmptySet()
    assert parse_regex("EPS") == Epsilon()
    assert parse_regex("EMPTY") == EmptySet()
    assert parse_regex("aEPSb") == Concat(Concat(Symbol("a"), Epsilon()), Symbol("b"))


def test_whitespace_ignored():
    assert parse_regex(" a a + a a a ") == parse_regex("aa+aaa")


def test_unbalanced_parens_position():
    with pytest.raises(RegexSyntaxError) as info:
        parse_regex("((a")
    assert info.value.position == 3


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("a+", 2),
        ("+a", 0),
        ("a++b", 2),
        ("*a", 0),
        ("()", 1),
        ("a)", 1),
        ("a\x00", 1),
    ],
)
def test_syntax_errors(text, position):
    with pytest.raises(RegexSyntaxError) as info:
        parse_regex(text)
    assert info.value.position == position


def test_invalid_symbol_rejected():
    with pytest.raises(ValueError):
        Symbol("*")
    with pytest.raises(ValueError):
        Symbol(" ")


def test_symbol_length_examples():
    assert symbol_length(Symbol("a")) == 1
    assert symbol_length(parse_regex("aa+aaa")) == 5
    assert symbol_length(parse_regex("(T+F)(T+F)")) == 4
    assert symbol_length(parse_regex("ε")) == 0


def test_alphabet_of_examples():
    assert list(alphabet_of(parse_regex("aa+aaa"))) == ["a"]
    assert list(alphabet_of(parse_regex("(T+F)F"))) == ["F", "T"]
    assert list(alphabet_of(parse_regex("ε"))) == []


def test_alphabet_validation():
    assert list(Alphabet("ba")) == ["a", "b"]
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet("a b")
    assert Alphabet("ab").issuperset(Alphabet("a"))
    assert not Alphabet("a").issuperset(Alphabet("ab"))


def test_format_golden_strings():
    assert format_regex(parse_regex("aa+aaa")) == "aa+aaa"
    assert format_regex(parse_regex("(T+F)(T+F)")) == "(T+F)(T+F)"
    assert format_regex(parse_regex("a(bc)")) == "a(bc)"
    assert format_regex(parse_regex("(a+b)*")) == "(a+b)*"
    assert format_regex(parse_regex("a+(b+c)")) == "a+(b+c)"


asts = st.recursive(
    st.one_of(
        st.builds(Symbol, st.sampled_from("ab")),
        st.builds(Epsilon),
        st.builds(EmptySet),
    ),
    lambda children: st.one_of(
        st.builds(Union, children, children),
        st.builds(Concat, children, children),
        st.builds(Star, children),
    ),
    max_leaves=12,
)


@settings(max_examples=150, derandomize=True)
@given(asts)
def test_print_parse_roundtrip(ast):
    assert parse_regex(format_regex(ast)) == ast


@settings(max_examples=80, derandomize=True)
@given(asts, asts)
def test_symbol_length_additivity(left, right):
    assert symbol_length(Union(left, right)) == symbol_length(left) + symbol_length(right)
    assert symbol_length(Concat(left, right)) == symbol_length(left) + symbol_length(right)
    assert symbol_length(Star(left)) == symbol_length(left)


def test_deep_literal_roundtrip():
    # Deep trees are compared by printed text and counts: the dataclass
    # __eq__ of a deep tree is itself recursive.
    text = "ab" * 10_000
    ast = parse_regex(text)
    assert format_regex(ast) == text
    assert symbol_length(ast) == 20_000
    assert list(alphabet_of(ast)) == ["a", "b"]


def test_deep_brackets_parse():
    depth = 100_000
    assert parse_regex("(" * depth + "a" + ")" * depth) == Symbol("a")
