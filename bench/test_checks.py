"""The benchmark's output checks on tiny cases worked out by hand.

    python3 -m pytest bench/test_checks.py
"""

import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks
import workloads
from checks import SmallNfa

ALL_SIGNS_3 = [
    tuple(s * v for s, v in zip(signs, (1, 2, 3)))
    for signs in itertools.product((1, -1), repeat=3)
]


def test_satisfiable():
    assert checks.satisfiable(3, [(1, 2, 3)])
    assert checks.satisfiable(3, ALL_SIGNS_3[1:])
    assert not checks.satisfiable(3, ALL_SIGNS_3)


def test_reduction_closure_unsatisfiable():
    # Every length-3 word falsifies one of the eight clauses, so E* holds
    # every length 3a + 4b: all but 1, 2 and 5, the Frobenius number of (3, 4).
    for length in range(13):
        for letters in itertools.product("FT", repeat=length):
            word = "".join(letters)
            expected = length not in (1, 2, 5)
            assert checks.in_reduction_closure(word, 3, ALL_SIGNS_3) == expected


def test_reduction_closure_one_clause():
    # (x1 or x2 or x3) is falsified only by FFF.
    clause = [(1, 2, 3)]
    assert checks.in_reduction_closure("", 3, clause)
    assert checks.in_reduction_closure("FFF", 3, clause)
    assert not checks.in_reduction_closure("TFF", 3, clause)
    assert checks.in_reduction_closure("TFFT", 3, clause)
    assert checks.in_reduction_closure("FFFTTTT", 3, clause)
    assert not checks.in_reduction_closure("TFFTTT", 3, clause)
    assert not checks.in_reduction_closure("FFFa", 3, clause)
    # A negative literal is false when the letter is T.
    assert checks.in_reduction_closure("TFT", 3, [(-1, 2, -3)])


def test_frobenius_number():
    assert checks.frobenius_number([3, 5]) == 7
    assert checks.frobenius_number([6, 10, 15]) == 29
    assert checks.frobenius_number([6, 9, 20]) == 43
    assert checks.frobenius_number([2, 3]) == 1
    assert checks.frobenius_number([1, 7]) == -1
    assert checks.frobenius_number([97, 101]) == 97 * 101 - 97 - 101


def test_frobenius_number_rejects_common_divisor():
    try:
        checks.frobenius_number([4, 6])
    except ValueError:
        return
    raise AssertionError("gcd 2 accepted")


# Accepts exactly "aa" and "aaa": 0 -a-> 1 -a-> 2 -a-> 3.
AA_AAA = SmallNfa(
    4, "a", frozenset({0}), frozenset({2, 3}),
    frozenset({(0, "a", 1), (1, "a", 2), (2, "a", 3)}),
)
# Accepts exactly "b" over {a, b}: the closure misses every word with an a.
ONLY_B = SmallNfa(2, "ab", frozenset({0}), frozenset({1}), frozenset({(0, "b", 1)}))


def test_in_nfa_star():
    assert checks.in_nfa_star(AA_AAA, "")
    assert not checks.in_nfa_star(AA_AAA, "a")
    assert all(checks.in_nfa_star(AA_AAA, "a" * n) for n in range(2, 12))
    assert checks.in_nfa_star(ONLY_B, "bbb")
    assert not checks.in_nfa_star(ONLY_B, "ba")


def test_nfa_star_verdict():
    # {aa, aaa}*: only "a" is missing; the trimmed complement has 2 states.
    assert checks.nfa_star_verdict(AA_AAA, 2) == (True, 1, "a")
    # {b}*: "a" misses at every length; with bound 1 the window is [1, 2).
    assert checks.nfa_star_verdict(ONLY_B, 1) == (False, 1, "a")
    assert checks.nfa_star_verdict(ONLY_B, 3) == (False, 3, "aaa")
    # Nothing is missing from {a}*.
    one_a = SmallNfa(2, "a", frozenset({0}), frozenset({1}), frozenset({(0, "a", 1)}))
    assert checks.nfa_star_verdict(one_a, 1) == (True, None, None)


def test_regex_text_round_trip():
    starred = ("star", ("union", ("eps",), ("sym", "a")))
    tree = ("union", ("sym", "a"), ("concat", ("sym", "b"), starred))
    assert workloads.regex_text(tree) == "a+b(ε+a)*"
    right_nested = ("concat", ("sym", "a"), ("concat", ("sym", "b"), ("empty",)))
    assert workloads.regex_text(right_nested) == "a(b∅)"
    rng = random.Random(0)
    for _ in range(200):
        tree = workloads.random_tree(rng, 4)
        text = workloads.regex_text(tree)
        assert workloads.parse_regex(text) == workloads.tree_ast(tree)
