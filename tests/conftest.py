"""Shared helpers for the test suite."""

import itertools

from star_frobenius import CnfInstance


def words_up_to(alphabet, max_length):
    """Every word over the alphabet with length <= max_length, shortest
    first, lexicographic within a length."""
    symbols = list(alphabet)
    for length in range(max_length + 1):
        for letters in itertools.product(symbols, repeat=length):
            yield "".join(letters)


def acceptance_table(states, state_count):
    """A DFA's acceptance table: one byte per state, 1 for those in
    ``states`` and 0 for the rest."""
    return bytes(q in states for q in range(state_count))


def accepting_states(table):
    """The set of states a DFA acceptance table marks with 1.  Reading the
    table itself as a set (``q in table``, ``set(table)``) compares byte
    values, not states."""
    return {q for q, flag in enumerate(table) if flag}


def sign_patterns(variables):
    """All clauses over exactly the given distinct variables."""
    return [
        tuple(sign * v for sign, v in zip(signs, variables))
        for signs in itertools.product((1, -1), repeat=len(variables))
    ]


def exhaustive_three_var_instances():
    """Every deduplicated 3SAT instance over variables {1,2,3} whose clauses
    each use all three variables: the 255 non-empty subsets of the 8 sign
    patterns."""
    patterns = sign_patterns((1, 2, 3))
    for k in range(1, 256):
        subset = tuple(p for j, p in enumerate(patterns) if k >> j & 1)
        yield CnfInstance(3, subset)


def naive_bool_matrices(nfa):
    """Letter adjacency matrices as plain nested bool lists."""
    out = {}
    for i, a in enumerate(nfa.alphabet):
        grid = [[False] * nfa.state_count for _ in range(nfa.state_count)]
        for p in range(nfa.state_count):
            for q in range(nfa.state_count):
                if nfa.row(p)[i] >> q & 1:
                    grid[p][q] = True
        out[a] = grid
    return out


def naive_bool_product(left, right):
    n = len(left)
    out = [[False] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            if left[p][q]:
                for r in range(n):
                    if right[q][r]:
                        out[p][r] = True
    return out
