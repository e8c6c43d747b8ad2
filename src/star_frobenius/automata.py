"""Finite-automaton machinery for Kleene-closure analysis.

Covers the position-automaton ("Glushkov") construction for an expression
and for its star, subset determinization into a complete DFA, complement,
trimming, finiteness via cycle detection, per-length layered reachability
for window queries, longest accepted word over the trimmed DAG, and a
boolean reachability-matrix verifier for candidate rejected words.

All automata are immutable after construction; states are dense integer
ids.  The starred position automaton of an expression with t symbol
occurrences has exactly t + 1 states.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetMismatch,
    InfiniteLanguage,
    NfaFormatError,
    UnknownSymbol,
)
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
    resolve_alphabet,
)


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; ``transitions[(p, a)]`` is a state set."""

    state_count: int
    alphabet: Alphabet
    initial: frozenset[int]
    accepting: frozenset[int]
    transitions: dict[tuple[int, str], frozenset[int]]

    def __post_init__(self):
        states = range(self.state_count)
        if not self.initial <= set(states) or not self.accepting <= set(states):
            raise ValueError("initial/accepting state out of range")
        for (p, a), targets in self.transitions.items():
            if p not in states or not targets <= set(states):
                raise ValueError(f"transition state out of range: {(p, a)}")
            if a not in self.alphabet:
                raise ValueError(f"transition symbol {a!r} not in alphabet")


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton; the transition function is total."""

    state_count: int
    alphabet: Alphabet
    start: int
    accepting: frozenset[int]
    transitions: dict[tuple[int, str], int]

    def __post_init__(self):
        states = range(self.state_count)
        if self.start not in states or not self.accepting <= set(states):
            raise ValueError("start/accepting state out of range")
        for p in states:
            for a in self.alphabet:
                if (p, a) not in self.transitions:
                    raise ValueError(f"missing transition ({p}, {a!r})")


@dataclass(frozen=True)
class TrimmedView:
    """States both reachable from the start and co-reachable to acceptance,
    with the transition function restricted to them."""

    states: frozenset[int]
    start: int | None
    accepting: frozenset[int]
    transitions: dict[tuple[int, str], int]


def _position_data(ast: RegexAst):
    """Number the Symbol leaves 1..t left to right and compute the
    nullable/first/last/follow structure."""
    letters: dict[int, str] = {}
    follow: dict[int, set[int]] = defaultdict(set)

    def walk(node: RegexAst) -> tuple[bool, frozenset[int], frozenset[int]]:
        match node:
            case EmptySet():
                return False, frozenset(), frozenset()
            case Epsilon():
                return True, frozenset(), frozenset()
            case Symbol(letter):
                pos = len(letters) + 1
                letters[pos] = letter
                singleton = frozenset({pos})
                return False, singleton, singleton
            case Union(left, right):
                nl, fl, ll = walk(left)
                nr, fr, lr = walk(right)
                return nl or nr, fl | fr, ll | lr
            case Concat(left, right):
                nl, fl, ll = walk(left)
                nr, fr, lr = walk(right)
                for p in ll:
                    follow[p] |= fr
                first = fl | fr if nl else fl
                last = lr | ll if nr else lr
                return nl and nr, first, last
            case Star(child):
                nc, fc, lc = walk(child)
                for p in lc:
                    follow[p] |= fc
                return True, fc, lc
        raise TypeError(f"not a regex node: {node!r}")

    nullable, first, last = walk(ast)
    return letters, follow, nullable, first, last


def _freeze(trans: dict[tuple[int, str], set[int]]):
    return {key: frozenset(val) for key, val in trans.items() if val}


def glushkov(ast: RegexAst, alphabet: Alphabet | None = None) -> Nfa:
    """Position automaton accepting L(ast); exactly symbol_length + 1 states.

    ``alphabet``, when given, must cover the symbols of ``ast`` and widens
    the automaton's declared alphabet (useful when the expression is to be
    judged relative to a larger symbol set).
    """
    letters, follow, nullable, first, last = _position_data(ast)
    trans: dict[tuple[int, str], set[int]] = defaultdict(set)
    for p in first:
        trans[(0, letters[p])].add(p)
    for p, successors in follow.items():
        for q in successors:
            trans[(p, letters[q])].add(q)
    accepting = frozenset(last) | (frozenset({0}) if nullable else frozenset())
    return Nfa(
        state_count=len(letters) + 1,
        alphabet=resolve_alphabet(alphabet_of(ast), alphabet),
        initial=frozenset({0}),
        accepting=accepting,
        transitions=_freeze(trans),
    )


def glushkov_star(ast: RegexAst, alphabet: Alphabet | None = None) -> Nfa:
    """Position automaton accepting (L(ast))*; exactly symbol_length + 1 states.

    The position automaton of Star(ast) has the same positions: the star
    only adds last-to-first follow edges and makes the initial state
    accepting, so the empty word is always accepted.
    """
    return glushkov(Star(ast), alphabet)


def nfa_accepts(nfa: Nfa, word: str) -> bool:
    """Direct subset simulation of one word."""
    current = set(nfa.initial)
    for ch in word:
        nxt: set[int] = set()
        for p in current:
            nxt |= nfa.transitions.get((p, ch), frozenset())
        current = nxt
        if not current:
            break
    return bool(current & nfa.accepting)


def star_closure(nfa: Nfa) -> Nfa:
    """Automaton for (L(nfa))*.

    Adds one fresh initial state carrying copies of the old initial
    out-transitions; the fresh state and the old accepting states become
    re-entry points.  The fresh state is required for correctness: reusing
    the old initial states accepts spurious words whenever one of them can
    be re-entered mid-run.
    """
    fresh = nfa.state_count
    trans: dict[tuple[int, str], set[int]] = {
        key: set(val) for key, val in nfa.transitions.items()
    }
    initial_out: dict[str, set[int]] = defaultdict(set)
    for (p, a), targets in nfa.transitions.items():
        if p in nfa.initial:
            initial_out[a] |= targets
    for a, targets in initial_out.items():
        trans.setdefault((fresh, a), set()).update(targets)
        for f in nfa.accepting:
            trans.setdefault((f, a), set()).update(targets)
    return Nfa(
        state_count=nfa.state_count + 1,
        alphabet=nfa.alphabet,
        initial=frozenset({fresh}),
        accepting=nfa.accepting | {fresh},
        transitions=_freeze(trans),
    )


def parse_nfa(text: str) -> Nfa:
    """Parse the line-based NFA description format.

    Expected layout, in order, with ``#`` starting a comment anywhere::

        states N
        alphabet <symbols>     # one token, one character per symbol; may be absent for an empty alphabet
        initial i j ...
        accepting k l ...
        p a q                  # one transition per line

    Blank lines are ignored.  State ids must be below N.
    """
    header = ["states", "alphabet", "initial", "accepting"]
    state_count = None
    alphabet = Alphabet()
    initial: frozenset[int] = frozenset()
    accepting: frozenset[int] = frozenset()
    trans: dict[tuple[int, str], set[int]] = defaultdict(set)
    stage = 0

    def ids(tokens: list[str], lineno: int) -> frozenset[int]:
        out = set()
        for tok in tokens:
            try:
                value = int(tok)
            except ValueError:
                raise NfaFormatError(f"expected a state id, got {tok!r}", lineno)
            if not 0 <= value < state_count:
                raise NfaFormatError(f"state id {value} out of range", lineno)
            out.add(value)
        return frozenset(out)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if stage < 4:
            keyword = header[stage]
            if tokens[0] != keyword:
                raise NfaFormatError(f"expected '{keyword}' line", lineno)
            if keyword == "states":
                if len(tokens) != 2 or not tokens[1].isdigit():
                    raise NfaFormatError("expected 'states N'", lineno)
                state_count = int(tokens[1])
                if state_count < 1:
                    raise NfaFormatError("state count must be >= 1", lineno)
            elif keyword == "alphabet":
                if len(tokens) > 2:
                    raise NfaFormatError(
                        "alphabet must be a single token of symbols", lineno
                    )
                symbols = tokens[1] if len(tokens) == 2 else ""
                try:
                    alphabet = Alphabet(symbols)
                except ValueError as exc:
                    raise NfaFormatError(str(exc), lineno)
            elif keyword == "initial":
                initial = ids(tokens[1:], lineno)
            else:
                accepting = ids(tokens[1:], lineno)
            stage += 1
            continue
        if len(tokens) != 3:
            raise NfaFormatError("expected transition 'p a q'", lineno)
        src, sym, dst = tokens
        (p,) = ids([src], lineno)
        (q,) = ids([dst], lineno)
        if sym not in alphabet:
            raise NfaFormatError(f"symbol {sym!r} not in alphabet", lineno)
        trans[(p, sym)].add(q)

    if stage < 4:
        raise NfaFormatError(
            f"missing '{header[stage]}' line", len(text.splitlines()) + 1
        )
    return Nfa(state_count, alphabet, initial, accepting, _freeze(trans))


def subset_construct(nfa: Nfa, alphabet: Alphabet) -> Dfa:
    """Determinize over ``alphabet`` into a complete DFA.

    Only reachable state subsets are materialized; the empty subset acts as
    the sink when some symbol leads nowhere.  State ids follow breadth-first
    discovery order, so the construction is deterministic.
    """
    used = {a for (_, a) in nfa.transitions}
    extra = used - set(alphabet)
    if extra:
        raise AlphabetMismatch(
            f"alphabet is missing symbol(s) {''.join(sorted(extra))!r}"
        )

    # Bitmask-encoded subsets keep determinization cheap for large NFAs.
    succ_mask: dict[str, list[int]] = {
        a: [0] * nfa.state_count for a in alphabet
    }
    for (p, a), targets in nfa.transitions.items():
        mask = 0
        for q in targets:
            mask |= 1 << q
        succ_mask[a][p] |= mask
    accept_mask = 0
    for q in nfa.accepting:
        accept_mask |= 1 << q

    start_mask = 0
    for q in nfa.initial:
        start_mask |= 1 << q

    symbols = list(alphabet)
    id_of = {start_mask: 0}
    masks = [start_mask]
    transitions: dict[tuple[int, str], int] = {}
    queue = deque([start_mask])
    while queue:
        mask = queue.popleft()
        state = id_of[mask]
        for a in symbols:
            rows = succ_mask[a]
            nxt = 0
            rest = mask
            while rest:
                low = rest & -rest
                nxt |= rows[low.bit_length() - 1]
                rest ^= low
            if nxt not in id_of:
                id_of[nxt] = len(masks)
                masks.append(nxt)
                queue.append(nxt)
            transitions[(state, a)] = id_of[nxt]

    accepting = frozenset(
        i for i, mask in enumerate(masks) if mask & accept_mask
    )
    return Dfa(len(masks), alphabet, 0, accepting, transitions)


def dfa_accepts(dfa: Dfa, word: str) -> bool:
    state = dfa.start
    for ch in word:
        if ch not in dfa.alphabet:
            return False
        state = dfa.transitions[(state, ch)]
    return state in dfa.accepting


def complement(dfa: Dfa) -> Dfa:
    """Swap accepting and non-accepting states; requires a complete DFA."""
    return Dfa(
        state_count=dfa.state_count,
        alphabet=dfa.alphabet,
        start=dfa.start,
        accepting=frozenset(range(dfa.state_count)) - dfa.accepting,
        transitions=dfa.transitions,
    )


def trim_useful(dfa: Dfa) -> TrimmedView:
    """Restrict to states reachable from the start and co-reachable to an
    accepting state.  The language is unchanged."""
    reachable = {dfa.start}
    queue = deque([dfa.start])
    while queue:
        p = queue.popleft()
        for a in dfa.alphabet:
            q = dfa.transitions[(p, a)]
            if q not in reachable:
                reachable.add(q)
                queue.append(q)

    predecessors: dict[int, set[int]] = defaultdict(set)
    for (p, _), q in dfa.transitions.items():
        predecessors[q].add(p)
    co_reachable = set(dfa.accepting)
    queue = deque(co_reachable)
    while queue:
        q = queue.popleft()
        for p in predecessors[q]:
            if p not in co_reachable:
                co_reachable.add(p)
                queue.append(p)

    useful = frozenset(reachable & co_reachable)
    transitions = {
        (p, a): q
        for (p, a), q in dfa.transitions.items()
        if p in useful and q in useful
    }
    return TrimmedView(
        states=useful,
        start=dfa.start if dfa.start in useful else None,
        accepting=dfa.accepting & useful,
        transitions=transitions,
    )


def topological_order(view: TrimmedView) -> list[int] | None:
    """Kahn order of the view's states, or None when the view has a cycle.

    On a trimmed view a cycle means an infinite language; the order of an
    acyclic view is what the longest-path step runs over.
    """
    indegree = dict.fromkeys(view.states, 0)
    successors: dict[int, list[int]] = defaultdict(list)
    for (p, _), q in view.transitions.items():
        successors[p].append(q)
        indegree[q] += 1
    order = [p for p, d in indegree.items() if d == 0]
    for p in order:  # the list doubles as the FIFO queue
        for q in successors[p]:
            indegree[q] -= 1
            if indegree[q] == 0:
                order.append(q)
    return order if len(order) == len(view.states) else None


def is_infinite(dfa: Dfa) -> bool:
    """True iff the DFA's language is infinite (trimmed automaton has a cycle)."""
    return topological_order(trim_useful(dfa)) is None


def _successor_arrays(dfa: Dfa) -> list[np.ndarray]:
    """Per-symbol successor arrays (symbols in alphabet order); entry p of
    the array for symbol a is the state reached from p on a."""
    arrays = []
    for a in dfa.alphabet:
        succ = np.empty(dfa.state_count, dtype=np.intp)
        for p in range(dfa.state_count):
            succ[p] = dfa.transitions[(p, a)]
        arrays.append(succ)
    return arrays


def _lex_smallest_accepted(
    dfa: Dfa, length: int, successors: list[np.ndarray]
) -> str:
    """Lexicographically smallest accepted word of exactly this length.

    Assumes one exists.  ``successors`` are the DFA's successor arrays.
    Co-reachability layers are computed backward from the accepting states,
    then a greedy forward walk picks the smallest viable symbol at each step.
    """
    layers = np.zeros((length + 1, dfa.state_count), dtype=bool)
    layers[length, list(dfa.accepting)] = True
    for j in range(length - 1, -1, -1):
        target = layers[j + 1]
        row = layers[j]
        for succ in successors:
            row |= target[succ]
    state = dfa.start
    assert layers[0, state], "no accepted word of the requested length"
    symbols = list(dfa.alphabet)
    out = []
    for j in range(length):
        for a, succ in zip(symbols, successors):
            q = succ[state]
            if layers[j + 1, q]:
                out.append(a)
                state = int(q)
                break
    return "".join(out)


def window_accepts(dfa: Dfa, lo: int, hi: int) -> tuple[int, str] | None:
    """Smallest accepted length in [lo, hi) with its smallest witness word.

    Uses per-length layered reachability (the set of states reachable by
    words of exactly each length); no word enumeration happens unless a
    witness is reconstructed.
    """
    if not 0 <= lo <= hi:
        raise ValueError("window must satisfy 0 <= lo <= hi")
    successors = _successor_arrays(dfa)
    accepting = np.zeros(dfa.state_count, dtype=bool)
    accepting[list(dfa.accepting)] = True
    current = np.zeros(dfa.state_count, dtype=bool)
    current[dfa.start] = True
    for length in range(hi):
        if length >= lo and bool((current & accepting).any()):
            return length, _lex_smallest_accepted(dfa, length, successors)
        if not current.any():
            return None
        nxt = np.zeros(dfa.state_count, dtype=bool)
        for succ in successors:
            nxt[succ[current]] = True
        current = nxt
    return None


def longest_accepted(dfa: Dfa) -> tuple[int, str] | None:
    """Length of the longest accepted word plus its smallest witness.

    None when the language is empty; InfiniteLanguage when it is infinite.
    The length is the longest path from the start to an accepting state in
    the trimmed sub-automaton, which is a DAG for finite languages.
    """
    view = trim_useful(dfa)
    order = topological_order(view)
    if order is None:
        raise InfiniteLanguage("language is infinite; no longest word exists")
    return _longest_path(dfa, view, order)


def _longest_path(
    dfa: Dfa, view: TrimmedView, order: list[int]
) -> tuple[int, str] | None:
    """longest_accepted for a DFA whose trimmed view and its topological
    order are already known; None when the view is empty."""
    if not order:
        return None
    best: dict[int, int] = {}
    for p in reversed(order):
        candidates = [0] if p in view.accepting else []
        for a in dfa.alphabet:
            q = view.transitions.get((p, a))
            if q is not None:
                candidates.append(1 + best[q])
        best[p] = max(candidates)
    length = best[view.start]
    return length, _lex_smallest_accepted(dfa, length, _successor_arrays(dfa))


@dataclass(frozen=True)
class ReachabilityMatrix:
    """Boolean state-to-state reachability along a word.

    Entry (p, q) is true iff q is reachable from p over the word consumed
    so far; the matrix starts as the identity (empty word) and is updated
    by boolean multiplication with one letter's adjacency matrix at a time.
    Rows are stored as integer bitmasks.
    """

    dimension: int
    rows: tuple[int, ...]

    @classmethod
    def identity(cls, dimension: int) -> "ReachabilityMatrix":
        return cls(dimension, tuple(1 << p for p in range(dimension)))

    @classmethod
    def for_letter(cls, nfa: Nfa, symbol: str) -> "ReachabilityMatrix":
        if symbol not in nfa.alphabet:
            raise UnknownSymbol(f"symbol {symbol!r} not in the NFA alphabet")
        rows = []
        for p in range(nfa.state_count):
            mask = 0
            for q in nfa.transitions.get((p, symbol), frozenset()):
                mask |= 1 << q
            rows.append(mask)
        return cls(nfa.state_count, tuple(rows))

    def multiply(self, other: "ReachabilityMatrix") -> "ReachabilityMatrix":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        new_rows = []
        for row in self.rows:
            acc = 0
            rest = row
            while rest:
                low = rest & -rest
                acc |= other.rows[low.bit_length() - 1]
                rest ^= low
            new_rows.append(acc)
        return ReachabilityMatrix(self.dimension, tuple(new_rows))

    def entry(self, p: int, q: int) -> bool:
        return bool(self.rows[p] >> q & 1)


def verify_rejected(nfa: Nfa, word: str) -> bool:
    """True iff the NFA rejects the word, decided by the reachability matrix.

    The matrix starts as the identity and is multiplied by one letter
    adjacency matrix per symbol; the word is rejected iff no
    (initial, accepting) entry ends up true.
    """
    matrix = ReachabilityMatrix.identity(nfa.state_count)
    for ch in word:
        matrix = matrix.multiply(ReachabilityMatrix.for_letter(nfa, ch))
    accept_mask = 0
    for q in nfa.accepting:
        accept_mask |= 1 << q
    return not any(matrix.rows[i] & accept_mask for i in nfa.initial)
