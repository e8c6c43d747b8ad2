"""Finite-automaton machinery for Kleene-closure analysis.

Covers the position-automaton ("Glushkov") construction for an expression
and for its star, subset determinization into a complete DFA, complement,
one trim sweep that also gives the cycle test and the longest-path table,
periodic backward layers for window queries, and a boolean
reachability-matrix verifier for candidate rejected words.

All automata are immutable after construction; states are dense integer
ids.  The starred position automaton of an expression with t symbol
occurrences has exactly t + 1 states.
Both automata keep their transitions in one flat list with one layout:
entry p·|Σ| + i belongs to state p and the i-th letter, and ``row(p)`` is
p's slice.  An NFA entry is the bitmask of the states reached, so letter
i's rows are the slice ``transitions[i::|Σ|]``, and its initial and
accepting sets are bitmasks too.  A DFA entry is the id of the one state
reached, and its accepting set is one 0/1 byte per state, the form of the
window's backward layers.  Subset construction renumbers the NFA's
reachable states breadth-first, privately, and reads each subset in 64-bit
chunks: one lookup per chunk, in per-position tables of chunk unions that
are filled on first use, or one lookup of the whole subset when the
states fit in one chunk.  Every step after subset construction reads the
DFA's list.  One backward sweep over the trim's predecessor lists gives
the cycle test and best[], the longest accepted length from each useful
state.  The longest witness is read off best[] greedily and the window
witness off backward layers that stop at the first repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import itemgetter, ne, or_
from struct import Struct

from .errors import InfiniteLanguage, NfaFormatError, UnknownSymbol
from .regex import (
    Alphabet,
    Concat,
    EmptySet,
    Epsilon,
    RegexAst,
    Star,
    Symbol,
    Union,
    fold,
    resolve_alphabet,
)


def _members(mask: int):
    """The state ids in a bitmask, lowest first, in time linear in the span
    from its lowest member to its highest."""
    low = (mask & -mask).bit_length() - 1  # the lowest member, -1 for 0
    bits = bin(mask >> low)[:1:-1] if mask else ""  # bit q is character q
    q = bits.find("1")
    while q >= 0:
        yield low + q
        q = bits.find("1", q + 1)


class _Table:
    """The layout both automata share: entry p·|Σ| + i is p's on letter i."""

    def row(self, p: int) -> list[int]:
        """p's entries, one per letter in alphabet order."""
        k = len(self.alphabet.symbols)
        return self.transitions[p * k : p * k + k]


@dataclass(frozen=True)
class Nfa(_Table):
    """Nondeterministic automaton; ``transitions[p * |Σ| + i]`` is the
    bitmask of the states reached from p on the i-th letter, and
    ``initial`` and ``accepting`` are bitmasks of states too."""

    state_count: int
    alphabet: Alphabet
    initial: int
    accepting: int
    transitions: list[int]

    def __post_init__(self):
        initial, accepting = self.initial, self.accepting
        if min(initial, accepting) < 0 or (initial | accepting) >> self.state_count:
            raise ValueError("initial/accepting state out of range")
        if len(self.transitions) != self.state_count * len(self.alphabet):
            raise ValueError("transition table length is not |Q| * |alphabet|")
        masks = self.transitions
        if min(masks, default=0) < 0 or max(masks, default=0) >> self.state_count:
            raise ValueError("transition state out of range")

    def image(self, mask: int, i: int) -> int:
        """The states reached from those in ``mask`` on the i-th letter."""
        k = len(self.alphabet.symbols)
        return reduce(or_, (self.transitions[p * k + i] for p in _members(mask)), 0)


@dataclass(frozen=True)
class Dfa(_Table):
    """Complete DFA; ``transitions[p * |Σ| + i]`` is δ(p, i-th letter), and
    ``accepting`` holds |Q| bytes, ``accepting[p]`` 1 when p accepts, else 0."""

    state_count: int
    alphabet: Alphabet
    start: int
    accepting: bytes
    transitions: list[int]

    def __post_init__(self):
        n, table, targets = self.state_count, self.accepting, self.transitions
        # translate(None, b"\0\1") keeps the bytes other than 0 and 1
        if not isinstance(table, bytes) or table.translate(None, b"\0\1"):
            raise ValueError("accepting table is not bytes of 0 or 1")
        if not 0 <= self.start < n or len(table) != n:
            raise ValueError("start/accepting state out of range")
        if len(targets) != n * len(self.alphabet):
            raise ValueError("transition table length is not |Q| * |alphabet|")
        if min(targets, default=0) < 0 or max(targets, default=0) >= n:
            raise ValueError("transition state out of range")


@dataclass(frozen=True)
class TrimmedView:
    """The states both reachable from the start and co-reachable to
    acceptance, each listed once, with best[p], the longest accepted length
    from p (-1 off the view).  ``best`` is None when the view has a cycle,
    that is, when the language is infinite."""

    states: list[int]
    best: list[int] | None


def _position_data(ast: RegexAst):
    """Number the Symbol leaves 1..t left to right and compute nullable,
    last, follow and labelled as bitmasks: follow[p] may come after p (after
    position 0, the first set), and labelled[a] holds letter a's positions."""
    labelled: dict[str, int] = {}
    follow = [0]

    def add_follow(last: int, successors: int) -> None:
        if successors:
            for p in _members(last):
                follow[p] |= successors

    def visit(node: RegexAst, children: tuple) -> tuple[bool, int, int]:
        match node:
            case EmptySet():
                return False, 0, 0
            case Epsilon():
                return True, 0, 0
            case Symbol(letter):
                singleton = 1 << len(follow)
                follow.append(0)
                labelled[letter] = labelled.get(letter, 0) | singleton
                return False, singleton, singleton
            case Union():
                (nl, fl, ll), (nr, fr, lr) = children
                return nl or nr, fl | fr, ll | lr
            case Concat():
                (nl, fl, ll), (nr, fr, lr) = children
                add_follow(ll, fr)
                first = fl | fr if nl else fl
                last = lr | ll if nr else lr
                return nl and nr, first, last
            case Star():
                ((nc, fc, lc),) = children
                add_follow(lc, fc)
                return True, fc, lc
        raise TypeError(f"not a regex node: {node!r}")

    nullable, follow[0], last = fold(ast, visit)
    return labelled, follow, nullable, last


def glushkov(ast: RegexAst, alphabet: Alphabet | None = None) -> Nfa:
    """Position automaton accepting L(ast); exactly symbol_length + 1 states.

    ``alphabet``, when given, must cover the symbols of ``ast`` and widens
    the automaton's declared alphabet (useful when the expression is to be
    judged relative to a larger symbol set).

    The automaton is homogeneous (every edge into q reads q's letter), so
    p's entry for letter a is follow(p) & the positions labelled a.
    """
    labelled, follow, nullable, last = _position_data(ast)
    effective = resolve_alphabet(Alphabet(labelled), alphabet)
    masks = [labelled.get(a, 0) for a in effective.symbols]
    return Nfa(
        state_count=len(follow),
        alphabet=effective,
        initial=1,
        accepting=last | nullable,  # state 0 iff nullable
        transitions=[successors & m for successors in follow for m in masks],
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
    symbols, current = nfa.alphabet.symbols, nfa.initial
    for ch in word:
        if not current or ch not in symbols:
            return False
        current = nfa.image(current, symbols.index(ch))
    return bool(current & nfa.accepting)


def star_closure(nfa: Nfa) -> Nfa:
    """Automaton for (L(nfa))*.

    Adds one fresh initial state carrying copies of the old initial
    out-transitions; the fresh state and the old accepting states become
    re-entry points.  The fresh state is required for correctness: reusing
    the old initial states accepts spurious words whenever one of them can
    be re-entered mid-run.
    """
    k = len(nfa.alphabet.symbols)
    fresh_row = [nfa.image(nfa.initial, i) for i in range(k)]
    table = list(nfa.transitions)
    for f in _members(nfa.accepting):
        table[f * k : f * k + k] = map(or_, nfa.row(f), fresh_row)
    fresh = nfa.state_count
    return Nfa(
        state_count=fresh + 1,
        alphabet=nfa.alphabet,
        initial=1 << fresh,
        accepting=nfa.accepting | 1 << fresh,
        transitions=table + fresh_row,
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
    initial = accepting = 0
    stage = 0

    def state_id(tok: str, lineno: int) -> int:
        # ASCII digits only: int() also takes signs, "_" and other scripts' digits
        if not (tok.isascii() and tok.isdecimal()):
            raise NfaFormatError(f"expected a state id, got {tok!r}", lineno)
        value = int(tok)
        if value >= state_count:
            raise NfaFormatError(f"state id {value} out of range", lineno)
        return value

    def state_mask(tokens: list[str], lineno: int) -> int:
        # bits set in a byte buffer; OR-ing 1 << q into an int copies it per id
        bits = bytearray((state_count + 7) >> 3)
        for tok in tokens:
            q = state_id(tok, lineno)
            bits[q >> 3] |= 1 << (q & 7)
        return int.from_bytes(bits, "little")

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
                count = tokens[1] if len(tokens) == 2 else ""
                if not (count.isascii() and count.isdecimal()):
                    raise NfaFormatError("expected 'states N'", lineno)
                state_count = int(count)
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
                table = [0] * (state_count * len(alphabet))
            elif keyword == "initial":
                initial = state_mask(tokens[1:], lineno)
            else:
                accepting = state_mask(tokens[1:], lineno)
            stage += 1
            continue
        if len(tokens) != 3:
            raise NfaFormatError("expected transition 'p a q'", lineno)
        src, sym, dst = tokens
        p = state_id(src, lineno)
        q = state_id(dst, lineno)
        if sym not in alphabet:
            raise NfaFormatError(f"symbol {sym!r} not in alphabet", lineno)
        table[p * len(alphabet) + alphabet.symbols.index(sym)] |= 1 << q

    if stage < 4:
        raise NfaFormatError(
            f"missing '{header[stage]}' line", len(text.splitlines()) + 1
        )
    return Nfa(state_count, alphabet, initial, accepting, table)


class _Unions(dict):
    """A table from a state set of at most 64 states to the union of its
    members' rows, filled on first use; bit b of a key stands for state
    ``base + b``.  A key of more than eight members is read a byte at a
    time, in eight tables of the same kind made on the first such miss, so
    a miss costs at most eight lookups, not a step per member, and the
    byte values recur."""

    __slots__ = ("rows", "base", "byte_tables")

    def __init__(self, rows, base: int):
        super().__init__({0: 0})
        self.rows = rows
        self.base = base
        self.byte_tables = None

    def __missing__(self, value: int) -> int:
        if value.bit_count() > 8:
            tables = self.byte_tables
            if tables is None:
                tables = self.byte_tables = [
                    _Unions(self.rows, self.base + b) for b in range(0, 64, 8)
                ]
            union, i = 0, 0
            for byte in value.to_bytes(8, "little"):
                if byte:
                    union |= tables[i][byte]
                i += 1
        else:
            union, rows, first, bits = 0, self.rows, self.base - 1, value
            while bits:
                lowest = bits & -bits
                union |= rows[first + lowest.bit_length()]
                bits ^= lowest
        self[value] = union
        return union


def _breadth_first(nfa: Nfa) -> tuple[list[int], int]:
    """The states reachable from the initial set, by distance from it and
    by id within one distance, and their bitmask."""
    k, table = len(nfa.alphabet.symbols), nfa.transitions
    order: list[int] = []
    seen = frontier = nfa.initial
    while frontier:
        layer = list(_members(frontier))
        order += layer
        reached = 0
        for p in layer:
            reached = reduce(or_, table[p * k : p * k + k], reached)
        frontier = (reached | seen) ^ seen
        seen |= reached
    return order, seen


def subset_construct(nfa: Nfa, alphabet: Alphabet | None) -> Dfa:
    """Determinize over ``alphabet`` into a complete DFA.

    ``alphabet`` (None for the NFA's own) must cover the NFA's, by
    resolve_alphabet's rule.
    Only reachable state subsets are materialized; the empty subset acts as
    the sink when some symbol leads nowhere.  State ids follow breadth-first
    discovery order, so the construction is deterministic.

    Subsets are bitmasks.  An NFA of more than 64 states is first renumbered
    breadth-first from its initial set: unreachable states are dropped, and
    states at one distance from the start get adjacent ids, so that the
    subsets' 64-bit slices recur.  Each DFA state is the same subset under
    the private ids, found in the same order, so the DFA does not change.
    The ids stay as they are when that order is already the identity, or
    when the rows hold more than 64 members on average (renaming them would
    cost more than it saves).

    Walking the alphabet in order, a letter joins the previous letter group
    when the states it enters are disjoint from those the group enters; then
    δ(S, a) = succ_g(S) & enters(a), where succ_g(S) is the union of the
    group's rows over S.  A position automaton is homogeneous (every edge
    into q reads q's letter), so it forms one group and each subset needs
    one union.  S is read in little-endian 64-bit chunks, from its lowest
    member's chunk to its highest one's; each chunk position has a table
    from a chunk value to the union of its members' rows, filled on first
    use, and succ_g(S) is the OR of one lookup per chunk.  When the states
    fit in one chunk, S is looked up whole.
    """
    alphabet = resolve_alphabet(nfa.alphabet, alphabet)
    k = len(nfa.alphabet.symbols)
    n, initial, accepting, table = (
        nfa.state_count, nfa.initial, nfa.accepting, nfa.transitions
    )
    if n > 64:
        order, reachable = _breadth_first(nfa)
        if len(order) < n or any(map(ne, order, range(n))):
            reached = [row for p in order for row in table[p * k : p * k + k]]
            # Renaming takes a step per member of each distinct row: rows of
            # more than 64 members on average keep their ids.
            if sum(map(int.bit_count, reached)) <= 64 * len(reached):
                new_id = dict(zip(order, range(n))).__getitem__

                def rename(mask: int) -> int:
                    return sum(map((1).__lshift__, map(new_id, _members(mask))))

                # Equal rows are renamed once.  Keys carry the width, as an
                # int's hash is its value mod 2**61 - 1: the rows {p} alone
                # would share 61 hash values.
                keys = [(row.bit_length(), row) for row in reached]
                renamed = {key: rename(key[1]) for key in set(keys)}
                table = list(map(renamed.__getitem__, keys))
                initial = rename(initial)
                accepting = rename(accepting & reachable)
                n = len(order)
    own = {a: table[i::k] for i, a in enumerate(nfa.alphabet.symbols)}
    # A letter the NFA lacks leads nowhere.  Each list is a new one, since a
    # group ORs its later letters' rows into its first letter's list.
    rows = [own.get(a) or [0] * n for a in alphabet.symbols]

    # A group is (one union table per chunk position, the enters set of
    # each letter).
    chunk_count = max(1, (n + 63) >> 6)
    groups = []
    group_enters = 0
    for letter_rows in rows:
        entered = reduce(or_, letter_rows, 0)  # the states the letter leads into
        if groups and not entered & group_enters:
            group_rows[:] = map(or_, group_rows, letter_rows)
            group_enters |= entered
        else:
            group_rows, enters = letter_rows, []
            tables = [_Unions(group_rows, c << 6) for c in range(chunk_count)]
            groups.append((tables, enters))
            group_enters = entered
        enters.append(entered)

    wide = chunk_count > 1
    if wide:  # "<" reads little-endian whatever the machine's byte order
        unpackers = [Struct(f"<{c}Q").unpack for c in range(chunk_count + 1)]
    id_of = {initial: 0}
    masks = [initial]
    transitions: list[int] = []
    for mask in masks:  # the list doubles as the BFS queue
        if wide:
            # mask ^ (mask - 1) keeps the lowest member and the bits below it
            low = (mask ^ (mask - 1)).bit_length() - 1 >> 6
            span = mask >> (low << 6)
            count = (span.bit_length() + 63) >> 6
            values = unpackers[count](span.to_bytes(count << 3, "little"))
        for tables, enters in groups:
            if wide:
                succ, c = 0, low
                for value in values:
                    succ |= tables[c][value]
                    c += 1
            else:
                succ = tables[0][mask]
            for entered in enters:
                nxt = succ & entered
                target = id_of.get(nxt)
                if target is None:
                    target = id_of[nxt] = len(masks)
                    masks.append(nxt)
                transitions.append(target)

    accepting = bytes(mask & accepting != 0 for mask in masks)
    return Dfa(len(masks), alphabet, 0, accepting, transitions)


def dfa_accepts(dfa: Dfa, word: str) -> bool:
    index = {a: i for i, a in enumerate(dfa.alphabet.symbols)}
    state = dfa.start
    for ch in word:
        if ch not in index:
            return False
        state = dfa.row(state)[index[ch]]
    return bool(dfa.accepting[state])


def complement(dfa: Dfa) -> Dfa:
    """Swap accepting and non-accepting states; requires a complete DFA.

    The complement shares the transition table of ``dfa`` and flips each
    byte of its acceptance table.
    """
    return Dfa(
        state_count=dfa.state_count,
        alphabet=dfa.alphabet,
        start=dfa.start,
        accepting=dfa.accepting.translate(bytes.maketrans(b"\0\1", b"\1\0")),
        transitions=dfa.transitions,
    )


def trim_useful(dfa: Dfa) -> TrimmedView:
    """The useful states (reachable from the start and co-reachable to
    acceptance), the longest accepted length from each, and the cycle test.

    The forward search lists each reachable state's predecessors.  The
    backward search over those lists finds the useful states and counts
    each one's edges into useful states; Kahn's algorithm on the reversed
    edges then settles them successors first, raising best[p] to
    best[q] + 1 as it settles q.  A useful state left unsettled lies on a
    cycle.
    """
    reachable = [False] * dfa.state_count
    reachable[dfa.start] = True
    predecessors: list[list[int]] = [[] for _ in range(dfa.state_count)]
    queue = [dfa.start]
    for p in queue:  # the list doubles as the FIFO queue
        for q in dfa.row(p):
            predecessors[q].append(p)
            if not reachable[q]:
                reachable[q] = True
                queue.append(q)

    # Every state on a path from a reachable state is reachable, so the
    # reachable predecessors suffice for the backward search.  best >= 0
    # marks a useful state; a useful state that is not accepting has a
    # useful successor, so settling raises its best above 0.
    best = [-1] * dfa.state_count
    useful_edges = [0] * dfa.state_count  # out-edges into useful states
    accepting = compress(range(dfa.state_count), dfa.accepting)
    queue = [q for q in accepting if reachable[q]]
    for q in queue:
        best[q] = 0
    for q in queue:
        for p in predecessors[q]:
            useful_edges[p] += 1
            if best[p] < 0:
                best[p] = 0
                queue.append(p)

    settled = [q for q in queue if not useful_edges[q]]
    for q in settled:  # the list doubles as the FIFO queue
        length = best[q] + 1
        for p in predecessors[q]:
            if best[p] < length:
                best[p] = length
            useful_edges[p] -= 1
            if not useful_edges[p]:
                settled.append(p)
    return TrimmedView(queue, best if len(settled) == len(queue) else None)


def is_infinite(dfa: Dfa) -> bool:
    """True iff the DFA's language is infinite (trimmed automaton has a cycle)."""
    return trim_useful(dfa).best is None


def window_accepts(dfa: Dfa, lo: int, hi: int) -> tuple[int, str] | None:
    """Smallest accepted length in [lo, hi) with its smallest witness word.

    Backward layers: B_0 is the acceptance table and B_{j+1} the states with a
    letter into B_j, so B_j holds the states with an accepted word of
    exactly j letters.  B_{j+1} depends only on B_j, so once a layer equals
    an earlier B_μ the layers repeat with period j − μ, and the smallest
    length is read off at most one more period.  At most ℓ + 1 layers are
    built and kept, where ℓ is the length found (or the repeat point).  The
    word is greedy: with r letters left, take the smallest letter whose
    successor lies in B_{r−1}.  The witness buffer of ``lo`` letters is
    allocated first, so a window too large for memory raises MemoryError
    at once.
    """
    if not 0 <= lo <= hi:
        raise ValueError("window must satisfy 0 <= lo <= hi")
    if lo == hi:
        return None
    word = [""] * lo
    n, start = dfa.state_count, dfa.start
    symbols, k, table = dfa.alphabet.symbols, len(dfa.alphabet), dfa.transitions
    # letter i's gather maps B_j to the tuple (B_j[δ(p, i)] for each p); a
    # one-index itemgetter returns a bare item, but a 1-state DFA's only
    # successor is state 0, so there the gather is B_j itself
    gathers = [itemgetter(*table[i::k]) if n > 1 else bytes for i in range(k)]
    layer = dfa.accepting  # B_j, one 0/1 byte per state
    first_seen: dict[bytes, int] = {}  # B_j -> j
    length = None
    for j in range(hi):
        if j >= lo and layer[start]:
            length = j
            break
        if layer in first_seen:
            break
        first_seen[layer] = j
        # bytewise OR of 0/1 bytes: one big-int OR per letter, no carries
        bits = 0
        for gather in gathers:
            bits |= int.from_bytes(bytearray(gather(layer)), "big")
        layer = bits.to_bytes(n, "big")
    else:
        return None

    layers = list(first_seen)  # B_0 .. B_{j-1}, in insertion order
    # When B_j = B_μ, B_m = B_{μ + (m − μ) mod (j − μ)} for every m ≥ μ.
    mu = first_seen.get(layer, 0)
    period = j - mu
    if length is None:
        first = max(lo, j)  # every length below j was checked above
        candidates = range(first, min(hi, first + period))
        length = next(
            (m for m in candidates if layers[mu + (m - mu) % period][start]), None
        )
        if length is None:
            return None
    word += [""] * (length - lo)
    p = start
    for i in range(length):
        m = length - 1 - i  # letters left after this one
        reached = layers[m if m < j else mu + (m - mu) % period]
        for a, q in zip(symbols, table[p * k : p * k + k]):
            if reached[q]:
                word[i] = a
                p = q
                break
    return length, "".join(word)


def longest_accepted(dfa: Dfa) -> tuple[int, str] | None:
    """Length of the longest accepted word plus its smallest witness.

    None when the language is empty; InfiniteLanguage when it is infinite.
    The length is the longest path from the start to an accepting state in
    the trimmed sub-automaton, which is a DAG for finite languages.
    """
    view = trim_useful(dfa)
    if view.best is None:
        raise InfiniteLanguage("language is infinite; no longest word exists")
    return _longest_path(dfa, view)


def _longest_path(dfa: Dfa, view: TrimmedView) -> tuple[int, str] | None:
    """longest_accepted for a DFA whose acyclic trimmed view is already
    known; None when the view is empty.

    best[p] is the longest accepted length from p, so each state on the run
    of a longest word has best = the number of letters still to read.
    """
    best = view.best
    length = best[dfa.start]
    if length < 0:
        return None
    symbols = dfa.alphabet.symbols
    p, word = dfa.start, []
    for r in range(length, 0, -1):
        for a, q in zip(symbols, dfa.row(p)):
            if best[q] == r - 1:
                word.append(a)
                p = q
                break
    return length, "".join(word)


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
        i, k = nfa.alphabet.symbols.index(symbol), len(nfa.alphabet)
        return cls(nfa.state_count, tuple(nfa.transitions[i::k]))

    def multiply(self, other: "ReachabilityMatrix") -> "ReachabilityMatrix":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        rows = tuple(
            reduce(or_, (other.rows[q] for q in _members(row)), 0) for row in self.rows
        )
        return ReachabilityMatrix(self.dimension, rows)

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
    return not any(matrix.rows[i] & nfa.accepting for i in _members(nfa.initial))
