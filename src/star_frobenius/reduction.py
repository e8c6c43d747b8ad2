"""3SAT instances, the DIMACS reader, and the reduction to star-free
regular expressions whose closure is co-finite exactly when the instance
is unsatisfiable.

Each clause becomes one fixed-length word pattern over {T, F}: position j
is F when variable j occurs positively in the clause, T when negatively,
and (T+F) when the variable is absent; the patterns are unioned with the
all-words block of length n + 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .errors import BadLengths, FormatError, NotThreeSat, TooLarge, UnusedVariable
from .frobenius import frobenius_of_finite_set
from .regex import Alphabet, Concat, RegexAst, Symbol, Union

Clause = tuple[int, int, int]

SAT_BRUTEFORCE_LIMIT = 24


@dataclass(frozen=True)
class CnfInstance:
    """A 3SAT instance: clauses are signed 1-based variable indices.

    Every declared variable must occur in some clause, every clause has
    exactly three non-tautological literals, and consequently the variable
    count never exceeds three times the clause count.
    """

    variable_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("need at least one variable")
        if not self.clauses:
            raise ValueError("need at least one clause")
        used: set[int] = set()
        for index, clause in enumerate(self.clauses, start=1):
            if len(clause) != 3:
                raise NotThreeSat(
                    f"clause {index} has {len(clause)} literals, expected 3"
                )
            variables = set()
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(
                        f"clause {index}: literal {lit} out of range"
                    )
                variables.add(abs(lit))
            for v in variables:
                if v in clause and -v in clause:
                    raise NotThreeSat(
                        f"clause {index} is a tautology: variable {v} "
                        "appears with both signs"
                    )
            used |= variables
        for v in range(1, self.variable_count + 1):
            if v not in used:
                raise UnusedVariable(v)


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF: a ``p cnf n m`` header, ``c`` comment lines, and
    m clauses given as 0-terminated integer lists (line breaks are free)."""
    header: tuple[int, int] | None = None
    numbers: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.split()[0] == "c":
            continue
        if line.split()[0] == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise FormatError(f"line {lineno}: expected 'p cnf n m'")
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise FormatError(f"line {lineno}: expected 'p cnf n m'")
            continue
        if header is None:
            raise FormatError(f"line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                numbers.append(int(tok))
            except ValueError:
                raise FormatError(f"line {lineno}: bad token {tok!r}")

    if header is None:
        raise FormatError("missing 'p cnf n m' header")
    n, m = header
    if n < 1 or m < 1:
        raise FormatError("header must declare at least one variable and clause")

    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for value in numbers:
        if value == 0:
            clauses.append(tuple(current))
            current = []
        else:
            if abs(value) > n:
                raise FormatError(f"literal {value} out of range (n = {n})")
            current.append(value)
    if current:
        raise FormatError("last clause is not 0-terminated")
    if len(clauses) != m:
        raise FormatError(f"header declares {m} clauses, found {len(clauses)}")
    return CnfInstance(n, tuple(clauses))


def format_dimacs(cnf: CnfInstance) -> str:
    lines = [f"p cnf {cnf.variable_count} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


_T_OR_F = Union(Symbol("T"), Symbol("F"))


def cnf_to_regex(cnf: CnfInstance) -> RegexAst:
    """The reduction expression over alphabet {F, T}.

    One length-n pattern per clause (F for a positive occurrence, T for a
    negative one, (T+F) for an absent variable), unioned with the block of
    all words of length n + 1.  The closure of the result is co-finite iff
    the instance is unsatisfiable.
    """
    n = cnf.variable_count
    terms: list[RegexAst] = []
    for clause in cnf.clauses:
        atoms: list[RegexAst] = []
        for v in range(1, n + 1):
            if v in clause:
                atoms.append(Symbol("F"))
            elif -v in clause:
                atoms.append(Symbol("T"))
            else:
                atoms.append(_T_OR_F)
        terms.append(reduce(Concat, atoms))
    terms.append(reduce(Concat, [_T_OR_F] * (n + 1)))
    return reduce(Union, terms)


def sat_bruteforce(cnf: CnfInstance) -> tuple[bool, ...] | None:
    """First satisfying assignment in lexicographic truth-vector order
    (all-False first), or None when unsatisfiable."""
    n = cnf.variable_count
    if n > SAT_BRUTEFORCE_LIMIT:
        raise TooLarge(
            f"{n} variables exceeds the brute-force limit of "
            f"{SAT_BRUTEFORCE_LIMIT}"
        )
    for assignment in itertools.product((False, True), repeat=n):
        ok = True
        for clause in cnf.clauses:
            if not any(
                assignment[lit - 1] if lit > 0 else not assignment[-lit - 1]
                for lit in clause
            ):
                ok = False
                break
        if ok:
            return assignment
    return None


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of the two-length subset check.

    For S contained in the words of lengths m and n (m < n) with S* being
    co-finite, all of length-m words must lie in S; ``lemma_respected``
    is the implication and must never be false.
    """

    cofinite: bool
    sigma_m_subset: bool
    lemma_respected: bool


def check_lemma(
    words: set[str] | frozenset[str],
    m: int,
    n: int,
    alphabet: Alphabet,
) -> LemmaVerdict:
    """Check the two-length implication on one word set."""
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    for word in words:
        if len(word) not in (m, n):
            raise BadLengths(
                f"word {word!r} has length {len(word)}, expected {m} or {n}"
            )
    result = frobenius_of_finite_set(words, alphabet)
    sigma_m = all(
        "".join(letters) in words
        for letters in itertools.product(list(alphabet), repeat=m)
    )
    return LemmaVerdict(
        cofinite=result.cofinite,
        sigma_m_subset=sigma_m,
        lemma_respected=(not result.cofinite) or sigma_m,
    )
