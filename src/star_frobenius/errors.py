"""Exception hierarchy shared by every module.

Three broad families matter to callers: ``InputError`` (the text handed to
us is malformed), ``SemanticError`` (the input is well-formed but asks for
something undefined, such as a Frobenius number of a non-coprime set) and
``BudgetExceeded`` (a size limit was hit, including ``TooLarge``).
The CLI maps these families onto exit codes.
"""


class Error(Exception):
    """Base class for all errors raised by this package."""


class InputError(Error):
    """Malformed input text: regex, NFA file, DIMACS file, or word list."""


class SemanticError(Error):
    """Well-formed input that violates a semantic requirement."""


class RegexSyntaxError(InputError):
    """Regex text does not conform to the grammar; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NfaFormatError(InputError):
    """NFA description file is malformed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FormatError(InputError):
    """DIMACS CNF text is malformed."""


class NotThreeSat(InputError):
    """A clause does not have exactly three usable literals."""


class UnusedVariable(InputError):
    """A declared variable occurs in no clause."""

    def __init__(self, index: int):
        super().__init__(f"variable {index} occurs in no clause")
        self.index = index


class BadLengths(InputError):
    """A word in a two-length set check has a length outside the pair."""


class AlphabetMismatch(SemanticError):
    """A declared alphabet does not cover every symbol actually used."""


class UnknownSymbol(SemanticError):
    """A word contains a symbol outside the automaton's alphabet."""


class InfiniteLanguage(SemanticError):
    """A longest-word query was made against an infinite language."""


class GcdNotOne(SemanticError):
    """Frobenius number requested for integers with gcd greater than 1."""


# Default size limit shared by the oracle (words enumerated) and the
# numeric solver (residue-table entries); BudgetExceeded reports a breach.
DEFAULT_BUDGET = 2**22


class BudgetExceeded(Error):
    """A size limit was hit: the oracle's enumeration would exceed its word
    budget (or the interpreter's stack), or the numeric solver's residue
    table would have more entries than its budget allows."""


class TooLarge(BudgetExceeded):
    """Instance exceeds the size guard of an exhaustive operation, such as
    the variable limit of the brute-force SAT check."""
