"""Exception hierarchy shared by all crosslang modules."""


class CrosslangError(Exception):
    """Base class for every error raised by this package."""


class ParseError(CrosslangError):
    """Malformed source text; carries a position and what was expected."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UndeclaredAtomError(ParseError):
    """A formula mentions an elementary proposition the language never declared."""


class DuplicateAtomError(ParseError):
    """The same elementary proposition is declared twice."""


class LanguageNameClashError(CrosslangError):
    """The two language files of a pair declare the same language name."""


class ContradictionError(CrosslangError):
    """The belief set admits no truth assignment at all."""


class AtomCapError(CrosslangError):
    """More elementary propositions than the enumeration cap allows."""


class AlgebraTooLargeError(CrosslangError):
    """An operation needs to enumerate every proposition and the algebra is too big."""


class CrossAlgebraError(CrosslangError):
    """Two operands belong to different algebras."""


class StarNegationError(CrosslangError):
    """The undefined element has no negation."""


class InconsistentInputError(CrosslangError):
    """A conversion was asked to run on an input that fails its axiom checks."""


class CharacterizationMismatchError(CrosslangError):
    """The equivalent characterizations of the perfect set disagree (internal bug)."""


class DegenerateCommonLanguageError(CrosslangError):
    """Only the contradiction translates exactly, so no common language exists."""


class BudgetExceededError(CrosslangError):
    """A brute-force enumeration hit its configured budget."""


class InvalidWeightsError(CrosslangError, ValueError):
    """Probability weights that are not a distribution over the joint states."""
