"""Exception types raised by constructions and parsers.

Validation *verdicts* (cocycle failures, morphism-law failures, ...) are not
exceptions; they are returned as reports carrying named witnesses.  Exceptions
are reserved for inputs that violate a precondition or for exhausted budgets,
and the CLI maps them to exit codes accordingly: ``SearchBudgetExceeded``
exits 3, every other ``CogkitError`` exits 2, and neither is ever read as a
negative verdict (exit 1).
"""


class CogkitError(Exception):
    """Base class for all library errors."""


class NotAssociative(CogkitError):
    pass


class NoIdentity(CogkitError):
    pass


class NoInverse(CogkitError):
    pass


class NotPermutation(CogkitError):
    pass


class ClosureTooLarge(CogkitError):
    pass


class RealizationTooLarge(CogkitError):
    pass


class IndexOutOfRange(CogkitError):
    pass


class NotASubgroup(CogkitError):
    pass


class SourceTargetMismatch(CogkitError):
    pass


class UnknownObject(CogkitError):
    pass


class Disconnected(CogkitError):
    pass


class DirectedCycle(CogkitError):
    pass


class SearchBudgetExceeded(CogkitError):
    pass


class TreeNotSpanning(CogkitError):
    pass


class TreeConditionViolated(CogkitError):
    pass


class RelatorNotKilled(CogkitError):
    pass


class UnknownFormat(CogkitError):
    pass


class CompositionUnderdetermined(CogkitError):
    pass


class ParseError(CogkitError):
    pass


class UnresolvedReference(CogkitError):
    pass


class OutputNotWritable(CogkitError):
    pass
