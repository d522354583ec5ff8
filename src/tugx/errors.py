"""Exception types shared across the package, and nothing else.

Everything here derives from TugxError so the command line can report the
whole family as usage/input problems (exit status 2).
"""


class TugxError(Exception):
    """Base class for errors raised by this package."""


class DomainViolation(TugxError):
    """Input lies outside the domain a rule is defined on."""


class ParseError(TugxError):
    """Malformed game file or corpus description."""


class UnknownName(TugxError):
    """Name that no registry resolves: unknown, malformed, or with an
    unusable part."""


class MissingStructure(TugxError):
    """The requested rule needs a graph or partition the input lacks."""


class IncompatibleSubject(TugxError):
    """An axiom was asked about a subject of the wrong kind."""


class InconsistentSystem(TugxError):
    """Reconstruction equations disagree beyond tolerance."""

