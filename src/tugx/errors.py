"""Exception types shared across the package.

Everything here derives from TugxError so the command line can report the
whole family as usage/input problems (exit status 2).  The nesting limit on
rule names such as ``ess[ess[shapley]]`` lives here too, so that every name
lookup shares it.
"""

# Deepest op[...] nesting a rule name may have; lookups recurse once per level.
MAX_NAME_DEPTH = 32


class TugxError(Exception):
    """Base class for errors raised by this package."""


class DomainViolation(TugxError):
    """Input lies outside the domain a rule is defined on."""


class ParseError(TugxError):
    """Malformed game file or corpus description."""


class UnknownName(TugxError):
    """Name not present in the relevant registry."""


class BadName(UnknownName):
    """Name in a registry's spelling with an unusable part: a bad parameter
    or nesting deeper than MAX_NAME_DEPTH."""


class MissingStructure(TugxError):
    """The requested rule needs a graph or partition the input lacks."""


class IncompatibleSubject(TugxError):
    """An axiom was asked about a subject of the wrong kind."""


class InconsistentSystem(TugxError):
    """Reconstruction equations disagree beyond tolerance."""


def check_name_depth(name: str) -> None:
    """Raise BadName when the name nests deeper than MAX_NAME_DEPTH."""
    if name.count("[") > MAX_NAME_DEPTH:
        raise BadName(
            f"rule name nests deeper than {MAX_NAME_DEPTH} levels: {name[:40]}..."
        )
