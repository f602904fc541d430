"""Exception taxonomy shared by all webfold modules, and their JSON integer check."""


class WebfoldError(Exception):
    """Base class for all domain errors raised by this package."""


class OutOfRange(WebfoldError):
    """An entry bound or index falls outside the tableau's entries."""


class NotRectangular(WebfoldError):
    """An operation that needs a rectangular shape got a non-rectangle."""


class ConcurrentArcs(WebfoldError):
    """Three or more arcs of a diagram pass through a single point."""


class InvalidBoundaryDegrees(WebfoldError):
    """A diagram vertex is neither the source of one arc nor the sink of two."""


class UnknownFace(WebfoldError):
    """A face lookup named a face the web does not have."""


class WrongShape(WebfoldError):
    """Input shape does not match what the operation requires."""


class NotSymmetrical(WebfoldError):
    """A fold/mirror operation was applied to a non-symmetric object."""


class NonLatticeWord(WebfoldError):
    """A word is not a lattice (ballot) word, so it encodes no tableau."""


class NotDomino(WebfoldError):
    """A tableau expected to be a domino tableau is not one."""


class UnrecognizedBlock(WebfoldError):
    """A domino tableau block matches none of the recognized patterns."""


class VerticalPairNotAnArc(WebfoldError):
    """A vertical-domino pair does not appear as an arc where required."""


class UnknownTheorem(WebfoldError):
    """A verification run named a theorem id that does not exist."""


class NotAWeb(WebfoldError):
    """A planar map fails the defining conditions of a web."""


class MalformedInput(WebfoldError):
    """A JSON input has the wrong structure for the object it should describe."""


class InvalidWorkerCount(WebfoldError):
    """WEBFOLD_WORKERS is set to something that is not an integer."""


class BoundTooLarge(WebfoldError):
    """A verification run asked for more words than a sweep may enumerate."""


def _integer(what: str, x) -> int:
    """x, if it is an int and not a bool; else a TypeError naming what it is."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be an integer, got {type(x).__name__}")
    return x
