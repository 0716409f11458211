"""Exception types shared by the graph structures, engines, and CLI."""

from __future__ import annotations


class DynTrError(Exception):
    """Base class for every error raised by this package."""


class BadUpdate(DynTrError, ValueError):
    """An update names a vertex outside [1..n], a self-loop, or no edges.

    Also raised for a vertex that is not an int (``operator.index`` fails),
    in an update or in a query, for an edge that is not a (tail, head)
    tuple, or that is a self-loop or has a vertex outside [1..n] in a
    deletion or a query, for an insertion centered outside [1..n] (also
    when its edges do not touch the center), for a batch that is not
    iterable, by ``minimal_scss`` for a repeated vertex, an edge that is
    not a pair, or an edge with an endpoint outside the vertices it was
    given, by a constructor given a vertex count (or inverse size) below
    1, and by ``cli.make_engine`` for an unknown mode or engine name.
    Also a ``ValueError``, which these inputs raised before the class
    existed.
    """


class DuplicateEdge(DynTrError):
    """An inserted edge is already present (or repeated within one batch)."""


class NotIncident(DynTrError):
    """A centered insertion contains an edge not touching the center."""


class CycleCreated(DynTrError):
    """An insertion would create a directed cycle while in DAG mode."""


class MissingEdge(DynTrError):
    """An operation referenced an edge that is not currently live."""


class CyclicInput(DynTrError):
    """An acyclic graph was required but the input contains a cycle.

    ``DecReach`` raises it for any graph not built with ``acyclic=True``.
    """


class NotStronglyConnected(DynTrError):
    """A minimal spanning-subset request on a non strongly connected input."""


class SingularMatrix(DynTrError):
    """The symbolic adjacency matrix stayed singular after resampling."""


class DenominatorZero(DynTrError):
    """A rank-one inverse update hit a zero denominator and could not recover."""


class TooLarge(DynTrError):
    """An engine's arrays would not fit in physical memory."""


class ParseError(DynTrError):
    """A stream line could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StreamCheckError(DynTrError):
    """An engine's output disagreed with the oracle during a checked run."""
