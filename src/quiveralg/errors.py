"""Shared exception types.

Every error class carries the process exit status used by the command line
driver: 2 for parse errors, 3 for violated preconditions, 4 for requests
outside the supported scope (or reductions the syntactic recipes cannot
perform), and 1 for anything else (notably verification failures).
"""


class QuiverAlgError(Exception):
    exit_code = 1


class PreconditionError(QuiverAlgError):
    """An operation's stated precondition does not hold for the input."""

    exit_code = 3


class DimensionVectorError(PreconditionError):
    """A dimension/framing vector is not keyed by the quiver's vertex set,
    has the wrong number of slots, or has an entry that is not a
    non-negative integer (``quiver.check_dimvec``)."""


class UnsupportedReductionError(QuiverAlgError):
    """The syntactic trivial-part reduction cannot handle this potential."""

    exit_code = 4


class ScopeError(QuiverAlgError):
    """The request is outside the implemented (documented) scope."""

    exit_code = 4


class DegenerateTermError(QuiverAlgError):
    """A cyclic word cancelled away completely (length-0 cycle)."""

    exit_code = 3


class InternalConsistencyError(QuiverAlgError):
    """An internal invariant failed; indicates a bug, never user input."""

    exit_code = 1


class QPParseError(QuiverAlgError):
    """Raised by the text-format parser; carries Diagnostic records."""

    exit_code = 2

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(d.message for d in self.diagnostics)
        super().__init__(lines)
