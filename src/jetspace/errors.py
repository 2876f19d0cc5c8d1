"""Shared exception types.

PreconditionError: the caller asked for something outside an operation's
stated domain (bad bounds, wrong grading, order too high, too much work).
CLI exit code 2.  StabilizationError, a growth budget that does not reach
past the stabilization threshold, is one: the input alone shows it.

InconsistencyError: an internal cross-check failed.  CLI exit code 3.
"""


class PreconditionError(ValueError):
    pass


class InconsistencyError(RuntimeError):
    pass


class StabilizationError(PreconditionError):
    """No stabilization threshold within the allotted sweep."""
