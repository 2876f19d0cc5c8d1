"""Shared exception types, and the work estimate that refuses oversized input.

PreconditionError: the caller asked for something outside an operation's
stated domain (bad bounds, wrong grading, order too high, too much work).
CLI exit code 2.  StabilizationError, a growth budget that does not reach
past the stabilization threshold, is one: the input alone shows it.

InconsistencyError: an internal cross-check failed.  CLI exit code 3.

Every command executes this module, so the work estimate lives here: a
request estimates its work in units of _step from the sizes of the integers
it would make and in _ITEM_WORK per item it would build or print, with
small-integer arithmetic and no binomial, and check_work refuses it when
the estimate passes WORK_LIMIT.  Every size refusal goes through it.
"""

# a request whose work estimate passes this is refused up front: about 1-3 s
# on a 2-core Xeon with Python 3.11 (CHANGES.md has the timings)
WORK_LIMIT = 2 ** 37

# besides the _step of its integers, an item (a printed entry, coefficient or
# matrix cell, a built monomial, a Fraction product) takes about 2^16 work
# units: 0.7 us (2-core Xeon, Python 3.11)
_ITEM_WORK = 2 ** 16


class PreconditionError(ValueError):
    pass


class InconsistencyError(RuntimeError):
    pass


class StabilizationError(PreconditionError):
    """No stabilization threshold within the allotted sweep."""


def _binomial_bits(m: int, j: int) -> int:
    """A bound on the bit length of C(m, j) that computes no binomial:
    C(m, j) < 2^m and C(m, j) <= (e m / j)^j < (3 m / j)^j for 0 < j < m,
    and C(m, j) <= 1 for every other j >= 0 (0 when j > m)."""
    j = m - j if 2 * j > m else j
    return min(m, j * (3 * m // j).bit_length()) if j > 0 else 1


def _fraction_bits(c) -> int:
    """Bits of a Fraction's numerator and denominator together."""
    return c.numerator.bit_length() + c.denominator.bit_length()


def _step(bits: int) -> int:
    """Work units of one step that makes an integer of the given bit size:
    math.comb takes about bits^2 units, and a step about 64^2 besides."""
    return (bits + 64) ** 2


def check_work(work: int, what: str, *args: object) -> None:
    """Refuse the request what.format(*args) with PreconditionError when
    its work estimate passes WORK_LIMIT; the name is formatted only then."""
    if work > WORK_LIMIT:
        raise PreconditionError(
            f"{what.format(*args)} has a work estimate of 2^{work.bit_length() - 1}"
            f" or more, above the limit 2^{WORK_LIMIT.bit_length() - 1}")
