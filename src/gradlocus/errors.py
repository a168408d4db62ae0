"""Exception hierarchy shared across the package, and ``reading``, the
one boundary that turns a failure while reading outside input (a
scenario file or one of its fields, a CSV file) or while making and
writing the output directory into an error that names it."""

import csv
from contextlib import contextmanager


class GradlocusError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateForm(GradlocusError):
    """The bilinear form's matrix is (numerically) singular."""

    def __init__(self, message, sv_ratio=None):
        super().__init__(message)
        self.sv_ratio = sv_ratio


class DimensionMismatch(GradlocusError):
    """Operands live in spaces of different dimensions."""


class OddDimension(GradlocusError):
    """An operation requiring even dimension was called on odd n."""


class NotAntisymmetric(GradlocusError):
    """A Pfaffian was requested for a matrix that is not antisymmetric."""


class NotSymplectic(GradlocusError):
    """A symplectic-only operation was called on a non-symplectic form."""


class ParseError(GradlocusError):
    """Expression text does not conform to the grammar.

    ``position`` is the 0-based character offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TooFewPoints(GradlocusError):
    """Not enough points for a meaningful dimension estimate."""


class InvalidOption(GradlocusError):
    """A LocusOptions ``field`` has an invalid value; ``reason`` says why."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason


class ScenarioError(GradlocusError):
    """A scenario file failed validation; the message names the field."""


# The failures bad outside input causes, and the only list of them:
# ValueError covers UnicodeDecodeError and json.JSONDecodeError, and
# RecursionError is parenthesis or unary-minus nesting deeper than the
# recursive-descent parser's stack allows.
_BAD_INPUT = (GradlocusError, ValueError, TypeError, KeyError, IndexError,
              OSError, RecursionError, csv.Error)


@contextmanager
def reading(name, error=GradlocusError, reason=None):
    """Raise ``error("<name>: <reason>")`` when the body, which reads the
    outside input ``name``, fails as bad input does.

    ``reason`` defaults to the failure's own message.
    """
    try:
        yield
    except _BAD_INPUT as exc:
        raise error(f"{name}: {exc if reason is None else reason}") from exc
