"""Exception types shared across the toolkit, and the scalar checks that raise them.

Two broad families matter for callers (and for CLI exit codes): validation
errors mean the inputs violate a precondition; numerical errors mean a
well-posed computation failed to converge or certify.
"""

import numpy as np


class ToolkitError(Exception):
    """Base class for all toolkit exceptions."""


class ValidationError(ToolkitError):
    """Inputs violate a documented precondition."""


class NumericalError(ToolkitError):
    """A numerically well-posed computation failed (tolerances, genericity)."""


class NotHermitianError(ValidationError):
    """Operator expected to be Hermitian is not, beyond tolerance."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible shapes or carrier dimensions."""


class InvalidParameterError(ValidationError):
    """A scalar parameter is out of its documented range."""


class SourceMismatchError(ValidationError):
    """Two representations do not share the same group or algebra."""


class InvalidShellError(ValidationError):
    """Bloch-shell radii are not 0 <= r_lo < r_hi < 1."""


class NotCPTPError(ValidationError):
    """Channel is not completely positive and trace preserving within tolerance."""


class DimensionTooLargeError(ValidationError):
    """Requested carrier exceeds the documented desk-scale cap."""


class PrerequisiteFailedError(ValidationError):
    """A check that this operation builds on did not pass."""


class DecompositionFailedError(NumericalError):
    """Isotypic decomposition did not certify after the redraw budget."""


def _require_int(name: str, value, minimum: int) -> None:
    """Raise InvalidParameterError unless value is an integer >= minimum; bools are not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_positive_int(name: str, value) -> None:
    _require_int(name, value, 1)


def _require_seed(name: str, value) -> None:
    """A random seed: any non-negative integer, as ``np.random.default_rng`` takes it."""
    _require_int(name, value, 0)
