"""Exception types shared across the toolkit, and the checks of count settings and model shapes."""

import numbers


class RatApproxError(Exception):
    """Base class for all toolkit errors."""


class EvaluationDomainError(RatApproxError, ValueError):
    """An argument lies outside the documented validity region of an evaluator."""


class PoleError(RatApproxError, ArithmeticError):
    """Evaluation was requested at (or numerically at) a pole.

    The offending point is stored in ``point``.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SampleError(RatApproxError, ValueError):
    """Sample data is unusable.

    No points, a repeated point, values of another shape than the points, a point or
    value that is not finite, or model fields of mismatched shapes or missing from a file.
    """


class SettingError(RatApproxError, ValueError):
    """A setting lies outside its valid range.

    A count setting (an order, an iteration count, a seed or a grid size)
    that is not an integer or lies below its minimum (see
    :func:`check_count`), a tolerance that is not positive, Loewner order
    and tol given together, or a domain whose bounds are not finite or do
    not enclose an area.
    """


def check_count(name: str, value, minimum: int) -> None:
    """Raise ``SettingError`` unless ``value`` is an integer of at least ``minimum``.

    Python and numpy integers pass; a bool, a float (even an integral one
    such as 3.0) and a string do not.  ``name`` is the setting's name in
    the message.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise SettingError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise SettingError(f"{name} must be at least {minimum}")


def check_shapes(model: str, fields: dict, shapes: list) -> None:
    """Raise ``SampleError`` naming each field's shape and the one it needs, unless all are as ``shapes``."""
    got = {name: value.shape for name, value in fields.items()}
    if list(got.values()) != shapes:
        raise SampleError(f"{model} fields need shapes {dict(zip(got, shapes))}, got {got}")


class SymmetryError(RatApproxError, ValueError):
    """Conjugate closure is violated or cannot be enforced."""


class PartitionError(RatApproxError, ValueError):
    """Samples cannot be split into valid left/right interpolation sets."""


class PencilError(RatApproxError, ValueError):
    """A matrix pencil is structurally unusable (coincident points, identically singular)."""


class RankError(RatApproxError, ValueError):
    """Requested reduction order is incompatible with the numerical rank of the data.

    The numerical rank, where one was computed, is stored in ``rank``.
    """

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class InsufficientDataError(RatApproxError, ValueError):
    """Too few samples for the requested model order."""


class StagnationError(RatApproxError, RuntimeError):
    """An iterative fit ran out of usable data before reaching its tolerance."""


class DivergenceError(RatApproxError, RuntimeError):
    """An iterative fit produced unbounded iterates."""


class ComputationError(RatApproxError, RuntimeError):
    """A backend decomposition failed to converge; results would be unreliable."""
