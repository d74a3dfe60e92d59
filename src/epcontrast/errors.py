"""Exception types shared across the package, and the one integer rule of the
config dataclasses (:func:`require_integers`: integral and at least a minimum).

Everything derives from ValueError or RuntimeError so callers that do not
care about the fine-grained class can still catch the builtin.
"""

import numbers


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class EmptyReductionError(ValueError):
    """A reduction (a softmax denominator) received no elements."""


class EmptyNegativeSetError(EmptyReductionError):
    """A contrastive loss has no negative pairs for some anchor."""


class ParseError(ValueError):
    """A text point-cloud file contains a malformed line."""


class FormatError(ValueError):
    """A file violates its declared layout (bad magic, mixed label modes)."""


class PayloadLengthError(FormatError):
    """A binary payload is shorter or longer than its header promises."""


class RangeError(ValueError):
    """A value lies outside its documented domain (e.g. color not in [0,1])."""


class PartitionError(ValueError):
    """A segment assignment is not a disjoint, covering, non-empty partition."""


class CacheError(ValueError):
    """An activation cache does not match the parameters it is used with."""


class UnlabeledSceneError(ValueError):
    """A scene that must carry per-point labels (a probe input) has none."""


class DivergenceError(RuntimeError):
    """A training step produced a non-finite loss, gradient or parameter."""


class BudgetError(RuntimeError):
    """A benchmark configuration exceeds the accounted byte budget."""


class ConfigError(ValueError):
    """A setting is unknown, unparseable, or outside its field's domain.

    Raised for unknown keys and unparseable values in a run configuration,
    and by the ``__post_init__`` checks of the config dataclasses (a
    non-finite or out-of-range value, an unknown choice).
    """


class DomainError(ValueError):
    """A numeric input is outside the mathematical domain of an operation."""


def require_integers(config, **minimums: int) -> None:
    """Raise :class:`ConfigError` naming the first of ``config``'s fields,
    each given with its least allowed value, whose value is not a
    ``numbers.Integral`` (numpy integers are) or is below that value."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
