"""Exception types shared across the package, and the input rules for
counts, real-valued settings and batch shapes."""

import math
from numbers import Integral, Real


def is_count(value, low=1):
    """An integer >= ``low``; ``bool`` and integral floats such as 2.0 are not."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


def check_count(name, value, low=1):
    """Return ``value`` if it is a count by :func:`is_count`, else raise a
    ValidationError naming ``name``."""
    if not is_count(value, low):
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def is_finite(value):
    """A finite real number; ``bool`` is not one here, nor is an int too
    large for a float."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def check_real(name, value, low=None, strict=False):
    """Return ``value`` if it is a finite real by :func:`is_finite` that is
    >= ``low`` (> ``low`` when ``strict``; any finite real when ``low`` is
    None), else raise a ValidationError naming ``name``."""
    if not is_finite(value) or not (low is None or (value > low if strict else value >= low)):
        bound = "" if low is None else f" {'>' if strict else '>='} {low:g}"
        raise ValidationError(f"{name} must be a finite number{bound}, got {value!r}")
    return value


def check_nonempty(name, shape, axes=("batch", "time", "class")):
    """Raise a ValidationError naming ``name`` and the first empty axis of
    ``shape``, whose trailing axes are ``axes`` and any leading one the
    model axis of a stack.  A shape test only, with no reduction."""
    if 0 in shape:
        axis = shape.index(0) - len(shape) + len(axes)
        label = axes[axis] if axis >= 0 else "model"
        raise ValidationError(f"{name}: empty {label} axis in shape {shape}")


class ValidationError(ValueError):
    """An input violates a distribution/shape invariant (bad probabilities,
    mismatched alphabets, inconsistent batch dimensions, ...)."""


class DataFormatError(ValueError):
    """A file on disk (JSON world, joint, config or results) is malformed."""


class DivergenceError(RuntimeError):
    """Adversarial training produced a non-finite or exploding loss."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
