"""Exception types shared across the package, and the input rule for counts."""

from numbers import Integral


def is_count(value):
    """An integer >= 1; ``bool`` and integral floats such as 2.0 are not."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 1


class ValidationError(ValueError):
    """An input violates a distribution/shape invariant (bad probabilities,
    mismatched alphabets, inconsistent batch dimensions, ...)."""


class DataFormatError(ValueError):
    """A file on disk (CSV dataset, JSON world/config) is malformed."""


class DivergenceError(RuntimeError):
    """Adversarial training produced a non-finite or exploding loss."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
