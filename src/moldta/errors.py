"""Error types shared across the package, and the dimension check of the
config dataclasses.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
"""


class DataError(ValueError):
    """Malformed or unusable input data (files, sequences, vocab misses)."""


class NumericalError(ArithmeticError):
    """Non-finite values or other numerical contract violations."""


def check_dims(cfg, *names):
    """Raise ValueError naming the first named field of `cfg` that is neither
    a positive int nor a tuple of them; a bool is not an int."""
    for name in names:
        value = getattr(cfg, name)
        if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0
                   for v in (value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{type(cfg).__name__}.{name} must be a strictly positive "
                             f"integer, got {value!r}")
