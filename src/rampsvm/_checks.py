"""Argument checks shared across the package.

This module imports nothing from rampsvm, so any module can use it without
an import cycle.
"""

import math


def check_positive(name: str, value) -> None:
    """Raise ValueError unless value is finite and strictly positive.

    NaN and infinity fail too, which a bare ``value <= 0`` would let pass.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
