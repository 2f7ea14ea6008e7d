"""Physical constants, selectable between SI and natural units.

Five rules check values; each raises a ValueError saying which value failed.
``positive`` is the rule for physical inputs: a real number in (0, inf).
Only N (inf is the commutative limit) and upper bounds that a later check
handles accept inf.  ``nonnegative`` is the rule for hbar values, which may
be 0: a real number in [0, inf).  ``integer`` is the rule for counts
(levels, points, nodes, polarizations, dimensions, exponents): an integer,
numpy's included, of at least a lower bound, returned as a plain int.
``finite`` is the rule for results and derived scales (k*T, hbar*w)
beyond the double range: an OverflowError, a ZeroDivisionError from a
denominator that underflowed to 0, inf and nan all raise a ValueError.
``instance`` is the rule for object arguments (unit systems, oscillator
and cavity specs, deformation parameters, polynomials): an instance of the
named class, with "a" or "an" before its name.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

# 2019 SI defined values
SI_HBAR = 1.054571817e-34        # J s
SI_K_BOLTZMANN = 1.380649e-23    # J / K
SI_C_LIGHT = 2.99792458e8        # m / s


def positive(name: str, value, finite: bool = True):
    """``value`` if it is a real number in (0, inf), or (0, inf] if not ``finite``."""
    # float and int first: isinstance against the Real ABC is some 20 times slower
    if (isinstance(value, (float, int, numbers.Real)) and 0 < value
            and (value < math.inf or not finite)):
        return value
    bound = "positive and finite" if finite else "positive"
    raise ValueError(f"{name} must be {bound}, got {value!r}")


def nonnegative(name: str, value):
    """``value`` if it is a real number in [0, inf); a bool reads as 0 or 1."""
    if isinstance(value, (float, int, numbers.Real)) and 0 <= value < math.inf:
        return value
    raise ValueError(f"{name} must be non-negative and finite, got {value!r}")


def integer(name: str, value, low: int = 0) -> int:
    """``int(value)`` if ``value`` is an integer of at least ``low``; a bool
    reads as 0 or 1, as it does in ``positive``."""
    # int first, as in positive; numpy integers are Integral too
    if isinstance(value, (int, numbers.Integral)) and value >= low:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def instance(name: str, value, kind: type):
    """``value`` if it is a ``kind``."""
    if isinstance(value, kind):
        return value
    article = "an" if kind.__name__[0] in "AEIO" else "a"
    raise ValueError(f"{name} must be {article} {kind.__name__}, got {value!r}")


def finite(what: str, formula, *args):
    """``formula(*args)`` if it is a finite double, else a ValueError saying
    that ``what``, formatted with ``args``, overflows a double.

    ``formula`` is usually a lambda written at its call site, taking the
    values the message names as ``args`` and closing over the rest, so the
    message is formatted only when the check fails.
    """
    try:
        value = formula(*args)
        if math.isfinite(value):  # an OverflowError for an int beyond the double range
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"{what.format(*args)} overflows a double")


@dataclass(frozen=True)
class UnitSystem:
    """The constants hbar, k and c used by the radiation-law formulas."""

    hbar: float = 1.0
    k_boltzmann: float = 1.0
    c_light: float = 1.0
    mode: str = "natural"

    def __post_init__(self):
        for name in ("hbar", "k_boltzmann", "c_light"):
            positive(name, getattr(self, name))
        if self.mode not in ("natural", "si"):
            raise ValueError(f"mode must be 'natural' or 'si', got {self.mode!r}")

    @classmethod
    def natural(cls) -> "UnitSystem":
        return cls()

    @classmethod
    def si(cls) -> "UnitSystem":
        return cls(SI_HBAR, SI_K_BOLTZMANN, SI_C_LIGHT, "si")


NATURAL = UnitSystem.natural()
