"""Exact-rational bounds on Satake exponents of the cuspidal spectrum of Sp(2n).

A representation satisfies R(theta) when every unramified local component has
all its exponents in [0, theta].  The bounds depend on the parity of n and on
the ground-field hypothesis; everything is computed in exact rationals (the
7/64 correction and the sharpness claims demand exact comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .engine import FieldKind
from .errors import InvalidArgument
from .partitions import _read_count, _read_enum

__all__ = ["ThetaBound", "satake_exponent_bound", "check_r_theta"]

# Best known exponent bound toward the Ramanujan conjecture for GL(2).
GL2_EXPONENT = Fraction(7, 64)

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class ThetaBound:
    """An exponent bound theta with its sharpness status and a source tag."""

    theta: Fraction
    sharp: bool
    source: str

    def to_dict(self) -> dict:
        return {"theta": str(self.theta), "sharp": self.sharp, "source": self.source}


def satake_exponent_bound(n: int, field: FieldKind = FieldKind.GENERAL) -> ThetaBound:
    """Upper bound theta such that every cuspidal form on Sp(2n) satisfies R(theta).

    Even n: n/2 over any number field, and the bound is attained (sharp).
    Odd n over a totally imaginary field with n >= 5: (n-1)/2, sharpness open.
    Odd n otherwise (including totally imaginary with n < 5): 7/64 + (n-1)/2,
    inherited from the rank-2 exponent bound.
    """
    field = _read_enum(FieldKind, field)
    _read_count("n", n)
    if n % 2 == 0:
        return ThetaBound(Fraction(n, 2), sharp=True, source="even-sharp")
    if field is FieldKind.TOTALLY_IMAGINARY and n >= 5:
        return ThetaBound(Fraction(n - 1, 2), sharp=False, source="odd-imaginary")
    return ThetaBound(GL2_EXPONENT + Fraction(n - 1, 2), sharp=False, source="odd-general")


def check_r_theta(exponents: Iterable[Rational], theta: Rational) -> bool:
    """True when every exponent alpha satisfies 0 <= alpha <= theta.

    Every value must be an ``int`` or a ``Fraction``: a float's binary value
    is not the rational it was written as (0.1 > 1/10), so it raises
    :class:`InvalidArgument`, as anything else does.
    """
    values = [theta, *exponents]
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise InvalidArgument(f"exponents and theta must be an int or a Fraction, got {v!r}")
    return all(0 <= a <= theta for a in values[1:])
