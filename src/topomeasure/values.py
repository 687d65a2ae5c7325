"""Exact values for set functions: nonnegative rationals plus a distinguished +infinity.

Every numeric result in this package is either an exact ``fractions.Fraction``
or the singleton :data:`INF`.  Addition absorbs infinity; subtraction involving
two infinite operands is a hard error (never a silent zero).  Serialization is
canonical: ``p/q`` in lowest terms (``p`` for integers) and ``inf``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class _Infinity:
    """The single positive-infinity value used by measure evaluators."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def __hash__(self) -> int:
        return hash("topomeasure-inf")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def __gt__(self, other) -> bool:
        if isinstance(other, _Infinity):
            return False
        if isinstance(other, (Fraction, int)):
            return True
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, (_Infinity, Fraction, int)):
            return True
        return NotImplemented


INF = _Infinity()

Value = Union[Fraction, _Infinity]


class UndefinedSubtraction(ArithmeticError):
    """Raised when a computation would need ``inf - inf`` or a negative result
    of subtracting infinity from a finite value."""


def is_inf(v: Value) -> bool:
    return isinstance(v, _Infinity)


def vadd(a: Value, b: Value) -> Value:
    """Addition with absorbing infinity."""
    if is_inf(a) or is_inf(b):
        return INF
    return a + b


def vsum(values) -> Value:
    total: Value = Fraction(0)
    for v in values:
        total = vadd(total, v)
    return total


def vsub(a: Value, b: Value) -> Value:
    """Subtraction defined only where the result is meaningful.

    ``inf - finite`` is ``inf``; ``inf - inf`` and ``finite - inf`` raise.
    """
    if is_inf(b):
        raise UndefinedSubtraction(
            "subtraction of an infinite value is undefined (inf may not appear "
            "as a subtrahend)"
        )
    if is_inf(a):
        return INF
    return a - b


def format_value(v: Value) -> str:
    """Canonical text form: lowest-terms ``p/q``, integer ``p``, or ``inf``."""
    if is_inf(v):
        return "inf"
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def parse_fraction(text: str) -> Fraction:
    """A rational literal; a zero denominator is a ``ValueError`` like any
    other malformed literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()!r} has a zero denominator") from None


def parse_value(text: str) -> Value:
    """Inverse of :func:`format_value`."""
    text = text.strip()
    if text == "inf":
        return INF
    return parse_fraction(text)
