"""Parsing and formatting of exact rationals for the JSON/CLI surfaces.

Authoritative values are always carried as `fractions.Fraction` in lowest
terms; the wire format is the string "n/d" (plain "n" for integers).
Integers embedded in JSON stay JSON numbers while they fit the IEEE-754
safe range and become decimal strings beyond it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Rational

from .errors import InvalidInputError

__all__ = ["parse_rational", "format_rational", "int_to_json", "int_from_json", "is_integral", "require_int"]

_JSON_SAFE_INT = 2**53 - 1
_INT = re.compile("-?[0-9]+")
_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """Parse ASCII "n" or "n/d" strings, "-" allowed in front (ints and Fractions pass through; all else is refused)."""
    if isinstance(value, bool):
        raise InvalidInputError(f"expected a rational, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise InvalidInputError(f"malformed rational {value!r}: expected ASCII digits as \"n\" or \"n/d\"")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"malformed rational {value!r}: {exc}") from None
    raise InvalidInputError(f"cannot interpret {value!r} as a rational")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def int_to_json(n: int):
    """Integers as JSON numbers within the safe range, else decimal strings."""
    return n if abs(n) <= _JSON_SAFE_INT else str(n)


def is_integral(value) -> bool:
    """Whether value is an int or an integral Rational, and not a bool; floats never are."""
    return not isinstance(value, bool) and isinstance(value, Rational) and value.denominator == 1


def require_int(name: str, value, least: int) -> int:
    """value itself if it is an int >= least; floats, bools and the rest are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def int_from_json(value) -> int:
    """An int from a JSON number or an ASCII "-?[0-9]+" string; floats beyond 2^53 - 1 may be rounded and are refused."""
    if isinstance(value, bool):
        raise InvalidInputError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if not _INT.fullmatch(value):
            raise InvalidInputError(f"malformed integer {value!r}: expected ASCII digits")
        try:
            return int(value)
        except ValueError as exc:
            raise InvalidInputError(f"malformed integer {value!r}: {exc}") from None
    if isinstance(value, float) and value.is_integer():
        if abs(value) > _JSON_SAFE_INT:
            raise InvalidInputError(f"number {value!r} exceeds 2^53 - 1; write it as a decimal string")
        return int(value)
    raise InvalidInputError(f"expected an integer, got {value!r}")
