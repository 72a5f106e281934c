"""Exact rational scalars and their canonical "p/q" wire format.

Scalars are stdlib ``fractions.Fraction`` throughout the package; floats are
never accepted where exactness is promised.  The wire format is strict: a
string is valid only if it is the canonical form of its value ("3/2", "-1",
"0" -- never "2/4", "3/1" or "-0"), so serialized files round-trip
byte-identically.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
  """Parse a canonical "p/q" string into a Fraction.

  Raises ValueError unless ``text`` is exactly the canonical rendering:
  lowest terms, positive denominator, denominator omitted when 1, no
  whitespace, no leading zeros, no "-0".
  """
  if not isinstance(text, str):
    raise ValueError(f"rational must be a string, got {type(text).__name__}")
  m = _RATIONAL_RE.fullmatch(text)
  if m is None:
    raise ValueError(f"not a canonical rational: {text!r}")
  p, q = int(m.group(1)), int(m.group(2) or 1)
  if m.group(2) and (q == 1 or gcd(p, q) != 1):
    raise ValueError(f"not in lowest terms / canonical form: {text!r}")
  return Fraction(p, q)


def format_rational(value: Fraction | int) -> str:
  """Render a rational canonically: "p/q" in lowest terms, "p" when q == 1."""
  value = Fraction(value)
  if value.denominator == 1:
    return str(value.numerator)
  return f"{value.numerator}/{value.denominator}"


def as_fraction(value) -> Fraction:
  """Coerce an int / Fraction / canonical string to Fraction (floats rejected)."""
  if isinstance(value, Fraction):
    return value
  if isinstance(value, bool):
    raise ValueError("booleans are not rationals")
  if isinstance(value, int):
    return Fraction(value)
  if isinstance(value, str):
    return parse_rational(value)
  raise ValueError(f"cannot interpret {value!r} as an exact rational")
