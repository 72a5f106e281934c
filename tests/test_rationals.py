"""Canonical rational wire format: strict parsing and round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liebundle.rationals import as_fraction, format_rational, parse_rational


@pytest.mark.parametrize("text,value", [
    ("0", Fraction(0)),
    ("7", Fraction(7)),
    ("-7", Fraction(-7)),
    ("1/2", Fraction(1, 2)),
    ("-22/7", Fraction(-22, 7)),
    ("1000000000000000000000/7", Fraction(10**21, 7)),
])
def test_parse_canonical(text, value):
  assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "2/4",        # not in lowest terms
    "3/1",        # integer written as a fraction
    "-0",         # negative zero
    "0/3",        # zero written as a fraction
    "+1",         # explicit plus sign
    "01",         # leading zero
    "1/-2",       # sign on the denominator
    "1 / 2",
    "",
    "1.5",
    "a",
    "1/0",
    "1\n",       # a trailing newline, which a "$" anchor lets through
    "1/2\n",
    "-1/1",       # explicit denominator 1 on a negative integer
])
def test_parse_rejects_non_canonical(text):
  with pytest.raises(ValueError):
    parse_rational(text)


@given(st.fractions())
def test_format_parse_round_trip(q):
  assert parse_rational(format_rational(q)) == q


@given(st.fractions())
def test_format_is_canonical(q):
  text = format_rational(q)
  if q.denominator == 1:
    assert "/" not in text
  else:
    assert text == f"{q.numerator}/{q.denominator}"


def test_as_fraction_accepts_exact_types():
  assert as_fraction(3) == Fraction(3)
  assert as_fraction(Fraction(2, 6)) == Fraction(1, 3)
  assert as_fraction("5/3") == Fraction(5, 3)


def test_as_fraction_rejects_floats_and_bools():
  # everything funnels to ValueError so the CLI can map it to exit code 2
  with pytest.raises(ValueError):
    as_fraction(0.5)
  with pytest.raises(ValueError):
    as_fraction(True)
