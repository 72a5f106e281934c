"""Exact linear algebra over the rationals.

Matrices are numpy arrays with ``dtype=object`` holding Fractions (or ints);
rank and nullspace go through Bareiss fraction-free elimination on a
denominator-cleared integer copy, so no float ever enters a decision.
``cleared`` is the one canonical integer form of a table of rationals, the
form W-tensors and structure constants are held in.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .rationals import as_fraction


def frac_matrix(rows) -> np.ndarray:
  """Build an object-dtype matrix of Fractions from nested iterables."""
  data = [[as_fraction(v) for v in row] for row in rows]
  if any(len(row) != len(data[0]) for row in data):
    raise ValueError("ragged rows")
  out = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
  out[...] = data
  return out


def zeros_matrix(m: int, n: int) -> np.ndarray:
  return np.full((m, n), Fraction(0), dtype=object)


def identity_matrix(n: int) -> np.ndarray:
  out = zeros_matrix(n, n)
  np.fill_diagonal(out, Fraction(1))
  return out


def mats_equal(a: np.ndarray, b: np.ndarray) -> bool:
  return a.shape == b.shape and bool((a == b).all())


def is_zero_matrix(a: np.ndarray) -> bool:
  return not (a != 0).any()


def cleared(values, scale: int = 1) -> tuple[np.ndarray, int]:
  """The rationals ``values / scale`` in canonical form: integer numerators
  and a positive scale with no common factor (zero has scale 1), so equal
  tables have equal forms; int64 when every numerator fits (|x| < 2^63, so
  they negate safely), else Python integers (object).  ``values`` is an
  integer array, or ints and Fractions, which are put over the lcm of their
  denominators (a flat array, with no common factor left: ``scale`` is 1)."""
  if not isinstance(values, np.ndarray):
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    fits = -2**63 < min(nums, default=0) and max(nums, default=0) < 2**63
    return np.array(nums, dtype=np.int64 if fits else object), den
  if not values.any():
    return np.zeros(values.shape, dtype=np.int64), 1
  g = gcd(scale, int(np.gcd.reduce(values.ravel()))) if scale > 1 else 1
  if g > 1:
    values, scale = values // g, scale // g
  if values.dtype == object and -2**63 < values.min() and values.max() < 2**63:
    values = values.astype(np.int64)
  return values, scale


class ClearedTable:
  """Base of the frozen dataclasses that hold a table of rationals as
  ``dense / scale`` in the form of ``cleared``.  ``dense`` is read-only;
  two tables are equal when their types and all their fields are."""

  def __post_init__(self):
    self.dense.flags.writeable = False

  def __eq__(self, other) -> bool:  # and so unhashable
    return type(other) is type(self) and all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name))
        for f in fields(self))

  @cached_property
  def max_abs(self) -> int:
    """The largest absolute numerator."""
    return int(np.abs(self.dense).max())

  def _fractions(self, keep=True) -> dict:
    """{index: dense[index] / scale} over the nonzero entries where ``keep``
    holds, in C order, with one Fraction per distinct value."""
    where = np.nonzero((self.dense != 0) & keep)
    nums = self.dense[where].tolist()
    value = {x: Fraction(x, self.scale) for x in set(nums)}
    keys = zip(*(a.tolist() for a in where))
    return dict(zip(keys, map(value.__getitem__, nums)))


def _as_int_rows(matrix) -> list[list[int]]:
  """Integer rows with the rank and nullspace of ``matrix``: an int64 array
  as it is, rationals cleared by one common positive factor (which changes
  neither)."""
  if isinstance(matrix, np.ndarray) and matrix.dtype == np.int64:
    return matrix.tolist()
  fr = frac_matrix(matrix)
  return cleared(fr.ravel().tolist())[0].reshape(fr.shape).tolist()


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
  """Fraction-free row echelon form; returns (rows, pivot column indices).

  One-step Bareiss: every produced entry is a minor of the original matrix,
  so the interior division is exact.  Row swaps only; deterministic pivot
  choice (first nonzero at or below the working row).
  """
  m = len(rows)
  ncols = len(rows[0]) if m else 0
  piv_cols: list[int] = []
  prev = 1
  r = 0
  for c in range(ncols):
    if r == m:
      break
    p = next((i for i in range(r, m) if rows[i][c] != 0), None)
    if p is None:
      continue
    rows[r], rows[p] = rows[p], rows[r]
    pivot = rows[r][c]
    for i in range(r + 1, m):
      fi = rows[i][c]
      ri, rr = rows[i], rows[r]
      for j in range(c, ncols):
        ri[j] = (ri[j] * pivot - fi * rr[j]) // prev
    piv_cols.append(c)
    prev = pivot
    r += 1
  return rows, piv_cols


def rank(matrix) -> int:
  """Exact rank over Q."""
  rows = _as_int_rows(matrix)
  if not rows or not rows[0]:
    return 0
  _, piv = _bareiss_echelon(rows)
  return len(piv)


def nullspace(matrix) -> list[tuple[Fraction, ...]]:
  """Deterministic basis of the exact right nullspace.

  One vector per free column, in ascending column order; each vector is
  scaled to coprime integers with its first nonzero entry positive.
  """
  rows = _as_int_rows(matrix)
  if not rows:
    return []
  ncols = len(rows[0])
  ech, piv = _bareiss_echelon(rows)
  piv_set = set(piv)
  free_cols = [c for c in range(ncols) if c not in piv_set]
  basis = []
  for f in free_cols:
    x = [Fraction(0)] * ncols
    x[f] = Fraction(1)
    for p, row in zip(reversed(piv), reversed(ech[:len(piv)])):
      x[p] = -sum(row[j] * x[j] for j in range(p + 1, ncols)
                  if row[j] and x[j]) / Fraction(row[p])
    basis.append(_normalize_vector(x))
  return basis


def _normalize_vector(x: list[Fraction]) -> tuple[Fraction, ...]:
  """x scaled to coprime integers with its first nonzero entry positive."""
  den = lcm(*(v.denominator for v in x))
  ints = [v.numerator * (den // v.denominator) for v in x]
  g = gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
  return tuple(Fraction(v // g) for v in ints)


def in_span(vectors: list[tuple[Fraction, ...]], target) -> bool:
  """Exact membership of ``target`` in the span of ``vectors``."""
  target = tuple(as_fraction(v) for v in target)
  if all(v == 0 for v in target):
    return True
  if not vectors:
    return False
  stack = [list(v) for v in vectors]
  return rank(stack + [list(target)]) == rank(stack)


def is_nilpotent(matrix: np.ndarray) -> bool:
  """Exact nilpotency of a square rational matrix (repeated squaring)."""
  n = matrix.shape[0]
  if matrix.shape != (n, n):
    raise ValueError("matrix must be square")
  if n == 0:
    return True
  power = matrix
  e = 1
  while e < n:
    if is_zero_matrix(power):
      return True
    power = power.dot(power)
    e *= 2
  return is_zero_matrix(power)
