"""Exact linear algebra over the rationals.

Matrices are numpy arrays with ``dtype=object`` holding Fractions (or ints);
rank and nullspace go through Bareiss fraction-free elimination on a
denominator-cleared integer copy, so no float ever enters a decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .rationals import as_fraction


def frac_matrix(rows) -> np.ndarray:
  """Build an object-dtype matrix of Fractions from nested iterables."""
  data = [[as_fraction(v) for v in row] for row in rows]
  if not data:
    return np.empty((0, 0), dtype=object)
  width = len(data[0])
  if any(len(row) != width for row in data):
    raise ValueError("ragged rows")
  out = np.empty((len(data), width), dtype=object)
  for i, row in enumerate(data):
    for j, v in enumerate(row):
      out[i, j] = v
  return out


def zeros_matrix(m: int, n: int) -> np.ndarray:
  return np.full((m, n), Fraction(0), dtype=object)


def identity_matrix(n: int) -> np.ndarray:
  out = zeros_matrix(n, n)
  for i in range(n):
    out[i, i] = Fraction(1)
  return out


def mats_equal(a: np.ndarray, b: np.ndarray) -> bool:
  return a.shape == b.shape and bool((a == b).all())


def is_zero_matrix(a: np.ndarray) -> bool:
  return not (a != 0).any()


def _as_int_rows(matrix) -> list[list[int]]:
  """Copy to integer rows, clearing the denominators of the whole matrix.

  Scaling every entry by one positive factor changes neither rank nor
  nullspace.
  """
  fr = [[as_fraction(v) for v in row] for row in matrix]
  scale = lcm(*(v.denominator for row in fr for v in row))
  return [[v.numerator * (scale // v.denominator) for v in row] for row in fr]


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
    for r in range(len(piv) - 1, -1, -1):
      p = piv[r]
      row = ech[r]
      acc = Fraction(0)
      for j in range(p + 1, ncols):
        if row[j] and x[j]:
          acc += Fraction(row[j]) * x[j]
      x[p] = -acc / row[p]
    basis.append(_normalize_vector(x))
  return basis


def _normalize_vector(x: list[Fraction]) -> tuple[Fraction, ...]:
  scale = lcm(*(v.denominator for v in x)) if x else 1
  ints = [int(v * scale) for v in x]
  g = 0
  for v in ints:
    g = gcd(g, abs(v))
  if g > 1:
    ints = [v // g for v in ints]
  lead = next((v for v in ints if v != 0), 0)
  if lead < 0:
    ints = [-v for v in ints]
  return tuple(Fraction(v) for v in ints)


def in_span(vectors: list[tuple[Fraction, ...]], target) -> bool:
  """Exact membership of ``target`` in the span of ``vectors``."""
  target = tuple(as_fraction(v) for v in target)
  if all(v == 0 for v in target):
    return True
  if not vectors:
    return False
  stack = [list(v) for v in vectors]
  base = rank(stack)
  return rank(stack + [list(target)]) == base


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
