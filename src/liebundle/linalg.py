"""Exact linear algebra over the rationals.

``cleared`` is the one canonical integer form of a table of rationals, the
form W-tensors and structure constants are held in; their sparse form comes
in through one value coder (``_code``) and goes out through one nonzero read
(``ClearedTable._nonzero``).  ``_exact_sum_dtype`` is the one rule for the
dtype that computes sums of their products exactly, called by every Jacobi
scan and W validation on its own bound, and ``_first_nonzero`` the one
search that reads their witnesses.  Rank and nullspace work on a 2-D
integer array: an integer array is taken as it is, and rationals are cleared
first.  One exact front end (``_unsettled``) settles the rows with a single
nonzero and then asks whether what is left has full column rank modulo the
prime ``_PRIME``; only when it does not does the one fraction-free
elimination ``_bareiss`` run, in Python integers, fully reduced: rank counts
its pivots, and nullspace reads its basis off it.  The residues are integers
below 2^31 held in int64, whose products and differences stay below 2^62, so
every decision is made on exact integers, never on a rounded value.
``frac_matrix`` and its helpers build object matrices of Fractions for
exact matrix products.
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
  integer array (float64 ones, of ``_exact_sum_dtype``'s tier, too), or
  ints and Fractions, which are put over the lcm of their denominators (a
  flat array, with no common factor left: ``scale`` is 1)."""
  if not isinstance(values, np.ndarray):
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    fits = -2**63 < min(nums, default=0) and max(nums, default=0) < 2**63
    return np.array(nums, dtype=np.int64 if fits else object), den
  if values.dtype == np.float64:
    values = values.astype(np.int64)
  if not values.any():
    return np.zeros(values.shape, dtype=np.int64), 1
  g = gcd(scale, int(np.gcd.reduce(values.ravel()))) if scale > 1 else 1
  if g > 1:
    values, scale = values // g, scale // g
  if values.dtype == object and -2**63 < values.min() and values.max() < 2**63:
    values = values.astype(np.int64)
  return values, scale


def _code(value, parsed: dict, distinct: dict[Fraction, int]) -> int:
  """Code of ``value`` in ``distinct`` (Fraction -> code, zero coded 0),
  coerced once per distinct value as written (``parsed``).  Only the exact
  types are looked up: a bool or a float equals an int but is refused, and a
  list or a dict cannot be a key.  A Fraction is looked up by its numerator
  and denominator, since its own hash and == are Python code."""
  kind = type(value)
  key = (value.numerator, value.denominator) if kind is Fraction else value
  code = parsed.get(key) if kind in (int, str, Fraction) else None
  if code is None:
    code = distinct.setdefault(as_fraction(value), len(distinct))
    parsed[key] = code
  return code


def _first_nonzero(a: np.ndarray) -> tuple[int, ...] | None:
  """The C-order index of the first nonzero (or True) entry of ``a``, or
  None; an argmax over booleans stops at the first True it meets."""
  mask = (a if a.dtype == bool else a != 0).ravel()
  if not mask.size or not mask[at := int(mask.argmax())]:
    return None
  return tuple(int(x) for x in np.unravel_index(at, a.shape))


def _exact_sum_dtype(bound: int):
  """The dtype in which integer products and sums of magnitude at most
  ``bound`` are computed exactly: float64 below 2^53 (it holds every such
  integer, and BLAS multiplies it), int64 below 2^62, else object (Python
  integers)."""
  return np.float64 if bound < 2**53 else np.int64 if bound < 2**62 else object


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
    """The largest absolute numerator (max and min: no |dense| copy)."""
    return max(int(self.dense.max()), -int(self.dense.min()))

  @cached_property
  def _nonzero(self) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate form, the one read of the nonzero entries: their flat
    indices into ``dense``, in C order, and their numerators."""
    flat = np.flatnonzero(self.dense != 0)  # faster than on the integers
    nums = self.dense.ravel()
    return flat, nums[flat] if len(flat) < len(nums) else nums

  def brackets(self, upper: bool = True) -> dict:
    """The nonzero entries as {(a, b): {e: dense[a, b, e] / scale}}, in C
    order: [e_a, e_b] of structure constants, or the W^{ij}_s of [x_i, y_j]
    of a W-tensor.  Only the pairs a < b when ``upper``; one Fraction per
    distinct value."""
    flat, nums = self._nonzero
    index = np.unravel_index(flat, self.dense.shape)
    keep = index[0] < index[1] if upper else slice(None)
    nums = nums[keep].tolist()
    value = {x: Fraction(x, self.scale) for x in set(nums)}
    grouped: dict = {}
    for a, b, e, x in zip(*(i[keep].tolist() for i in index), nums):
      grouped.setdefault((a, b), {})[e] = value[x]
    return grouped


def _integer_matrix(matrix) -> np.ndarray:
  """``matrix`` as a 2-D integer array with its rank and nullspace: an
  integer array (int64 or Python integers) as it is, with its shape, and
  rationals cleared by one common positive factor."""
  if not isinstance(matrix, np.ndarray):
    matrix = frac_matrix(matrix)
  if matrix.dtype == np.int64 or all(type(v) is int for v in matrix.flat):
    return matrix
  return cleared([as_fraction(v) for v in matrix.flat])[0].reshape(
      matrix.shape)


_PRIME = 2**31 - 1  # below 2^31, so residues multiply exactly in int64


def _unsettled(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
  """The rows and columns of the integer matrix ``a`` that ``_bareiss``
  must still decide, and the indices of those columns, ascending.

  A row whose only nonzero is in column c puts e_c in the row space, so
  x_c = 0 on the nullspace and c is a pivot column of every echelon form.
  Each round drops the columns of all such rows at once, with the rows that
  are then zero; that can leave new unit rows for the next round.  The
  nullspace of ``a`` is that of what is left, with x = 0 at the dropped
  columns, and the rank of ``a`` is the number of dropped columns plus the
  rank of what is left.  No column is left when what is left has full
  column rank modulo ``_PRIME``.
  """
  columns = np.arange(a.shape[1])
  while True:
    nonzero = a != 0
    count = nonzero.sum(axis=1)
    unit = nonzero[count == 1]
    a = a[count > 1]
    if not len(unit):
      break
    keep = ~unit.any(axis=0)
    a, columns = a[:, keep], columns[keep]
  if _full_column_rank_mod_p(a):
    return a[:, :0], []
  return a, columns.tolist()


def _full_column_rank_mod_p(a: np.ndarray) -> bool:
  """Whether the integer matrix ``a`` has full column rank modulo
  ``_PRIME``.  If it has, some maximal minor is nonzero modulo the prime,
  so nonzero over Q, and ``a`` has full column rank over Q.  False decides
  nothing: an unlucky prime may divide every maximal minor.

  Fraction-free elimination on the residues, one column at a time: row i
  becomes a[r, 0] a[i] - a[i, 0] a[r] for a pivot row r, which keeps the
  rank of the other rows modulo the prime and zeroes row r.  Residues are
  below 2^31, so the products are below 2^62 and int64 is exact.
  """
  if len(a) < a.shape[1]:
    return False
  a = (a % _PRIME).astype(np.int64)
  while a.shape[1]:
    column = a[:, 0]
    r = column.argmax()
    if not column[r]:
      return False
    a = (a[:, 1:] * column[r] - column[:, None] * a[r, 1:]) % _PRIME
  return True


def _bareiss(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
  """Fraction-free Gauss-Jordan elimination of the integer matrix ``a``, in
  Python integers: its pivot rows, and the pivot columns, ascending.

  Column c's pivot row is the first at or below the working row r with a
  nonzero in c.  One step, a[i] = (a[i] a[r, c] - a[i, c] a[r]) / prev
  with prev the last pivot (at first 1), updates every other row, after
  which every pivot equals the last, D.  The division is exact, as every
  entry is a minor of ``a``: on the pivot rows and columns with row i and
  column j added (Bareiss) or, in a pivot row, with its pivot column
  replaced by column j (Cramer).
  """
  a = a.astype(object)
  pivots: list[int] = []
  prev = 1
  for c in range(a.shape[1]):
    r = len(pivots)
    below = _first_nonzero(a[r:, c])
    if below is None:
      continue
    a[[r, r + below[0]]] = a[[r + below[0], r]]
    rows = np.arange(len(a)) != r
    a[rows] = (a[rows] * a[r, c] - a[rows, c:c + 1] * a[r]) // prev
    prev = a[r, c]
    pivots.append(c)
  return a[:len(pivots)], pivots


def rank(matrix) -> int:
  """Exact rank over Q: the columns ``_unsettled`` settles, plus the pivots
  of ``_bareiss`` on what is left."""
  a = _integer_matrix(matrix)
  rest, columns = _unsettled(a)
  return a.shape[1] - len(columns) + len(_bareiss(rest)[1])


def nullspace(matrix) -> list[tuple[Fraction, ...]]:
  """Deterministic basis of the exact right nullspace.

  One vector per free column f, in ascending column order, read off the
  reduced form of ``_bareiss`` on the columns ``_unsettled`` leaves: x_f =
  D, x_p = -a[i, f] at the pivot column p of row i, and 0 at the other
  columns.  Each vector is scaled to coprime integers with its first
  nonzero entry positive.  It is the one nullspace vector with x_f = 1 and
  x = 0 at the other free columns, and settling keeps the free columns, so
  the basis is the one an elimination of the whole matrix reads off.
  """
  a = _integer_matrix(matrix)
  n = a.shape[1]
  rest, columns = _unsettled(a)
  rest, pivots = _bareiss(rest)
  d = rest[0, pivots[0]] if pivots else 1
  basis = []
  for f in sorted(set(range(len(columns))) - set(pivots)):
    x = [0] * n
    x[columns[f]] = d
    for p, v in zip(pivots, rest[:, f].tolist()):
      x[columns[p]] = -v
    basis.append(_normalize_vector(x))
  return basis


def _normalize_vector(x: list[int]) -> tuple[Fraction, ...]:
  """x divided by the gcd of its entries, with its first nonzero positive."""
  g = gcd(*x) * (1 if next(v for v in x if v) > 0 else -1)
  return tuple(Fraction(v // g) for v in x)


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
