"""Exact linear algebra: rank/nullspace against an independent elimination.

The oracle below is a deliberately naive Gaussian elimination over Fraction,
kept separate from the fraction-free Bareiss routine under test.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liebundle.linalg import (frac_matrix, identity_matrix, in_span,
                              is_nilpotent, is_zero_matrix, nullspace, rank,
                              zeros_matrix)


def gaussian_rank(rows):
  """Reference rank via plain fraction pivoting (independent of Bareiss)."""
  work = [list(r) for r in rows]
  if not work:
    return 0
  ncols = len(work[0])
  r = 0
  for c in range(ncols):
    pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
    if pivot is None:
      continue
    work[r], work[pivot] = work[pivot], work[r]
    inv = 1 / Fraction(work[r][c])
    work[r] = [v * inv for v in work[r]]
    for i in range(len(work)):
      if i != r and work[i][c] != 0:
        f = work[i][c]
        work[i] = [a - f * b for a, b in zip(work[i], work[r])]
    r += 1
  return r


fractions_small = st.fractions(max_denominator=6, min_value=-8, max_value=8)


def matrix_strategy(max_rows=5, max_cols=5):
  return st.integers(1, max_rows).flatmap(
      lambda m: st.integers(1, max_cols).flatmap(
          lambda n: st.lists(
              st.lists(fractions_small, min_size=n, max_size=n),
              min_size=m, max_size=m)))


def circulant(alpha):
  n = len(alpha)
  return np.array([[alpha[(j - i) % n] for j in range(n)] for i in range(n)],
                  dtype=np.int64)


# elimination edge cases: no rows, no columns, all zero, zero rows between
# duplicate rows, entries of 2^63 and more (Python integers), and a 64 x 64
# circulant of 1 + x^32, of rank 32
EDGE_CASES = (
    np.zeros((0, 4), dtype=np.int64),
    np.zeros((3, 0), dtype=np.int64),
    np.zeros((3, 4), dtype=np.int64),
    [[0, 0, 0], [1, -2, 3], [0, 0, 0], [1, -2, 3], [0, 0, 0], [2, -4, 6]],
    np.array([[2**63, 1, 0], [2**64, 2, 0], [5, 0, -2**70]], dtype=object),
    circulant([1] + [0] * 31 + [1] + [0] * 31),
)


def with_edge_cases(test):
  for rows in EDGE_CASES:
    test = example(rows)(test)
  return test


@settings(max_examples=150, deadline=None)
@given(matrix_strategy())
@with_edge_cases
def test_rank_matches_gaussian_oracle(rows):
  assert rank(rows) == gaussian_rank(np.asarray(rows, dtype=object).tolist())


@settings(max_examples=150, deadline=None)
@given(matrix_strategy())
@with_edge_cases
def test_nullspace_vectors_annihilate_and_span(rows):
  vecs = nullspace(rows)
  ncols = np.shape(rows)[1]
  rows = np.asarray(rows, dtype=object).tolist()
  assert len(vecs) == ncols - gaussian_rank(rows)
  for v in vecs:
    assert len(v) == ncols
    for row in rows:
      assert sum(a * b for a, b in zip(row, v)) == 0
  # returned vectors are linearly independent
  if vecs:
    assert rank([tuple(v) for v in vecs]) == len(vecs)


@settings(max_examples=100, deadline=None)
@given(matrix_strategy())
def test_nullspace_normalization_is_canonical(rows):
  for v in nullspace(rows):
    nz = [x for x in v if x != 0]
    assert nz, "nullspace must not contain the zero vector"
    assert nz[0] > 0
    assert all(x.denominator == 1 for x in v)
    g = 0
    for x in v:
      g = math.gcd(g, int(x))
    assert g == 1


def test_rank_known_values():
  assert rank([(Fraction(0), Fraction(0))]) == 0
  assert rank([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]) == 1
  assert rank([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(5))]) == 2
  # 3x3 circulant of (1,1,1) has rank 1
  ones = [(Fraction(1),) * 3] * 3
  assert rank(ones) == 1


def test_rank_is_exact_near_singularity():
  # dangerously ill-conditioned for floats, trivial for exact arithmetic
  eps = Fraction(1, 10**30)
  rows = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(1) + eps)]
  assert rank(rows) == 2
  rows = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))]
  assert rank(rows) == 1


def test_in_span():
  basis = [(Fraction(1), Fraction(0), Fraction(1)),
           (Fraction(0), Fraction(1), Fraction(1))]
  assert in_span(basis, (Fraction(2), Fraction(3), Fraction(5)))
  assert not in_span(basis, (Fraction(0), Fraction(0), Fraction(1)))
  assert in_span([], (Fraction(0), Fraction(0)))
  assert not in_span([], (Fraction(1), Fraction(0)))


def test_nilpotency():
  strict_upper = frac_matrix([[0, 1, 5], [0, 0, 2], [0, 0, 0]])
  assert is_nilpotent(strict_upper)
  assert not is_nilpotent(identity_matrix(3))
  assert is_nilpotent(zeros_matrix(2, 2))
  # invertible but with trace zero: not nilpotent
  assert not is_nilpotent(frac_matrix([[1, 0], [0, -1]]))


def test_frac_matrix_helpers():
  m = frac_matrix([[1, "1/2"], [0, 3]])
  assert m[0, 1] == Fraction(1, 2)
  assert is_zero_matrix(zeros_matrix(3, 2))
  assert not is_zero_matrix(m)


def test_random_rank_factorized_products():
  # rank(A @ B) <= min(rank A, rank B), checked on seeded random integer mats
  rng = random.Random(7)
  for _ in range(25):
    m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(m)]
    b = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
    prod = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)]
    assert rank(prod) <= min(rank(a), rank(b))
