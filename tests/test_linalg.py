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

from liebundle import (builtin_algebra, center_basis, circulant_w,
                       direct_sum_w, induced_structure_constants,
                       leibnitz_deform, linalg, make_wtensor)
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


# -- the exact front end: unit rows, the prime certificate, the fallback ----

def assert_canonical_nullspace(matrix, vecs):
  """``vecs`` is the one basis nullspace may return for ``matrix``: one
  vector per free column f (a column outside the span of the columns before
  it, found with ``gaussian_rank``), in ascending order, nonzero at f and
  zero at the other free columns, annihilating every row, coprime integers
  with the first nonzero positive.  Those conditions fix each vector."""
  ncols = np.shape(matrix)[1]
  rows = np.asarray(matrix, dtype=object).tolist()
  ranks = [gaussian_rank([r[:c] for r in rows]) for c in range(ncols + 1)]
  free = [c for c in range(ncols) if ranks[c + 1] == ranks[c]]
  assert len(vecs) == len(free)
  for f, v in zip(free, vecs):
    assert len(v) == ncols
    assert [v[g] != 0 for g in free] == [g == f for g in free]
    for row in rows:
      assert sum(a * b for a, b in zip(row, v)) == 0
    assert all(x.denominator == 1 for x in v)
    assert next(x for x in v if x) > 0
    assert math.gcd(*(int(x) for x in v)) == 1


def test_unit_rows_settle_over_several_rounds():
  # row k is a unit row only once columns 0..k-1 are settled: four rounds,
  # then columns 4 and 5 are left for the elimination (x_4 = -x_5)
  chain = [[3, 0, 0, 0, 0, 0],
           [1, -2, 0, 0, 0, 0],
           [0, 5, 1, 0, 0, 0],
           [0, 0, 7, -1, 0, 0],
           [0, 0, 0, 2, 4, 4]]
  rng = random.Random(3)
  for _ in range(10):
    order = rng.sample(range(5), 5)
    rows = [chain[i] for i in order]
    a = np.array(rows, dtype=np.int64)
    rest, columns = linalg._unsettled(a)
    assert columns == [4, 5]
    assert rest.tolist() == [[4, 4]]
    assert rank(a) == 5 == gaussian_rank(rows)
    assert nullspace(a) == [(0, 0, 0, 0, 1, -1)]
    assert_canonical_nullspace(rows, nullspace(rows))
  # the same chain with all columns settled: full rank, no elimination
  square = [row[:5] for row in chain]
  assert linalg._unsettled(np.array(square, dtype=object))[1] == []
  assert rank(square) == 5 and nullspace(square) == []


def test_tall_dense_full_rank_takes_the_prime_certificate():
  rng = random.Random(11)
  for _ in range(30):
    n = rng.randint(1, 8)
    rows = [[rng.choice([-3, -2, -1, 1, 2, 3, 2**40, -2**70]) for _ in range(n)]
            for _ in range(rng.randint(n, n + 6))]
    if gaussian_rank(rows) < n:
      continue
    a = np.array(rows, dtype=object)
    assert linalg._full_column_rank_mod_p(a)
    assert linalg._unsettled(a)[1] == []
    assert rank(a) == n and nullspace(a) == []


def test_rank_deficient_modulo_the_prime_falls_back_to_bareiss():
  p = linalg._PRIME
  # det = p^2: full rank over Q, rank one modulo p
  unlucky = [[p, p], [1, 1 + p]]
  assert not linalg._full_column_rank_mod_p(np.array(unlucky))
  assert rank(unlucky) == 2 == gaussian_rank(unlucky)
  assert nullspace(unlucky) == []
  # entries beyond 2^63, and one row divisible by p: det = 5 p (1 + p) 2^64
  big = [[2**64 * p] * 3, [1, 1 + p, 0], [0, 5, 5]]
  assert not linalg._full_column_rank_mod_p(np.array(big, dtype=object))
  assert rank(big) == 3 == gaussian_rank(big)
  assert nullspace(big) == []
  # rank one over Q too: the fallback finds the nullspace
  singular = [[p, p], [1, 1]]
  assert rank(singular) == 1
  assert nullspace(singular) == [(1, -1)]
  for rows in (unlucky, big, singular):
    assert_canonical_nullspace(rows, nullspace(rows))


@settings(max_examples=100, deadline=None)
@given(matrix_strategy(max_rows=8, max_cols=6))
@with_edge_cases
def test_nullspace_is_the_canonical_basis(rows):
  assert_canonical_nullspace(rows, nullspace(rows))


def center_oracle_rows(c):
  """The distinct nonzero rows (b, e) of sum_a x_a c_ab^e = 0, from
  ``table`` (a < b) and antisymmetry rather than from ``dense``."""
  d = c.dim
  rows = [[Fraction(0)] * d for _ in range(d * d)]
  for (a, b), coeffs in c.table.items():
    for e, v in coeffs.items():
      rows[b * d + e][a] = v
      rows[a * d + e][b] = -v
  return [list(row) for row in dict.fromkeys(map(tuple, rows)) if any(row)] or [
      [0] * d]


def test_center_basis_of_matrix_algebras_and_induced_tables():
  for p in range(2, 9):
    scalar = tuple(Fraction(int(a == b)) for a in range(p) for b in range(p))
    assert center_basis(builtin_algebra(f"gl({p})")) == [scalar]
  for p in range(3, 12):
    assert center_basis(builtin_algebra(f"so({p})")) == []
  rng = random.Random(29)
  values = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2)]
  algebras = {name: builtin_algebra(name) for name in
              ("sl2", "so3", "heisenberg3", "gl(2)", "abelian(2)")}
  for _ in range(300):
    n = rng.randint(1, 4)
    family = rng.randrange(4)
    if family == 0:
      w = circulant_w([rng.choice(values) for _ in range(n)])
    elif family == 1:
      w = leibnitz_deform(n, rng.choice(values))
    elif family == 2:
      w = direct_sum_w(n)
    else:
      entries = {}
      for _ in range(rng.randint(1, 2 * n)):
        i, j, s = (rng.randrange(n) for _ in range(3))
        entries[(i, j, s)] = entries[(j, i, s)] = rng.choice(values)
      w = make_wtensor(n, entries)
    c = induced_structure_constants(w, algebras[rng.choice(sorted(algebras))])
    assert_canonical_nullspace(center_oracle_rows(c), center_basis(c))
