"""Sandwich brackets through block-circulant matrix embeddings.

An element x = (x_0..x_{n-1}) of gl(p)^n embeds as the np x np matrix X with
block (i, j) equal to x_{(i+j) mod n}.  For a parameter a in the same shape,
[x, y]_a = X A Y - Y A X closes on the embedded set (triple products
preserve the block pattern), its components are

    ([x, y]_a)_i = sum_{s,k} (x_s a_m y_k - y_k a_m x_s),  m = (s+k-i) mod n,

and the whole bracket is the coboundary of beta_A(X) = (AX + XA)/2 inside
the full matrix algebra.  Everything here is exact (Fraction blocks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra_core import (StructureConstants, _so_table,
                           make_structure_constants)
from .errors import InternalCheckError, SizeCapError
from .linalg import frac_matrix, mats_equal

Blocks = tuple[np.ndarray, ...]

# cap on trials * (n*p)^3, the work of sandwich_suite: 20 trials at n*p = 16
MAX_SANDWICH_WORK = 81_920


def as_blocks(blocks) -> Blocks:
  """Coerce a sequence of square matrices (all the same size) to Fractions."""
  mats = tuple(frac_matrix(b) for b in blocks)
  if not mats:
    raise ValueError("need at least one block")
  p = mats[0].shape[0]
  for m in mats:
    if m.shape != (p, p):
      raise ValueError("blocks must be square matrices of equal size")
  return mats


def embed_circulant(blocks) -> np.ndarray:
  """np x np matrix X with X_(i,j)-block = x_{(i+j) mod n}."""
  mats = as_blocks(blocks)
  n = len(mats)
  p = mats[0].shape[0]
  out = np.empty((n * p, n * p), dtype=object)
  for i in range(n):
    for j in range(n):
      out[i * p:(i + 1) * p, j * p:(j + 1) * p] = mats[(i + j) % n]
  return out


def extract_blocks(mat: np.ndarray, n: int, p: int) -> Blocks:
  """Read the block vector off the first block row."""
  if mat.shape != (n * p, n * p):
    raise ValueError(f"matrix is not {n * p} x {n * p}")
  return tuple(mat[0:p, j * p:(j + 1) * p].copy() for j in range(n))


def has_circulant_pattern(mat: np.ndarray, n: int, p: int) -> bool:
  """Exact check that mat equals the embedding of its first block row."""
  if mat.shape != (n * p, n * p):
    return False
  return mats_equal(mat, embed_circulant(extract_blocks(mat, n, p)))


def _checked_extract(mat: np.ndarray, n: int, p: int, what: str) -> Blocks:
  if not has_circulant_pattern(mat, n, p):
    raise InternalCheckError(
        f"{what} left the block-circulant pattern: implementation bug")
  return extract_blocks(mat, n, p)


def sandwich_product(x, a, y) -> Blocks:
  """Blocks of X A Y (pattern-checked: triple products stay embeddable)."""
  xb, ab, yb = as_blocks(x), as_blocks(a), as_blocks(y)
  n, p = len(xb), xb[0].shape[0]
  if not (len(ab) == len(yb) == n and ab[0].shape == yb[0].shape == (p, p)):
    raise ValueError("x, a, y must share block count and block size")
  big = embed_circulant(xb).dot(embed_circulant(ab)).dot(embed_circulant(yb))
  return _checked_extract(big, n, p, "sandwich product")


def bracket_sandwich(x, a, y) -> Blocks:
  """Blocks of [x, y]_a = X A Y - Y A X via the embedding."""
  xb, ab, yb = as_blocks(x), as_blocks(a), as_blocks(y)
  n, p = len(xb), xb[0].shape[0]
  if not (len(ab) == len(yb) == n and ab[0].shape == yb[0].shape == (p, p)):
    raise ValueError("x, a, y must share block count and block size")
  bx, ba, by = embed_circulant(xb), embed_circulant(ab), embed_circulant(yb)
  big = bx.dot(ba).dot(by) - by.dot(ba).dot(bx)
  return _checked_extract(big, n, p, "sandwich bracket")


def component_bracket(x, a, y) -> Blocks:
  """Componentwise formula for [x, y]_a, never touching the embedding."""
  xb, ab, yb = as_blocks(x), as_blocks(a), as_blocks(y)
  n, p = len(xb), xb[0].shape[0]
  if not (len(ab) == len(yb) == n and ab[0].shape == yb[0].shape == (p, p)):
    raise ValueError("x, a, y must share block count and block size")
  zero = np.full((p, p), Fraction(0), dtype=object)
  out = []
  for i in range(n):
    acc = zero.copy()
    for s in range(n):
      for k in range(n):
        am = ab[(s + k - i) % n]
        acc = acc + xb[s].dot(am).dot(yb[k]) - yb[k].dot(am).dot(xb[s])
    out.append(acc)
  return tuple(out)


def beta_map(a, x) -> Blocks:
  """First block row of (A X + X A) / 2."""
  ab, xb = as_blocks(a), as_blocks(x)
  n, p = len(xb), xb[0].shape[0]
  if len(ab) != n or ab[0].shape != (p, p):
    raise ValueError("a and x must share block count and block size")
  ba, bx = embed_circulant(ab), embed_circulant(xb)
  sym = (ba.dot(bx) + bx.dot(ba)) * Fraction(1, 2)
  return extract_blocks(sym, n, p)


def coboundary_identity_check(a, x, y) -> bool:
  """Exact identity X A Y - Y A X = [X, bY] - [Y, bX] - b([X, Y]) with
  b(M) = (A M + M A)/2, all commutators in the full np x np algebra."""
  ab, xb, yb = as_blocks(a), as_blocks(x), as_blocks(y)
  ba, bx, by = embed_circulant(ab), embed_circulant(xb), embed_circulant(yb)
  half = Fraction(1, 2)

  def beta(mat):
    return (ba.dot(mat) + mat.dot(ba)) * half

  def comm(m1, m2):
    return m1.dot(m2) - m2.dot(m1)

  lhs = bx.dot(ba).dot(by) - by.dot(ba).dot(bx)
  rhs = comm(bx, beta(by)) - comm(by, beta(bx)) - beta(comm(bx, by))
  return mats_equal(lhs, rhs)


def so_sym_bundle(p: int, a) -> StructureConstants:
  """Structure constants of [x, y]_a = x a y - y a x on so(p), a symmetric.

  Basis: B_ab = E_ab - E_ba for a < b in ascending order.  For symmetric a
  the bracket closes on antisymmetric matrices and satisfies Jacobi, so the
  result is a bona fide Lie algebra for every symmetric rational a.
  """
  if p < 2:
    raise ValueError("so(p) bundle requires p >= 2")
  amat = frac_matrix(a)
  if amat.shape != (p, p):
    raise ValueError(f"parameter must be a {p} x {p} matrix")
  if not mats_equal(amat, amat.T):
    raise ValueError("bundle parameter must be symmetric")
  return make_structure_constants(p * (p - 1) // 2, _so_table(p, amat))


# ---------------------------------------------------------------------------
# seeded random suite (used by the CLI)


@dataclass(frozen=True)
class SandwichSuiteReport:
  n: int
  p: int
  trials: int
  seed: int
  closure_ok: int
  component_ok: int
  coboundary_ok: int

  @property
  def ok(self) -> bool:
    return (self.closure_ok == self.component_ok ==
            self.coboundary_ok == self.trials)

  def __bool__(self) -> bool:
    return self.ok


def _random_blocks(rng: random.Random, n: int, p: int) -> Blocks:
  out = []
  for _ in range(n):
    mat = np.empty((p, p), dtype=object)
    for r in range(p):
      for s in range(p):
        mat[r, s] = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))
    out.append(mat)
  return tuple(out)


def sandwich_suite(n: int, p: int, trials: int, seed: int) -> SandwichSuiteReport:
  """Seeded random verification of the three sandwich identities.

  Per trial (x, a, y): the triple product keeps the block pattern, the
  component formula matches the embedded bracket, and the coboundary
  identity holds -- all exactly.  The work grows as trials * (n*p)^3, which
  is checked against MAX_SANDWICH_WORK before any trial runs.
  """
  if n < 1 or p < 1:
    raise ValueError("need n >= 1 and p >= 1")
  if trials < 1:
    raise ValueError("need at least one trial")
  work = trials * (n * p)**3
  if work > MAX_SANDWICH_WORK:
    raise SizeCapError(f"trials * (n*p)^3 = {work} exceeds the cap "
                       f"{MAX_SANDWICH_WORK}")
  rng = random.Random(seed)
  closure = component = coboundary = 0
  for _ in range(trials):
    x = _random_blocks(rng, n, p)
    a = _random_blocks(rng, n, p)
    y = _random_blocks(rng, n, p)
    try:
      sandwich_product(x, a, y)
      closure += 1
    except InternalCheckError:
      pass
    lhs = component_bracket(x, a, y)
    rhs = bracket_sandwich(x, a, y)
    if all(mats_equal(l, r) for l, r in zip(lhs, rhs)):
      component += 1
    if coboundary_identity_check(a, x, y):
      coboundary += 1
  return SandwichSuiteReport(n=n, p=p, trials=trials, seed=seed,
                             closure_ok=closure, component_ok=component,
                             coboundary_ok=coboundary)
