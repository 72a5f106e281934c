"""Sandwich brackets through block-circulant matrix embeddings.

An element x = (x_0..x_{n-1}) of gl(p)^n embeds as the np x np matrix X with
block (i, j) equal to x_{(i+j) mod n}.  For a parameter a in the same shape,
[x, y]_a = X A Y - Y A X closes on the embedded set (triple products
preserve the block pattern), its components are

    ([x, y]_a)_i = sum_{s,k} (x_s a_m y_k - y_k a_m x_s),  m = (s+k-i) mod n,

and the whole bracket is the coboundary of beta_A(X) = (AX + XA)/2 inside
the full matrix algebra.  Everything here is exact: Fraction blocks in the
public functions, cleared int64 blocks in sandwich_suite.  The so(p) bundle
x a y - y a x is built like gl(p) and so(p), by ``algebra_core._matrix_table``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra_core import (MAX_DIM, _UPPER, StructureConstants,
                           _from_numerators, _matrix_table, so_matrix_basis)
from .errors import InternalCheckError, SizeCapError
from .linalg import cleared, frac_matrix, mats_equal

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


def _stacks(*args) -> list[np.ndarray]:
  """Fraction stacks of shape (n, p, p), one per argument, all one shape."""
  out = [np.stack(as_blocks(b)) for b in args]
  if any(s.shape != out[0].shape for s in out):
    raise ValueError("arguments must share block count and block size")
  return out


def _embed(x: np.ndarray) -> np.ndarray:
  """np x np matrix with (i, j)-block x[(i + j) mod n], from an (n, p, p)
  stack of any dtype, by one gather."""
  n, p = x.shape[:2]
  r = np.arange(n)
  return x[(r[:, None] + r) % n].transpose(0, 2, 1, 3).reshape(n * p, n * p)


def _first_row(mat: np.ndarray, n: int, p: int) -> np.ndarray:
  """(n, p, p) stack of the first block row."""
  return mat[:p].reshape(p, n, p).transpose(1, 0, 2)


def embed_circulant(blocks) -> np.ndarray:
  """np x np matrix X with X_(i,j)-block = x_{(i+j) mod n}."""
  return _embed(np.stack(as_blocks(blocks)))


def extract_blocks(mat: np.ndarray, n: int, p: int) -> Blocks:
  """Read the block vector off the first block row."""
  if mat.shape != (n * p, n * p):
    raise ValueError(f"matrix is not {n * p} x {n * p}")
  return tuple(_first_row(mat, n, p).copy())


def has_circulant_pattern(mat: np.ndarray, n: int, p: int) -> bool:
  """Exact check that mat equals the embedding of its first block row."""
  if mat.shape != (n * p, n * p):
    return False
  return mats_equal(mat, _embed(_first_row(mat, n, p)))


def _checked(mat: np.ndarray, n: int, p: int, what: str) -> np.ndarray:
  if not has_circulant_pattern(mat, n, p):
    raise InternalCheckError(
        f"{what} left the block-circulant pattern: implementation bug")
  return _first_row(mat, n, p)


def _sandwich(bx, ba, by) -> np.ndarray:
  return bx @ ba @ by - by @ ba @ bx


def _component(x, a, y) -> np.ndarray:
  """The component formula, per i broadcast over (s, k): n^2 p^2 temporaries."""
  r = np.arange(len(x))
  xs, ys = x[:, None], y[None, :]
  ams = (a[(r[:, None] + r - i) % len(r)] for i in r)
  return np.stack([(xs @ am @ ys - ys @ am @ xs).sum(axis=(0, 1))
                   for am in ams])


def _bprime(ba, mat) -> np.ndarray:
  """b'(M) = A M + M A, twice beta_A."""
  return ba @ mat + mat @ ba


def _coboundary(ba, bx, by) -> np.ndarray:
  """2 d(beta_A)(X, Y) = [X, b'Y] - [Y, b'X] - b'([X, Y]), b' = 2 beta_A."""

  def comm(m1, m2):
    return m1 @ m2 - m2 @ m1

  return (comm(bx, _bprime(ba, by)) - comm(by, _bprime(ba, bx)) -
          _bprime(ba, comm(bx, by)))


def sandwich_product(x, a, y) -> Blocks:
  """Blocks of X A Y (pattern-checked: triple products stay embeddable)."""
  xs, as_, ys = _stacks(x, a, y)
  return tuple(_checked(_embed(xs) @ _embed(as_) @ _embed(ys), *xs.shape[:2],
                        "sandwich product"))


def bracket_sandwich(x, a, y) -> Blocks:
  """Blocks of [x, y]_a = X A Y - Y A X via the embedding."""
  xs, as_, ys = _stacks(x, a, y)
  return tuple(_checked(_sandwich(_embed(xs), _embed(as_), _embed(ys)),
                        *xs.shape[:2], "sandwich bracket"))


def component_bracket(x, a, y) -> Blocks:
  """Componentwise formula for [x, y]_a, never touching the embedding."""
  return tuple(_component(*_stacks(x, a, y)))


def beta_map(a, x) -> Blocks:
  """First block row of (A X + X A) / 2."""
  sa, sx = _stacks(a, x)
  return tuple(_first_row(_bprime(_embed(sa), _embed(sx)) * Fraction(1, 2),
                          *sx.shape[:2]))


def coboundary_identity_check(a, x, y) -> bool:
  """Exact identity X A Y - Y A X = [X, bY] - [Y, bX] - b([X, Y]) with
  b(M) = (A M + M A)/2, all commutators in the full np x np algebra."""
  ba, bx, by = (_embed(s) for s in _stacks(a, x, y))
  return mats_equal(2 * _sandwich(bx, ba, by), _coboundary(ba, bx, by))


def so_sym_bundle(p: int, a) -> StructureConstants:
  """Structure constants of [x, y]_a = x a y - y a x on so(p), a symmetric.

  Basis: B_ab = E_ab - E_ba for a < b in ascending order.  For symmetric a
  the bracket closes on antisymmetric matrices and satisfies Jacobi, so the
  result is a bona fide Lie algebra for every symmetric rational a.  It is
  built by ``algebra_core._matrix_table`` on a's cleared numerators.
  """
  if p < 2:
    raise ValueError("so(p) bundle requires p >= 2")
  if p * (p - 1) // 2 > MAX_DIM:
    raise ValueError(f"so({p}) bundle has dimension {p * (p - 1) // 2}, "
                     f"above the cap {MAX_DIM}")
  amat = frac_matrix(a)
  if amat.shape != (p, p):
    raise ValueError(f"parameter must be a {p} x {p} matrix")
  if not mats_equal(amat, amat.T):
    raise ValueError("bundle parameter must be symmetric")
  nums, scale = cleared(amat.ravel().tolist())
  return _from_numerators(_matrix_table(
      so_matrix_basis(p), nums.reshape(p, p), _UPPER[:p, :p]), scale)


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


def _random_blocks(rng: random.Random, n: int, p: int) -> np.ndarray:
  """(n, p, p) int64 stack of entries r/q (r in -3..3, q in 1..4, drawn in
  that order per entry) as numerators over the common denominator 12."""
  return np.array([rng.randint(-3, 3) * (12 // rng.choice((1, 2, 3, 4)))
                   for _ in range(n * p * p)], dtype=np.int64).reshape(n, p, p)


def sandwich_suite(n: int, p: int, trials: int, seed: int) -> SandwichSuiteReport:
  """Seeded random verification of the three sandwich identities.

  Per trial (x, a, y): the triple product keeps the block pattern, the
  component formula matches the embedded bracket, and the coboundary
  identity holds -- all exactly, on one embedding of each and one X A Y and
  Y A X.  The work grows as trials * (n*p)^3, which is checked against
  MAX_SANDWICH_WORK before any trial runs.

  The blocks are drawn cleared to int64 numerators over 12; each identity
  is homogeneous of degree 3 in (x, a, y), so the scaling keeps every
  verdict.  The arithmetic is exact: every entry has |entry| <= 36, each
  side is a sum of at most 12 triple products, and the cap gives
  n*p <= 43, so every partial sum stays below 12 * 43^2 * 36^3 < 2^31.
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
    x, a, y = (_random_blocks(rng, n, p) for _ in range(3))
    bx, ba, by = _embed(x), _embed(a), _embed(y)
    xay = bx @ ba @ by
    bracket = xay - by @ ba @ bx
    closure += has_circulant_pattern(xay, n, p)
    component += mats_equal(_component(x, a, y),
                            _checked(bracket, n, p, "sandwich bracket"))
    coboundary += mats_equal(2 * bracket, _coboundary(ba, bx, by))
  return SandwichSuiteReport(n=n, p=p, trials=trials, seed=seed,
                             closure_ok=closure, component_ok=component,
                             coboundary_ok=coboundary)
