"""Block-circulant sandwich brackets and the so(p)/sym(p) bundle."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from liebundle import (InternalCheckError, SandwichSuiteReport, beta_map,
                       bracket_sandwich,
                       builtin_algebra, circulant_w, coboundary_identity_check,
                       coboundary_of_one_cochain, component_bracket,
                       embed_circulant, extension_bracket, extract_blocks,
                       has_circulant_pattern, sandwich_product, sandwich_suite,
                       so_sym_bundle, sum_bracket_table,
                       validate_structure_constants)
from liebundle import matrix_bundle
from liebundle.algebra_core import so_matrix_basis
from liebundle.linalg import frac_matrix, identity_matrix, mats_equal, zeros_matrix

F = Fraction


def rand_blocks(rng, n, p, lo=-3, hi=3):
  return tuple(
      frac_matrix([[F(rng.randint(lo, hi), rng.choice((1, 2, 3)))
                    for _ in range(p)] for _ in range(p)])
      for _ in range(n))


def rand_antisym_blocks(rng, n, p):
  out = []
  for _ in range(n):
    m = zeros_matrix(p, p)
    for r in range(p):
      for s in range(r + 1, p):
        v = F(rng.randint(-3, 3), rng.choice((1, 2)))
        m[r, s] = v
        m[s, r] = -v
    out.append(m)
  return tuple(out)


def rand_sym_blocks(rng, n, p):
  out = []
  for _ in range(n):
    m = zeros_matrix(p, p)
    for r in range(p):
      for s in range(r, p):
        v = F(rng.randint(-3, 3), rng.choice((1, 2)))
        m[r, s] = v
        m[s, r] = v
    out.append(m)
  return tuple(out)


# ---------------------------------------------------------------------------
# embedding


def test_embed_extract_round_trip():
  rng = random.Random(0)
  for n, p in ((1, 1), (2, 2), (3, 2), (2, 3)):
    blocks = rand_blocks(rng, n, p)
    big = embed_circulant(blocks)
    assert big.shape == (n * p, n * p)
    back = extract_blocks(big, n, p)
    assert all(mats_equal(a, b) for a, b in zip(blocks, back))
    assert has_circulant_pattern(big, n, p)


def test_embedding_block_layout():
  # block (i, j) carries x_{(i+j) mod n}: constant along anti-diagonals
  x0 = frac_matrix([[1]])
  x1 = frac_matrix([[2]])
  x2 = frac_matrix([[3]])
  big = embed_circulant((x0, x1, x2))
  assert big.tolist() == [[F(1), F(2), F(3)],
                          [F(2), F(3), F(1)],
                          [F(3), F(1), F(2)]]


def test_pattern_detector_rejects_perturbations():
  rng = random.Random(1)
  big = embed_circulant(rand_blocks(rng, 3, 2))
  assert has_circulant_pattern(big, 3, 2)
  big[5, 5] += 1
  assert not has_circulant_pattern(big, 3, 2)
  assert not has_circulant_pattern(np.zeros((4, 4), dtype=object), 3, 2)


# ---------------------------------------------------------------------------
# sandwich identities


def test_component_bracket_hand_oracle():
  # n=2, p=2: x = (E01, 0), y = (0, E10), a = (I, 0);
  # only (s, k) = (0, 1) contributes, with m = 1 - i, so z_0 = 0 and
  # z_1 = E01 E10 - E10 E01 = diag(1, -1)
  e01 = frac_matrix([[0, 1], [0, 0]])
  e10 = frac_matrix([[0, 0], [1, 0]])
  zero = zeros_matrix(2, 2)
  x = (e01, zero)
  y = (zero, e10)
  a = (identity_matrix(2), zero)
  z = component_bracket(x, a, y)
  assert mats_equal(z[0], zero)
  assert mats_equal(z[1], frac_matrix([[1, 0], [0, -1]]))
  z2 = bracket_sandwich(x, a, y)
  assert all(mats_equal(u, v) for u, v in zip(z, z2))


def test_scalar_blocks_commute_to_zero():
  # p = 1: everything is scalar, so every sandwich bracket vanishes
  rng = random.Random(3)
  x, a, y = (rand_blocks(rng, 3, 1) for _ in range(3))
  z = component_bracket(x, a, y)
  assert all(b[0, 0] == 0 for b in z)


def test_component_equals_sandwich_random():
  rng = random.Random(5)
  for n, p in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 3)):
    for _ in range(5):
      x, a, y = (rand_blocks(rng, n, p) for _ in range(3))
      lhs = component_bracket(x, a, y)
      rhs = bracket_sandwich(x, a, y)
      assert all(mats_equal(u, v) for u, v in zip(lhs, rhs))


def test_triple_products_preserve_pattern():
  # sandwich_product raises InternalCheckError if the pattern ever broke
  rng = random.Random(7)
  for _ in range(10):
    x, a, y = (rand_blocks(rng, 3, 2) for _ in range(3))
    sandwich_product(x, a, y)


def test_two_factor_products_do_not_preserve_pattern():
  # the closure is special to TRIPLE products: X A alone leaves the set for
  # n >= 3, which is why beta_map cannot simply return "the blocks of A X"
  # (n = 2 is degenerate: there (i+j) % 2 == (i-j) % 2, so two-factor
  # products happen to stay in pattern)
  rng = random.Random(11)
  x, a = rand_blocks(rng, 3, 2), rand_blocks(rng, 3, 2)
  prod = embed_circulant(x).dot(embed_circulant(a))
  assert not has_circulant_pattern(prod, 3, 2)
  x2, a2 = rand_blocks(rng, 2, 2), rand_blocks(rng, 2, 2)
  prod2 = embed_circulant(x2).dot(embed_circulant(a2))
  assert has_circulant_pattern(prod2, 2, 2)


def test_coboundary_identity_random():
  rng = random.Random(13)
  for n, p in ((1, 1), (2, 2), (3, 2), (2, 3)):
    for _ in range(5):
      x, a, y = (rand_blocks(rng, n, p) for _ in range(3))
      assert coboundary_identity_check(a, x, y)


def test_beta_map_identity_parameter():
  # for n <= 2 the parameter (I, 0, ...) embeds to the identity matrix, so
  # beta is the identity map; for n >= 3 the identity matrix is not in the
  # embedded set (its blocks are constant along anti-diagonals, never
  # diagonal), so no parameter makes beta trivial
  rng = random.Random(17)
  for n in (1, 2):
    x = rand_blocks(rng, n, 2)
    a = (identity_matrix(2),) + tuple(zeros_matrix(2, 2) for _ in range(n - 1))
    bx = beta_map(a, x)
    assert all(mats_equal(u, v) for u, v in zip(bx, x))
  a3 = (identity_matrix(2), zeros_matrix(2, 2), zeros_matrix(2, 2))
  assert not has_circulant_pattern(np.identity(6, dtype=object), 3, 2)
  x3 = rand_blocks(rng, 3, 2)
  bx3 = beta_map(a3, x3)
  assert not all(mats_equal(u, v) for u, v in zip(bx3, x3))


def test_antisymmetric_closure_under_symmetric_parameter():
  # antisym blocks, sym parameter: every component of the bracket is
  # antisymmetric again (transposing flips the triple products)
  rng = random.Random(19)
  for n, p in ((1, 3), (2, 3), (3, 3)):
    x = rand_antisym_blocks(rng, n, p)
    y = rand_antisym_blocks(rng, n, p)
    a = rand_sym_blocks(rng, n, p)
    for block in component_bracket(x, a, y):
      assert mats_equal(block, -block.T)


def test_component_bracket_matches_circulant_extension_on_so3():
  # scalar parameter blocks a_i = alpha_i * I specialize the sandwich
  # bracket to the circulant extension of so(3) in coordinates
  so3 = builtin_algebra("so(3)")
  pairs = [(0, 1), (0, 2), (1, 2)]

  def coords(mat):
    return tuple(mat[r, s] for r, s in pairs)

  rng = random.Random(23)
  for n in (1, 2, 3):
    alpha = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
    w = circulant_w(alpha)
    a = tuple(identity_matrix(3) * v for v in alpha)
    for _ in range(5):
      x = rand_antisym_blocks(rng, n, 3)
      y = rand_antisym_blocks(rng, n, 3)
      direct = component_bracket(x, a, y)
      via_w = extension_bracket(w, so3,
                                tuple(coords(b) for b in x),
                                tuple(coords(b) for b in y))
      for i in range(n):
        assert coords(direct[i]) == via_w[i]


# ---------------------------------------------------------------------------
# so(3)/sym(3) bundle


def test_bundle_at_identity_is_so3():
  c = so_sym_bundle(3, identity_matrix(3))
  assert c.table == builtin_algebra("so(3)").table


def test_bundle_diagonal_oracle():
  a = frac_matrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
  c = so_sym_bundle(3, a)
  assert c.table == {(0, 1): {2: F(-2)}, (0, 2): {1: F(3)},
                     (1, 2): {0: F(-5)}}
  assert validate_structure_constants(c).ok


def test_bundle_is_linear_in_the_parameter():
  rng = random.Random(29)
  for _ in range(10):
    u = rand_sym_blocks(rng, 1, 3)[0]
    v = rand_sym_blocks(rng, 1, 3)[0]
    direct = so_sym_bundle(3, u + v)
    summed = sum_bracket_table(so_sym_bundle(3, u), so_sym_bundle(3, v))
    assert direct.table == summed.table


def test_bundle_members_always_satisfy_jacobi():
  rng = random.Random(31)
  for _ in range(15):
    a = rand_sym_blocks(rng, 1, 3)[0]
    assert validate_structure_constants(so_sym_bundle(3, a)).ok
  # also in higher dimension
  a5 = rand_sym_blocks(rng, 1, 5)[0]
  c = so_sym_bundle(5, a5)
  assert c.dim == 10
  assert validate_structure_constants(c).ok


def test_bundle_parameter_validation():
  with pytest.raises(ValueError):
    so_sym_bundle(3, frac_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
  with pytest.raises(ValueError):
    so_sym_bundle(3, identity_matrix(2))
  with pytest.raises(ValueError):
    so_sym_bundle(1, identity_matrix(1))
  # the dimension p(p-1)/2 is refused before any work on the parameter
  big = identity_matrix(60)
  for p, a in ((12, identity_matrix(12)), (60, big), (60, big[:2, :2])):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"above the cap 64$"):
      so_sym_bundle(p, a)
    assert time.perf_counter() - start < 0.5


def test_bundle_is_the_coboundary_of_beta():
  # x a y - y a x = [x, b(y)] - [y, b(x)] - b([x, y]) with
  # b(x) = (a x + x a) / 2: the coboundary of beta_a on so(p), a second
  # formula for the bundle's table; beta_a's column j is b(B_j) in the
  # basis B_xy, read off at the positions x < y
  rng = random.Random(18)
  for k in range(60):
    p = 2 + k % 5
    a = rand_sym_blocks(rng, 1, p)[0]
    images = [(a.dot(m) + m.dot(a)) * F(1, 2)
              for m in so_matrix_basis(p).astype(object)]
    upper = [(x, y) for x in range(p) for y in range(x + 1, p)]
    beta = [[image[pos] for image in images] for pos in upper]
    assert so_sym_bundle(p, a) == coboundary_of_one_cochain(
        builtin_algebra(f"so({p})"), beta)


# ---------------------------------------------------------------------------
# seeded suite


def test_sandwich_suite_passes_and_is_deterministic():
  rep1 = sandwich_suite(2, 2, trials=8, seed=42)
  rep2 = sandwich_suite(2, 2, trials=8, seed=42)
  assert rep1 == rep2
  assert rep1.ok
  assert rep1.closure_ok == rep1.component_ok == rep1.coboundary_ok == 8


def test_sandwich_suite_validates_arguments():
  with pytest.raises(ValueError):
    sandwich_suite(0, 2, trials=1, seed=0)
  with pytest.raises(ValueError):
    sandwich_suite(2, 2, trials=0, seed=0)


# ---------------------------------------------------------------------------
# Fraction reference for the suite: per-entry draws, the n^2 block loop, the
# (s, k) double loop and beta with its factor 1/2, all on Fraction objects.


def oracle_draws(rng, n, p):
  out = []
  for _ in range(n):
    mat = np.empty((p, p), dtype=object)
    for r in range(p):
      for s in range(p):
        mat[r, s] = F(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))
    out.append(mat)
  return tuple(out)


def oracle_embed(blocks):
  n, p = len(blocks), blocks[0].shape[0]
  out = np.empty((n * p, n * p), dtype=object)
  for i in range(n):
    for j in range(n):
      out[i * p:(i + 1) * p, j * p:(j + 1) * p] = blocks[(i + j) % n]
  return out


def oracle_row(mat, n, p):
  return [mat[0:p, j * p:(j + 1) * p] for j in range(n)]


def oracle_component(x, a, y):
  n, p = len(x), x[0].shape[0]
  out = []
  for i in range(n):
    acc = zeros_matrix(p, p)
    for s in range(n):
      for k in range(n):
        am = a[(s + k - i) % n]
        acc = acc + x[s].dot(am).dot(y[k]) - y[k].dot(am).dot(x[s])
    out.append(acc)
  return out


def oracle_beta(ba, mat):
  return (ba.dot(mat) + mat.dot(ba)) * F(1, 2)


def oracle_coboundary(ba, bx, by):
  def comm(m1, m2):
    return m1.dot(m2) - m2.dot(m1)
  lhs = bx.dot(ba).dot(by) - by.dot(ba).dot(bx)
  rhs = (comm(bx, oracle_beta(ba, by)) - comm(by, oracle_beta(ba, bx)) -
         oracle_beta(ba, comm(bx, by)))
  return mats_equal(lhs, rhs)


def sandwich_oracle(n, p, trials, seed):
  rng = random.Random(seed)
  closure = component = coboundary = 0
  for _ in range(trials):
    x, a, y = (oracle_draws(rng, n, p) for _ in range(3))
    bx, ba, by = oracle_embed(x), oracle_embed(a), oracle_embed(y)
    prod = bx.dot(ba).dot(by)
    if mats_equal(prod, oracle_embed(oracle_row(prod, n, p))):
      closure += 1
    big = prod - by.dot(ba).dot(bx)
    if all(mats_equal(u, v) for u, v in
           zip(oracle_component(x, a, y), oracle_row(big, n, p))):
      component += 1
    if oracle_coboundary(ba, bx, by):
      coboundary += 1
  return SandwichSuiteReport(n=n, p=p, trials=trials, seed=seed,
                             closure_ok=closure, component_ok=component,
                             coboundary_ok=coboundary)


def test_sandwich_suite_matches_the_fraction_oracle():
  # n >= 3 included: there A X alone leaves the block pattern
  for n, p, trials in ((1, 1, 3), (1, 4, 2), (2, 2, 4), (3, 2, 3), (2, 3, 2),
                       (3, 3, 1), (4, 2, 2), (5, 1, 3)):
    for seed in (0, 1, 977):
      assert sandwich_suite(n, p, trials, seed) == sandwich_oracle(
          n, p, trials, seed)


def test_int64_draws_are_the_fraction_draws_over_12():
  # a given seed draws the same inputs as the Fraction suite did
  for n, p, seed in ((1, 1, 0), (2, 3, 5), (4, 4, 123456), (43, 1, 9)):
    ints, fracs = random.Random(seed), random.Random(seed)
    for _ in range(3):
      got = matrix_bundle._random_blocks(ints, n, p)
      assert got.dtype == np.int64 and got.shape == (n, p, p)
      want = oracle_draws(fracs, n, p)
      assert all(mats_equal(g.astype(object) * F(1, 12), w)
                 for g, w in zip(got, want))
    assert ints.random() == fracs.random()


def test_public_functions_on_sevenths_match_the_oracle():
  # denominators 7 do not divide 12: the public functions compute on
  # Fraction objects and return them
  rng = random.Random(71)
  for n, p in ((1, 2), (2, 2), (3, 2), (4, 1)):
    x, a, y = (rand_blocks(rng, n, p) for _ in range(3))
    x[0][0, 0] = F(1, 7)
    a[-1][p - 1, 0] = F(-3, 7)
    bx, ba, by = oracle_embed(x), oracle_embed(a), oracle_embed(y)
    assert mats_equal(embed_circulant(x), bx)
    big = bx.dot(ba).dot(by) - by.dot(ba).dot(bx)
    for got, want in ((sandwich_product(x, a, y),
                       oracle_row(bx.dot(ba).dot(by), n, p)),
                      (bracket_sandwich(x, a, y), oracle_row(big, n, p)),
                      (component_bracket(x, a, y), oracle_component(x, a, y)),
                      (beta_map(a, x), oracle_row(oracle_beta(ba, bx), n, p))):
      assert len(got) == n
      assert all(g.dtype == object and mats_equal(g, w)
                 for g, w in zip(got, want))
    assert coboundary_identity_check(a, x, y)
