"""Mu-spectrum, exact rank cross-check, DFT transform, classification."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebundle import (InternalCheckError, basis_vector, bracket_eval,
                       builtin_algebra, circulant_rank_exact, circulant_w,
                       classify_circulant, dft_inverse, dft_matrix,
                       diagonal_pattern_deviation, induced_structure_constants,
                       invalid_witness_w, mu_spectrum, slice_matrix,
                       spectrum_report_json, transform_w, wtensor_validate)
from liebundle.linalg import rank
from liebundle.spectral import _cyclotomic

F = Fraction


def rand_alpha(rng, n):
  return tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3)))
               for _ in range(n))


def test_mu_oracles():
  spec = mu_spectrum((F(1), F(1), F(1)))
  assert abs(spec.values[0] - 3) < 1e-12
  assert abs(spec.values[1]) < 1e-12 and abs(spec.values[2]) < 1e-12
  assert spec.zero_flags == (False, True, True)
  assert spec.zero_count == 2

  spec = mu_spectrum((F(0), F(1)))
  assert abs(spec.values[0] - 1) < 1e-12
  assert abs(spec.values[1] + 1) < 1e-12
  assert spec.zero_count == 0


def test_rank_oracles():
  assert circulant_rank_exact((F(1), F(1), F(1))) == 1
  assert circulant_rank_exact((F(1), F(1), F(0))) == 3
  assert circulant_rank_exact((F(0), F(0))) == 0
  assert circulant_rank_exact((F(1),)) == 1
  # alpha = (1, 1) has mu = (2, 0)
  assert circulant_rank_exact((F(1), F(1))) == 1


def poly_mul(a, b):
  out = [0] * (len(a) + len(b) - 1)
  for i, x in enumerate(a):
    for j, y in enumerate(b):
      out[i + j] += x * y
  return out


def planted_alpha(rng, n, factor):
  """A random multiple of ``factor`` reduced modulo x^n - 1, so it keeps
  every cyclotomic factor that ``factor`` shares with x^n - 1."""
  alpha = [0] * n
  product = poly_mul([rng.randint(-3, 3) for _ in range(n)], factor)
  for r, v in enumerate(product):
    alpha[r % n] += v
  den = rng.choice((1, 2, 3))
  return tuple(F(v, den) for v in alpha)


def test_cyclotomic_polynomials():
  for n in range(1, 65):
    product = [1]
    for d in range(1, n + 1):
      if n % d == 0:
        product = poly_mul(product, _cyclotomic(d))
    assert product == [-1] + [0] * (n - 1) + [1], n
    euler_phi = sum(gcd(k, n) == 1 for k in range(1, n + 1))
    assert len(_cyclotomic(n)) - 1 == euler_phi, n


def test_exact_rank_matches_the_circulant_matrix():
  # the cyclotomic count against Bareiss on the explicit n x n matrix
  rng = random.Random(2024)
  cases = [(F(0),) * n for n in (1, 2, 12, 60, 64)]
  cases += [(F(2**70), F(-2**70), F(3)), (F(2**70), F(2**70), F(-2**70))]
  for case in range(320):
    # many-divisor sizes every tenth case; Bareiss on a 64 x 64 matrix of
    # 2^70-sized entries takes over a second, so those stay at n <= 20
    n = rng.choice((60, 64)) if case % 10 == 0 else rng.randint(1, 40)
    g = rng.randint(1, n)
    kind = rng.randrange(3) if n > 20 else rng.randrange(5)
    if kind == 0:
      alpha = rand_alpha(rng, n)
    elif kind == 1:
      alpha = planted_alpha(rng, n, [-1] + [0] * (g - 1) + [1])
    elif kind == 2:
      alpha = planted_alpha(rng, n, [1, 1])
    elif kind == 3:
      alpha = tuple(F(rng.choice((0, 3, 2**70, -2**70))) for _ in range(n))
    else:
      alpha = tuple(F(rng.choice((0, 1, -1)) * 2**70 + rng.randint(-1, 1),
                      rng.choice((1, 7)))
                    for _ in range(n))
    cases.append(alpha)
  for alpha in cases:
    n = len(alpha)
    matrix = [[alpha[(j - i) % n] for j in range(n)] for i in range(n)]
    assert circulant_rank_exact(alpha) == rank(matrix), alpha
  assert circulant_rank_exact((F(2**70), F(-2**70), F(3))) == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.data())
def test_zero_count_matches_exact_rank(n, data):
  alpha = tuple(
      F(data.draw(st.integers(-4, 4)), data.draw(st.sampled_from((1, 2, 3))))
      for _ in range(n))
  spec = mu_spectrum(alpha)  # raises InternalCheckError on any mismatch
  assert spec.zero_count == n - circulant_rank_exact(alpha)
  assert sum(spec.zero_flags) == spec.zero_count


def test_near_singular_tolerance_mismatch_is_caught():
  # float flags call mu_0 ~ 1e-12 a zero at tol 1e-9, but the matrix is
  # exactly invertible: the dual route must refuse to return an answer
  alpha = (F(1), F(-1) + F(1, 10**12))
  with pytest.raises(InternalCheckError):
    mu_spectrum(alpha)
  with pytest.raises(InternalCheckError):
    classify_circulant(alpha)


def test_alpha_beyond_float64_range_is_bad_input():
  # an exact answer exists, but the spectrum it reports cannot be printed
  for alpha in ((F(1), F(10**400)), (F(-10**400, 3),)):
    with pytest.raises(ValueError, match="beyond float64's range"):
      mu_spectrum(alpha)


def test_tolerance_is_validated():
  with pytest.raises(ValueError):
    mu_spectrum((F(1), F(0)), tol=0.0)
  with pytest.raises(ValueError):
    mu_spectrum((F(1), F(0)), tol=1.5)
  with pytest.raises(ValueError):
    mu_spectrum((F(1), F(0)), tol=-1e-9)


def test_dft_matrices_are_mutually_inverse():
  for n in (1, 2, 3, 5, 8, 16):
    om, om_inv = dft_matrix(n), dft_inverse(n)
    assert om.shape == om_inv.shape == (n, n)
    assert abs(om_inv @ om - np.eye(n)).max() < 1e-12
    assert abs(om @ om_inv - np.eye(n)).max() < 1e-12


def test_transform_diagonalizes_circulants():
  rng = random.Random(31)
  for n in (1, 2, 3, 7, 12, 16):
    alpha = rand_alpha(rng, n)
    spec = mu_spectrum(alpha)
    t = transform_w(circulant_w(alpha))
    assert t.shape == (n, n, n)
    assert diagonal_pattern_deviation(t, spec) <= 1e-9
    for k in range(n):
      assert abs(t[k, k, k] - spec.values[k]) <= 1e-9


def test_transform_of_noncirculant_deviates():
  # the witness tensor is not circulant; its transform is far from diagonal
  w = invalid_witness_w()
  t = transform_w(w)
  spec = mu_spectrum((F(1), F(0)))
  assert diagonal_pattern_deviation(t, spec) > 0.1


def test_slices_diagonalize_in_the_fourier_basis():
  # om_inv @ W^(p) @ om = diag(omega^{kp} mu_k), omega = exp(2 pi i / n)
  rng = random.Random(7)
  for n in (2, 3, 5, 9):
    alpha = rand_alpha(rng, n)
    spec = mu_spectrum(alpha)
    w = circulant_w(alpha)
    om, om_inv = dft_matrix(n), dft_inverse(n)
    omega = np.exp(2j * np.pi / n)
    for p in range(n):
      sl = np.array([[complex(v) for v in row]
                     for row in slice_matrix(w, p)])
      d = om_inv @ sl @ om
      expected = np.diag([omega ** (k * p) * spec.values[k]
                          for k in range(n)])
      assert abs(d - expected).max() < 1e-9


def test_circulant_slices_commute():
  # the circulant slices commute pairwise; the witness's do not
  rng = random.Random(77)
  for n in (1, 2, 4, 6):
    assert wtensor_validate(circulant_w(rand_alpha(rng, n)),
                            cross_check=True).ok
  report = wtensor_validate(invalid_witness_w(), cross_check=True)
  assert (report.ok, report.failure) == (False, "quadratic")


def test_classify_oracles():
  cls = classify_circulant((F(1), F(1), F(1)))
  assert (cls.n, cls.m_nonabelian, cls.n_abelian) == (3, 1, 2)
  cls = classify_circulant((F(1), F(1), F(0)))
  assert (cls.n, cls.m_nonabelian, cls.n_abelian) == (3, 3, 0)
  cls = classify_circulant((F(0), F(0)))
  assert (cls.m_nonabelian, cls.n_abelian) == (0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_classify_parts_sum_to_n(n, data):
  alpha = tuple(F(data.draw(st.integers(-3, 3))) for _ in range(n))
  cls = classify_circulant(alpha)
  assert cls.m_nonabelian + cls.n_abelian == n
  assert cls.m_nonabelian == circulant_rank_exact(alpha)


def test_derived_subalgebra_dimension_is_three_m():
  # over sl2 the extension splits (after diagonalization) into m nonabelian
  # pieces and n - m abelian ones; the derived subalgebra has dim 3m, and
  # rank is invariant under the field extension, so the rational computation
  # must agree with the complex-diagonalized count
  sl2 = builtin_algebra("sl2")
  cases = [(F(1), F(1), F(1)), (F(1), F(1), F(0)), (F(1), F(0)),
           (F(2), F(1), F(1), F(1)), (F(0), F(0), F(1))]
  rng = random.Random(41)
  cases += [rand_alpha(rng, n) for n in (2, 3, 4)]
  for alpha in cases:
    n = len(alpha)
    m = classify_circulant(alpha).m_nonabelian
    ind = induced_structure_constants(circulant_w(alpha), sl2)
    rows = []
    for u in range(ind.dim):
      for v in range(u + 1, ind.dim):
        rows.append(bracket_eval(ind, basis_vector(ind.dim, u),
                                 basis_vector(ind.dim, v)))
    assert rank(rows) == 3 * m, (alpha, m)


def test_spectrum_report_json_shape():
  doc = spectrum_report_json(classify_circulant((F(0), F(1))))
  assert doc == {"n": 2, "mu": [{"re": 1.0, "im": 0.0},
                                {"re": -1.0, "im": 0.0}],
                 "zero_count": 0, "m_nonabelian": 2}
