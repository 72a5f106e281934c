"""W-tensor families, validation routes, truncation, extensions, JSON."""

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebundle import (InternalCheckError, JacobiReport, SizeCapError, WTensor,
                       WValidationReport, builtin_algebra, circulant_w,
                       compatibility_check, direct_sum_w, extension_bracket,
                       filtration_support_check, gn_basis,
                       induced_structure_constants, invalid_witness_w,
                       jacobi_certify, leibnitz_deform, leibnitz_w,
                       make_wtensor, max_abelian_filtration_ideal,
                       pencil_bracket, semisimple_form_check, slice_matrix,
                       truncate_to_solvable, validate_structure_constants,
                       wtensor_from_json, wtensor_to_json, wtensor_validate)
from liebundle import (center_basis, make_structure_constants, so_sym_bundle,
                       wtensor)
from liebundle.linalg import identity_matrix, mats_equal, nullspace
from liebundle.wtensor import MAX_N, _SLICE_BLOCK

F = Fraction

LAMBDA_SET = (F(0), F(1), F(-1), F(1, 2), F(7, 3))


def rand_alpha(rng, n):
  return tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
               for _ in range(n))


# ---------------------------------------------------------------------------
# families and validation


def test_family_validity_small():
  for n in range(1, 6):
    assert wtensor_validate(direct_sum_w(n), cross_check=True).ok
    assert wtensor_validate(leibnitz_w(n), cross_check=True).ok
    for lam in LAMBDA_SET:
      assert wtensor_validate(leibnitz_deform(n, lam), cross_check=True).ok
  rng = random.Random(11)
  for n in range(1, 6):
    for _ in range(5):
      w = circulant_w(rand_alpha(rng, n))
      assert wtensor_validate(w, cross_check=True).ok


def test_deformation_endpoints_entrywise():
  for n in range(1, 9):
    e0 = tuple(F(1) if i == 0 else F(0) for i in range(n))
    assert leibnitz_deform(n, 1).entries == circulant_w(e0).entries
    assert leibnitz_deform(n, 0).entries == leibnitz_w(n).entries


def test_witness_fails_both_routes():
  wit = invalid_witness_w()
  rep = wtensor_validate(wit)
  assert rep.failure == "quadratic"
  assert rep.indices == (0, 0, 1, 1)
  assert rep.residual == F(-1)
  # the cross-check path must agree, not raise
  rep2 = wtensor_validate(wit, cross_check=True)
  assert (rep2.ok, rep2.indices, rep2.residual) == (False, (0, 0, 1, 1), F(-1))


def test_symmetry_violation_reported_first():
  w = make_wtensor(2, {(0, 1, 0): 1})  # one-sided entry
  rep = wtensor_validate(w, cross_check=True)
  assert rep.failure == "symmetry"
  assert rep.indices == (0, 1, 0)
  assert rep.residual == F(1)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.data())
def test_validation_routes_agree_on_random_tensors(n, data):
  entries = {}
  for i in range(n):
    for j in range(i, n):
      for s in range(n):
        v = data.draw(st.sampled_from((-1, 0, 1)))
        if v:
          entries[(i, j, s)] = v
          entries[(j, i, s)] = v
  w = make_wtensor(n, entries)
  # cross_check raises InternalCheckError on any route disagreement
  wtensor_validate(w, cross_check=True)


def test_validate_is_scale_invariant():
  rng = random.Random(5)
  for _ in range(10):
    n = rng.randint(1, 4)
    a = rand_alpha(rng, n)
    w = circulant_w(a)
    scaled = make_wtensor(n, {k: F(7, 3) * v for k, v in w.entries.items()})
    assert wtensor_validate(scaled, cross_check=True).ok


def test_make_wtensor_bounds():
  with pytest.raises(ValueError):
    make_wtensor(0, {})
  with pytest.raises(ValueError):
    make_wtensor(65, {})
  with pytest.raises(ValueError):
    make_wtensor(2, {(0, 1, 2): 1})
  with pytest.raises(ValueError):
    make_wtensor(True, {})
  # zero values are dropped
  assert make_wtensor(2, {(0, 0, 0): 0}).entries == {}


# ---------------------------------------------------------------------------
# slices


def test_slice_placement():
  # W^{kj}_i sits at slice_matrix(w, k)[i, j]
  w = make_wtensor(3, {(1, 2, 0): "5/2", (2, 1, 0): "5/2"})
  sl = slice_matrix(w, 1)
  assert sl[0, 2] == F(5, 2)
  assert slice_matrix(w, 2)[0, 1] == F(5, 2)
  assert slice_matrix(w, 0).tolist() == [[0] * 3] * 3


def test_direct_sum_slices_are_unit_matrices():
  w = direct_sum_w(3)
  for k in range(3):
    sl = slice_matrix(w, k)
    for i in range(3):
      for j in range(3):
        assert sl[i, j] == (1 if i == j == k else 0)


def test_leibnitz_slice_zero_is_identity_rest_nilpotent():
  w = leibnitz_w(4)
  assert mats_equal(slice_matrix(w, 0), identity_matrix(4))
  for k in range(1, 4):
    sl = slice_matrix(w, k)
    # shift by k: ones exactly on the k-th subdiagonal
    for i in range(4):
      for j in range(4):
        assert sl[i, j] == (1 if i == j + k else 0)


def test_circulant_slices_match_closed_form():
  # slice s of the circulant is M[i][j] = alpha_{(s+j-i) mod n}
  rng = random.Random(2)
  for n in (1, 2, 3, 5):
    a = rand_alpha(rng, n)
    w = circulant_w(a)
    for s in range(n):
      sl = slice_matrix(w, s)
      for i in range(n):
        for j in range(n):
          assert sl[i, j] == a[(s + j - i) % n]
  with pytest.raises(ValueError):
    slice_matrix(circulant_w((1, 0)), 2)


def direct_oracle(w):
  """Quadratic identity by a Fraction loop over (i, s, q, p) in order:
  sum_k W^{sk}_i W^{qp}_k - W^{qk}_i W^{sp}_k, first nonzero reported."""
  n = w.n
  dense = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
  for (i, j, s), v in w.entries.items():
    dense[i][j][s] = v
  for i in range(n):
    for s in range(n):
      for q in range(n):
        for p in range(n):
          acc = sum((dense[s][k][i] * dense[q][p][k] -
                     dense[q][k][i] * dense[s][p][k] for k in range(n)), F(0))
          if acc != 0:
            return WValidationReport(ok=False, failure="quadratic",
                                     indices=(i, s, q, p), residual=acc)
  return WValidationReport(ok=True)


def test_direct_route_matches_fraction_oracle():
  # wtensor_validate(cross_check=True) raises unless the two routes agree;
  # the report must also equal the Fraction loop (symmetric W only: a
  # symmetry failure is reported before either quadratic route runs)
  rng = random.Random(11)
  big = 2**63 + 1
  seen = set()
  for trial in range(240):
    n = rng.randint(1, 5)
    kind = ("symmetric", "one-sided", "fractional", "zero", "big")[trial % 5]
    entries = {}
    for _ in range(0 if kind == "zero" else rng.randint(1, 3 * n)):
      i, j, s = (rng.randrange(n) for _ in range(3))
      v = {"fractional": F(rng.randint(-5, 5), rng.randint(1, 6)),
           "big": rng.choice((-big, big, 2 * big))}.get(kind,
                                                       rng.randint(-2, 2))
      entries[(i, j, s)] = v
      if kind != "one-sided":
        entries[(j, i, s)] = v
    w = make_wtensor(n, entries)
    report = wtensor_validate(w, cross_check=True)
    if report.failure != "symmetry":
      assert report == direct_oracle(w)
    seen.add((kind, report.ok, report.failure))
  for kind in ("symmetric", "fractional", "big"):
    assert (kind, True, None) in seen and (kind, False, "quadratic") in seen
  assert ("one-sided", False, "symmetry") in seen
  assert ("zero", True, None) in seen
  # slice 0 meets the q in 1.._SLICE_BLOCK in its first block and the larger q
  # in later blocks; the first violation lies in a later block, behind a
  # violation with a larger i in the first block
  for trial in range(6):
    n = _SLICE_BLOCK + 2 + trial % 3
    q1 = rng.randint(1, _SLICE_BLOCK)
    q2 = rng.randint(_SLICE_BLOCK + 1, n - 1)
    pool = [k for k in range(1, n) if k not in (q1, q2)]
    x2, x1 = sorted(rng.sample(pool, 2))
    a1, a2 = rng.sample([k for k in pool if k not in (x1, x2)], 2)
    v1, v2 = (F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
              for _ in range(2))
    first_block = planted_w(n, [(x1, a1, q1, v1)])
    assert wtensor_validate(first_block).indices == (x1, 0, q1, q1)
    w = planted_w(n, [(x1, a1, q1, v1), (x2, a2, q2, v2)])
    report = wtensor_validate(w, cross_check=True)
    assert report == direct_oracle(w)
    assert (report.indices, report.residual) == ((x2, 0, q2, q2), v2)


def planted_w(n, chains):
  """Symmetric W whose only commutator entries with s < q are
  (x, 0, q, q) = value, one per chain (x, a, q, value): W^{0a}_x = W^{a0}_x = 1
  and W^{qq}_a = value.  The indices x, a, q of all chains must be nonzero
  and distinct, so that no two chains meet."""
  entries = {}
  for x, a, q, value in chains:
    entries[(0, a, x)] = entries[(a, 0, x)] = 1
    entries[(q, q, a)] = value
  return make_wtensor(n, entries)


def bd_minus_fc(b, c, d, f):
  """Symmetric n = 2 tensor with slices S_0 = [[0, b], [c, d]] and
  S_1 = [[b, f], [d, 0]]; entry (0, 0) of their commutator is bd - fc."""
  return make_wtensor(2, {(0, 1, 0): b, (1, 0, 0): b, (0, 0, 1): c,
                          (0, 1, 1): d, (1, 0, 1): d, (1, 1, 0): f})


def test_exactness_bound_of_the_float64_route(monkeypatch):
  # integers below 2^53 are exact in float64; every product and partial sum
  # of a commutator or residual entry is at most 2*n*M^2 (M the largest
  # cleared entry), so W takes the float64 route below that bound and object
  # arrays above it
  dtypes = []
  slices = wtensor._validate_by_slices
  monkeypatch.setattr(wtensor, "_validate_by_slices", lambda dense, scale: (
      dtypes.append(dense.dtype) or slices(dense, scale)))

  m = 2**27  # (m + 1)^2 - m(m + 2) = 1, but (m + 1)^2 rounds to m(m + 2)
  top = isqrt(2**51)  # 2*2*top^2 < 2^53 <= 2*2*(top + 1)^2
  for w, dtype in ((bd_minus_fc(m + 1, m + 2, m + 1, m), object),
                   (bd_minus_fc(top - 1, top, top - 1, top - 2), np.float64)):
    for cross_check in (False, True):
      report = wtensor_validate(w, cross_check=cross_check)
      assert report == direct_oracle(w)
      assert (report.indices, report.residual) == ((0, 0, 1, 0), 1)
    assert dtypes == [dtype, dtype]
    dtypes.clear()
  # the symmetry scan reads the same copy: 2^60 + 1 and 2^60 are one float
  one_sided = make_wtensor(2, {(0, 1, 0): 2**60 + 1, (1, 0, 0): 2**60})
  assert wtensor_validate(one_sided) == WValidationReport(
      ok=False, failure="symmetry", indices=(0, 1, 0), residual=F(1))


# ---------------------------------------------------------------------------
# truncation and solvable-form checks


def test_truncate_leibnitz_oracle():
  t = truncate_to_solvable(leibnitz_w(4))
  assert t.n == 3
  assert t.entries == {(0, 0, 1): F(1), (0, 1, 2): F(1), (1, 0, 2): F(1)}
  assert wtensor_validate(t, cross_check=True).ok


def test_truncate_preserves_validity_for_nonwrapping_families():
  for n in range(2, 7):
    assert wtensor_validate(truncate_to_solvable(direct_sum_w(n))).ok
    assert wtensor_validate(truncate_to_solvable(leibnitz_w(n))).ok
    assert wtensor_validate(
        truncate_to_solvable(leibnitz_deform(n, 0))).ok


def test_truncated_circulant_counterexample():
  # truncation does NOT preserve validity in general: cutting index 0 from
  # the wrap-around family breaks the quadratic identity
  w = circulant_w((F(1), F(0), F(0)))
  assert wtensor_validate(w).ok
  t = truncate_to_solvable(w)
  rep = wtensor_validate(t, cross_check=True)
  assert not rep.ok
  assert rep.failure == "quadratic"
  assert rep.indices == (0, 0, 1, 0)
  assert rep.residual == F(-1)


def test_truncate_preconditions():
  with pytest.raises(ValueError):
    truncate_to_solvable(direct_sum_w(1))
  with pytest.raises(ValueError):
    truncate_to_solvable(invalid_witness_w())


def test_filtration_support():
  assert filtration_support_check(truncate_to_solvable(leibnitz_w(4)))
  assert filtration_support_check(truncate_to_solvable(leibnitz_w(8)))
  assert not filtration_support_check(leibnitz_w(3))   # W^{00}_0 = 1
  assert not filtration_support_check(direct_sum_w(3))
  assert filtration_support_check(make_wtensor(3, {}))


def test_max_abelian_filtration_ideal_oracles():
  assert max_abelian_filtration_ideal(truncate_to_solvable(leibnitz_w(4))) == 1
  assert max_abelian_filtration_ideal(leibnitz_w(3)) == 2
  assert max_abelian_filtration_ideal(make_wtensor(3, {})) == 0
  assert max_abelian_filtration_ideal(direct_sum_w(3)) == 3


def test_max_abelian_ideal_is_abelian_and_maximal():
  for w in (leibnitz_w(4), truncate_to_solvable(leibnitz_w(5)),
            direct_sum_w(3)):
    k = max_abelian_filtration_ideal(w)
    assert all(not (i >= k and j >= k) for (i, j, s) in w.entries)
    if k > 0:
      assert any(i >= k - 1 and j >= k - 1 for (i, j, s) in w.entries)


def test_semisimple_form_check():
  for n in range(1, 6):
    assert semisimple_form_check(leibnitz_w(n))
    assert semisimple_form_check(leibnitz_deform(n, 0))
  assert semisimple_form_check(direct_sum_w(1))
  assert not semisimple_form_check(direct_sum_w(2))
  assert not semisimple_form_check(circulant_w((1, 0, 0)))  # wrap slices
  assert not semisimple_form_check(leibnitz_deform(3, F(1, 2)))
  assert not semisimple_form_check(invalid_witness_w())


# ---------------------------------------------------------------------------
# extension brackets and certification


def test_extension_bracket_oracles():
  sl2 = builtin_algebra("sl2")
  h = gn_basis(2, 3, 0, 0)
  e_both = ((F(0), F(1), F(0)), (F(0), F(1), F(0)))
  # leibnitz: [x, y]_s collects [x_i, y_j] into component i+j
  z = extension_bracket(leibnitz_w(2), sl2, h, e_both)
  assert z == ((F(0), F(2), F(0)), (F(0), F(2), F(0)))
  # direct sum: componentwise
  x = ((F(1), F(0), F(0)), (F(1), F(0), F(0)))          # (h, h)
  y = ((F(0), F(1), F(0)), (F(0), F(0), F(1)))          # (e, f)
  z = extension_bracket(direct_sum_w(2), sl2, x, y)
  assert z == ((F(0), F(2), F(0)), (F(0), F(0), F(-2)))


def test_extension_bracket_antisymmetry():
  rng = random.Random(9)
  sl2 = builtin_algebra("sl2")
  w = circulant_w(rand_alpha(rng, 3))
  for _ in range(10):
    x = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
    y = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
    zxy = extension_bracket(w, sl2, x, y)
    zyx = extension_bracket(w, sl2, y, x)
    assert all(a == -b for row_a, row_b in zip(zxy, zyx)
               for a, b in zip(row_a, row_b))


def test_gn_basis():
  b = gn_basis(2, 3, 1, 2)
  assert b == ((F(0),) * 3, (F(0), F(0), F(1)))
  with pytest.raises(ValueError):
    gn_basis(2, 3, 2, 0)


def test_induced_constants_product_formula():
  sl2 = builtin_algebra("sl2")
  ind = induced_structure_constants(leibnitz_w(2), sl2)
  assert ind.dim == 6
  # block (0,0) reproduces sl2 in component 0
  assert ind.table[(0, 1)] == {1: F(2)}
  assert ind.table[(1, 2)] == {0: F(1)}
  # cross block (0,1) lands in component 1: [h_0, e_1] = 2 e_1
  assert ind.table[(0, 4)] == {4: F(2)}
  # [e_0, f_1] = h_1; [e_0, h_1] = -2 e_1
  assert ind.table[(1, 5)] == {3: F(1)}
  assert ind.table[(1, 3)] == {4: F(-2)}
  # block (1,1) is dead: W^{11}_s = 0
  assert (3, 4) not in ind.table and (3, 5) not in ind.table


def induced_oracle(w, c):
  """The induced table by the per-entry Fraction loop it was first built
  with: the u < v brackets, summed over W's entries and G's brackets."""
  n, d = w.n, c.dim
  brackets = {}
  for (i, j, s), wv in w.entries.items():
    for (a, b), coeffs in c.table.items():
      for x, y, sign in ((a, b, wv), (b, a, -wv)):  # c_ba = -c_ab
        if i * d + x < j * d + y:
          inner = brackets.setdefault((i * d + x, j * d + y), {})
          for e, q in coeffs.items():
            inner[s * d + e] = inner.get(s * d + e, 0) + sign * q
  return make_structure_constants(n * d, brackets)


def center_oracle(c):
  """The center from a Fraction system built off the table."""
  d = c.dim
  system = [[F(0)] * d for _ in range(d * d)]
  for (a, b), coeffs in c.table.items():
    for e, v in coeffs.items():
      system[b * d + e][a] += v
      system[a * d + e][b] -= v
  return nullspace(system)


def test_induced_table_matches_the_fraction_loop():
  rng = random.Random(77)
  bundle = so_sym_bundle(3, [[F(1, 2), 0, F(1, 3)], [0, 2, 0],
                             [F(1, 3), 0, F(-3, 4)]])
  algebras = [builtin_algebra(x) for x in ("sl2", "heisenberg3", "gl(2)",
                                           "so(4)")] + [bundle]
  big = [make_wtensor(2, {(0, 1, 0): x, (1, 0, 0): x, (1, 1, 1): F(1, 3)})
         for x in (2**62, 2**70)]
  big.append(make_wtensor(2, {(0, 1, 1): 2**62, (0, 0, 0): 1}))  # one-sided
  seen = set()
  for g in algebras:
    for n in (1, 2, 3):
      for w in random_certify_tensors(rng, n) + big:
        got = induced_structure_constants(w, g)
        want = induced_oracle(w, g)
        assert got == want and got.table == want.table, (w, g.name)
        assert center_basis(got) == center_oracle(want), (w, g.name)
        seen.add((got.dense.dtype, w.scale > 1 or g.scale > 1,
                  w == make_wtensor(w.n, {(j, i, s): v for (i, j, s), v
                                          in w.entries.items()})))
  # int64 and Python-integer tables, fractional ones, symmetric and not
  assert {x[0] for x in seen} == {np.dtype(np.int64), np.dtype(object)}
  assert {x[1] for x in seen} == {x[2] for x in seen} == {True, False}


def test_certify_families_and_routes_agree():
  algebras = [builtin_algebra(x) for x in ("sl2", "so3", "heisenberg3")]
  rng = random.Random(21)
  ws = []
  for n in (1, 2, 3):
    ws += [direct_sum_w(n), leibnitz_w(n), circulant_w(rand_alpha(rng, n)),
           leibnitz_deform(n, F(7, 3))]
  for w in ws:
    for g in algebras:
      rep = jacobi_certify(w, g)
      assert rep.ok, (w, g.name, rep)
      ind = validate_structure_constants(induced_structure_constants(w, g))
      assert ind.ok


def test_certify_witness_fails_identically_on_both_routes():
  wit = invalid_witness_w()
  sl2 = builtin_algebra("sl2")
  rep = jacobi_certify(wit, sl2)
  assert not rep.ok
  assert rep.violation == (0, 3, 4, 1)
  assert rep.residual == F(4)
  ind = validate_structure_constants(induced_structure_constants(wit, sl2))
  assert (ind.violation, ind.residual) == (rep.violation, rep.residual)


def test_invalid_tensor_can_escape_detection_on_degenerate_algebras():
  # universality quantifies over all G; a single 2-step nilpotent G cannot
  # witness the failure because all nested brackets [[.,.],.] vanish
  wit = invalid_witness_w()
  h3 = builtin_algebra("heisenberg3")
  assert jacobi_certify(wit, h3).ok
  assert validate_structure_constants(
      induced_structure_constants(wit, h3)).ok
  assert not wtensor_validate(wit).ok  # the tensor itself is still invalid


def certify_oracle(w, c):
  """Jacobi residual of the extension bracket, one extension_bracket call
  per term: [[u, v], t] + [[v, t], u] - [[u, t], v] over u < v < t."""
  n, d = w.n, c.dim
  nd = n * d
  basis = [gn_basis(n, d, *divmod(u, d)) for u in range(nd)]
  pair = {(u, v): extension_bracket(w, c, basis[u], basis[v])
          for u in range(nd) for v in range(u + 1, nd)}
  for u in range(nd):
    for v in range(u + 1, nd):
      for t in range(v + 1, nd):
        term1 = extension_bracket(w, c, pair[(u, v)], basis[t])
        term2 = extension_bracket(w, c, pair[(v, t)], basis[u])
        term3 = extension_bracket(w, c, pair[(u, t)], basis[v])
        for s in range(n):
          for e in range(d):
            r = term1[s][e] + term2[s][e] - term3[s][e]
            if r != 0:
              return JacobiReport(ok=False, violation=(u, v, t, s * d + e),
                                  residual=r)
  return JacobiReport(ok=True)


def random_certify_tensors(rng, n):
  """Symmetric and one-sided (asymmetric) tensors, valid and invalid, with
  fractional entries."""
  valid = [circulant_w(rand_alpha(rng, n)),
           leibnitz_deform(n, rng.choice(LAMBDA_SET))]
  entries = {}
  for _ in range(rng.randint(1, 2 * n)):
    i, j, s = (rng.randrange(n) for _ in range(3))
    entries[(i, j, s)] = entries[(j, i, s)] = F(rng.randint(-4, 4),
                                                rng.randint(1, 3))
  out = valid + [make_wtensor(n, entries)]
  for w in (valid[0], make_wtensor(n, entries)):
    off = [key for key in w.entries if key[0] != key[1]]
    if off:  # drop one side of a mirror pair
      one_sided = dict(w.entries)
      del one_sided[rng.choice(off)]
      out.append(make_wtensor(n, one_sided))
  return out


def test_certify_matches_extension_bracket_oracle():
  rng = random.Random(2024)
  algebras = [builtin_algebra(x) for x in ("sl2", "so3", "heisenberg3",
                                           "gl(2)")]
  seen = set()
  for g in algebras:
    for n in range(1, 12 // g.dim + 1):
      for w in random_certify_tensors(rng, n):
        rep = jacobi_certify(w, g)
        assert rep == certify_oracle(w, g), (w, g.name)
        symmetric = all(w.entries.get((j, i, s)) == v
                        for (i, j, s), v in w.entries.items())
        seen.add((symmetric, rep.ok))
  assert seen == {(True, True), (True, False), (False, True), (False, False)}
  # the first violation of most tensors does not tell A(ikj) from A(ijk);
  # these tensors need both
  for entries in ({(0, 2, 1): 1, (2, 0, 1): 1, (1, 1, 0): 1},
                  {(0, 1, 2): 1, (1, 0, 2): 1, (2, 2, 2): 1}):
    w = make_wtensor(3, entries)
    for g in algebras[:2]:
      assert jacobi_certify(w, g) == certify_oracle(w, g), (w, g.name)


def test_certify_entries_beyond_int64():
  sl2 = builtin_algebra("sl2")
  big = F(2**63 + 1)
  witness = make_wtensor(2, {(0, 1, 0): big, (1, 0, 0): big})  # scaled
  for w in (make_wtensor(2, {(0, 0, 0): big, (1, 1, 1): 1}),  # valid
            witness,
            make_wtensor(2, {(0, 1, 1): big, (0, 0, 0): 1})):  # one-sided
    assert jacobi_certify(w, sl2) == certify_oracle(w, sl2)
  rep = jacobi_certify(witness, sl2)
  assert rep.violation == (0, 3, 4, 1) and rep.residual == 4 * big**2
  # over an abelian G every product vanishes, but W's entries must still
  # convert: 2^1100 is beyond float64's range
  assert jacobi_certify(make_wtensor(2, {(0, 0, 0): 2**1100}),
                        builtin_algebra("abelian(2)")).ok


def test_certify_cross_checks_the_table_for_symmetric_w(monkeypatch):
  sl2 = builtin_algebra("sl2")
  wrong = JacobiReport(ok=False, violation=(0, 1, 2, 0), residual=F(1))
  monkeypatch.setattr("liebundle.wtensor._certify_induced",
                      lambda wd, cd, scale: wrong)
  with pytest.raises(InternalCheckError):
    jacobi_certify(direct_sum_w(2), sl2)
  # an asymmetric W has no table route, so the wrong table is never asked
  one_sided = make_wtensor(2, {(0, 1, 1): 1, (0, 0, 0): 1})
  assert jacobi_certify(one_sided, sl2) == certify_oracle(one_sided, sl2)


@pytest.fixture
def induced_route(monkeypatch):
  """(dtype, report) of every call of certify's dense induced-table route."""
  calls = []
  route = wtensor._certify_induced

  def record(wd, cd, scale):
    report = route(wd, cd, scale)
    calls.append((wd.dtype, report))
    return report

  monkeypatch.setattr(wtensor, "_certify_induced", record)
  return calls


def table_scan(w, c):
  return validate_structure_constants(induced_structure_constants(w, c))


def test_induced_route_matches_the_table_scan(induced_route):
  rng = random.Random(36)
  algebras = [builtin_algebra(x) for x in ("sl2", "so3", "heisenberg3",
                                           "gl(2)", "so(4)")]
  seen = set()
  for g in algebras:
    for n in sorted({1, 2, 3, rng.randint(4, 36 // g.dim), 36 // g.dim}):
      entries = {}
      for _ in range(rng.randint(1, 2 * n)):
        i, j, s = (rng.randrange(n) for _ in range(3))
        entries[(i, j, s)] = entries[(j, i, s)] = rng.randint(-3, 3) or 1
      tensors = [make_wtensor(n, entries)] + [
          w for w in random_certify_tensors(rng, n)
          if all(w.entries.get((j, i, s)) == v
                 for (i, j, s), v in w.entries.items())]
      for w in tensors:
        rep = jacobi_certify(w, g)
        assert induced_route[-1] == (np.float64, rep) and rep == table_scan(
            w, g), (w, g.name)
        seen.add("pass" if rep.ok else "u > 0" if rep.violation[0] else "u = 0")
  # the stored witness moved to blocks x < y: no violation before block x
  # (over heisenberg3, which is 2-step nilpotent, it has none)
  for x, y, n in ((1, 2, 3), (2, 3, 4), (1, 3, 5), (3, 4, 5)):
    w = make_wtensor(n, {(x, y, x): 1, (y, x, x): 1})
    for g in algebras[:2] + algebras[3:]:
      rep = jacobi_certify(w, g)
      assert induced_route[-1][1] == rep == table_scan(w, g), (w, g.name)
      assert rep.violation[0] >= x * g.dim
  assert seen == {"pass", "u = 0", "u > 0"}


def test_exactness_bound_of_the_induced_route(induced_route):
  # a Jacobiator entry of the induced table sums 3*n*d products of two table
  # entries, each at most Mw*Mc: float64 below 3*n*d*(Mw*Mc)^2 < 2^53, int64
  # below 2^62, object arrays from there on
  gl2 = builtin_algebra("gl(2)")  # Mc = 1, n*d = 8
  m = 2**27  # (m + 1)^2 - m(m + 2) = 1, but (m + 1)^2 rounds to m(m + 2)
  cases = [(bd_minus_fc(m + 1, m + 2, m + 1, m), np.int64)]
  for bits, below, above in ((53, np.float64, np.int64), (62, np.int64, object)):
    top = isqrt((2**bits - 1) // 24)  # 24*top^2 < 2^bits <= 24*(top + 1)^2
    cases += [(bd_minus_fc(top - 1, top, top - 1, top - 2), below),
              (bd_minus_fc(top, top + 1, top, top - 1), above)]
  for w, dtype in cases:
    rep = jacobi_certify(w, gl2)
    assert induced_route[-1] == (dtype, rep) and rep == table_scan(w, gl2)
    assert (rep.violation, rep.residual) == ((0, 1, 4, 1), 1)


def test_valid_tensors_certify_over_every_algebra():
  # a W that passes validation gives a Lie bracket on G^n for every G
  rng = random.Random(64)
  for name in ("sl2", "so3", "heisenberg3", "abelian(2)", "gl(2)", "so(4)",
               "gl(3)", "so(5)", "gl(4)"):
    g = builtin_algebra(name)
    for n in sorted({1, 2, 3, 36 // g.dim}):
      for w in (direct_sum_w(n), leibnitz_w(n), circulant_w(rand_alpha(rng, n)),
                leibnitz_deform(n, rng.choice(LAMBDA_SET))):
        assert wtensor_validate(w).ok
        assert jacobi_certify(w, g).ok, (w, name)
  # dense circulants at the cap n*d <= 64
  for name, n in (("sl2", 21), ("so(5)", 6), ("gl(8)", 1)):
    w = circulant_w(rand_alpha(rng, n))
    assert wtensor_validate(w).ok
    assert jacobi_certify(w, builtin_algebra(name)).ok, (w, name)
  witness = invalid_witness_w()
  for name, violation, residual in (("sl2", (0, 3, 4, 1), 4),
                                    ("so3", (0, 3, 4, 1), -1),
                                    ("gl(2)", (0, 4, 5, 1), 1)):
    assert jacobi_certify(witness, builtin_algebra(name)) == JacobiReport(
        ok=False, violation=violation, residual=F(residual))


def family_oracle(family, n, param=None):
  """A family's entries by per-entry loops, the way the builders first made
  them; ``param`` is alpha (circulant) or lambda (leibnitz-deform)."""
  entries = {}
  if family == "direct-sum":
    entries = {(i, i, i): F(1) for i in range(n)}
  elif family == "circulant":
    for s in range(n):
      for k in range(n):
        for i in range(n):
          v = param[(s + k - i) % n]
          if v != 0:
            entries[(s, k, i)] = v
  else:  # leibnitz, leibnitz-deform
    for i in range(n):
      for j in range(n):
        if i + j < n:
          entries[(i, j, i + j)] = F(1)
        elif family == "leibnitz-deform" and param != 0:
          entries[(i, j, i + j - n)] = param
  return entries


def test_builders_match_the_per_entry_loops():
  rng = random.Random(70)
  big = F(2**70)  # a numerator beyond int64: the dense copy is object
  for n in (1, 2, 3, 7, 16, 64):
    pool = (F(0), F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(7, 4))
    pool += (big, -big / 3) if n <= 7 else ()
    cases = [("direct-sum", direct_sum_w(n), None),
             ("leibnitz", leibnitz_w(n), None)]
    for lam in (F(0), F(1, 2), F(-3)) + ((big, 1 / big) if n <= 7 else ()):
      cases.append(("leibnitz-deform", leibnitz_deform(n, lam), lam))
    for alpha in [(F(0),) * n] + [tuple(rng.choice(pool) for _ in range(n))
                                  for _ in range(1 if n == 64 else 3)]:
      cases.append(("circulant", circulant_w(alpha), alpha))
    for family, w, param in cases:
      oracle = family_oracle(family, n, param)
      assert w.entries == oracle, (family, n, param)
      built = make_wtensor(n, oracle)
      assert w == built and not w.dense.flags.writeable
      fits = all(abs(v * w.scale) < 2**63 for v in set(oracle.values()))
      assert w.dense.dtype == (np.int64 if fits else object)
      report = wtensor_validate(w)
      assert report.ok and report == wtensor_validate(built)
      if n <= 3:
        assert report == direct_oracle(w)
  # cutting index 0 cuts the only fractional entry: the scale drops to 1
  for n in (2, 3, 7):
    for den in (2, 2**70):
      w = make_wtensor(n, {(i, i, i): F(1, den) if i == 0 else 1
                           for i in range(n)})
      assert w.scale == den and wtensor_validate(w).ok
      t = truncate_to_solvable(w)
      assert t.scale == 1 and t.dense.dtype == np.int64
      direct = direct_sum_w(n - 1)
      assert t == direct and t.entries == direct.entries


def test_builders_reject_n_before_building():
  for n in (0, MAX_N + 1, 100000):
    for build in (direct_sum_w, leibnitz_w,
                  lambda n: leibnitz_deform(n, 1),
                  lambda n: circulant_w((1,) * n)):
      with pytest.raises(ValueError):
        build(n)


def test_certify_cap():
  sl2 = builtin_algebra("sl2")
  with pytest.raises(SizeCapError):
    jacobi_certify(direct_sum_w(2), sl2, cap=5)
  with pytest.raises(SizeCapError):
    induced_structure_constants(direct_sum_w(2), sl2, cap=5)
  # a cap above MAX_DIM does not lift it: n*d = 72 > 64
  gl3 = builtin_algebra("gl(3)")
  for check in (jacobi_certify, induced_structure_constants):
    with pytest.raises(SizeCapError):
      check(leibnitz_w(8), gl3, cap=100)


def test_deform_parts_are_compatible_brackets():
  # split the deformation into its non-wrapping part and its pure wrap part;
  # each is a valid tensor and the induced brackets form a pencil
  n = 3
  wrap = make_wtensor(n, {(i, j, i + j - n): 1
                          for i in range(n) for j in range(n) if i + j >= n})
  base = leibnitz_w(n)
  assert wtensor_validate(wrap, cross_check=True).ok
  sl2 = builtin_algebra("sl2")
  first = induced_structure_constants(base, sl2)
  second = induced_structure_constants(wrap, sl2)
  rep = compatibility_check(first, second)
  assert rep.compatible
  rng = random.Random(13)
  for _ in range(5):
    lam = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    mu = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    pen = pencil_bracket(first, second, lam, mu)
    assert validate_structure_constants(pen).ok


def test_pencil_matches_deform_tensor_route():
  # lambda * base + mu * wrap as a tensor equals the bracket pencil when
  # lambda = 1: exactly leibnitz_deform(n, mu)
  n = 3
  sl2 = builtin_algebra("sl2")
  wrap = make_wtensor(n, {(i, j, i + j - n): 1
                          for i in range(n) for j in range(n) if i + j >= n})
  first = induced_structure_constants(leibnitz_w(n), sl2)
  second = induced_structure_constants(wrap, sl2)
  for mu in (F(0), F(1), F(-2), F(5, 3)):
    pen = pencil_bracket(first, second, F(1), mu)
    via_tensor = induced_structure_constants(leibnitz_deform(n, mu), sl2)
    assert pen.table == via_tensor.table


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_families():
  rng = random.Random(17)
  tensors = [direct_sum_w(3), leibnitz_w(4), circulant_w(rand_alpha(rng, 4)),
             leibnitz_deform(4, F(-5, 7)), invalid_witness_w(),
             make_wtensor(2, {})]
  for w in tensors:
    doc = wtensor_to_json(w)
    back = wtensor_from_json(doc)
    assert back.n == w.n and back.entries == w.entries


def test_json_entries_sorted():
  doc = wtensor_to_json(circulant_w((F(1), F(1))))
  keys = [(e["i"], e["j"], e["k"]) for e in doc["entries"]]
  assert keys == sorted(keys)
  assert all(isinstance(e["value"], str) for e in doc["entries"])


@pytest.mark.parametrize("doc", [
    {"n": 2},                                                  # missing field
    {"n": 2, "entries": [], "extra": 0},                       # unknown field
    {"n": True, "entries": []},                                # bool n
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0}]},           # missing value
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "value": "0"}]},   # zero
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "value": "2/4"}]},
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "value": 1.5}]},
    {"n": 2, "entries": [{"i": 0.0, "j": 0, "k": 0, "value": "1"}]},
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 2, "value": "1"}]},   # range
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "value": "1"},
                         {"i": 0, "j": 0, "k": 0, "value": "1"}]},   # dup
    {"n": 2, "entries": [{"i": 0, "j": 1, "k": 0, "value": "1"},
                         {"i": 1, "j": 0, "k": 0, "value": "2"}]},   # mirror
])
def test_json_loader_rejects_malformed(doc):
  with pytest.raises(ValueError):
    wtensor_from_json(doc)


def test_json_loader_does_not_symmetrize():
  doc = {"n": 2, "entries": [{"i": 0, "j": 1, "k": 0, "value": "1"}]}
  w = wtensor_from_json(doc)
  assert w.entries == {(0, 1, 0): F(1)}
  rep = wtensor_validate(w)
  assert rep.failure == "symmetry" and rep.indices == (0, 1, 0)
