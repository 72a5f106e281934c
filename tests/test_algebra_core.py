"""Structure constants, Jacobi validation, centers, pencils, compatibility."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebundle import (InternalCheckError, ad_matrix, basis_vector,
                       bracket_eval, builtin_algebra, center_basis,
                       coboundary_of_one_cochain, compatibility_check,
                       make_structure_constants, mixed_jacobi_check,
                       pencil_bracket, so_sym_bundle,
                       structure_constants_from_json,
                       structure_constants_to_json, sum_bracket_table,
                       validate_structure_constants)
from liebundle import induced_structure_constants, make_wtensor
from liebundle.algebra_core import so_matrix_basis


F = Fraction


def frac_vec(*ints):
  return tuple(F(v) for v in ints)


# a 3-dim table that fails Jacobi at the only triple (0, 1, 2)
BROKEN = {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}


def test_builtin_tables():
  sl2 = builtin_algebra("sl2")
  assert sl2.dim == 3
  assert sl2.table == {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)},
                       (1, 2): {0: F(1)}}
  h3 = builtin_algebra("heisenberg3")
  assert h3.table == {(0, 1): {2: F(1)}}
  so3 = builtin_algebra("so3")
  assert so3.table == {(0, 1): {2: F(1)}, (0, 2): {1: F(-1)},
                       (1, 2): {0: F(1)}}
  ab = builtin_algebra("abelian(4)")
  assert ab.dim == 4 and ab.table == {}
  # the matrix-basis so(3) is the cyclic so3 in the opposite-sign basis
  so3m = builtin_algebra("so(3)")
  assert so3m.table == {(0, 1): {2: F(-1)}, (0, 2): {1: F(1)},
                        (1, 2): {0: F(-1)}}


def test_builtin_matrix_families():
  so4 = builtin_algebra("so(4)")
  assert so4.dim == 6
  assert validate_structure_constants(so4).ok
  gl2 = builtin_algebra("gl(2)")
  assert gl2.dim == 4
  assert validate_structure_constants(gl2).ok
  with pytest.raises(ValueError):
    builtin_algebra("su5")
  with pytest.raises(ValueError):
    builtin_algebra("so(03)")  # non-canonical digits
  with pytest.raises(ValueError):
    builtin_algebra("so(1)")
  with pytest.raises(ValueError):
    builtin_algebra("abelian(0)")


def _commutator_table(basis, coordinates, m):
  """{(u, v): {e: c}} of B_u m B_v - B_v m B_u for u < v, read off at the
  matrix positions ``coordinates``."""
  table = {}
  for u in range(len(basis)):
    for v in range(u + 1, len(basis)):
      comm = basis[u] @ m @ basis[v] - basis[v] @ m @ basis[u]
      coeffs = {e: F(int(comm[pos])) for e, pos in enumerate(coordinates)
                if comm[pos]}
      if coeffs:
        table[(u, v)] = coeffs
  return table


def test_closed_form_tables_match_matrix_commutators():
  rng = random.Random(12)
  for p in range(2, 7):
    pairs = [(a, b) for a in range(p) for b in range(p)]
    one = np.identity(p, dtype=np.int64)
    gl_basis = []
    for a, b in pairs:
      mat = np.zeros((p, p), dtype=np.int64)
      mat[a, b] = 1
      gl_basis.append(mat)
    gl = builtin_algebra(f"gl({p})")
    assert gl.dim == p * p
    assert gl.table == _commutator_table(gl_basis, pairs, one)
    so_basis = [m.astype(np.int64) for m in so_matrix_basis(p)]
    so_pairs = [(a, b) for a, b in pairs if a < b]
    so = builtin_algebra(f"so({p})")
    assert so.dim == p * (p - 1) // 2
    assert so.table == _commutator_table(so_basis, so_pairs, one)
    # the so(p) bundle [x, y]_m = x m y - y m x shares the closed form
    m = np.array([[rng.randint(-3, 3) for _ in range(p)] for _ in range(p)])
    m = m + m.T
    assert so_sym_bundle(p, m.tolist()).table == _commutator_table(
        so_basis, so_pairs, m)


def test_matrix_families_over_the_dimension_cap():
  assert builtin_algebra("gl(8)").dim == 64
  assert builtin_algebra("so(11)").dim == 55
  for name in ("gl(9)", "so(12)", "gl(40)", "so(100000)"):
    with pytest.raises(ValueError):
      builtin_algebra(name)


def test_builtins_satisfy_jacobi():
  for name in ("sl2", "so3", "heisenberg3", "abelian(3)", "so(5)", "gl(3)"):
    rep = validate_structure_constants(builtin_algebra(name))
    assert rep.ok and rep.violation is None and rep.residual is None


def test_validate_reports_first_violation():
  rep = validate_structure_constants(make_structure_constants(3, BROKEN))
  assert not rep.ok
  assert rep.violation == (0, 1, 2, 2)
  assert rep.residual == F(-1)


def test_make_structure_constants_rejects_bad_tables():
  with pytest.raises(ValueError):
    make_structure_constants(2, {(1, 1): {0: 1}})  # a == b
  with pytest.raises(ValueError):
    make_structure_constants(2, {(1, 0): {0: 1}})  # a > b
  with pytest.raises(ValueError):
    make_structure_constants(2, {(0, 1): {2: 1}})  # target out of range
  with pytest.raises(ValueError):
    make_structure_constants(0, {})
  with pytest.raises(ValueError):
    make_structure_constants(2, {(False, True): {0: 1}})  # bool indices
  # zero coefficients are dropped, not stored
  c = make_structure_constants(2, {(0, 1): {0: 0, 1: 1}})
  assert c.table == {(0, 1): {1: F(1)}}


def test_bracket_eval_oracles():
  sl2 = builtin_algebra("sl2")
  h, e, f = (basis_vector(3, i) for i in range(3))
  assert bracket_eval(sl2, h, e) == frac_vec(0, 2, 0)
  assert bracket_eval(sl2, e, h) == frac_vec(0, -2, 0)
  assert bracket_eval(sl2, e, f) == frac_vec(1, 0, 0)
  assert bracket_eval(sl2, h, h) == frac_vec(0, 0, 0)
  # bilinearity spot check: [h + 2e, f] = [h, f] + 2[e, f]
  x = tuple(a + 2 * b for a, b in zip(h, e))
  assert bracket_eval(sl2, x, f) == frac_vec(2, 0, -2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=4, min_value=-4, max_value=4),
                min_size=3, max_size=3),
       st.lists(st.fractions(max_denominator=4, min_value=-4, max_value=4),
                min_size=3, max_size=3))
def test_bracket_antisymmetry(xs, ys):
  sl2 = builtin_algebra("sl2")
  x, y = tuple(xs), tuple(ys)
  left = bracket_eval(sl2, x, y)
  right = bracket_eval(sl2, y, x)
  assert all(a == -b for a, b in zip(left, right))
  assert bracket_eval(sl2, x, x) == frac_vec(0, 0, 0)


def test_ad_matrix():
  sl2 = builtin_algebra("sl2")
  ad_h = ad_matrix(sl2, basis_vector(3, 0))
  assert ad_h.tolist() == [[F(0), F(0), F(0)],
                           [F(0), F(2), F(0)],
                           [F(0), F(0), F(-2)]]
  h3 = builtin_algebra("heisenberg3")
  ad_x = ad_matrix(h3, basis_vector(3, 0))
  assert ad_x[2, 1] == 1 and np.count_nonzero(ad_x != 0) == 1


def test_center_oracles():
  assert center_basis(builtin_algebra("heisenberg3")) == [frac_vec(0, 0, 1)]
  assert center_basis(builtin_algebra("sl2")) == []
  assert center_basis(builtin_algebra("so3")) == []
  ab = builtin_algebra("abelian(2)")
  assert center_basis(ab) == [frac_vec(1, 0), frac_vec(0, 1)]
  # gl(p) has the scalar matrices as its center: E_00 + E_11 + ... = sum of
  # the diagonal basis elements
  gl2 = builtin_algebra("gl(2)")
  cb = center_basis(gl2)
  assert len(cb) == 1
  z = cb[0]
  for a in range(4):
    assert bracket_eval(gl2, z, basis_vector(4, a)) == frac_vec(0, 0, 0, 0)


def test_center_elements_annihilate_everything():
  for name in ("sl2", "so3", "heisenberg3", "gl(3)"):
    c = builtin_algebra(name)
    zero = tuple(F(0) for _ in range(c.dim))
    for z in center_basis(c):
      for a in range(c.dim):
        assert bracket_eval(c, z, basis_vector(c.dim, a)) == zero


def test_mixed_jacobi_pass_and_fail():
  h3 = builtin_algebra("heisenberg3")
  aff = make_structure_constants(3, {(1, 2): {1: 1}})
  assert validate_structure_constants(aff).ok
  rep = mixed_jacobi_check(h3, aff)
  assert not rep.ok
  assert rep.violation == (0, 1, 2, 2)
  # a bracket is trivially compatible with itself (mixed check = 2x Jacobi)
  assert mixed_jacobi_check(h3, h3).ok
  assert mixed_jacobi_check(builtin_algebra("sl2"), builtin_algebra("sl2")).ok


def test_compatibility_report_matches_sum_validation():
  h3 = builtin_algebra("heisenberg3")
  aff = make_structure_constants(3, {(1, 2): {1: 1}})
  rep = compatibility_check(h3, aff)
  assert not rep.compatible
  direct = validate_structure_constants(sum_bracket_table(h3, aff))
  assert rep.sum_jacobi.ok == direct.ok == False
  assert rep.sum_jacobi.violation == direct.violation == (0, 1, 2, 2)

  # compatible pair: two commuting-direction abelian extensions
  a = make_structure_constants(3, {(0, 1): {2: 1}})
  b = make_structure_constants(3, {(0, 1): {2: -3}})
  rep = compatibility_check(a, b)
  assert rep.compatible
  assert rep.mixed.ok and rep.sum_jacobi.ok
  assert validate_structure_constants(sum_bracket_table(a, b)).ok


def test_compatibility_preconditions():
  h3 = builtin_algebra("heisenberg3")
  with pytest.raises(ValueError):
    compatibility_check(h3, builtin_algebra("abelian(2)"))  # dim mismatch
  with pytest.raises(ValueError):
    compatibility_check(h3, make_structure_constants(3, BROKEN))
  with pytest.raises(ValueError):
    compatibility_check(make_structure_constants(3, BROKEN), h3)


def test_pencil_bracket():
  a = make_structure_constants(3, {(0, 1): {2: 1}})
  b = make_structure_constants(3, {(0, 1): {2: -3}, (0, 2): {1: 2}})
  assert compatibility_check(a, b).compatible
  pen = pencil_bracket(a, b, F(1, 2), F(3))
  assert pen.table == {(0, 1): {2: F(1, 2) - 9}, (0, 2): {1: F(6)}}
  assert validate_structure_constants(pen).ok
  # pencil members of an incompatible pair are refused
  aff = make_structure_constants(3, {(1, 2): {1: 1}})
  with pytest.raises(ValueError):
    pencil_bracket(builtin_algebra("heisenberg3"), aff, F(1), F(1))


def test_pencil_matches_pointwise_combination():
  rng = random.Random(3)
  a = make_structure_constants(3, {(0, 1): {2: 1}})
  b = make_structure_constants(3, {(0, 1): {2: -3}, (0, 2): {1: 2}})
  for _ in range(10):
    lam = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    mu = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    pen = pencil_bracket(a, b, lam, mu)
    x = tuple(F(rng.randint(-3, 3)) for _ in range(3))
    y = tuple(F(rng.randint(-3, 3)) for _ in range(3))
    direct = bracket_eval(pen, x, y)
    via_parts = tuple(
        lam * p + mu * q
        for p, q in zip(bracket_eval(a, x, y), bracket_eval(b, x, y)))
    assert direct == via_parts


def test_coboundary_of_identity_is_the_bracket():
  for name in ("sl2", "so3", "heisenberg3"):
    c = builtin_algebra(name)
    ident = [[1 if i == j else 0 for j in range(c.dim)] for i in range(c.dim)]
    assert coboundary_of_one_cochain(c, ident).table == c.table


def test_coboundary_of_zero_is_zero():
  c = builtin_algebra("sl2")
  zero = [[0] * 3 for _ in range(3)]
  assert coboundary_of_one_cochain(c, zero).table == {}


def test_so_matrix_basis_brackets_match_so3_table():
  basis = so_matrix_basis(3)
  assert len(basis) == 3
  so3 = builtin_algebra("so(3)")
  for (a, b), coeffs in so3.table.items():
    comm = basis[a] @ basis[b] - basis[b] @ basis[a]
    recon = sum((v * basis[e] for e, v in coeffs.items()),
                start=np.zeros((3, 3), dtype=object))
    assert (comm == recon).all()


def test_json_round_trip():
  for name in ("sl2", "so3", "heisenberg3", "abelian(2)", "gl(2)"):
    c = builtin_algebra(name)
    doc = structure_constants_to_json(c)
    back = structure_constants_from_json(doc)
    assert back.dim == c.dim and back.table == c.table


def test_json_doc_is_sorted_and_canonical():
  doc = structure_constants_to_json(builtin_algebra("sl2"))
  pairs = [(b["a"], b["b"]) for b in doc["brackets"]]
  assert pairs == sorted(pairs)
  for b in doc["brackets"]:
    es = [t["e"] for t in b["coeffs"]]
    assert es == sorted(es)
    for t in b["coeffs"]:
      assert isinstance(t["value"], str)


@pytest.mark.parametrize("doc", [
    {"dim": 3},                                                # missing field
    {"dim": 3, "brackets": [], "extra": 1},                    # unknown field
    {"dim": True, "brackets": []},                             # bool dim
    {"dim": 3, "brackets": [{"a": 1, "b": 1,
                             "coeffs": [{"e": 0, "value": "1"}]}]},
    {"dim": 3, "brackets": [{"a": 2, "b": 1,
                             "coeffs": [{"e": 0, "value": "1"}]}]},
    {"dim": 3, "brackets": [{"a": 0, "b": 1,
                             "coeffs": [{"e": 0, "value": "2/4"}]}]},
    {"dim": 3, "brackets": [{"a": 0, "b": 1,
                             "coeffs": [{"e": 0, "value": "0"}]}]},
    {"dim": 3, "brackets": [{"a": 0, "b": 1,
                             "coeffs": [{"e": 0, "value": "1"},
                                        {"e": 0, "value": "1"}]}]},
    {"dim": 3, "brackets": [{"a": 0, "b": 1,
                             "coeffs": [{"e": 0, "value": "1"}]},
                            {"a": 0, "b": 1,
                             "coeffs": [{"e": 1, "value": "1"}]}]},
    {"dim": 3, "brackets": [{"a": 0, "b": 1, "coeffs": []}]},  # empty coeffs
])
def test_json_loader_rejects_malformed(doc):
  with pytest.raises(ValueError):
    structure_constants_from_json(doc)


def test_sum_bracket_table_adds_and_cancels():
  a = make_structure_constants(2, {(0, 1): {0: 1, 1: 2}})
  b = make_structure_constants(2, {(0, 1): {0: -1}})
  s = sum_bracket_table(a, b)
  assert s.table == {(0, 1): {1: F(2)}}


def assert_canonical(c, brackets):
  """c equals the table of ``brackets`` (zero brackets dropped, scale
  reduced) and its array is read-only and antisymmetric."""
  assert c == make_structure_constants(c.dim, brackets, name=c.name)
  assert not c.dense.flags.writeable
  assert np.array_equal(c.dense, -c.dense.transpose(1, 0, 2))


def test_computed_tables_are_canonical():
  so3 = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}
  twos = make_structure_constants(3, {k: {e: 2 * v for e, v in coeffs.items()}
                                      for k, coeffs in so3.items()})
  halves = make_structure_constants(3, {(0, 1): {2: F(1, 2)},
                                        (1, 2): {0: F(3, 2)}})
  assert (twos.scale, halves.scale) == (1, 2)
  # the halves cancel and the (1, 2) bracket vanishes: scale 2 -> 1
  minus = make_structure_constants(3, {(0, 1): {2: F(-1, 2), 0: 3},
                                       (1, 2): {0: F(-3, 2)}})
  total = sum_bracket_table(halves, minus)
  assert_canonical(total, {(0, 1): {0: 3}})
  assert total.scale == 1 and total.table == {(0, 1): {0: F(3)}}
  assert_canonical(pencil_bracket(twos, twos, F(1, 2), F(0)), so3)
  assert_canonical(pencil_bracket(twos, twos, F(1, 4), F(1, 4)), so3)
  assert_canonical(pencil_bracket(twos, twos, F(1, 2), F(-1, 2)), {})
  half = [[F(1, 2) if i == j else 0 for j in range(3)] for i in range(3)]
  assert_canonical(coboundary_of_one_cochain(twos, half), so3)
  # beta = e_0 e_0^T keeps only the brackets with an index 0
  beta = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
  assert_canonical(coboundary_of_one_cochain(twos, beta),
                   {(0, 1): {2: 2}, (0, 2): {1: -2}, (1, 2): {0: -2}})
  assert_canonical(induced_structure_constants(
      make_wtensor(1, {(0, 0, 0): F(1, 2)}), twos), so3)
  for c in (twos, halves, builtin_algebra("gl(3)")):
    assert_canonical(c, c.table)
  # sums and products that pass 2^63 leave int64 for Python integers
  big = make_structure_constants(3, {(0, 1): {2: 2**62}})
  for c in (sum_bracket_table(big, big), pencil_bracket(big, big, 2, 0),
            coboundary_of_one_cochain(big, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])):
    assert_canonical(c, {(0, 1): {2: 2**63}})
    assert c.dense.dtype == object
