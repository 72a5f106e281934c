"""Structure constants, Jacobi validation, centers, pencils, compatibility."""

import itertools
import random
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebundle import (InternalCheckError, JacobiReport, ad_matrix, basis_vector,
                       bracket_eval, builtin_algebra, center_basis,
                       coboundary_of_one_cochain, compatibility_check,
                       make_structure_constants, mixed_jacobi_check,
                       pencil_bracket, so_sym_bundle,
                       structure_constants_from_json,
                       structure_constants_to_json, sum_bracket_table,
                       validate_structure_constants)
from liebundle import circulant_w, induced_structure_constants, make_wtensor
from liebundle import algebra_core, wtensor
from liebundle.algebra_core import so_matrix_basis
from liebundle.linalg import _first_nonzero, nullspace
from liebundle.rationals import as_fraction
from liebundle import jacobi_certify, poisson_jacobi_check
from liebundle.algebra_core import StructureConstants, _jacobi_plan
from liebundle.linalg import _exact_sum_dtype


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
  for p in range(7, 12):
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    one = np.identity(p, dtype=np.int64)
    if p <= 8:
      gl_basis = list(np.identity(p * p, dtype=np.int64).reshape(-1, p, p))
      assert builtin_algebra(f"gl({p})").table == _commutator_table(
          gl_basis, [divmod(e, p) for e in range(p * p)], one)
    assert builtin_algebra(f"so({p})").table == _commutator_table(
        list(so_matrix_basis(p)), pairs, one)
  # bundles with numerators on each side of 2^53 and 2^62 and beyond 2^63,
  # and with the builder's bound 2 max|m| on each side of the float64 and
  # int64 tiers (2^53, 2^62): [B_01, B_02]_m = m_10 B_02 - m_02 B_01 -
  # m_00 B_12
  for top in (2**52 - 1, 2**52 + 1, 2**53 - 1, 2**53 + 1, 2**61 - 1,
              2**61 + 1, 2**62 - 1, 2**62 + 1, 2**63 + 1):
    for p in (3, 4):
      m = np.array([[rng.choice((0, 1, -2, top, 1 - top)) for _ in range(p)]
                    for _ in range(p)], dtype=object)
      m = np.triu(m) + np.triu(m, 1).T
      m[0, 0], m[0, 1], m[1, 0], m[0, 2], m[2, 0] = 1 - top, 0, 0, top, top
      basis = [b.astype(object) for b in so_matrix_basis(p)]
      pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
      bundle = so_sym_bundle(p, m.tolist())
      assert bundle.table == _commutator_table(basis, pairs, m)
      assert bundle.table[(0, 1)] == {0: -top, p - 1: top - 1}


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


class Repeating:
  """A mapping-like input whose ``items`` may repeat a key, which a dict
  cannot: the only way to reach the duplicate checks."""

  def __init__(self, *items):
    self._items = items

  def items(self):
    return iter(self._items)


# (dim, brackets, message): the rejections of make_structure_constants and
# their order -- keys before their coefficients, a coefficient's index
# before its value, pairs in the order given
REJECTIONS = [
    (2, {(1, 1): {0: 1}},
     "bracket key must satisfy 0 <= a < b < dim, got (1, 1)"),
    (2, {(1, 0): {0: 1}},
     "bracket key must satisfy 0 <= a < b < dim, got (1, 0)"),
    (2, {(0, 1): {2: 1}}, "coefficient index 2 out of range for dim 2"),
    (0, {}, "dim must be an integer in 1..64, got 0"),
    (65, {}, "dim must be an integer in 1..64, got 65"),
    (True, {}, "dim must be an integer in 1..64, got True"),
    (2, {(False, True): {0: 1}},
     "bracket key must be an integer pair, got (False, True)"),
    (3, {(0, 1): {True: 1}}, "coefficient index True out of range for dim 3"),
    (3, {(0, 1): {-1: 1}}, "coefficient index -1 out of range for dim 3"),
    (3, {(0, 1): {0: 1.5}}, "cannot interpret 1.5 as an exact rational"),
    (3, {(0, 1): {0: True}}, "booleans are not rationals"),
    (3, {(0, 1): {0: "2/4"}}, "not in lowest terms / canonical form: '2/4'"),
    (3, {(0, 1): {0: 1.5, 3: 1}}, "cannot interpret 1.5 as an exact rational"),
    (3, {(0, 1): {3: 1.5}}, "coefficient index 3 out of range for dim 3"),
    (3, {(0, 1): {0: "x"}, (2, 1): {0: 1}}, "not a canonical rational: 'x'"),
    (3, {(0, 2): {0: 1}, (0, 3): {0: "x"}},
     "bracket key must satisfy 0 <= a < b < dim, got (0, 3)"),
    (3, Repeating(((0, 1), {2: 1}), ((0, 1), {2: 1})),
     "duplicate bracket key (0, 1)"),
    (3, {(0, 1): Repeating((2, 1), (2, "1"))},
     "duplicate coefficient index 2 in bracket (0, 1)"),
    # a repeated pair or index whose first value is zero is not a duplicate
    (3, Repeating(((0, 1), {2: 0}), ((0, 1), {2: 1}), ((0, 1), {2: 1})),
     "duplicate bracket key (0, 1)"),
    (3, {(0, 1): Repeating((2, 0), (2, 1), (2, 1))},
     "duplicate coefficient index 2 in bracket (0, 1)"),
]


def test_make_structure_constants_rejections_keep_their_messages():
  for dim, brackets, message in REJECTIONS:
    with pytest.raises(ValueError) as info:
      make_structure_constants(dim, brackets)
    assert str(info.value) == message


def reference_structure_constants(dim, brackets):
  """The table built the direct way, as an independent oracle: every value
  coerced on its own, zeros dropped, the rest over the lcm of their
  denominators, (a, b) and (b, a) filled entry by entry."""
  table = {}
  for (a, b), coeffs in brackets.items():
    inner = {e: as_fraction(v) for e, v in coeffs.items() if as_fraction(v)}
    if inner:
      table[(a, b)] = inner
  scale = lcm(*(v.denominator for inner in table.values()
                for v in inner.values()))
  dense = np.zeros((dim, dim, dim), dtype=object)
  for (a, b), inner in table.items():
    for e, v in inner.items():
      dense[a, b, e] = v.numerator * (scale // v.denominator)
      dense[b, a, e] = -dense[a, b, e]
  if all(-2**63 < x < 2**63 for x in dense.flat):
    dense = dense.astype(np.int64)
  return dense, scale, table


def c_order_table(c):
  """{(a, b): {e: c_ab^e}} for a < b, read off np.nonzero(c.dense)."""
  where = np.nonzero(c.dense)
  table = {}
  for a, b, e, x in zip(*(w.tolist() for w in where), c.dense[where].tolist()):
    if a < b:
      table.setdefault((a, b), {})[e] = F(x, c.scale)
  return table


def assert_one_source(c, brackets):
  """c is the table of ``brackets``, and its ``table`` is read off its
  array, pairs and indices in C order."""
  dense, scale, table = reference_structure_constants(c.dim, brackets)
  assert c.dense.dtype == dense.dtype and np.array_equal(c.dense, dense)
  assert c.scale == scale and c.table == table
  oracle = c_order_table(c)
  assert c.table == oracle and list(c.table) == list(oracle)
  for pair, inner in c.table.items():
    assert list(inner) == list(oracle[pair])


def test_table_has_one_source_in_c_order():
  # pairs and indices given in descending order
  descending = {(1, 2): {2: F(1, 3), 0: 5}, (0, 2): {2: -1, 1: "7/2"},
                (0, 1): {2: 1, 1: 2**70}}
  c = make_structure_constants(3, descending)
  assert list(c.table) == [(0, 1), (0, 2), (1, 2)]
  assert [list(inner) for inner in c.table.values()] == [[1, 2], [1, 2],
                                                        [0, 2]]
  assert_one_source(c, descending)
  fixed = {"heisenberg3": {(0, 1): {2: 1}},
           "sl2": {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
           "so3": {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}}
  fixed.update((f"abelian({d})", {}) for d in (1, 2, 5))
  for name, brackets in fixed.items():
    c = builtin_algebra(name)
    assert_one_source(c, brackets)
    assert c == make_structure_constants(c.dim, brackets, name=name)
  for name in ("gl(2)", "gl(5)", "so(4)", "so(7)"):
    c = builtin_algebra(name)
    assert_one_source(c, c.table)
    assert make_structure_constants(c.dim, c.table, name=name) == c


def test_one_value_written_several_ways_is_one_value():
  rng = random.Random(20)
  spellings = [(1, "1", F(1)), (-1, "-1", F(-1)), (F(2, 3), "2/3"),
               (0, "0", F(0)), (2**70, str(2**70), F(2**70)),
               (F(-5, 2**64), f"-5/{2**64}")]
  for _ in range(60):
    dim = rng.randint(1, 8)
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    rng.shuffle(pairs)
    brackets = {}
    for a, b in pairs[:rng.randint(0, len(pairs))]:
      es = rng.sample(range(dim), rng.randint(1, dim))
      brackets[(a, b)] = {e: rng.choice(rng.choice(spellings)) for e in es}
    c = make_structure_constants(dim, brackets)
    assert_one_source(c, brackets)
    assert make_structure_constants(dim, c.table) == c


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
  assert center_basis(builtin_algebra("abelian(4)")) == [
      frac_vec(*(int(i == j) for j in range(4))) for i in range(4)]
  # gl(p) has the scalar matrices as its center: E_00 + E_11 + ... = sum of
  # the diagonal basis elements
  gl2 = builtin_algebra("gl(2)")
  cb = center_basis(gl2)
  assert len(cb) == 1
  z = cb[0]
  for a in range(4):
    assert bracket_eval(gl2, z, basis_vector(4, a)) == frac_vec(0, 0, 0, 0)


def test_center_basis_matches_the_full_system():
  # center_basis drops repeated rows; the basis of the whole
  # d^2 x d system must not change, on int64 and on Python-integer tables
  gl2 = builtin_algebra("gl(2)")
  tables = [builtin_algebra(x) for x in ("heisenberg3", "sl2", "abelian(3)",
                                         "gl(3)", "gl(4)", "so(5)", "so(6)")]
  tables += [induced_structure_constants(circulant_w(alpha), gl2)
             for alpha in ((F(1), F(1), F(0)), (F(1), F(1), F(1), F(1)))]
  dtypes = set()
  for c in tables:
    for factor in (1, F(2**70, 3)):
      scaled = make_structure_constants(
          c.dim, {k: {e: v * factor for e, v in coeffs.items()}
                  for k, coeffs in c.table.items()})
      d = c.dim
      full = scaled.dense.transpose(1, 2, 0).reshape(d * d, d)
      assert center_basis(scaled) == nullspace(full), c.name
      dtypes.add(scaled.dense.dtype)
  assert dtypes == {np.dtype(np.int64), np.dtype(object)}


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
  for name in ("sl2", "so3", "heisenberg3", "abelian(3)", "gl(2)", "gl(4)",
               "so(3)", "so(6)"):
    c = builtin_algebra(name)
    table = list(c.table.items())
    back = structure_constants_from_json(structure_constants_to_json(c))
    assert back == c and list(back.table.items()) == table
    assert [list(inner) for _, inner in table] == [
        list(inner) for inner in back.table.values()]


def test_json_doc_is_sorted_and_canonical():
  doc = structure_constants_to_json(builtin_algebra("sl2"))
  pairs = [(b["a"], b["b"]) for b in doc["brackets"]]
  assert pairs == sorted(pairs)
  for b in doc["brackets"]:
    es = [t["e"] for t in b["coeffs"]]
    assert es == sorted(es)
    for t in b["coeffs"]:
      assert isinstance(t["value"], str)


MALFORMED = [
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
]


@pytest.mark.parametrize("doc", MALFORMED)
def test_json_loader_rejects_malformed(doc):
  with pytest.raises(ValueError):
    structure_constants_from_json(doc)


def test_json_loader_rejections_keep_their_messages():
  messages = [
      "missing required fields 'dim' and/or 'brackets'",
      "unknown fields: ['extra']",
      "dim must be an integer, got True",
      "bracket indices must satisfy a < b, got (1, 1)",
      "bracket indices must satisfy a < b, got (2, 1)",
      "not in lowest terms / canonical form: '2/4'",
      "zero coefficients are not stored in canonical files",
      "duplicate coefficient index 0 in bracket (0, 1)",
      "duplicate bracket (0, 1)",
      "coeffs must be a non-empty list"]
  assert len(messages) == len(MALFORMED)
  for doc, message in zip(MALFORMED, messages):
    with pytest.raises(ValueError) as info:
      structure_constants_from_json(doc)
    assert str(info.value) == message


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


def test_computed_tables_are_canonical(monkeypatch):
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
  # sums, pencils, coboundaries and induced tables compute in the tier of
  # the shared rule for their bound: float64 about 2^52, and int64 about
  # 2^60, where every result is an odd integer above 2^53, which float64
  # cannot hold
  tiers = []
  for module in (algebra_core, wtensor):
    rule = module._exact_sum_dtype
    monkeypatch.setattr(module, "_exact_sum_dtype", lambda bound, rule=rule: (
        tiers.append(rule(bound)) or rule(bound)))
  for bits, dtype in ((52, np.float64), (60, np.int64)):
    half = 2**(bits - 1)
    x = make_structure_constants(3, {(0, 1): {2: half + 1}})
    y = make_structure_constants(3, {(0, 1): {2: half}, (1, 2): {0: 3}})
    assert_canonical(sum_bracket_table(x, y),
                     {(0, 1): {2: 2 * half + 1}, (1, 2): {0: 3}})
    assert tiers[-1] == dtype
    assert_canonical(pencil_bracket(x, x, 2, -1), {(0, 1): {2: half + 1}})
    assert tiers[-1] == dtype
    # beta = k e_0 e_0^T keeps [e_0, e_1] = e_2 times k, on a bound 9 M k
    k = 2**(bits - 1) // 9 | 1
    assert_canonical(coboundary_of_one_cochain(
        make_structure_constants(3, {(0, 1): {2: 1}}),
        [[k, 0, 0], [0, 0, 0], [0, 0, 0]]), {(0, 1): {2: k}})
    assert tiers[-1] == dtype
    assert_canonical(induced_structure_constants(
        make_wtensor(1, {(0, 0, 0): 3}), x), {(0, 1): {2: 3 * half + 3}})
    assert tiers[-1] == dtype
  monkeypatch.undo()
  # sums and products that pass 2^63 leave int64 for Python integers
  big = make_structure_constants(3, {(0, 1): {2: 2**62}})
  for c in (sum_bracket_table(big, big), pencil_bracket(big, big, 2, 0),
            coboundary_of_one_cochain(big, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])):
    assert_canonical(c, {(0, 1): {2: 2**63}})
    assert c.dense.dtype == object


# ---------------------------------------------------------------------------
# the table scans against an independent sparse loop


def sparse_jacobi_oracle(dim, pairs, sign=1):
  """The table Jacobi scan as a loop over sparse rows, bilinear in the two
  brackets of each pair.

  The residual at a basis triple is ``sign`` times the sum over (p, q) in
  ``pairs`` of the cyclic sum of [[x, y]_p, z]_q, which is alternating for
  a Jacobiator or a sum of them, so triples a < b < c suffice; the first
  violation is the lexicographically smallest (a, b, c) and, within it, the
  smallest output component f.  Rows rows[x][y] = {e: numerator of c_xy^e}
  hold the tables' cleared arrays over one common scale, in Python integers.
  """
  scale = lcm(*(c.scale for pair in pairs for c in pair))
  rows = {}
  for c in {id(c): c for pair in pairs for c in pair}.values():
    rows[id(c)] = [{} for _ in range(dim)]
    where = np.nonzero(c.dense)
    factor = scale // c.scale
    for x, y, e, v in zip(*(a.tolist() for a in where),
                          c.dense[where].tolist()):
      rows[id(c)][x].setdefault(y, {})[e] = v * factor
  tables = [(rows[id(p)], rows[id(q)]) for p, q in pairs]
  for a in range(dim):
    for b in range(a + 1, dim):
      for cc in range(b + 1, dim):
        acc = {}
        for first, second in tables:
          for x, y, z in ((a, b, cc), (b, cc, a), (cc, a, b)):
            for e, q in first[x].get(y, {}).items():
              for f, r in second[e].get(z, {}).items():
                acc[f] = acc.get(f, 0) + q * r
        for f in sorted(acc):
          if acc[f] != 0:
            return JacobiReport(ok=False, violation=(a, b, cc, f),
                                residual=F(sign * acc[f], scale**2))
  return JacobiReport(ok=True)


def assert_scans_match_the_oracle(first, second):
  """validate, mixed and compat's sum route on a pair against the oracle;
  returns the compatibility report, or None if a bracket fails Jacobi."""
  d = first.dim
  reports = [validate_structure_constants(c) for c in (first, second)]
  for c, rep in zip((first, second), reports):
    assert rep == sparse_jacobi_oracle(d, [(c, c)])
  assert mixed_jacobi_check(first, second) == sparse_jacobi_oracle(
      d, [(first, second), (second, first)], sign=-1)
  if not all(reports):
    with pytest.raises(ValueError, match="fails Jacobi"):
      compatibility_check(first, second)
    return None
  total = sum_bracket_table(first, second)
  rep = compatibility_check(first, second)
  assert rep.sum_jacobi == sparse_jacobi_oracle(d, [(total, total)])
  return rep


# non-abelian building blocks of dimension 2, 3, 4 and 6, and abelian(1)
R2 = make_structure_constants(2, {(0, 1): {0: 1}})
BLOCKS = [R2] + [builtin_algebra(x) for x in (
    "sl2", "so3", "heisenberg3", "gl(2)", "so(4)", "abelian(1)")]


def direct_sum(blocks):
  brackets, shift = {}, 0
  for c in blocks:
    for (a, b), coeffs in c.table.items():
      brackets[(a + shift, b + shift)] = {e + shift: v
                                          for e, v in coeffs.items()}
    shift += c.dim
  return make_structure_constants(shift, brackets)


def change_basis(c, rng):
  """The integer table c in a random rational basis: the columns of P, a
  permutation and two integer shears (with P^-1 integer too), each then
  rescaled by a random rational."""
  d = c.dim
  perm = rng.sample(range(d), d)
  p, q = np.eye(d, dtype=np.int64)[:, perm], np.eye(d, dtype=np.int64)[perm]
  for _ in range(2):
    i, j = rng.sample(range(d), 2)
    lam = rng.choice((1, -1, 2))
    p[:, j] += lam * p[:, i]  # P <- P (I + lam e_i e_j^T)
    q[i] -= lam * q[j]  # P^-1 <- (I - lam e_i e_j^T) P^-1
  # t[a, b, e] = sum P[i, a] P[j, b] c[i, j, k] Q[e, k]
  t = np.tensordot(c.dense, q, axes=([2], [1]))
  t = np.tensordot(p, np.tensordot(p, t, axes=([0], [0])), axes=([0], [1]))
  t = t.transpose(1, 0, 2)
  # with basis vectors scaled by s, [x_a, x_b] = s_a s_b / s_e t_ab^e x_e
  s = [F(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 3))) for _ in range(d)]
  return make_structure_constants(d, {
      (a, b): {e: s[a] * s[b] / s[e] * int(t[a, b, e])
               for e in range(d) if t[a, b, e]}
      for a in range(d) for b in range(a + 1, d)})


def seeded_table(rng, d):
  """A rational Lie table of dimension d (a direct sum of blocks, the first
  non-abelian, in a random basis), and 3 times in 5 one bracket changed;
  halved until it is not integral."""
  blocks = [rng.choice([b for b in BLOCKS[:-1] if b.dim <= d])]
  while sum(b.dim for b in blocks) < d:
    room = d - sum(b.dim for b in blocks)
    blocks.append(rng.choice([b for b in BLOCKS if b.dim <= room]))
  c = change_basis(direct_sum(blocks), rng)
  brackets = {k: dict(v) for k, v in c.table.items()}
  if rng.random() < 0.6:
    a, b = sorted(rng.sample(range(d), 2))
    e = rng.randrange(d)
    coeffs = brackets.setdefault((a, b), {})
    delta = F(rng.choice((1, -1)), rng.choice((1, 2)))
    coeffs[e] = coeffs.get(e, 0) + delta or delta  # never cancels to 0
  c = make_structure_constants(d, brackets)
  while c.scale == 1:
    c = make_structure_constants(d, {k: {e: v / 2 for e, v in coeffs.items()}
                                     for k, coeffs in c.table.items()})
  return c


def test_scans_match_the_sparse_oracle_on_seeded_tables():
  rng = random.Random(2024)
  tables = failing = compatible = 0
  for d in range(2, 10):
    group = [seeded_table(rng, d) for _ in range(126)]
    for first, second in zip(group, group[1:] + group[:1]):
      assert first.scale > 1
      rep = assert_scans_match_the_oracle(first, second)
      tables += 1
      failing += not validate_structure_constants(first).ok
      compatible += bool(rep)
  assert tables >= 1000 and 0.4 < failing / tables < 0.6 and compatible


def test_scans_match_the_sparse_oracle_on_builtins():
  names = ["heisenberg3", "sl2", "so3", "abelian(4)"]
  names += [f"so({p})" for p in range(2, 12)] + [f"gl({p})" for p in range(2, 9)]
  failing = 0
  for name in names:
    c = builtin_algebra(name)
    assert assert_scans_match_the_oracle(c, c)
    # a bracket [e_a, e_b] = e_0 on the last pair whose bracket is zero
    pairs = [(a, b) for a in range(c.dim) for b in range(a + 1, c.dim)
             if (a, b) not in c.table]
    if pairs:
      bad = make_structure_constants(c.dim, {**c.table, max(pairs): {0: 1}})
      failing += assert_scans_match_the_oracle(c, bad) is None
  assert failing >= 15


def test_scans_match_the_sparse_oracle_on_so_bundles():
  # so(p) against its bundle [x, y]_a = x a y - y a x is compatible; with
  # basis vectors 0 and 1 of the bundle swapped it need not be
  rng = random.Random(5)
  verdicts = set()
  for p in (3, 4, 5):
    for _ in range(4):
      a = [[0] * p for _ in range(p)]
      for i in range(p):
        for j in range(i, p):
          a[i][j] = a[j][i] = F(rng.randint(-3, 3), rng.randint(1, 3))
      bundle = so_sym_bundle(p, a)
      swap = {0: 1, 1: 0}
      swapped = make_structure_constants(bundle.dim, {
          tuple(sorted((swap.get(x, x), swap.get(y, y)))):
          {swap.get(e, e): v if swap.get(x, x) < swap.get(y, y) else -v
           for e, v in coeffs.items()}
          for (x, y), coeffs in bundle.table.items()})
      so = builtin_algebra(f"so({p})")
      assert assert_scans_match_the_oracle(so, bundle).compatible
      verdicts.add(assert_scans_match_the_oracle(so, swapped).compatible)
  assert verdicts == {True, False}


# fails Jacobi: [[e0, e1], e2] + [[e1, e2], e0] + [[e2, e0], e1] = -e1 - e2
FAILING3 = {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}


def failing_at(d, triple, rng):
  """A table of dimension d that fails Jacobi at the basis triple ``triple``
  and nowhere else: FAILING3 on those three vectors, each of its brackets
  with random components along the other d - 3 vectors too, which are
  central, so that every triple holding one of them has zero residual."""
  u, v, t = triple
  others = [e for e in range(d) if e not in triple]
  brackets = {}
  for (x, y), coeffs in FAILING3.items():
    row = {e: F(rng.randint(-3, 3), rng.randint(1, 2)) for e in others}
    row.update({triple[e]: F(c) for e, c in coeffs.items()})
    brackets[(triple[x], triple[y])] = row
  return make_structure_constants(d, brackets)


def random_dense_table(rng, d):
  """Every bracket [e_a, e_b], a < b, with a random rational component
  along every e_f, now and then zero."""
  return make_structure_constants(d, {
      (a, b): {e: F(rng.randint(-3, 3), rng.randint(1, 2)) for e in range(d)}
      for a in range(d) for b in range(a + 1, d)})


def checked_reports(first, second):
  """validate on both tables and mixed on the pair, once the oracle has
  checked them (``assert_scans_match_the_oracle``)."""
  assert_scans_match_the_oracle(first, second)
  return [validate_structure_constants(first),
          validate_structure_constants(second),
          mixed_jacobi_check(first, second)]


def test_scan_witnesses_at_the_first_and_the_last_u():
  rng = random.Random(4742)
  for lie in ("sl2", "so(4)", "gl(3)", "gl(4)"):
    lie = change_basis(builtin_algebra(lie), rng)  # dense, and a Lie table
    d = lie.dim + 3
    # dense random tables fail at u = 0, with thousands of nonzero
    # residuals after the witness at d = 19
    first, second = random_dense_table(rng, d), random_dense_table(rng, d)
    assert all(rep.violation[0] == 0
               for rep in checked_reports(first, second))
    # the dense Lie table with a failing summand on the last three vectors
    # fails at the last u, d - 3, only: the residual of a triple with
    # vectors from both summands is zero, and the mixed residual of the
    # Lie table with itself is minus twice its Jacobiator
    pair = []
    for _ in range(2):
      bad = make_structure_constants(3, {
          key: {e: F(rng.randint(-3, 3), rng.randint(1, 2)) for e in range(3)}
          for key in FAILING3})
      while sparse_jacobi_oracle(3, [(bad, bad)]).ok:
        bad = make_structure_constants(3, FAILING3)
      pair.append(direct_sum([lie, bad]))
    *reports, mixed = checked_reports(*pair)
    assert all(rep.violation[0] == d - 3 for rep in reports)
    assert mixed.ok or mixed.violation[0] == d - 3


def test_scan_witness_at_every_basis_triple():
  # the pair (v, t) of the witness is read off the row of its u's residual
  rng = random.Random(35)
  for d in (3, 4, 7):
    for triple in itertools.combinations(range(d), 3):
      c = failing_at(d, triple, rng)
      for rep in checked_reports(c, c):
        assert rep.violation[:3] == triple


def test_first_nonzero_is_the_first_entry_in_c_order():
  rng = np.random.default_rng(7)
  x = rng.integers(-1, 2, (6, 6, 6))
  later = np.triu(np.ones((6, 6), dtype=bool), 1)  # later[v, t]: t > v
  last = np.zeros(10**5, dtype=bool)
  last[-1] = True
  cases = [
      np.zeros(0), np.zeros((3, 0, 2), dtype=bool),  # empty
      np.zeros((4, 5)), np.array([0.0, -0.0]),  # nothing nonzero
      last, np.array([0.0, -0.0, 0.0, 3.0]),  # a hit at the last element
      (x != 0) & later[:, :, None],  # masked to u < v < t, as the scans mask
      (x[3:] != 0) & later[3:, :, None], x.transpose(2, 0, 1),  # strided
      np.array([[0, 0], [0, 2**70]], dtype=object),  # Python integers
      np.array([0, 0, 0], dtype=object), x.astype(object)]
  for a in cases:
    hits = np.argwhere(a)
    expected = tuple(int(i) for i in hits[0]) if len(hits) else None
    assert _first_nonzero(a) == expected, a
  assert _first_nonzero(last) == (10**5 - 1,)


def test_exactness_bound_of_the_table_scan(monkeypatch):
  # a residual of validation sums 3d products of two cleared numerators,
  # each at most M: float64 below 3*d*M^2 < 2^53, int64 below 2^62, object
  # arrays from there on; the mixed check sums 6d such products
  calls = []
  scan = algebra_core._jacobiator
  monkeypatch.setattr(algebra_core, "_jacobiator", lambda *args, **kw: (
      calls.append(args[0].dtype) or scan(*args, **kw)))

  def table(x, y, z, w):
    """[e0, e2] = z e1 + x e2, [e1, e2] = w e1 + y e2: the only residual
    is x w - y z, at (0, 1, 2, 1)."""
    return make_structure_constants(3, {(0, 2): {1: z, 2: x},
                                        (1, 2): {1: w, 2: y}})

  m = 2**27  # (m + 1)^2 - m(m + 2) = 1, but (m + 1)^2 rounds to m(m + 2)
  big = table(2**63 + 1, 2**63, 2**63 + 2, 2**63 + 1)
  assert big.dense.dtype == object  # numerators beyond 2^63
  cases = [(table(m + 1, m, m + 2, m + 1), np.int64, np.int64),
           (big, object, object)]
  for bits, below, above in ((53, np.float64, np.int64), (62, np.int64, object)):
    top = isqrt((2**bits - 1) // 9)  # 9*top^2 < 2^bits <= 9*(top + 1)^2
    cases += [(table(top - 1, top - 2, top, top - 1), below, above),
              (table(top, top - 1, top + 1, top), above, above)]
  for c, dtype, mixed_dtype in cases:
    calls.clear()
    assert validate_structure_constants(c) == JacobiReport(
        ok=False, violation=(0, 1, 2, 1), residual=F(1))
    # mixed Jacobi of a bracket with itself is minus twice its Jacobiator
    assert mixed_jacobi_check(c, c) == JacobiReport(
        ok=False, violation=(0, 1, 2, 1), residual=F(-2))
    assert calls == [dtype, mixed_dtype]


def test_tables_of_different_dimension_are_refused():
  so3, gl2 = builtin_algebra("so3"), builtin_algebra("gl(2)")
  for check in (mixed_jacobi_check, sum_bracket_table, compatibility_check):
    with pytest.raises(ValueError, match=r"^brackets live on spaces of "
                       r"different dimension$"):
      check(so3, gl2)


# ---------------------------------------------------------------------------
# the kernel's blocks of leading indices


def test_jacobi_plan_visits_every_triple_once_in_c_order():
  def entries(n, u0, block):
    """The two products' entries of the block [u0, u0 + block)."""
    pairs = sum(n - 1 - x for x in range(u0, u0 + block))
    w = n - 1 - u0
    return (pairs * w + w * (w - 1) // 2 * block) * n

  for n in range(3, 65):
    plan = _jacobi_plan(n)
    triples, size, cap = [], n, algebra_core._FIRST_ENTRIES
    for u0, u1, p0, p1, p2, uvt, utv, vtu in plan:
      assert uvt.dtype == utv.dtype == vtu.dtype == np.intp
      w, block = n - 1 - u0, u1 - u0
      # the first block is all n - 2 indices, later ones double the last,
      # each halved while its products hold more entries than its cap
      limit = min(size, n - 2 - u0)
      halved = [limit >> k for k in range(limit.bit_length())]
      assert block in halved, (n, u0)
      assert all(entries(n, u0, x) > cap for x in halved[:halved.index(block)])
      assert block == 1 or entries(n, u0, block) <= cap
      size, cap = 2 * block, algebra_core._BLOCK_ENTRIES
      pairs = [(x, y) for x in range(u0, u1) for y in range(x + 1, n)]
      above = [(x, y) for x in range(u0 + 1, n) for y in range(x + 1, n)]
      upper = [(x, y) for x in range(n) for y in range(x + 1, n)]
      assert (upper[p0:p1], upper[p2:]) == (pairs, above)
      row = {pair: k for k, pair in enumerate(pairs)}
      row_above = {pair: k for k, pair in enumerate(above)}
      # the product rows (u, v) x t, (u, t) x v and (v, t) x u of each triple
      got = list(zip(uvt.tolist(), utv.tolist(), vtu.tolist()))
      for k, (a, b, c) in enumerate(got):
        t, v = u0 + 1 + a % w, u0 + 1 + b % w
        u = u0 + c % block
        assert (a, b, c) == (row[(u, v)] * w + t - u0 - 1,
                             row[(u, t)] * w + v - u0 - 1,
                             row_above[(v, t)] * block + u - u0)
        triples.append((u, v, t))
    assert triples == list(itertools.combinations(range(n), 3)), n
    # one block up to n = 10; from n = 16 on, a first block of one index
    assert len(plan) == 1 if n <= 10 else plan[0][1] == 1 if n >= 16 else True


# numerators of the failing brackets per tier: a scan at d >= 3 sums 3d
# products of them, below 2^53, below 2^62 and beyond it
TIERS = {np.float64: 1, np.int64: 2**25 + 1, object: 2**40 + 1}


def planted(d, triples, big, rng):
  """A table of dimension d that fails Jacobi at each of the disjoint basis
  ``triples`` and nowhere else: on each, [e0, e1] = big e1, [e0, e2] =
  (big + 1) e2 and [e1, e2] = big e1, each bracket with random components
  n along the vectors of no triple, which are central.  All three terms of
  the residual [[e0, e1], e2] - [[e0, e2], e1] + [[e1, e2], e0] =
  big(big + 1) e1 + (2 big + 1) n12 - big n01 are nonzero."""
  others = [e for e in range(d) if not any(e in t for t in triples)]
  brackets = {}
  for triple in triples:
    for (x, y), (e, value) in (((0, 1), (1, big)), ((0, 2), (2, big + 1)),
                               ((1, 2), (1, big))):
      row = {f: F(rng.randint(-3, 3), rng.randint(1, 2)) for f in others}
      row[triple[e]] = F(value)
      brackets[(triple[x], triple[y])] = row
  return make_structure_constants(d, brackets)


def assert_table_scans_match(c, tier):
  """validate, mixed (sign -1) and poisson (transposed right operand) on c
  against the oracle, in ``tier``; returns validate's report."""
  assert _exact_sum_dtype(3 * c.dim * c.max_abs**2) is tier
  report = validate_structure_constants(c)
  assert report == sparse_jacobi_oracle(c.dim, [(c, c)])
  assert poisson_jacobi_check(c) == report
  assert mixed_jacobi_check(c, c) == sparse_jacobi_oracle(
      c.dim, [(c, c), (c, c)], sign=-1)
  return report


@pytest.mark.parametrize("tier", TIERS, ids=lambda t: np.dtype(t).name)
def test_kernel_witness_at_every_basis_triple_in_every_tier(tier):
  # every block boundary of the schedule up to d = 12: one block up to
  # d = 10, (0, 4) and (4, 9) at d = 11, (0, 2), (2, 6) and (6, 10) at 12
  rng = random.Random(2510)
  for d in range(3, 13):
    for triple in itertools.combinations(range(d), 3):
      report = assert_table_scans_match(
          planted(d, [triple], TIERS[tier], rng), tier)
      assert report.violation[:3] == triple


@pytest.mark.parametrize("tier", TIERS, ids=lambda t: np.dtype(t).name)
def test_kernel_reports_the_first_u_of_two_in_one_block(tier):
  # two witnesses at different u in one block: the one with the smaller u,
  # whether its (v, t) comes before or after the other's
  rng = random.Random(2511)
  seen = 0
  for d in (12, 18, 24):
    for u0, u1, *_ in _jacobi_plan(d):
      if u1 - u0 < 2 or u1 + 1 >= d - 2:
        continue
      for first, second in (((u1 - 2, d - 2, d - 1), (u1 - 1, u1, u1 + 1)),
                            ((u0, u1, u1 + 1), (u0 + 1, d - 2, d - 1))):
        c = planted(d, [first, second], TIERS[tier], rng)
        assert assert_table_scans_match(c, tier).violation[:3] == first
        seen += 1
  assert seen >= 12


def certify_table_oracle(w, c):
  """certify's residual [[u, v], t] + [[v, t], u] - [[u, t], v] by the
  sparse oracle on the induced table T[(i, a), (j, b), (s, e)] =
  W^{ij}_s c_ab^e: its cyclic term [[t, u], v] reads -T[u, t] when the
  first bracket is the antisymmetric table cut from T's upper pairs."""
  nd = w.n * c.dim
  x = w.dense.astype(object)[:, None, :, None, :, None]
  y = c.dense.astype(object)[None, :, None, :, None, :]
  table = (x * y).reshape(nd, nd, nd)
  upper = table * np.triu(np.ones((nd, nd), dtype=int), 1)[:, :, None]
  scale = w.scale * c.scale
  return sparse_jacobi_oracle(nd, [
      (StructureConstants(nd, upper - upper.transpose(1, 0, 2), scale),
       StructureConstants(nd, table, scale))])


@pytest.mark.parametrize("tier", TIERS, ids=lambda t: np.dtype(t).name)
def test_certify_witness_of_one_sided_tensors_in_every_tier(tier):
  # one-sided W (entries at i <= j only) make an induced table that is not
  # antisymmetric.  A W on the blocks m.. of G^n only has no residual at a
  # u = (i, a) with i < m, nor at a central a of G, so the witnesses fall in
  # every block of the schedule at n*d = 12: (0, 2), (2, 6) and (6, 10)
  rng = random.Random(2512)
  big, blocks = TIERS[tier], set()
  sl2 = builtin_algebra("sl2")
  for c, n in ((sl2, 4), (builtin_algebra("gl(2)"), 3),
               (builtin_algebra("so(4)"), 2), (sl2, 2),
               (direct_sum([BLOCKS[-1], sl2]), 3),
               (direct_sum([BLOCKS[-1], R2]), 4),
               (direct_sum([BLOCKS[-1]] * 3 + [sl2]), 2)):
    starts = [u0 for u0, *_ in _jacobi_plan(n * c.dim)]
    for i, j, s in itertools.product(range(n), repeat=3):
      if i > j:
        continue
      m = min(i, j, s)
      k = sorted((rng.randrange(m, n), rng.randrange(m, n)))
      w = make_wtensor(n, {(i, j, s): big,
                           (*k, rng.randrange(m, n)): -big - 1})
      assert _exact_sum_dtype(
          3 * n * c.dim * (w.max_abs * c.max_abs)**2) is tier
      report = jacobi_certify(w, c)
      assert report == certify_table_oracle(w, c)
      if not report.ok and n * c.dim == 12:
        blocks.add(max(u0 for u0 in starts if u0 <= report.violation[0]))
  assert blocks == {u0 for u0, *_ in _jacobi_plan(12)} == {0, 2, 6}
