"""Linear (Lie-)Poisson brackets on polynomial functions."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebundle import (InternalCheckError, JacobiReport, SizeCapError,
                       builtin_algebra, casimir_linear_basis, circulant_w,
                       coordinate_poly, induced_structure_constants,
                       invalid_witness_w, involution_check,
                       lie_poisson_bracket, make_poisson_tensor, make_poly,
                       make_structure_constants, pencil_bracket,
                       poisson_jacobi_check, poly_add, poly_diff,
                       poly_from_json, poly_mul, poly_scale, poly_to_json,
                       poly_to_text, so_sym_bundle, sum_bracket_table,
                       validate_structure_constants)
from liebundle import poisson
from liebundle.linalg import _exact_sum_dtype
from liebundle.poisson import is_zero_poly, poly_zero

F = Fraction

BROKEN = {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}


def sl2_tensor():
  return make_poisson_tensor(builtin_algebra("sl2"))


def sl2_casimir():
  # xi_h^2 + 4 xi_e xi_f
  return make_poly(3, {(2, 0, 0): 1, (0, 1, 1): 4})


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_poly_basics():
  f = make_poly(2, {(1, 0): 2, (0, 2): "1/3"})
  g = make_poly(2, {(1, 0): -2})
  s = poly_add(f, g)
  assert s.terms == {(0, 2): F(1, 3)}
  assert is_zero_poly(poly_add(g, poly_scale(g, -1)))
  assert poly_zero(2).terms == {}
  with pytest.raises(ValueError):
    make_poly(2, {(1,): 1})
  with pytest.raises(ValueError):
    make_poly(2, {(1, -1): 1})


def test_poly_mul_oracle():
  # (x0 + x1)^2 = x0^2 + 2 x0 x1 + x1^2
  f = make_poly(2, {(1, 0): 1, (0, 1): 1})
  sq = poly_mul(f, f)
  assert sq.terms == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}


def test_poly_diff_oracle():
  f = make_poly(2, {(3, 1): 2, (0, 1): 5, (1, 0): 7})
  assert poly_diff(f, 0).terms == {(2, 1): F(6), (0, 0): F(7)}
  assert poly_diff(f, 1).terms == {(3, 0): F(2), (0, 0): F(5)}
  assert is_zero_poly(poly_diff(make_poly(2, {(0, 0): 3}), 0))


def small_polys(dim):
  coeff = st.fractions(max_denominator=3, min_value=-3, max_value=3)
  exps = st.tuples(*(st.integers(0, 2) for _ in range(dim)))
  return st.dictionaries(exps, coeff, max_size=3).map(
      lambda d: make_poly(dim, d))


@settings(max_examples=60, deadline=None)
@given(small_polys(3), small_polys(3))
def test_bracket_antisymmetry(f, g):
  t = sl2_tensor()
  fg = lie_poisson_bracket(t, f, g)
  gf = lie_poisson_bracket(t, g, f)
  assert poly_add(fg, gf).terms == {}


@settings(max_examples=40, deadline=None)
@given(small_polys(3), small_polys(3), small_polys(3))
def test_bracket_leibniz_rule(f, g, h):
  t = sl2_tensor()
  lhs = lie_poisson_bracket(t, f, poly_mul(g, h))
  rhs = poly_add(poly_mul(lie_poisson_bracket(t, f, g), h),
                 poly_mul(g, lie_poisson_bracket(t, f, h)))
  assert lhs.terms == rhs.terms


def test_coordinate_brackets_reproduce_structure_constants():
  # {xi_a, xi_b} = sum_e c_ab^e xi_e, for every builtin
  for name in ("sl2", "so3", "heisenberg3"):
    c = builtin_algebra(name)
    t = make_poisson_tensor(c)
    for a in range(c.dim):
      for b in range(c.dim):
        got = lie_poisson_bracket(t, coordinate_poly(c.dim, a),
                                  coordinate_poly(c.dim, b))
        expected = poly_zero(c.dim)
        sign = 1 if a < b else -1
        key = (a, b) if a < b else (b, a)
        for e, v in c.table.get(key, {}).items():
          expected = poly_add(
              expected, poly_scale(coordinate_poly(c.dim, e), sign * v))
        if a == b:
          expected = poly_zero(c.dim)
        assert got.terms == expected.terms


# The bracket as a loop over every table pair on whole polynomials: the
# reference for the support loop in lie_poisson_bracket.
def bracket_oracle(c, f, g):
  d = c.dim
  df = [poly_diff(f, a) for a in range(d)]
  dg = [poly_diff(g, a) for a in range(d)]
  out = poly_zero(d)
  for (a, b), coeffs in c.table.items():
    wedge = poly_add(poly_mul(df[a], dg[b]),
                     poly_scale(poly_mul(df[b], dg[a]), -1))
    if is_zero_poly(wedge):
      continue
    for e, v in coeffs.items():
      term = poly_mul(coordinate_poly(d, e), wedge)
      out = poly_add(out, poly_scale(term, v))
  return out


def jacobi_oracle(c):
  d = c.dim
  xi = [coordinate_poly(d, a) for a in range(d)]
  for a in range(d):
    for b in range(a + 1, d):
      for cc in range(b + 1, d):
        total = poly_zero(d)
        for x, y, z in ((a, b, cc), (b, cc, a), (cc, a, b)):
          inner = bracket_oracle(c, xi[x], xi[y])
          total = poly_add(total, bracket_oracle(c, inner, xi[z]))
        if not is_zero_poly(total):
          exps, value = max(total.terms.items())
          return JacobiReport(ok=False, violation=(a, b, cc, exps.index(1)),
                              residual=value)
  return JacobiReport(ok=True)


def random_poly(rng, dim):
  # degree <= 3, fractional coefficients; constants and zero included
  terms = {}
  for _ in range(rng.choice((0, 1, 2, 4))):
    exps = [0] * dim
    for _ in range(rng.randint(0, 3)):
      exps[rng.randrange(dim)] += 1
    terms[tuple(exps)] = F(rng.randint(-4, 4), rng.randint(1, 5))
  return make_poly(dim, terms)


def test_bracket_matches_the_table_loop_oracle():
  rng = random.Random(61)
  algebras = [builtin_algebra(name) for name in (
      "heisenberg3", "sl2", "so3", "abelian(1)", "abelian(4)", "abelian(10)",
      "so(2)", "so(3)", "so(4)", "so(5)", "gl(2)", "gl(3)")]
  for p in (3, 4):
    for _ in range(2):
      a = [[0] * p for _ in range(p)]
      for r in range(p):
        for s in range(r, p):
          a[r][s] = a[s][r] = F(rng.randint(-3, 3), rng.randint(1, 3))
      algebras.append(so_sym_bundle(p, a))
  for c in algebras:
    assert c.dim <= 10
    cases = [(random_poly(rng, c.dim), random_poly(rng, c.dim))
             for _ in range(25)]
    cases += [(poly_zero(c.dim), random_poly(rng, c.dim)),
              (make_poly(c.dim, {(0,) * c.dim: "-2/3"}),
               random_poly(rng, c.dim))]
    for f, g in cases:
      assert lie_poisson_bracket(c, f, g).terms == bracket_oracle(c, f, g).terms
      assert lie_poisson_bracket(c, g, f).terms == bracket_oracle(c, g, f).terms


def changed_once(rng, c, factor, first=0):
  """c's table times ``factor`` with one coefficient of a bracket (a, b),
  a >= ``first``, moved by 1/2."""
  table = {key: {e: v * factor for e, v in coeffs.items()}
           for key, coeffs in c.table.items()}
  coeffs = table[rng.choice(sorted(key for key in table if key[0] >= first))]
  e = rng.randrange(c.dim)
  coeffs[e] = coeffs.get(e, 0) + F(1, 2)
  return make_structure_constants(c.dim, table)


def test_jacobi_check_matches_the_oracle_on_failing_tables():
  rng = random.Random(67)
  tables = []
  for _ in range(30):
    d = rng.randint(3, 5)
    table = {(a, b): {rng.randrange(d): F(rng.randint(-3, 3), rng.randint(1, 3))}
             for a in range(d) for b in range(a + 1, d) if rng.random() < 0.5}
    tables.append(make_structure_constants(d, table))
  # d = 6-10, with scale > 1 and with numerators past 2^63 (object arrays)
  sym = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
         for _ in range(4)]
  sym = [[sym[min(r, s)][max(r, s)] for s in range(4)] for r in range(4)]
  for c in (builtin_algebra("gl(3)"), builtin_algebra("so(5)"),
            so_sym_bundle(4, sym)):
    for factor in (1, F(2, 3), 2**70):
      tables.append(changed_once(rng, c, factor))
  assert sum(c.scale > 1 for c in tables[30:]) == 9
  assert sum(c.dense.dtype == object for c in tables[30:]) == 3
  # tables that fail only at their last triple: BROKEN on the last three
  # coordinates, the others central
  for d, factor in ((6, 1), (9, F(5, 7)), (7, 2**70)):
    tables.append(make_structure_constants(d, {
        (a + d - 3, b + d - 3): {e + d - 3: v * factor for e, v in
                                 coeffs.items()}
        for (a, b), coeffs in BROKEN.items()}))
  reports = [jacobi_oracle(c) for c in tables]
  for c, expected in zip(tables, reports):
    assert poisson_jacobi_check(c) == expected
  assert sum(not r.ok for r in reports[:30]) >= 10
  assert not any(r.ok for r in reports[30:])
  assert [r.violation[:3] for r in reports[-3:]] == [
      (3, 4, 5), (6, 7, 8), (4, 5, 6)]


def tier(c):
  return _exact_sum_dtype(3 * c.dim * c.max_abs**2)


def test_jacobi_check_at_the_cap():
  # d = 64: the induced table of a dense circulant n = 16 over gl(2), and
  # gl(8); each passes, and fails with a coefficient moved in its last block
  # (the last 4, resp. 8, basis vectors)
  rng = random.Random(71)
  induced = induced_structure_constants(circulant_w(range(1, 17)),
                                        builtin_algebra("gl(2)"))
  for c, block in ((induced, 4), (builtin_algebra("gl(8)"), 8)):
    assert c.dim == 64
    assert poisson_jacobi_check(c) == validate_structure_constants(c)
    assert poisson_jacobi_check(c).ok
    bad = changed_once(rng, c, 1, first=64 - block)
    rep = poisson_jacobi_check(bad)
    assert rep == validate_structure_constants(bad) and not rep.ok


def test_jacobi_check_in_the_int64_tier():
  rng = random.Random(73)
  for name in ("gl(3)", "so(5)"):
    c = changed_once(rng, builtin_algebra(name), 2**25 + 1)
    assert tier(c) is np.int64
    rep = poisson_jacobi_check(c)
    assert rep == jacobi_oracle(c) and not rep.ok


def test_jacobi_check_matches_the_table_scan_on_300_failing_tables():
  # d = 3-12, sparse and dense, in every tier; d <= 5 against the oracle too
  rng = random.Random(79)
  tiers, small, failing = set(), 0, 0
  while failing < 300:
    d = rng.randint(3, 12)
    density = rng.choice((0.15, 0.5, 1.0))
    factor = rng.choice((1, F(2, 3), 2**25 + 1, 2**70))
    c = make_structure_constants(d, {
        (a, b): {e: factor * F(rng.randint(-3, 3), rng.randint(1, 3))
                 for e in range(d) if rng.random() < density}
        for a in range(d) for b in range(a + 1, d)})
    expected = validate_structure_constants(c)
    if expected.ok:
      continue
    failing += 1
    tiers.add(tier(c))
    assert poisson._adjoint_jacobi(c) == expected
    assert poisson_jacobi_check(c) == expected
    if d <= 5:
      small += 1
      assert jacobi_oracle(c) == expected
  assert tiers == {np.float64, np.int64, object} and small >= 50


def test_a_wrong_adjoint_report_is_a_tool_fault(monkeypatch):
  bad = make_structure_constants(3, BROKEN)
  rep = poisson_jacobi_check(bad)
  for wrong in (JacobiReport(ok=True),
                JacobiReport(ok=False, violation=rep.violation,
                             residual=rep.residual + 1)):
    monkeypatch.setattr(poisson, "_adjoint_jacobi", lambda c: wrong)
    with pytest.raises(InternalCheckError):
      poisson_jacobi_check(bad)


# ---------------------------------------------------------------------------
# Jacobi cross-check and Casimirs


def test_jacobi_check_passes_on_valid_tables():
  for name in ("sl2", "so3", "heisenberg3", "abelian(3)", "gl(2)"):
    rep = poisson_jacobi_check(make_poisson_tensor(builtin_algebra(name)))
    assert rep.ok


def test_jacobi_check_accepts_raw_constants_and_flags_bad_ones(monkeypatch):
  bad = make_structure_constants(3, BROKEN)
  # the guarded constructor refuses an invalid table outright ...
  with pytest.raises(ValueError):
    make_poisson_tensor(bad)
  # ... while the checker takes the raw table and reports the violation,
  # in agreement with the direct structure-constant validation
  rep = poisson_jacobi_check(bad)
  direct = validate_structure_constants(bad)
  assert not rep.ok and not direct.ok
  assert rep.violation == direct.violation == (0, 1, 2, 2)
  assert rep.residual == direct.residual == F(-1)
  # a table scan that disagrees is a tool fault
  monkeypatch.setattr(poisson, "validate_structure_constants",
                      lambda c: JacobiReport(ok=True))
  with pytest.raises(InternalCheckError):
    poisson_jacobi_check(bad)


def test_jacobi_check_agrees_on_incompatible_sum():
  h3 = builtin_algebra("heisenberg3")
  aff = make_structure_constants(3, {(1, 2): {1: 1}})
  s = sum_bracket_table(h3, aff)
  rep = poisson_jacobi_check(s)
  direct = validate_structure_constants(s)
  assert (rep.ok, rep.violation, rep.residual) == (
      direct.ok, direct.violation, direct.residual)


def test_jacobi_check_reports_first_violation_on_multi_violation_table():
  # This table violates Jacobi at several triples; both routes must report
  # the lex-FIRST one.  Regression: a failing JacobiReport is falsy, so an
  # early-exit spelled ``if verdict:`` kept scanning and returned the last
  # violation instead.
  c = induced_structure_constants(invalid_witness_w(), builtin_algebra("sl2"))
  rep = poisson_jacobi_check(c)
  assert (rep.ok, rep.violation, rep.residual) == (False, (0, 3, 4, 1), F(4))


def test_sl2_casimir():
  t = sl2_tensor()
  cas = sl2_casimir()
  for a in range(3):
    assert is_zero_poly(lie_poisson_bracket(t, cas, coordinate_poly(3, a)))
  # dropping the factor 4 breaks it
  wrong = make_poly(3, {(2, 0, 0): 1, (0, 1, 1): 1})
  assert not all(
      is_zero_poly(lie_poisson_bracket(t, wrong, coordinate_poly(3, a)))
      for a in range(3))


def test_linear_casimirs_match_centers():
  # heisenberg3: the center span(z) gives the only linear Casimir xi_2
  basis = casimir_linear_basis(make_poisson_tensor(
      builtin_algebra("heisenberg3")))
  assert len(basis) == 1
  assert basis[0].terms == {(0, 0, 1): F(1)}
  # sl2 is centerless: no linear Casimirs (the quadratic one is invisible)
  assert casimir_linear_basis(sl2_tensor()) == []
  # abelian: every coordinate is a Casimir
  basis = casimir_linear_basis(make_poisson_tensor(
      builtin_algebra("abelian(2)")))
  assert len(basis) == 2
  # gl(3): the trace, also on numerators past 2^63 (Python integers)
  gl3 = builtin_algebra("gl(3)")
  trace = {tuple(int(i == a) for i in range(9)): F(1) for a in (0, 4, 8)}
  assert [f.terms for f in casimir_linear_basis(gl3)] == [trace]
  big = make_structure_constants(9, {key: {e: v * 2**70 for e, v in
                                           coeffs.items()}
                                     for key, coeffs in gl3.table.items()})
  assert big.dense.dtype == object
  assert [f.terms for f in casimir_linear_basis(big)] == [trace]


def test_a_non_central_vector_is_a_tool_fault(monkeypatch):
  # xi_2 is central in heisenberg3, also as a Fraction; xi_0 is not
  h3 = builtin_algebra("heisenberg3")
  monkeypatch.setattr(poisson, "center_basis",
                      lambda c: [(F(0), F(0), F(1, 2))])
  assert casimir_linear_basis(h3)[0].terms == {(0, 0, 1): F(1, 2)}
  monkeypatch.setattr(poisson, "center_basis",
                      lambda c: [(F(0), F(0), F(1, 2)), (F(1), F(0), F(0))])
  with pytest.raises(InternalCheckError):
    casimir_linear_basis(h3)
  # exactly: sum_a z_a c_a3^0 = (2^60 + 1) + 2 - (2^60 + 2) = 1, which is 0
  # in float64
  c = make_structure_constants(4, {(0, 3): {0: 2**60 + 1}, (1, 3): {0: 2},
                                   (2, 3): {0: 2**60 + 2}})
  monkeypatch.setattr(poisson, "center_basis",
                      lambda c: [(F(1), F(1), F(-1), F(0))])
  with pytest.raises(InternalCheckError):
    casimir_linear_basis(c)


def test_non_table_arguments_are_refused():
  f = sl2_casimir()
  for bad in (f, {(0, 1): {2: 1}}, None):
    with pytest.raises(ValueError):
      poisson_jacobi_check(bad)
    with pytest.raises(ValueError):
      lie_poisson_bracket(bad, f, f)
    with pytest.raises(ValueError):
      casimir_linear_basis(bad)
    with pytest.raises(ValueError):
      involution_check(bad, [f, f])


def test_make_poisson_tensor_returns_its_table():
  for name in ("sl2", "heisenberg3", "gl(3)"):
    c = builtin_algebra(name)
    assert make_poisson_tensor(c) is c


def random_terms(rng, count, dim=3, top=13):
  """``count`` distinct exponent tuples below ``top`` with nonzero integer
  values."""
  return {tuple(int(k) for k in np.unravel_index(i, (top,) * dim)):
          rng.choice((-1, 1)) * rng.randint(1, 9)
          for i in rng.sample(range(top**dim), count)}


def test_bracket_work_is_capped_before_any_product(monkeypatch):
  # {xi_h, xi_e} = 2 xi_e forms one product
  c = builtin_algebra("sl2")
  h, e = coordinate_poly(3, 0), coordinate_poly(3, 1)
  monkeypatch.setattr(poisson, "MAX_BRACKET_WORK", 1)
  assert lie_poisson_bracket(c, h, e).terms == {(0, 1, 0): F(2)}
  monkeypatch.setattr(poisson, "MAX_BRACKET_WORK", 0)
  with pytest.raises(SizeCapError):
    lie_poisson_bracket(c, h, e)
  monkeypatch.undo()
  # 2,000 terms each, about 2e7 products (222 s uncapped), refused
  # before _bracket is reached
  rng = random.Random(83)
  f, g = (make_poly(3, random_terms(rng, 2000)) for _ in range(2))

  def no_bracket(*args):
    raise AssertionError("the bracket ran past the cap")

  monkeypatch.setattr(poisson, "_bracket", no_bracket)
  with pytest.raises(SizeCapError):
    lie_poisson_bracket(c, f, g)
  with pytest.raises(SizeCapError):
    involution_check([c], [f, g])


def test_involution_check():
  t = sl2_tensor()
  cas = sl2_casimir()
  h = coordinate_poly(3, 0)
  assert involution_check([t], [cas, cas])
  assert involution_check([t], [cas, h])     # Casimir commutes with anything
  e = coordinate_poly(3, 1)
  assert not involution_check([t], [h, e])   # {h, e} = 2e != 0


def test_pencil_bilinearity_of_poisson_brackets():
  # for a compatible pair, the pencil bracket of functions is the pointwise
  # combination of the two brackets
  a = make_structure_constants(3, {(0, 1): {2: 1}})
  b = make_structure_constants(3, {(0, 1): {2: -3}, (0, 2): {1: 2}})
  rng = random.Random(47)
  for _ in range(5):
    lam = F(rng.randint(-3, 3), rng.choice((1, 2)))
    mu = F(rng.randint(-3, 3), rng.choice((1, 2)))
    pen = make_poisson_tensor(pencil_bracket(a, b, lam, mu))
    ta, tb = make_poisson_tensor(a), make_poisson_tensor(b)
    f = make_poly(3, {(1, 1, 0): 2, (0, 0, 1): "1/2"})
    g = make_poly(3, {(1, 0, 1): 1})
    direct = lie_poisson_bracket(pen, f, g)
    combined = poly_add(poly_scale(lie_poisson_bracket(ta, f, g), lam),
                        poly_scale(lie_poisson_bracket(tb, f, g), mu))
    assert direct.terms == combined.terms


# ---------------------------------------------------------------------------
# serialization and rendering


def test_poly_json_round_trip():
  polys = [sl2_casimir(), poly_zero(2),
           make_poly(2, {(0, 0): "-7/3", (2, 1): 1})]
  for f in polys:
    back = poly_from_json(poly_to_json(f))
    assert back.dim == f.dim and back.terms == f.terms


def test_poly_json_sorted_and_strict():
  doc = poly_to_json(sl2_casimir())
  assert doc == {"dim": 3, "terms": [{"exps": [0, 1, 1], "value": "4"},
                                     {"exps": [2, 0, 0], "value": "1"}]}


@pytest.mark.parametrize("doc", [
    {"dim": 2},
    {"dim": 2, "terms": [], "x": 1},
    {"dim": 2, "terms": [{"exps": [0], "value": "1"}]},
    {"dim": 2, "terms": [{"exps": [0, 0], "value": "0"}]},
    {"dim": 2, "terms": [{"exps": [0, 0], "value": "2/4"}]},
    {"dim": 2, "terms": [{"exps": [0, -1], "value": "1"}]},
    {"dim": 2, "terms": [{"exps": [0, 1], "value": "1"},
                         {"exps": [0, 1], "value": "2"}]},
    {"dim": True, "terms": []},
])
def test_poly_json_rejects_malformed(doc):
  with pytest.raises(ValueError):
    poly_from_json(doc)


def test_poly_to_text_oracles():
  assert poly_to_text(poly_zero(3)) == "0"
  assert poly_to_text(sl2_casimir()) == "4*x1*x2 + x0^2"
  f = make_poly(2, {(0, 0): "-1/2", (1, 1): -1, (2, 0): 3})
  assert poly_to_text(f) == "-1/2 - x0*x1 + 3*x0^2"
  assert poly_to_text(coordinate_poly(2, 1)) == "x1"
