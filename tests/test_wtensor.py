"""W-tensor families, validation routes, truncation, extensions, JSON."""

import gc
import random
import re
import weakref
from collections import Counter
from collections.abc import Mapping
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
from liebundle.linalg import (_exact_sum_dtype, identity_matrix, mats_equal,
                              nullspace, rank)
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


def entries_cases(rng):
  """Tensors of every builder and loader, some with numerators beyond
  2^63 (Python integers)."""
  cases = [leibnitz_w(6), direct_sum_w(5), leibnitz_deform(7, F(-7, 3)),
           circulant_w(rand_alpha(rng, 6)), make_wtensor(1, {}),
           invalid_witness_w(), truncate_to_solvable(leibnitz_w(6)),
           wtensor_from_json(wtensor_to_json(leibnitz_deform(5, F(2, 3)))),
           make_wtensor(3, {(0, 1, 2): 2**70 + 1, (1, 0, 2): -2**64,
                            (2, 2, 2): F(1, 3)})]
  for _ in range(20):
    n = rng.randint(1, 8)
    cases.append(make_wtensor(n, {
        tuple(rng.randrange(n) for _ in range(3)): rng.choice(
            (2**70 + 1, -2**64 - 3, F(2**63, 7), 3)) for _ in range(3 * n)}))
  return cases + [seeded_symmetric_tensor(rng, kind) for _ in range(20)
                  for kind in ("sparse", "perturbed", "int64", "big", "gaps")]


def test_entries_is_a_read_only_view_in_c_order():
  rng = random.Random(41)
  objects = 0
  for w in entries_cases(rng):
    where = np.nonzero(w.dense)
    expected = {key: F(x, w.scale) for key, x in zip(
        zip(*(a.tolist() for a in where)), w.dense[where].tolist())}
    view = w.entries
    assert isinstance(view, Mapping) and not isinstance(view, dict)
    assert len(view) == np.count_nonzero(w.dense) == len(expected)
    assert view == expected and expected == view
    assert dict(view) == expected
    assert list(view.items()) == list(expected.items())  # C order
    with pytest.raises(TypeError):
      view[(0, 0, 0)] = F(1)
    n = w.n
    for key in ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (n, 0, 0), (0, n, 0),
                (0, 0, n), (0, 0), (0, 0, 0, 0), (), 0, [0, 0, 0], "abc",
                None):
      assert view.get(key) is None and key not in view
    for i, j, s in list(view)[:10]:  # a negative index does not wrap
      assert view.get((i - n, j, s)) is view.get((i, j, s - n)) is None
    for key in np.argwhere(w.dense == 0)[:10].tolist():
      assert view.get(tuple(key)) is None
    # a bool or an integral float equals its int, as a key of the dict this
    # view replaced, and a bool must not become an array mask
    for key in ((True, 0, 0), (0, True, False), (True, True, True),
                (np.True_, 0, np.False_), (1.0, 0, 0), (0, 0, F(1)),
                (np.float64(1), 1, 0)):
      plain = tuple(map(int, key))
      assert view.get(key) == expected.get(plain) == expected.get(key)
      assert (key in view) == (plain in expected) == (key in expected)
    for key in ((0.5, 0, 0), (float("nan"), 0, 0), (float("inf"), 0, 0),
                ("0", 0, 0), (None, 0, 0), ([0], 0, 0), (0, 0, 1j)):
      assert view.get(key) is None and key not in view
    objects += w.dense.dtype == object
  assert objects >= 10
  # the negative index of a present entry, which an array index would wrap
  assert (5, 0, 5) in leibnitz_w(6).entries
  assert leibnitz_w(6).entries.get((-1, 0, -1)) is None


def test_max_abs_is_the_largest_absolute_numerator():
  rng = random.Random(76)
  big = 2**63 + 5
  tables = [
      leibnitz_deform(6, F(-7, 3)), make_wtensor(4, {}), make_wtensor(1, {}),
      circulant_w([F(rng.randint(-9, 9)) for _ in range(64)]),
      make_wtensor(3, {(0, 1, 2): -big, (1, 0, 2): 3}),  # object, negative
      make_wtensor(3, {(0, 1, 2): big, (2, 2, 2): -big + 1}),
      make_wtensor(2, {(0, 0, 1): -5, (1, 1, 0): 4}),  # int64, negative
      make_wtensor(2, {(0, 0, 1): -(2**63 - 1)}),
      builtin_algebra("gl(3)"), builtin_algebra("abelian(3)"),
      make_structure_constants(3, {(0, 1): {2: -big}, (1, 2): {0: 7}}),
      make_structure_constants(3, {(0, 1): {2: F(1, 3)}, (1, 2): {0: -2}}),
      so_sym_bundle(4, [[1, -9, 0, 2], [-9, 0, 3, 0], [0, 3, 2, 0],
                        [2, 0, 0, 1]])]
  kinds = set()
  for t in tables:
    assert t.max_abs == int(np.abs(t.dense).max())
    assert type(t.max_abs) is int
    kinds.add((t.dense.dtype == object, t.max_abs == 0,
               t.max_abs == -int(t.dense.min()) > int(t.dense.max())))
  assert {(False, True, False), (False, False, True), (True, False, True),
          (True, False, False)} <= kinds


def test_a_read_of_entries_leaves_no_reference_cycle():
  # W is freed when its last reference goes, not at the next cycle
  # collection: a W's dense array can take n^3 = 262,144 numerators
  gc.disable()
  try:
    w = leibnitz_w(8)
    assert len(w.entries) == 36 and w.entries == w.entries
    ref = weakref.ref(w)
    del w
    assert ref() is None
  finally:
    gc.enable()


def test_entries_counts_and_iterates_without_fractions(monkeypatch):
  w = circulant_w(range(1, 33))
  monkeypatch.setattr(wtensor, "Fraction", None)  # any Fraction would fail
  assert len(w.entries) == 32**3
  assert list(w.entries)[:2] == [(0, 0, 0), (0, 0, 1)]


def dense_symmetry_oracle(w):
  """The dense symmetry scan the coordinate form replaced: the first
  (i, j, s) in C order with W^{ij}_s != W^{ji}_s on the cleared copy, or
  None when W is symmetric."""
  dense = w.dense.astype(validation_dtype(w))
  hits = np.argwhere(dense != dense.transpose(1, 0, 2))
  if not len(hits):
    return None
  i, j, s = (int(x) for x in hits[0])
  return WValidationReport(
      ok=False, failure="symmetry", indices=(i, j, s),
      residual=F(int(dense[i, j, s] - dense[j, i, s]), w.scale))


def seeded_one_sided_tensor(rng, kind):
  """A W, n up to 12, that fails symmetry at one or more (i, j, s), i < j:
  "zero-first" keeps only (j, i, s), "zero-second" only (i, j, s), "unequal"
  both sides with different values, "several" a few of each; "int64" and
  "big" put numerators near 2^27 and 2^70 into an "unequal" or one-sided
  break."""
  n = rng.randint(2, 12)
  top = {"int64": 2**27, "big": 2**70}.get(kind)
  value = lambda: (top + rng.randint(-3, 3) if top else
                   F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 1, 2, 3))))
  entries = {}
  for _ in range(rng.randint(0, 3 * n)):
    i, j, s = (rng.randrange(n) for _ in range(3))
    entries[(i, j, s)] = entries[(j, i, s)] = value()
  breaks = {"several": rng.randint(2, 4)}.get(kind, 1)
  for _ in range(breaks):
    (i, j), s = sorted(rng.sample(range(n), 2)), rng.randrange(n)
    how = kind if kind in ("zero-first", "zero-second", "unequal") else (
        rng.choice(("zero-first", "zero-second", "unequal")))
    a, b = value(), value()
    while b == a:
      b = value()
    entries[(i, j, s)], entries[(j, i, s)] = {
        "zero-first": (0, a), "zero-second": (a, 0), "unequal": (a, b)}[how]
  return make_wtensor(n, entries)


def test_symmetry_scan_matches_the_dense_scan():
  # the coordinate scan gathers each entry's mirror; the dense scan compares
  # every cell with its transpose.  The reports, and so the first violation
  # and its residual, must be equal
  rng = random.Random(31)
  kinds = ("zero-first", "zero-second", "unequal", "several", "int64", "big")
  seen = Counter()
  for trial in range(1200):
    kind = kinds[trial % len(kinds)]
    w = seeded_one_sided_tensor(rng, kind)
    expected = dense_symmetry_oracle(w)
    assert expected is not None
    assert wtensor_validate(w) == expected, (kind, w.n, dict(w.entries))
    i, j, s = expected.indices
    seen[(kind, (i, j, s) in w.entries, (j, i, s) in w.entries)] += 1
    seen[(kind, w.dense.dtype)] += 1
  assert seen[("zero-first", False, True)] == 200
  assert seen[("zero-second", True, False)] == 200
  assert seen[("unequal", True, True)] == 200
  for kind in ("several", "int64", "big"):
    assert seen[(kind, False, True)] and seen[(kind, True, True)]
  assert seen[("int64", np.dtype(np.int64))] == 200
  assert seen[("big", np.dtype(object))] == 200
  # and a symmetric W passes the scan
  for trial in range(200):
    w = seeded_symmetric_tensor(rng, ("sparse", "family", "big")[trial % 3])
    assert dense_symmetry_oracle(w) is None
    assert wtensor_validate(w).failure != "symmetry"


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


def validation_dtype(w):
  """The dtype of W's validation routes: every product and partial sum of a
  commutator or residual entry is at most 2*n*M^2 (M the largest cleared
  entry)."""
  return _exact_sum_dtype(2 * w.n * w.max_abs**2)


def bound_cases():
  """(W, validation dtype) with n = 2 and residual 1 at (0, 0, 1, 0), on
  each side of the 2^53 and 2^62 bounds, and one whose residual float64
  rounds away: (m + 1)^2 - m(m + 2) = 1, but (m + 1)^2 rounds to m(m + 2)."""
  m = 2**27
  cases = [(bd_minus_fc(m + 1, m + 2, m + 1, m), np.int64)]
  for bits, below, above in ((53, np.float64, np.int64), (62, np.int64, object)):
    top = isqrt((2**bits - 1) // 4)  # 2*2*top^2 < 2^bits <= 2*2*(top + 1)^2
    cases += [(bd_minus_fc(top - 1, top, top - 1, top - 2), below),
              (bd_minus_fc(top, top + 1, top, top - 1), above)]
  return cases


def test_exactness_bound_of_the_float64_route(monkeypatch):
  # integers below 2^53 are exact in float64, and below 2^63 in int64; W
  # takes the float64 route while 2*n*M^2 < 2^53, int64 while it is below
  # 2^62, and object arrays from there on
  dtypes = []
  slices = wtensor._validate_by_slices
  monkeypatch.setattr(wtensor, "_validate_by_slices", lambda dense, scale: (
      dtypes.append(dense.dtype) or slices(dense, scale)))

  for w, dtype in bound_cases():
    assert validation_dtype(w) == dtype
    for cross_check in (False, True):
      report = wtensor_validate(w, cross_check=cross_check)
      assert report == direct_oracle(w)
      assert (report.indices, report.residual) == ((0, 0, 1, 0), 1)
    assert dtypes == [dtype, dtype]
    dtypes.clear()
  # the symmetry scan reads the numerators: 2^60 + 1 and 2^60 are one float
  one_sided = make_wtensor(2, {(0, 1, 0): 2**60 + 1, (1, 0, 0): 2**60})
  assert wtensor_validate(one_sided) == WValidationReport(
      ok=False, failure="symmetry", indices=(0, 1, 0), residual=F(1))


def join_route(dense, scale):
  """The entry join on the coordinate form of a cleared dense copy."""
  flat = np.flatnonzero(dense)
  return wtensor._validate_by_join(dense.shape[0], flat, dense.ravel()[flat],
                                   scale)


def test_exactness_bound_of_the_join():
  # n = 2 takes the slice route in wtensor_validate, so the join is called
  # on the same cleared numerators directly
  for w, dtype in bound_cases():
    dense = w.dense.astype(validation_dtype(w))
    assert dense.dtype == dtype
    report = join_route(dense, w.scale)
    assert report == direct_oracle(w)
    assert (report.indices, report.residual) == ((0, 0, 1, 0), 1)
  # the first case is one the float64 copy gets wrong
  w = bound_cases()[0][0]
  assert join_route(w.dense.astype(np.float64), w.scale) != direct_oracle(w)


def test_the_route_follows_the_nonzero_products(monkeypatch):
  # sparse tensors take the join, dense circulants the slice products
  ran = []
  for name in ("_validate_by_join", "_validate_by_slices"):
    monkeypatch.setattr(wtensor, name, lambda *args, name=name,
                        route=getattr(wtensor, name): (
                            ran.append(name) or route(*args)))
  alpha = [k % 5 + 1 for k in range(64)]
  valid = WValidationReport(ok=True)
  planted = WValidationReport(ok=False, failure="quadratic",
                              indices=(5, 0, 3, 3), residual=F(1, 2))
  cases = [(leibnitz_w(64), "_validate_by_join", False, valid),
           (direct_sum_w(64), "_validate_by_join", False, valid),
           (planted_w(40, [(5, 9, 3, F(1, 2))]), "_validate_by_join", True,
            planted)]
  # mid-size deformations, whose slice batches cost more than their join;
  # at n = 4 the join's fixed cost is more than the slices'
  cases += [(leibnitz_deform(n, F(-7, 3)), route, True, valid)
            for n, route in ((4, "_validate_by_slices"),
                             (16, "_validate_by_join"),
                             (24, "_validate_by_join"),
                             (32, "_validate_by_join"),
                             (48, "_validate_by_join"))]
  cases += [(circulant_w(alpha[:n]), "_validate_by_slices", n < 64, valid)
            for n in (2, 4, 8, 12, 16, 64)]
  for w, route, cross_check, expected in cases:
    assert wtensor_validate(w, cross_check=cross_check) == expected
    assert ran == [route]
    ran.clear()


def quadratic_routes(w, dtype=None):
  """Reports of the join, the slice products and the direct contraction on
  the cleared copy of a symmetric W, in ``dtype`` or W's validation dtype."""
  dense = w.dense.astype(dtype or validation_dtype(w))
  return [route(dense, w.scale) for route in (
      join_route, wtensor._validate_by_slices, wtensor._validate_direct)]


def seeded_symmetric_tensor(rng, kind):
  """A symmetric W of the given kind, n up to 12."""
  n = rng.randint(1, 12)
  value = lambda: F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 1, 2, 3)))
  if kind in ("family", "perturbed"):
    w = rng.choice((
        lambda: leibnitz_w(n), lambda: direct_sum_w(n),
        lambda: leibnitz_deform(n, rng.choice(LAMBDA_SET)),
        lambda: circulant_w(rand_alpha(rng, min(n, 6)))))()
    if kind == "family":
      return w
    # one more symmetric pair of entries, which most often breaks W
    entries = dict(w.entries)
    i, j, s = (rng.randrange(w.n) for _ in range(3))
    entries[(i, j, s)] = entries[(j, i, s)] = value()
    return make_wtensor(w.n, entries)
  if kind == "planted":  # one failing pair (x, 0, q, q) and nothing else
    x, a, q = rng.sample(range(1, max(n, 4)), 3)
    return planted_w(max(n, 4), [(x, a, q, value())])
  if kind == "zero":
    return make_wtensor(n, {})
  # random entries; "gaps" keeps every other lower index empty, "int64" puts
  # them near 2^27, which takes int64 arrays, and "big" near 2^40, which
  # takes object arrays
  lows = range(rng.randrange(2), n, 2) if kind == "gaps" else range(n)
  if not lows:
    return make_wtensor(n, {})
  entries, top = {}, {"big": 2**40, "int64": 2**27}.get(kind)
  for _ in range(rng.randint(1, 3 * n)):
    i, j, s = rng.randrange(n), rng.randrange(n), rng.choice(lows)
    entries[(i, j, s)] = entries[(j, i, s)] = (
        top + rng.randint(-3, 3) if top else value())
  return make_wtensor(n, entries)


def test_join_slices_and_direct_agree_on_seeded_tensors():
  rng = random.Random(23)
  kinds = ("family", "perturbed", "sparse", "planted", "big", "int64", "gaps",
           "zero")
  seen, ones = Counter(), 0
  for trial in range(1600):
    kind = kinds[trial % len(kinds)]
    w = seeded_symmetric_tensor(rng, kind)
    join, slices, direct = quadratic_routes(w)
    assert join == slices == direct, (kind, w.n, w.entries)
    seen[(kind, join.ok)] += 1
    ones += w.n == 1
    if kind in ("big", "int64"):
      assert validation_dtype(w) == (object if kind == "big" else np.int64)
    if kind == "int64":  # the same reports in Python integers
      assert quadratic_routes(w, object) == [join] * 3, (w.n, w.entries)
  for kind in ("perturbed", "sparse", "big", "int64", "gaps"):
    assert seen[(kind, True)] and seen[(kind, False)] >= 20
  assert seen[("family", True)] == seen[("planted", False)] == 200
  assert seen[("zero", True)] == 200
  assert sum(count for (_, ok), count in seen.items() if not ok) >= 500
  assert ones >= 50


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_the_join_in_small_chunks(monkeypatch, chunk):
  # a chunk holds whole lower indices, more than ``chunk`` products when one
  # index has more; the first failing chunk must hold the first witness
  monkeypatch.setattr(wtensor, "_JOIN_CHUNK", chunk)
  rng = random.Random(chunk)
  for trial in range(210):
    kind = ("perturbed", "sparse", "gaps")[trial % 3]
    w = seeded_symmetric_tensor(rng, kind)
    join, _, direct = quadratic_routes(w)
    assert join == direct, (kind, w.n, w.entries)


def test_the_join_reaches_a_late_witness(monkeypatch):
  # leibnitz_w(64) joins 45,760 products in several chunks; a pair added at
  # lower index 63 leaves every residual of a smaller lower index zero, so
  # only the last chunk fails
  entries = dict(leibnitz_w(64).entries)
  entries[(1, 5, 63)] = entries[(5, 1, 63)] = F(1, 3)
  w = make_wtensor(64, entries)
  joined = []
  join = wtensor._validate_by_join
  monkeypatch.setattr(wtensor, "_validate_by_join", lambda n, flat, vals,
                      scale: joined.append(vals.dtype) or join(n, flat, vals,
                                                               scale))
  report = wtensor_validate(w, cross_check=True)  # against the dense route
  assert joined == [np.float64]
  i, s, q, p = report.indices
  assert i == 63 and not report.ok
  get = lambda a, b, c: entries.get((a, b, c), 0)
  assert report.residual == sum(
      get(s, k, i) * get(q, p, k) - get(q, k, i) * get(s, p, k)
      for k in range(64))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_the_join_matches_the_direct_contraction(n, data):
  entries = {}
  for _ in range(data.draw(st.integers(0, 2 * n))):
    i, j, s = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    entries[(i, j, s)] = entries[(j, i, s)] = data.draw(
        st.sampled_from((-2, -1, 1, 3)))
  join, _, direct = quadratic_routes(make_wtensor(n, entries))
  assert join == direct


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


def test_certify_entries_beyond_int64(induced_route):
  sl2 = builtin_algebra("sl2")
  big = F(2**63 + 1)
  witness = make_wtensor(2, {(0, 1, 0): big, (1, 0, 0): big})  # scaled
  for w in (make_wtensor(2, {(0, 0, 0): big, (1, 1, 1): 1}),  # valid
            witness,
            make_wtensor(2, {(0, 1, 1): big, (0, 0, 0): 1})):  # one-sided
    assert jacobi_certify(w, sl2) == certify_oracle(w, sl2)
    assert induced_route[-1][0] == object
  # a one-sided W in the int64 tier: 3*n*d*(Mw*Mc)^2 is about 2^56.2
  w = make_wtensor(2, {(0, 1, 1): 2**25 + 1, (0, 0, 0): 2**25 - 3,
                       (1, 1, 0): -2**25})
  rep = jacobi_certify(w, sl2)
  assert induced_route[-1] == (np.int64, rep) and not rep.ok
  assert rep == certify_oracle(w, sl2)
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
  # a one-sided W is cross-checked by the same table route
  for w in (direct_sum_w(2), make_wtensor(2, {(0, 1, 1): 1, (0, 0, 0): 1})):
    with pytest.raises(InternalCheckError):
      jacobi_certify(w, sl2)


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


def factorised_oracle(w, c):
  """The certify report by the loop of its first factorised route: for each
  leading index u = (i, a), the (nd)^3 block A(ijk) D(abc) + A(jki) D(bca)
  - A(ikj) D(acb) as two outer products of A and D parts, in Python
  integers, scanned for its first entry with u < v < t."""
  n, d = w.n, c.dim
  nd = n * d
  wd, cd = w.dense.astype(object), c.dense.astype(object)

  def contract(x, y):  # sum_e x[..., e] y[e, ...]
    k = y.shape[0]
    return (x.reshape(-1, k) @ y.reshape(k, -1)).reshape(
        x.shape[:-1] + y.shape[1:])

  def outer(x, y):  # x[j, k, t] y[b, c, f] at [(j, b), (k, c), (t, f)]
    return (x[:, None, :, None, :, None]
            * y[None, :, None, :, None, :]).reshape(nd, nd, nd)

  later = np.triu(np.ones((nd, nd), dtype=bool), 1)  # later[v, t]: t > v
  for i in range(n):
    # A[i, j, k, t] and A[j, k, i, t], each at [j, k, t]
    a1, a2 = contract(wd[i], wd), contract(wd, wd[:, i])
    for a in range(d):
      u = i * d + a
      # D[a, b, c, f] and D[b, c, a, f], each at [b, c, f]; A(ikj) D(acb)
      # at [v, t] is A(ijk) D(abc) at [t, v]
      o = outer(a1, contract(cd[a], cd))
      r = o - o.transpose(1, 0, 2) + outer(a2, contract(cd, cd[:, a]))
      hits = np.argwhere((r[u + 1:] != 0) & later[u + 1:, :, None])
      if len(hits):
        v, t, f = (int(x) for x in hits[0])
        v += u + 1
        return JacobiReport(ok=False, violation=(u, v, t, f), residual=F(
            int(r[v, t, f]), (w.scale * c.scale)**2))
  return JacobiReport(ok=True)


def test_certify_matches_the_factorised_loop():
  rng = random.Random(118)
  algebras = [builtin_algebra(x) for x in ("sl2", "so3", "heisenberg3",
                                           "gl(2)", "so(4)", "gl(3)")]
  seen, count = set(), 0
  while count < 300:
    for g in algebras:
      n = rng.randint(1, max(1, 15 // g.dim))
      tensors = random_certify_tensors(rng, n)
      w = rng.choice(tensors)  # entries of 2^63 and more, fractions kept
      tensors.append(make_wtensor(n, {key: v * (2**63 + rng.randint(0, 5))
                                      for key, v in w.entries.items()}))
      for w in tensors:
        rep = jacobi_certify(w, g)
        assert rep == factorised_oracle(w, g), (w.entries, g.name)
        symmetric = all(w.entries.get((j, i, s)) == v
                        for (i, j, s), v in w.entries.items())
        seen.add((symmetric, rep.ok, w.max_abs >= 2**63, w.scale > 1))
        count += 1
  assert {x[:2] for x in seen} == {(True, True), (True, False),
                                   (False, True), (False, False)}
  assert {x[2] for x in seen} == {x[3] for x in seen} == {True, False}


def dense_symmetric_w(rng, n, top=None):
  """A seeded W with a value at every symmetric pair (i <= j, s): near
  ``top`` when it is given, else small fractions, now and then zero."""
  entries = {}
  for i in range(n):
    for j in range(i, n):
      for s in range(n):
        entries[(i, j, s)] = entries[(j, i, s)] = (
            top + rng.randint(-3, 3) if top else
            F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))
  return make_wtensor(n, entries)


# the benchmark's largest certify shapes, n*d = 36
LARGEST_SHAPES = (("sl2", 12), ("gl(2)", 9), ("so(4)", 6), ("gl(3)", 4))


def test_certify_witness_of_dense_tensors_at_the_largest_shapes():
  # a dense random W fails at u = 0, where both routes' first block holds
  # thousands of nonzeros; the witness is the first of them
  rng = random.Random(3636)
  for name, n in LARGEST_SHAPES:
    g = builtin_algebra(name)
    for _ in range(2):
      w = dense_symmetric_w(rng, n)
      rep = jacobi_certify(w, g)
      assert not rep.ok and rep.violation[0] == 0
      assert rep == factorised_oracle(w, g) == certify_oracle(w, g), name
      # one-sided: a few mirrors cut, or only the entries with i <= j kept
      entries = dict(w.entries)
      for key in rng.sample([k for k in entries if k[0] < k[1]], 3):
        del entries[key[1], key[0], key[2]]
      for one_sided in (entries, {k: v for k, v in w.entries.items()
                                  if k[0] <= k[1]}):
        v = make_wtensor(n, one_sided)
        rep = jacobi_certify(v, g)
        assert rep == factorised_oracle(v, g) == certify_oracle(v, g), name


@pytest.fixture
def built(monkeypatch):
  """(n - j, d - b0) of every slice certify's rank-two route builds: it
  searches a nonzero block u = (i, a) one leading index j >= i of v = (j, b)
  at a time, over b >= b0, as one product of [x, y] at [2, k >= j, t] and
  [p, q] at [2, b >= b0, c, f]."""
  calls = []
  build = wtensor._witness_slice
  monkeypatch.setattr(wtensor, "_witness_slice", lambda xy, pq: (
      calls.append((xy.shape[1], pq.shape[1])) or build(xy, pq)))
  return calls


def test_certify_witness_in_the_last_block_that_can_hold_one(built):
  # a block u = (i, a) whose v and t lie in block i too is zero (it is G's
  # Jacobiator times A(iii)), so block n - 2 is the last that can hold a
  # witness; coupling only blocks n - 2 and n - 1 puts it there, and it is
  # the first and only block searched: its slice j = n - 2 (b > a = 0) has
  # no entry, and its witness v lies in slice j = n - 1
  for name, n in LARGEST_SHAPES + (("so3", 2), ("gl(2)", 3)):
    g = builtin_algebra(name)
    w = make_wtensor(n, {(n - 2, n - 1, n - 2): 1, (n - 1, n - 2, n - 2): 1})
    built.clear()
    rep = jacobi_certify(w, g)
    assert rep.violation[0] == (n - 2) * g.dim, name
    assert rep.violation[1] // g.dim == n - 1, name
    assert built == [(2, g.dim - 1), (1, g.dim)], name
    assert rep == factorised_oracle(w, g), name
    if n * g.dim <= 12:  # certify_oracle takes over a second at n*d = 36
      assert rep == certify_oracle(w, g), name


@pytest.mark.parametrize("top, dtype", [(2**25, np.int64), (2**40, object)])
def test_certify_witness_in_the_integer_tiers(monkeypatch, top, dtype):
  # entries near 2^25 put 3*n*d*(Mw*Mc)^2 above 2^53 (int64), near 2^40
  # above 2^62 (Python integers), already at n*d = 6
  dtypes = []
  route = wtensor._certify_rank_two
  monkeypatch.setattr(wtensor, "_certify_rank_two", lambda wd, cd, scale: (
      dtypes.append(wd.dtype) or route(wd, cd, scale)))
  rng = random.Random(top)
  for name, n in (("sl2", 2), ("so3", 2), ("gl(2)", 2), ("sl2", 3)):
    g = builtin_algebra(name)
    w = dense_symmetric_w(rng, n, top)
    entries = dict(w.entries)
    del entries[max(k for k in entries if k[0] > k[1])]
    for v in (w, make_wtensor(n, entries)):  # symmetric and one-sided
      rep = jacobi_certify(v, g)
      assert dtypes[-1] == dtype and not rep.ok
      assert rep == factorised_oracle(v, g) == certify_oracle(v, g), name


def factor_parts(w, c):
  """A[i, j, k, t] = sum_s W^{ij}_s W^{sk}_t and D[a, b, c, f] =
  [[e_a, e_b], e_c]_f on the cleared numerators, in Python integers."""
  wd, cd = w.dense.astype(object), c.dense.astype(object)
  return (np.einsum("ijs,skt->ijkt", wd, wd),
          np.einsum("abe,ecf->abcf", cd, cd))


def residual_blocks(w, c):
  """The residual A(ijk) D(abc) + A(jki) D(bca) - A(ikj) D(acb) at every
  (u, v, t, f), u = (i, a), v = (j, b), t = (k, c), over (w.scale c.scale)^2,
  with no use of G's Jacobi identity."""
  aw, dd = factor_parts(w, c)
  nd = w.n * c.dim
  return (np.einsum("ijkt,abcf->iajbkctf", aw, dd)
          + np.einsum("jkit,bcaf->iajbkctf", aw, dd)
          - np.einsum("ikjt,acbf->iajbkctf", aw, dd)).reshape((nd,) * 4)


def block_parts(w, c, i, a):
  """x, y, p, q of block u = (i, a): the block is x p^T + y q^T once G's
  Jacobi identity gives D(acb) = D(abc) + D(bca)."""
  aw, dd = factor_parts(w, c)
  x = aw[i] - aw[i].transpose(1, 0, 2)
  y = aw[:, :, i] - aw[i].transpose(1, 0, 2)
  return x.ravel(), y.ravel(), dd[a].ravel(), dd[:, :, a].ravel()


def test_every_branch_of_the_block_zero_test(built):
  sl2, h3 = builtin_algebra("sl2"), builtin_algebra("heisenberg3")
  # [[e_0, b], c] is symmetric in (b, c) here, so q = 0 at a = 0
  r2 = make_structure_constants(2, {(0, 1): {0: -1}})
  # nilpotent, with [[e_0, b], c] antisymmetric in (b, c): q = -2p at a = 0
  n7 = make_structure_constants(7, {(0, 1): {2: 1}, (0, 3): {4: 1},
                                    (1, 3): {6: 1}, (1, 4): {5: 1},
                                    (2, 3): {5: 1}, (0, 6): {5: 2}})
  assert validate_structure_constants(n7).ok

  def check(w, g, violation, slices):
    """The residual blocks of w over g, checking the report against the
    oracle and the slices built, (n - j, d - b0) each (see ``built``)."""
    built.clear()
    rep = jacobi_certify(w, g)
    assert rep == certify_oracle(w, g) and rep.violation == violation
    assert built == slices, (w.entries, g.name)
    return residual_blocks(w, g)

  # x = y = 0 for a valid W: nothing is searched, whatever the rank of [p q]
  for i in range(2):
    x, y, p, q = block_parts(direct_sum_w(2), sl2, i, 0)
    assert not (x.any() or y.any()) and rank(np.stack([p, q])) == 2
  assert not check(direct_sum_w(2), sl2, None, []).any()
  # x parallel to y, [p q] of rank 1 with p, q != 0: block 0 cancels, and
  # block 1, u = (0, 1), is the one searched
  w = make_wtensor(3, {(0, 1, 2): -1, (0, 2, 1): -1, (1, 1, 2): 1,
                       (2, 2, 2): -1})
  x, y, p, q = block_parts(w, n7, 0, 0)
  assert x.any() and y.any() and rank(np.stack([x, y])) == 1
  assert p.any() and q.any() and rank(np.stack([p, q])) == 1
  assert not check(w, n7, (1, 7, 17, 19), [(3, 5), (2, 7)])[0].any()
  # x = 0 != y: block 0 is zero where [p q] has rank 1 (q = 0), and it
  # holds the violation where [p q] has rank 2.  Over r2 the witness u =
  # (0, 1) is G's last index, so v lies in block 1 only
  w = make_wtensor(2, {(0, 1, 0): 1, (1, 1, 1): -1})
  for g, violation, rank_pq, slices in ((r2, (1, 2, 3, 0), 1, [(1, 2)]),
                                        (sl2, (0, 3, 4, 1), 2,
                                         [(2, 2), (1, 3)])):
    x, y, p, q = block_parts(w, g, 0, 0)
    assert not x.any() and y.any() and rank(np.stack([p, q])) == rank_pq
    assert check(w, g, violation, slices)[0].any() == (rank_pq == 2)
  # y = 0 != x over sl2: the column at (ps, qs) = (0, -4) vanishes, and
  # only the rank of [p q] says the block is not zero
  w = make_wtensor(2, {(1, 0, 0): -1, (0, 1, 1): 1})
  x, y, p, q = block_parts(w, sl2, 0, 0)
  assert x.any() and not y.any() and rank(np.stack([p, q])) == 2
  assert check(w, sl2, (0, 1, 3, 1), [(2, 2)])[0].any()
  # independent x, y and p = q = 0: every block is zero, none is searched
  w = make_wtensor(2, {(0, 0, 1): 1, (1, 1, 0): 1})
  for g in (h3, builtin_algebra("abelian(2)")):
    x, y, p, q = block_parts(w, g, 0, 0)
    assert rank(np.stack([x, y])) == 2 and not (p.any() or q.any())
    assert not check(w, g, None, []).any()
  assert check(w, sl2, (0, 1, 3, 1), [(2, 2)])[0].any()
  # a one-sided W whose first three blocks are not zero but have no entry
  # u < v < t, so the search reads all their slices (none at j = i for
  # a = 2, where b > a is empty) and goes on to block 3
  w = make_wtensor(3, {(2, 2, 0): 2, (1, 0, 1): -1, (1, 1, 2): -1})
  r = check(w, sl2, (3, 4, 6, 1), [(3, 2), (2, 3), (1, 3), (3, 1), (2, 3),
                                   (1, 3), (2, 3), (1, 3), (2, 2)])
  assert all(r[u].any() for u in range(3)) and not any(
      r[u, v, t].any() for u in range(3) for v in range(u + 1, 9)
      for t in range(v + 1, 9))


def searched_slices(w, c, report):
  """The slices (n - j, d - b0) the rank-two route must build for
  ``report``, read off the residual blocks: every slice j >= i of each
  nonzero block u = (i, a) before the witness's, b0 = a + 1 at j = i and 0
  after it (none when b0 = d), then the witness block's up to its v."""
  n, d = w.n, c.dim
  r = residual_blocks(w, c)
  slices = []
  last = report.violation[0] if not report.ok else n * d - 1
  for u in range(last + 1):
    if not r[u].any():
      continue
    i, a = divmod(u, d)
    for j in range(i, n):
      b0 = a + 1 if j == i else 0
      if b0 < d:
        slices.append((n - j, d - b0))
      if u == last and not report.ok and j == report.violation[1] // d:
        break
  return slices


def test_the_witness_search_reads_one_slice_at_a_time(built):
  # a witness whose v lies in a later block than u's: the stored witness
  # moved to blocks x < y puts u in block x and v in block y, so the
  # search reads the slices j = x..y of block u; and one-sided W whose
  # first nonzero blocks hold no entry u < v < t, so the search moves on
  # to later u
  sl2 = builtin_algebra("sl2")
  cases = [(make_wtensor(n, {(x, y, x): 1, (y, x, x): 1}), builtin_algebra(g))
           for x, y, n in ((0, 1, 2), (0, 2, 3), (1, 2, 3), (0, 3, 4),
                           (1, 3, 4)) for g in ("sl2", "so3", "gl(2)")]
  cases += [(make_wtensor(3, {(2, 2, 0): 2, (1, 0, 1): -1, (1, 1, 2): -1}),
             sl2),
            (make_wtensor(4, {(1, 0, 2): 1, (2, 2, 3): F(1, 2),
                              (3, 3, 0): F(1, 2)}), sl2)]
  rng = random.Random(2601)
  for _ in range(30):  # one-sided: entries W^{ij}_s with i >= j only
    g = builtin_algebra(rng.choice(("sl2", "so3", "gl(2)")))
    n = rng.randint(2, 12 // g.dim)
    entries = {}
    for _ in range(rng.randint(1, 3)):
      j, i = sorted((rng.randrange(n), rng.randrange(n)))
      entries[(i, j, rng.randrange(n))] = rng.choice((1, -1, 2, F(1, 2)))
    cases.append((make_wtensor(n, entries), g))
  later, skipped, counts = 0, 0, []
  for w, g in cases:
    built.clear()
    rep = jacobi_certify(w, g)
    assert rep == factorised_oracle(w, g) == certify_oracle(w, g), g.name
    assert built == searched_slices(w, g, rep), (w.entries, g.name)
    counts.append(len(built))
    if not rep.ok:
      u, v = rep.violation[:2]
      later += v // g.dim > u // g.dim
      # more slices than the witness block has: an earlier block was read
      skipped += len(built) > w.n - u // g.dim
  assert later >= 15 and skipped >= 2
  # x < y: slices j = x..y; the two one-sided W read three blocks first
  assert counts[:15] == [y - x + 1 for x, y in ((0, 1), (0, 2), (1, 2), (0, 3),
                                                (1, 3)) for _ in range(3)]
  assert counts[15:17] == [9, 9]
  # d^4 > 2^18: D is read a pass at a time, and a searched block's p and q
  # are formed again.  Over gl(3) on the last 9 of 25 basis vectors (the
  # rest central) the witness block lies in D's second pass
  gl3 = builtin_algebra("gl(3)").table
  shifted = make_structure_constants(25, {
      (a + 16, b + 16): {e + 16: v for e, v in row.items()}
      for (a, b), row in gl3.items()})
  for g, u in ((builtin_algebra("gl(5)"), 0), (builtin_algebra("so(8)"), 0),
               (shifted, 16)):
    assert g.dim**4 > 2**18
    for w in (invalid_witness_w(), make_wtensor(2, {(0, 1, 1): 1,
                                                    (0, 0, 0): 1})):
      built.clear()
      rep = jacobi_certify(w, g)
      assert rep == factorised_oracle(w, g) and rep.violation[0] == u
      assert built[0] == (2, g.dim - 1 - u) and len(built) <= 2


def test_certify_refuses_an_algebra_that_fails_jacobi():
  # [e0, e1] = e2, [e0, e2] = e1, [e1, e2] = e1, as a table file may hold;
  # in 40 dimensions the failure lies beyond the first pass over D
  brackets = {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}
  for dim, shift in ((3, 0), (40, 37)):
    bad = make_structure_constants(dim, {
        (a + shift, b + shift): {e + shift: v for e, v in coeffs.items()}
        for (a, b), coeffs in brackets.items()})
    violation = validate_structure_constants(bad).violation
    assert violation[0] == shift
    for w in (direct_sum_w(1), make_wtensor(1, {})):  # W = 0 as well
      with pytest.raises(ValueError, match=re.escape(f"at {violation}")):
        jacobi_certify(w, bad)


def test_rank_two_route_over_gl8_and_so11():
  # n = 1 at dimensions 64 and 55, where D is read one a per pass and most
  # (a, b) have [e_a, e_b] = 0.  certify_oracle takes minutes at this size;
  # the Jacobi scan of the induced table is the oracle instead.
  w = make_wtensor(1, {(0, 0, 0): F(3, 2)})
  for name in ("gl(8)", "so(11)"):
    c = builtin_algebra(name)
    table = validate_structure_constants(induced_structure_constants(w, c))
    assert jacobi_certify(w, c) == table == JacobiReport(ok=True)
    # a bracket on the last pair whose row was zero breaks Jacobi
    a, b = max((a, b) for a in range(c.dim) for b in range(a + 1, c.dim)
               if (a, b) not in c.table)
    bad = make_structure_constants(c.dim, {**c.table, (a, b): {0: 1}})
    violation = validate_structure_constants(bad).violation
    with pytest.raises(ValueError, match=re.escape(f"at {violation}")):
      jacobi_certify(w, bad)


def test_exactness_bound_of_the_rank_two_route(monkeypatch):
  # the rank-two route multiplies an A entry by a D entry, never two A
  # entries: below the float64 bound its sums stay exact, while a product
  # of two A entries of these tensors (about 2^49) would round
  dtypes = []
  route = wtensor._certify_rank_two
  monkeypatch.setattr(wtensor, "_certify_rank_two", lambda wd, cd, scale: (
      dtypes.append(wd.dtype) or route(wd, cd, scale)))
  gl2 = builtin_algebra("gl(2)")  # Mc = 1, n*d = 8
  top = isqrt((2**53 - 1) // 24)  # 24*top^2 < 2^53: float64
  for w in (bd_minus_fc(top - 1, top, top - 1, top - 2),
            make_wtensor(2, {(0, 1, 0): top, (0, 0, 1): top - 1,
                             (0, 1, 1): top - 2, (1, 1, 0): top - 3})):
    aw, _ = factor_parts(w, gl2)
    big = sorted({abs(int(x)) for x in aw.flat})[-2:]
    assert big[0] > 2**48 and float(big[0]) * float(big[1]) != big[0] * big[1]
    rep = jacobi_certify(w, gl2)
    assert dtypes[-1] == np.float64 and not rep.ok
    assert rep == certify_oracle(w, gl2) == factorised_oracle(w, gl2)


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


MALFORMED = [
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
]


@pytest.mark.parametrize("doc", MALFORMED)
def test_json_loader_rejects_malformed(doc):
  with pytest.raises(ValueError):
    wtensor_from_json(doc)


def test_json_loader_rejections_keep_their_messages():
  messages = [
      "w-tensor document needs exactly fields 'n' and 'entries'",
      "w-tensor document needs exactly fields 'n' and 'entries'",
      "n must be an integer",
      "each entry needs exactly fields i, j, k, value",
      "zero entries are not stored in canonical files",
      "not in lowest terms / canonical form: '2/4'",
      "cannot interpret 1.5 as an exact rational",
      "entry field i must be an integer",
      "index (0, 0, 2) out of range for n=2",
      "duplicate entry for indices (0, 0, 0)",
      "contradictory mirrored entries at (0, 1, 0): 1 vs 2"]
  assert len(messages) == len(MALFORMED)
  for doc, message in zip(MALFORMED, messages):
    with pytest.raises(ValueError) as info:
      wtensor_from_json(doc)
    assert str(info.value) == message


def test_json_loader_does_not_symmetrize():
  doc = {"n": 2, "entries": [{"i": 0, "j": 1, "k": 0, "value": "1"}]}
  w = wtensor_from_json(doc)
  assert w.entries == {(0, 1, 0): F(1)}
  rep = wtensor_validate(w)
  assert rep.failure == "symmetry" and rep.indices == (0, 1, 0)
