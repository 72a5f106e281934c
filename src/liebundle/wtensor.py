"""Universal bracket tensors on n-fold sums of a Lie algebra.

A tensor W assigns to x = (x_0..x_{n-1}), y = (y_0..y_{n-1}) in G^n the
bracket ([x, y]_W)_s = sum_{i,j} W^{ij}_s [x_i, y_j], stored as integers
``dense[i, j, s]`` (upper, upper, lower index) over a common ``scale``.
W defines a Lie bracket for every Lie algebra G iff W is symmetric in the
upper indices and the quadratic identity

    sum_k (W^{sk}_i W^{qp}_k - W^{qk}_i W^{sp}_k) = 0   for all i, s, q, p

holds; equivalently, iff the slice matrices (W^(k))_i^j = W^{kj}_i commute
pairwise.  Validation evaluates the identity on its nonzero products alone
(an entry join, whose cost follows the P = sum_k up(k) low(k) products of
entries W^{sk}_i and W^{qp}_k) when that costs less than the n^5
multiply-adds and the batched products of the slice commutators, and those
otherwise; sparse families such as Leibnitz, direct sums and their
deformations take the join, dense circulants the slices.  The dense direct
contraction of the identity cross-checks either: a second formula for the
slices, a second evaluation, over every product, for the join.  The
symmetry scan, the route switch, the join and the ``entries`` view read W's
cached nonzero entries (``linalg.ClearedTable._nonzero``), the others a
dense copy, in the dtype (float64, int64 or Python integers) of
``linalg._exact_sum_dtype`` for their bound 2*n*M^2.
Certifying an extension on G^n runs two formulas for every W.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra_core import (_UPPER, MAX_DIM, JacobiReport, StructureConstants,
                           _from_numerators, _jacobiator, basis_vector,
                           bracket_eval)
from .errors import InternalCheckError, SizeCapError
from .linalg import (ClearedTable, _code, _exact_sum_dtype, _first_nonzero,
                     cleared, frac_matrix, identity_matrix, is_nilpotent,
                     mats_equal)
from .rationals import as_fraction, format_rational

MAX_N = 64
DEFAULT_CAP = 64


@dataclass(frozen=True, eq=False)
class WTensor(ClearedTable):
  """W^{ij}_s = dense[i, j, s] / scale (see ``linalg.ClearedTable``)."""
  n: int
  dense: np.ndarray
  scale: int

  @property
  def entries(self) -> Entries:
    """The nonzero {(i, j, s): W^{ij}_s}, in C order; uncached, so no cycle."""
    return Entries(self)

  @cached_property
  def _pairs(self) -> dict[tuple[int, int], dict[int, Fraction]]:
    """{(i, j): {s: W^{ij}_s}} for bracket evaluation."""
    return self.brackets(upper=False)


class Entries(Mapping):
  """{(i, j, s): W^{ij}_s} over W's nonzero entries, in C order, read off
  its coordinate form: a Fraction is built only when a value is read."""

  def __init__(self, w: WTensor):
    self._w = w

  def __len__(self) -> int:
    return len(self._w._nonzero[0])

  def __iter__(self):
    where = np.unravel_index(self._w._nonzero[0], self._w.dense.shape)
    return zip(*(a.tolist() for a in where))

  def __getitem__(self, key) -> Fraction:
    # as in a dict, a key matches the (i, j, s) it equals (True or 1.0 is
    # 1); the index is made of ints, which numpy cannot read as a mask
    w = self._w
    if type(key) is tuple and len(key) == 3:
      try:
        index = tuple(map(int, key))
      except (TypeError, ValueError, OverflowError):
        raise KeyError(key) from None
      if index == key and all(0 <= x < w.n for x in index):
        if x := int(w.dense[index]):
          return Fraction(x, w.scale)
    raise KeyError(key)


@dataclass(frozen=True)
class WValidationReport:
  """``failure`` is "symmetry" (indices (i, j, s)) or "quadratic"
  (indices (i, s, q, p)) when validation fails."""
  ok: bool
  failure: str | None = None
  indices: tuple | None = None
  residual: Fraction | None = None

  def __bool__(self) -> bool:
    return self.ok


def _check_n(n) -> None:
  if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_N:
    raise ValueError(f"n must be an integer in 1..{MAX_N}, got {n!r}")


def _assemble(n: int, codes: dict, values: list[Fraction]) -> WTensor:
  """W with W^{ij}_s = values[codes[(i, j, s)]], zero elsewhere."""
  _check_n(n)
  flat = []
  for key in codes:
    i, j, s = key
    if not (type(i) is type(j) is type(s) is int
            and 0 <= i < n and 0 <= j < n and 0 <= s < n):
      raise ValueError(f"index {key!r} out of range for n={n}")
    flat.append((i * n + j) * n + s)
  nums, scale = cleared(values)
  dense = np.zeros(n**3, dtype=nums.dtype)
  dense[flat] = nums[list(codes.values())]
  return WTensor(n, dense.reshape(n, n, n), scale)


def make_wtensor(n: int, entries) -> WTensor:
  """W from {(i, j, s): value}; zero values are dropped."""
  _check_n(n)
  parsed, distinct = {}, {Fraction(0): 0}
  codes = {key: _code(v, parsed, distinct) for key, v in entries.items()}
  return _assemble(n, codes, list(distinct))


# ---------------------------------------------------------------------------
# families


def direct_sum_w(n: int) -> WTensor:
  """Componentwise bracket: W^{ii}_i = 1."""
  _check_n(n)
  eye = np.eye(n, dtype=np.int64)
  return WTensor(n, eye[:, :, None] * eye, 1)


def circulant_w(alpha) -> WTensor:
  """W^{sk}_i = alpha_{(s+k-i) mod n}; n = len(alpha)."""
  alpha = tuple(as_fraction(v) for v in alpha)
  n = len(alpha)
  _check_n(n)
  nums, scale = cleared(alpha)
  r = np.arange(n)
  return WTensor(n, nums[(r[:, None, None] + r[:, None] - r) % n], scale)


def leibnitz_w(n: int) -> WTensor:
  """Index-additive bracket without wrap-around: W^{ij}_{i+j} = 1, i+j < n."""
  return leibnitz_deform(n, 0)


def leibnitz_deform(n: int, lam) -> WTensor:
  """One-parameter family: W^{ij}_{i+j} = 1 and W^{ij}_{i+j-n} = lam.

  lam = 0 gives leibnitz_w(n); lam = 1 gives circulant_w(e_0) (entrywise).
  """
  _check_n(n)
  lam = as_fraction(lam)
  # lam is an entry (at i = j = n - 1), and so in the scale, only when n > 1
  nums, scale = cleared([1, lam] if n > 1 else [1])
  i, j = np.indices((n, n))
  dense = np.zeros((n, n, n), dtype=nums.dtype)
  dense[i, j, (i + j) % n] = nums[(i + j >= n).astype(np.intp)]
  return WTensor(n, dense, scale)


def invalid_witness_w() -> WTensor:
  """Stored symmetric-but-invalid witness: n=2 with W^{01}_0 = W^{10}_0 = 1.

  Its slice matrices [[0,1],[0,0]] and [[1,0],[0,0]] do not commute, so the
  quadratic identity fails; correspondingly the induced bracket on sl2^2
  breaks Jacobi.
  """
  return make_wtensor(2, {(0, 1, 0): 1, (1, 0, 0): 1})


# ---------------------------------------------------------------------------
# slices and validation


def slice_matrix(w: WTensor, k: int) -> np.ndarray:
  """Exact slice (W^(k))_i^j = W^{kj}_i as an n x n rational matrix."""
  if not 0 <= k < w.n:
    raise ValueError(f"slice index {k} out of range for n={w.n}")
  return frac_matrix([[Fraction(x, w.scale) for x in row]
                      for row in w.dense[k].T.tolist()])


# later slices per batched commutator product: the working set of a block is
# a few 8 x n x n arrays; of blocks of 1, 4, 8, 16 and 64, 8 was the fastest
# on a mix of tensors with n = 4..64
_SLICE_BLOCK = 8


def _validate_by_slices(dense: np.ndarray, scale: int) -> WValidationReport:
  """Quadratic identity of a symmetric W from its cleared dense copy
  (see ``wtensor_validate`` for its dtype): pairwise commutators of the
  slices, the lexicographically first nonzero entry (i, s, q, p), s < q.

  Slice s is multiplied against blocks of _SLICE_BLOCK later slices at once.
  Every block is scanned, since a later block or a later s may hold a
  smaller i."""
  n = dense.shape[0]
  # [k, i, j], contiguous: strided slices made each batched product copy
  slices = np.ascontiguousarray(dense.transpose(0, 2, 1))
  best = None
  for s in range(n - 1):
    for q0 in range(s + 1, n, _SLICE_BLOCK):
      block = slices[q0:q0 + _SLICE_BLOCK]
      comm = slices[s] @ block - block @ slices[s]  # [q - q0, i, p]
      if comm.any():  # allocates nothing
        i, q, p = _first_nonzero(comm.transpose(1, 0, 2))
        if best is None or (i, s, q0 + q, p) < best[0]:
          best = (i, s, q0 + q, p), comm[q, i, p]
  if best is None:
    return WValidationReport(ok=True)
  indices, raw = best
  return WValidationReport(ok=False, failure="quadratic", indices=indices,
                           residual=Fraction(int(raw), scale * scale))


# products W^{sk}_i W^{qp}_k per chunk of whole lower indices i: the chunk's
# arrays stay near 1 MB; chunks of 2^16 products raised the peak memory
# of a ``tables`` benchmark run from 46.6 to 49.8 MB and gained no speed.
# Also the entries per chunk of the symmetry scan: unchunked, its fresh
# n^3-sized temporaries took 2-3 times as long on a dense W
_JOIN_CHUNK = 2**13
# costs in slice multiply-adds (0.064 ns each on one core), fitted on Leibnitz,
# deformed, direct-sum and circulant tensors with n = 2..64: a joined product
# 42-56 ns, a batched slice product 10.7 us beside its multiply-adds, and a
# call of the join about 50 us, which keeps n <= 5 on the slices
_JOIN_COST = 768
_BATCH_COST = 170_000
_JOIN_CALL = 800_000


def _validate_by_join(n: int, flat: np.ndarray, vals: np.ndarray,
                      scale: int) -> WValidationReport:
  """Quadratic identity of a symmetric W from its coordinate form (flat
  indices in C order of (i, j, s), cleared numerators ``vals`` in the dtype
  of ``wtensor_validate``), evaluated on its nonzero products only: each
  entry W^{sk}_i joins the entries W^{qp}_k with lower index k, and for
  s != q adds +-W^{sk}_i W^{qp}_k at (i, min(s,q), max(s,q), p), the
  residual of the direct contraction with s < q.

  A key sums at most 2*n products, within the dtype's bound.  Whole
  lower indices i are summed in ascending chunks, so the first chunk with a
  nonzero sum holds the lexicographically first (i, s, q, p)."""
  order = np.argsort(flat % n, kind="stable")  # C order of [i, s, k]
  flat, vals = flat[order], vals[order]
  up_s, up_k, low_i = np.unravel_index(flat, (n, n, n))
  # entries of lower index k are bounds[k]:bounds[k + 1]
  bounds = np.searchsorted(low_i, np.arange(n + 1))
  width = np.diff(bounds)[up_k]  # partners of each entry
  ends = np.concatenate(([0], np.cumsum(width)))  # products before an entry
  i0 = 0
  while i0 < n:
    i1 = i0 + 1  # whole lower indices, at least one, up to _JOIN_CHUNK
    while i1 < n and ends[bounds[i1 + 1]] - ends[bounds[i0]] <= _JOIN_CHUNK:
      i1 += 1
    e0, e1 = bounds[i0], bounds[i1]
    i0 = i1
    # product t of entry e (of lower index k) has partner bounds[k] + t -
    # ends[e]
    size = width[e0:e1]
    first = np.repeat(np.arange(e0, e1), size)
    second = np.arange(ends[e0], ends[e1]) + np.repeat(
        bounds[up_k[e0:e1]] - ends[e0:e1], size)
    s, q = up_s[first], up_s[second]
    keep = s != q
    if not keep.any():
      continue
    first, second, s, q = first[keep], second[keep], s[keep], q[keep]
    key = ((low_i[first] * n + np.minimum(s, q)) * n
           + np.maximum(s, q)) * n + up_k[second]  # C order of (i, s, q, p)
    prod = vals[first] * vals[second]
    prod = np.where(s < q, prod, -prod)
    order = np.argsort(key, kind="stable")  # the fastest kind measured
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sums = np.add.reduceat(prod[order], starts)
    hit = _first_nonzero(sums)
    if hit is not None:
      indices = np.unravel_index(key[starts[hit[0]]], (n,) * 4)
      return WValidationReport(
          ok=False, failure="quadratic",
          indices=tuple(int(x) for x in indices),
          residual=Fraction(int(sums[hit[0]]), scale * scale))
  return WValidationReport(ok=True)


def _validate_direct(dense: np.ndarray, scale: int) -> WValidationReport:
  """Quadratic identity of a symmetric W, evaluated directly on its cleared
  dense copy (see ``wtensor_validate`` for its dtype): the residual
  R[i, s, q, p] = sum_k W^{sk}_i W^{qp}_k - W^{qk}_i W^{sp}_k, one index i at
  a time (an n^3 block).  The first nonzero in C order is the
  lexicographically first (i, s, q, p)."""
  n = dense.shape[0]
  # lower[i, s, k] = W^{sk}_i, read as lower[k, q, p] = W^{qp}_k as well
  lower = np.ascontiguousarray(dense.transpose(2, 0, 1))
  for i in range(n):
    # t[s, q, p] = sum_k W^{sk}_i W^{qp}_k; the second term is t[q, s, p]
    t = lower[i].dot(lower.reshape(n, n * n)).reshape(n, n, n)
    hit = _first_nonzero(t != t.transpose(1, 0, 2))
    if hit is not None:
      s, q, p = hit
      residual = Fraction(int(t[s, q, p] - t[q, s, p]), scale * scale)
      return WValidationReport(ok=False, failure="quadratic",
                               indices=(i, s, q, p), residual=residual)
  return WValidationReport(ok=True)


def wtensor_validate(w: WTensor, cross_check: bool = False) -> WValidationReport:
  """Decide whether W defines a Lie bracket for every Lie algebra G.

  Both identities are checked on W's cleared numerators (``w._nonzero``,
  or a copy of ``w.dense`` for the slices) -- the quadratic identity is
  homogeneous, so scaling cannot change the verdict.
  A slice commutator entry, or a residual of the quadratic identity, is a
  difference of two sums of n products of entries at most M, so all routes
  run in the dtype of ``_exact_sum_dtype`` for the bound 2*n*M^2.
  Default route: symmetry scan, then the entry join when it costs less than
  the slice products (n^5 multiply-adds and a fixed cost per batch), else
  pairwise commutation of the slice matrices.  With ``cross_check=True`` the
  dense direct contraction of the quadratic identity runs as well and any
  disagreement (verdict, indices or residual) raises InternalCheckError.

  When both identities fail, the symmetry violation is reported; quadratic
  violations carry the lexicographically first (i, s, q, p) with s < q (if
  (i, s, q, p) with s > q violates, the sign-flipped (i, q, s, p) violates
  too and precedes it, so nothing is missed).
  """
  n, scale = w.n, w.scale
  flat, nums, dense = *w._nonzero, w.dense.ravel()
  # symmetry: each entry against its mirror (j, i, s), which lies delta[i, j]
  # = (j - i)(n^2 - n) on; the least mismatching entry or mirror is the
  # first violation.  low[k] counts the entries W^{qp}_k
  r = np.arange(n) * (n - n * n)
  delta = np.subtract.outer(r, r).ravel()
  first, low = n**3, np.zeros(n, dtype=np.intp)
  for c in range(0, len(flat), _JOIN_CHUNK):
    k = flat[c:c + _JOIN_CHUNK]
    ij = k // n
    mirror = k + delta[ij]
    miss = dense.take(mirror) != nums[c:c + _JOIN_CHUNK]
    if miss.any():
      first = min(first, k[miss][0], mirror[miss].min())
    low += np.bincount(k - ij * n, minlength=n)
  if first < n**3:
    i, j, s = (int(x) for x in np.unravel_index(first, w.dense.shape))
    return WValidationReport(
        ok=False, failure="symmetry", indices=(i, j, s),
        residual=Fraction(int(w.dense[i, j, s]) - int(w.dense[j, i, s]), scale))
  # nonzero products of the join: up(k) entries W^{sk}_i, as many as W^{ks}_i
  # (W is symmetric, and they are a run of flat), times low(k) entries
  # W^{qp}_k; the slice products cost about n^5 multiply-adds in
  # ceil((n - 1 - s) / _SLICE_BLOCK) batches for each s
  up = np.diff(np.searchsorted(flat, np.arange(0, n**3 + 1, n * n)))
  joined = int(up @ low)
  batches = sum(-(-m // _SLICE_BLOCK) for m in range(1, n))
  top = max(int(nums.max(initial=0)), -int(nums.min(initial=0)))  # M
  dtype = _exact_sum_dtype(2 * n * top**2)
  if joined * _JOIN_COST + _JOIN_CALL < n**5 + batches * _BATCH_COST:
    report = _validate_by_join(n, flat, nums.astype(dtype), scale)
  else:
    report = _validate_by_slices(w.dense.astype(dtype), scale)
  if cross_check:
    direct = _validate_direct(w.dense.astype(dtype), scale)
    if report != direct:
      raise InternalCheckError(
          f"validation routes disagree: slices={report!r} direct={direct!r}")
  return report


# ---------------------------------------------------------------------------
# solvable-form helpers


def truncate_to_solvable(w: WTensor) -> WTensor:
  """Cut index 0 from all three index ranges and re-base to 0..n-2.

  Requires n >= 2 and a valid W.  For tensors whose slices are the identity
  plus strictly lower triangular nilpotents this recovers the companion
  solvable structure; for other valid tensors the result is a plain
  sub-tensor and need not stay valid.
  """
  if w.n < 2:
    raise ValueError("truncation requires n >= 2")
  report = wtensor_validate(w)
  if not report.ok:
    raise ValueError(f"cannot truncate an invalid tensor ({report.failure} "
                     f"violation at {report.indices})")
  # re-cleared: the numerators left may share a factor with the scale; a
  # contiguous copy, or every ravel() of the coordinate form copies it again
  return WTensor(w.n - 1, *cleared(w.dense[1:, 1:, 1:].copy(), w.scale))


def filtration_support_check(w: WTensor) -> bool:
  """True iff every nonzero W^{ij}_s has s >= max(i, j) + 1.

  This is the support condition making F^(k) = span(components >= k) a
  descending chain of ideals in solvable form.
  """
  i, j, s = np.unravel_index(w._nonzero[0], w.dense.shape)
  return bool((s > np.maximum(i, j)).all())


def max_abelian_filtration_ideal(w: WTensor) -> int:
  """Minimal k such that W^{ij}_s = 0 whenever both i >= k and j >= k.

  F^(k) for that k is abelian under the extension bracket, universally in G.
  Returns 0 for the zero tensor; may return n (only F^(n) = 0 is abelian).
  """
  i, j, _ = np.unravel_index(w._nonzero[0], w.dense.shape)
  return 1 + int(np.minimum(i, j).max(initial=-1))


def semisimple_form_check(w: WTensor) -> bool:
  """True iff slice 0 is the identity and every other slice is nilpotent."""
  if not mats_equal(slice_matrix(w, 0), identity_matrix(w.n)):
    return False
  return all(is_nilpotent(slice_matrix(w, k)) for k in range(1, w.n))


# ---------------------------------------------------------------------------
# extension brackets on G^n


def gn_basis(n: int, d: int, block: int, coord: int) -> tuple:
  """Basis element of G^n: coordinate ``coord`` of block ``block``."""
  if not (0 <= block < n and 0 <= coord < d):
    raise ValueError("basis indices out of range")
  zero, one = (Fraction(0),) * d, basis_vector(d, coord)
  return tuple(one if b == block else zero for b in range(n))


def extension_bracket(w: WTensor, c: StructureConstants, x, y) -> tuple:
  """([x, y]_W)_s = sum_{i,j} W^{ij}_s [x_i, y_j], exactly."""
  n, d = w.n, c.dim
  if len(x) != n or len(y) != n:
    raise ValueError(f"elements must have {n} blocks")
  for block in (*x, *y):
    if len(block) != d:
      raise ValueError(f"blocks must have length {d}")
  nz_x = [i for i in range(n) if any(v != 0 for v in x[i])]
  nz_y = [j for j in range(n) if any(v != 0 for v in y[j])]
  result = [[Fraction(0)] * d for _ in range(n)]
  pairs = w._pairs
  for i in nz_x:
    for j in nz_y:
      col = pairs.get((i, j))
      if not col:
        continue
      zb = bracket_eval(c, x[i], y[j])
      if all(v == 0 for v in zb):
        continue
      for s, v in col.items():
        row = result[s]
        for e in range(d):
          if zb[e]:
            row[e] += v * zb[e]
  return tuple(tuple(row) for row in result)


def _check_extension_dim(nd: int, cap: int) -> None:
  """Refuse an extension of dimension above ``cap`` or ``MAX_DIM``."""
  if nd > min(cap, MAX_DIM):
    raise SizeCapError(
        f"extension dimension {nd} exceeds cap {min(cap, MAX_DIM)}")


def induced_structure_constants(w: WTensor, c: StructureConstants,
                                cap: int = DEFAULT_CAP) -> StructureConstants:
  """Structure constants of the extension on G^n via the product formula
  c'_{(i,a),(j,b)}^{(s,e)} = W^{ij}_s c_ab^e, with flat index (i, a) = i*d + a.

  The table is the outer product of the cleared arrays, in the tier of
  ``_exact_sum_dtype`` for their largest product Mw*Mc; for v < u it is set
  to minus the (u, v) brackets, so an asymmetric W keeps its u < v half.
  """
  n, d = w.n, c.dim
  _check_extension_dim(n * d, cap)
  dtype = _exact_sum_dtype(w.max_abs * c.max_abs)
  table = _outer(w.dense.astype(dtype), c.dense.astype(dtype))
  upper = _UPPER[:n * d, :n * d, None]
  return _from_numerators(np.where(upper, table, -table.transpose(1, 0, 2)),
                          w.scale * c.scale)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
  """x[j, k, t] * y[b, c, f] laid out as [(j, b), (k, c), (t, f)]."""
  return (x[:, None, :, None, :, None] * y[None, :, None, :, None, :]).reshape(
      (x.shape[0] * y.shape[0],) * 3)


def _witness_slice(xy: np.ndarray, pq: np.ndarray) -> np.ndarray:
  """x[k, t] p[b, c, f] + y[k, t] q[b, c, f] at [k, t, b, c, f], ``xy`` =
  [x, y], ``pq`` = [p, q]: one (K x 2)(2 x d^3) product in its own layout."""
  return (xy.reshape(2, -1).T @ pq.reshape(2, -1)).reshape(
      xy.shape[1:] + pq.shape[1:])


def _certify_rank_two(wd: np.ndarray, cd: np.ndarray,
                      scale: int) -> JacobiReport:
  """Jacobi residual of the extension bracket through G's Jacobi identity.

  At u = (i, a), v = (j, b), t = (k, c) it is A(ijk) D(abc) + A(jki) D(bca)
  - A(ikj) D(acb), A(ijk) = sum_s W^{ij}_s W^{sk}_t, D(abc) = [[e_a, e_b],
  e_c].  G is Lie (checked), so D(acb) = p + q, p = D(abc), q = D(bca), and
  the block of u is x p^T + y q^T, x = A(ijk) - A(ikj), y = A(jki) - A(ikj):
  zero iff its column at the first nonzero row (ps, qs) of [p q] is zero and
  [p q] has rank below 2 or x = y = 0.  D = 0 or x = y = 0 (every valid W)
  passes at once; else a nonzero block, in u order, is searched one index j
  >= i of v at a time (``_witness_slice``) for an entry u < v < t.
  """
  n, d = wd.shape[0], cd.shape[0]
  left, right = cd.reshape(d * d, d), cd.reshape(d, d * d)
  flat, step = True, max(1, 2**18 // d**3)  # a per pass: 2^18 entries of D

  def part(a0: int, a1: int):  # p = D(abc), q = D(bca) at [a - a0, b, c, f]
    p = (left[a0 * d:a1 * d] @ right).reshape(-1, d, d, d)
    q = p if a1 - a0 == d else (  # all of D: q is a view of p
        left @ cd[:, a0:a1].reshape(d, -1)).reshape(d, d, -1, d)
    return p, q.transpose(2, 0, 1, 3)

  for a0 in range(0, d, step):
    p, q = part(a0, min(a0 + step, d))  # D(abc) - D(acb) + D(bca) = 0:
    if (hit := _first_nonzero(p - p.transpose(0, 2, 1, 3) + q)) is not None:
      raise ValueError(f"algebra fails Jacobi at {(hit[0] + a0, *hit[1:])}")
    flat = flat and not p.any()
  if flat:  # D = 0: G is 2-step nilpotent
    return JacobiReport(ok=True)
  aw = (wd.reshape(n * n, n) @ wd.reshape(n, n * n)).reshape(n, n, n, n)
  xy = np.stack([aw, aw.transpose(2, 0, 1, 3)])  # x, y at [i, j, k, t]
  xy -= aw.transpose(0, 2, 1, 3)
  later = _UPPER[:d, :n * d].reshape(d, n, d, 1, 1)  # [b, k - j, c]: t > v
  for i in np.flatnonzero(xy.reshape(2, n, -1).any(axis=(0, 2))).tolist():
    for a in range(d):
      pq = np.concatenate(part(a, a + 1) if step < d else (p[a:a + 1],
                                                          q[a:a + 1]))
      pqf = pq.reshape(2, -1)  # q = p^T - p: rank 2 iff q != 0 and q != -2p
      if not ((pqf[:, (pqf != 0).any(0).argmax()] @ xy[:, i].reshape(2, -1)
               ).any() or pqf[1].any() and (pqf[1] != -2 * pqf[0]).any()):
        continue
      for j in range(i + (a == d - 1), n):
        b0 = a + 1 if j == i else 0  # v = (j, b) > u = (i, a)
        r = _witness_slice(xy[:, i, j, j:], pq[:, b0:])  # k >= j, b >= b0
        if (hit := _first_nonzero((r != 0).transpose(2, 0, 3, 1, 4)
                                  & later[b0:, :n - j])) is not None:
          b, k, c, t, f = hit
          return JacobiReport(
              ok=False, residual=Fraction(int(r[k, t, b, c, f]), scale**2),
              violation=(i * d + a, j * d + b0 + b, (j + k) * d + c, t * d + f))
  return JacobiReport(ok=True)


def _certify_induced(wd: np.ndarray, cd: np.ndarray,
                     scale: int) -> JacobiReport:
  """Certify's residual [[u, v], t] + [[v, t], u] - [[u, t], v], u < v < t,
  by the table kernel ``_jacobiator`` on T[(i,a), (j,b), (s,e)] =
  W^{ij}_s c_ab^e, for any W (T's Jacobiator when W is symmetric)."""
  table = _outer(wd, cd)
  return _jacobiator(table, table, scale)


def jacobi_certify(w: WTensor, c: StructureConstants,
                   cap: int = DEFAULT_CAP) -> JacobiReport:
  """Certify Jacobi for the extension bracket on G^n over basis triples.

  The residual at u < v < t is [[u, v], t] + [[v, t], u] - [[u, t], v],
  the Jacobiator when W is symmetric.  The first violation (u, v, t, f),
  f = s*d + e, comes from G's Jacobi identity (``_certify_rank_two``;
  ValueError if G fails it).  For every W the scan of the induced table
  (``_certify_induced``), which does not use that identity, must give the
  same report, or InternalCheckError is raised.
  """
  n, d = w.n, c.dim
  _check_extension_dim(n * d, cap)
  # a partial sum in either route adds at most 3*n*d products of two table
  # entries W^{ij}_s c_ab^e; max(., 1) bounds each factor's own entries too
  bound = 3 * n * d * (max(w.max_abs, 1) * max(c.max_abs, 1))**2
  dtype = _exact_sum_dtype(bound)
  wd, cd = w.dense.astype(dtype), c.dense.astype(dtype)
  report = _certify_rank_two(wd, cd, w.scale * c.scale)
  table = _certify_induced(wd, cd, w.scale * c.scale)
  if report != table:
    raise InternalCheckError(
        f"certify routes disagree: rank-two={report!r} table={table!r}")
  return report


# ---------------------------------------------------------------------------
# serialization


def wtensor_to_json(w: WTensor) -> dict:
  """Canonical JSON-ready dict, entries sorted by (i, j, k) (C order); each
  distinct value is formatted once."""
  nums = w._nonzero[1].tolist()
  text = {x: format_rational(Fraction(x, w.scale)) for x in set(nums)}
  entries = [{"i": i, "j": j, "k": s, "value": text[x]}
             for (i, j, s), x in zip(w.entries, nums)]
  return {"n": w.n, "entries": entries}


def wtensor_from_json(data) -> WTensor:
  """Strict parser for the W-tensor file format.

  Exact fields {"n", "entries"}; each entry {"i", "j", "k", "value"} with
  0-based in-range indices and canonical nonzero rational values.  Duplicate
  index triples are rejected; a pair of mirrored entries with different
  values is rejected as contradictory.  Entries are stored exactly as listed
  (no symmetrization): a file carrying only one side of a mirror pair loads
  into a tensor that fails validation.
  """
  if not isinstance(data, dict):
    raise ValueError("w-tensor document must be an object")
  if set(data) != {"n", "entries"}:
    raise ValueError("w-tensor document needs exactly fields 'n' and 'entries'")
  n = data["n"]
  if not isinstance(n, int) or isinstance(n, bool):
    raise ValueError("n must be an integer")
  if not isinstance(data["entries"], list):
    raise ValueError("entries must be a list")
  parsed, distinct, codes = {}, {Fraction(0): 0}, {}
  for item in data["entries"]:
    if not isinstance(item, dict) or item.keys() != {"i", "j", "k", "value"}:
      raise ValueError("each entry needs exactly fields i, j, k, value")
    key = i, j, s = item["i"], item["j"], item["k"]
    if not type(i) is type(j) is type(s) is int:
      for field, idx in zip("ijk", key):
        if not isinstance(idx, int) or isinstance(idx, bool):
          raise ValueError(f"entry field {field} must be an integer")
    code = _code(item["value"], parsed, distinct)
    if code == 0:
      raise ValueError("zero entries are not stored in canonical files")
    if key in codes:
      raise ValueError(f"duplicate entry for indices {key}")
    codes[key] = code
  values = list(distinct)
  for (i, j, s), code in codes.items():
    mirror = codes.get((j, i, s), code)
    if mirror != code:
      a, b = (format_rational(values[x]) for x in (code, mirror))
      raise ValueError(
          f"contradictory mirrored entries at ({i}, {j}, {s}): {a} vs {b}")
  return _assemble(n, codes, values)
