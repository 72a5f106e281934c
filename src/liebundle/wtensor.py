"""Universal bracket tensors on n-fold sums of a Lie algebra.

A tensor W assigns to x = (x_0..x_{n-1}), y = (y_0..y_{n-1}) in G^n the
bracket ([x, y]_W)_s = sum_{i,j} W^{ij}_s [x_i, y_j], stored as integers
``dense[i, j, s]`` (upper, upper, lower index) over a common ``scale``.
W defines a Lie bracket for every Lie algebra G iff W is symmetric in the
upper indices and the quadratic identity

    sum_k (W^{sk}_i W^{qp}_k - W^{qk}_i W^{sp}_k) = 0   for all i, s, q, p

holds; equivalently, iff the slice matrices (W^(k))_i^j = W^{kj}_i commute
pairwise.  Both routes are implemented and can be cross-checked against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra_core import (MAX_DIM, JacobiReport, StructureConstants,
                           _from_numerators, basis_vector, bracket_eval)
from .errors import InternalCheckError, SizeCapError
from .linalg import (ClearedTable, cleared, frac_matrix, identity_matrix,
                     is_nilpotent, mats_equal)
from .rationals import as_fraction, format_rational

MAX_N = 64
DEFAULT_CAP = 64

Entries = dict[tuple[int, int, int], Fraction]


@dataclass(frozen=True, eq=False)
class WTensor(ClearedTable):
  """W^{ij}_s = dense[i, j, s] / scale (see ``linalg.ClearedTable``)."""
  n: int
  dense: np.ndarray
  scale: int

  @cached_property
  def entries(self) -> Entries:
    """The nonzero entries {(i, j, s): W^{ij}_s}, one Fraction per distinct
    value, in C order (or in the order given to ``make_wtensor``)."""
    return self._fractions()

  @cached_property
  def _pairs(self) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
    """Index {(i, j): [(s, W^{ij}_s), ...]} for bracket evaluation."""
    idx: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (i, j, s), v in self.entries.items():
      idx.setdefault((i, j), []).append((s, v))
    return idx


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


def _code(value, parsed: dict, distinct: dict[Fraction, int]) -> int:
  """Code of ``value`` in ``distinct`` (Fraction -> code, zero coded 0),
  coerced once per distinct value as written (``parsed``).  Only the exact
  types are looked up: a bool or a float equals an int but is refused, and a
  list or a dict cannot be a key."""
  code = parsed.get(value) if type(value) in (int, str, Fraction) else None
  if code is None:
    code = distinct.setdefault(as_fraction(value), len(distinct))
    parsed[value] = code
  return code


def make_wtensor(n: int, entries) -> WTensor:
  """W from {(i, j, s): value}; zero values are dropped."""
  _check_n(n)
  parsed, distinct = {}, {Fraction(0): 0}
  codes = {key: _code(v, parsed, distinct) for key, v in entries.items()}
  values = list(distinct)
  w = _assemble(n, codes, values)
  w.__dict__["entries"] = {key: values[c] for key, c in codes.items() if c}
  return w


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


def _symmetry_violation(dense: np.ndarray):
  """Lexicographically first (i, j, s) with W^{ij}_s != W^{ji}_s on a dense
  copy, or None."""
  hits = np.argwhere(dense != dense.transpose(1, 0, 2))
  return tuple(int(x) for x in hits[0]) if len(hits) else None


def _exact_dtype(n: int, max_abs: int):
  """float64 when integer arithmetic on it is exact, else object.

  A commutator entry of two slices, or a residual of the quadratic identity,
  is a difference of two sums of n products of cleared entries, so every
  product and partial sum is an integer of magnitude at most 2*n*M^2; below
  2^53 float64 represents all of them, and so computes them exactly."""
  return np.float64 if 2 * n * max_abs**2 < 2**53 else object


def _validate_by_slices(dense: np.ndarray, scale: int) -> WValidationReport:
  """Quadratic identity of a symmetric W from its cleared dense copy
  (float64 or object, see ``_exact_dtype``): pairwise commutators of the
  slices, the lexicographically first nonzero entry (i, s, q, p), s < q.

  Slice s is multiplied against blocks of _SLICE_BLOCK later slices at once.
  Every block is scanned, since a later block or a later s may hold a
  smaller i."""
  n = dense.shape[0]
  slices = dense.transpose(0, 2, 1)  # [k, i, j]
  best = None
  for s in range(n - 1):
    for q0 in range(s + 1, n, _SLICE_BLOCK):
      block = slices[q0:q0 + _SLICE_BLOCK]
      comm = slices[s] @ block - block @ slices[s]  # [q - q0, i, p]
      hit = comm != 0
      rows = np.flatnonzero(hit.any(axis=(0, 2)))
      if len(rows):
        i = int(rows[0])
        q, p = (int(x) for x in np.argwhere(hit[:, i])[0])
        if best is None or (i, s, q0 + q, p) < best[0]:
          best = (i, s, q0 + q, p), comm[q, i, p]
  if best is None:
    return WValidationReport(ok=True)
  indices, raw = best
  return WValidationReport(ok=False, failure="quadratic", indices=indices,
                           residual=Fraction(int(raw), scale * scale))


def _validate_direct(dense: np.ndarray, scale: int) -> WValidationReport:
  """Quadratic identity of a symmetric W, evaluated directly on its cleared
  dense copy (float64 or object, see ``_exact_dtype``): the residual
  R[i, s, q, p] = sum_k W^{sk}_i W^{qp}_k - W^{qk}_i W^{sp}_k, one index i at
  a time (an n^3 block).  The first nonzero in C order is the
  lexicographically first (i, s, q, p)."""
  n = dense.shape[0]
  # lower[i, s, k] = W^{sk}_i, read as lower[k, q, p] = W^{qp}_k as well
  lower = np.ascontiguousarray(dense.transpose(2, 0, 1))
  for i in range(n):
    # t[s, q, p] = sum_k W^{sk}_i W^{qp}_k; the second term is t[q, s, p]
    t = lower[i].dot(lower.reshape(n, n * n)).reshape(n, n, n)
    hits = np.argwhere(t != t.transpose(1, 0, 2))
    if len(hits):
      s, q, p = (int(x) for x in hits[0])
      residual = Fraction(int(t[s, q, p] - t[q, s, p]), scale * scale)
      return WValidationReport(ok=False, failure="quadratic",
                               indices=(i, s, q, p), residual=residual)
  return WValidationReport(ok=True)


def wtensor_validate(w: WTensor, cross_check: bool = False) -> WValidationReport:
  """Decide whether W defines a Lie bracket for every Lie algebra G.

  Both identities are checked on W's cleared numerators ``w.dense`` -- the
  quadratic identity is homogeneous, so scaling cannot change the verdict.
  Default route: symmetry scan plus pairwise commutation of the slice
  matrices.  With ``cross_check=True`` the direct contraction of the
  quadratic identity runs as well and any disagreement (verdict, indices or
  residual) raises InternalCheckError.

  When both identities fail, the symmetry violation is reported; quadratic
  violations carry the lexicographically first (i, s, q, p) with s < q (if
  (i, s, q, p) with s > q violates, the sign-flipped (i, q, s, p) violates
  too and precedes it, so nothing is missed).
  """
  n, scale = w.n, w.scale
  dense = w.dense.astype(_exact_dtype(n, w.max_abs))
  sym = _symmetry_violation(dense)
  if sym is not None:
    i, j, s = sym
    return WValidationReport(
        ok=False, failure="symmetry", indices=sym,
        residual=Fraction(int(dense[i, j, s] - dense[j, i, s]), scale))
  report = _validate_by_slices(dense, scale)
  if cross_check:
    direct = _validate_direct(dense, scale)
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
  # re-cleared: the numerators left may share a factor with the scale
  return WTensor(w.n - 1, *cleared(w.dense[1:, 1:, 1:], w.scale))


def filtration_support_check(w: WTensor) -> bool:
  """True iff every nonzero W^{ij}_s has s >= max(i, j) + 1.

  This is the support condition making F^(k) = span(components >= k) a
  descending chain of ideals in solvable form.
  """
  return all(s >= max(i, j) + 1 for (i, j, s) in w.entries)


def max_abelian_filtration_ideal(w: WTensor) -> int:
  """Minimal k such that W^{ij}_s = 0 whenever both i >= k and j >= k.

  F^(k) for that k is abelian under the extension bracket, universally in G.
  Returns 0 for the zero tensor; may return n (only F^(n) = 0 is abelian).
  """
  return 1 + max((min(i, j) for (i, j, s) in w.entries), default=-1)


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
      for s, v in col:
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

  The table is the outer product of the cleared arrays, in Python integers
  where a product can reach 2^63; for v < u it is set to minus the (u, v)
  brackets, so an asymmetric W keeps its u < v half.
  """
  n, d = w.n, c.dim
  _check_extension_dim(n * d, cap)
  wd, cd = w.dense, c.dense
  if w.max_abs * c.max_abs >= 2**63:
    wd, cd = wd.astype(object), cd.astype(object)
  table = _outer(wd, cd)
  upper = np.triu(np.ones((n * d,) * 2, dtype=bool), 1)[:, :, None]
  return _from_numerators(np.where(upper, table, -table.transpose(1, 0, 2)),
                          w.scale * c.scale)


def _contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
  """sum_e x[..., e] y[e, ...], over the e where neither side is all zero."""
  k = y.shape[0]
  rows, cols = x.size // k, y.size // k
  live = np.flatnonzero((x != 0).reshape(rows, k).any(axis=0)
                        & (y != 0).reshape(k, cols).any(axis=1))
  out = x[..., live].reshape(rows, -1) @ y[live].reshape(-1, cols)
  return out.reshape(x.shape[:-1] + y.shape[1:])


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
  """x[j, k, t] * y[b, c, f] laid out as [(j, b), (k, c), (t, f)]."""
  n, d = x.shape[0], y.shape[0]
  nd = n * d
  return (x[:, None, :, None, :, None] * y[None, :, None, :, None, :]).reshape(
      nd, nd, nd)


def _certify_factorised(wd: np.ndarray, cd: np.ndarray,
                        scale: int) -> JacobiReport:
  """Jacobi residual of the extension bracket from its two factors.

  [[e_ia, e_jb], e_kc] = A[i, j, k, :] (x) D[a, b, c, :] with
  A[i, j, k, t] = sum_s W^{ij}_s W^{sk}_t and D[a, b, c, :] = [[e_a, e_b], e_c],
  so the residual [[u, v], t] + [[v, t], u] - [[u, t], v] at u = (i, a),
  v = (j, b), t = (k, c) is A(ijk) D(abc) + A(jki) D(bca) - A(ikj) D(acb).
  It is evaluated on the cleared copies ``wd`` and ``cd`` (see
  ``jacobi_certify``) for one leading index u at a time, an (nd)^3 block.
  """
  n, d = wd.shape[0], cd.shape[0]
  nd = n * d
  later = np.triu(np.ones((nd, nd), dtype=bool), 1)  # later[v, t]: t > v
  d_parts: dict[int, tuple] = {}  # a -> its D parts, kept for blocks i > 0
  for i in range(n):
    # A[i, j, k, t], A[j, k, i, t] and A[i, k, j, t], each at [j, k, t]
    a1 = _contract(wd[i], wd)
    a2 = _contract(wd, wd[:, i])
    a3 = a1.transpose(1, 0, 2)
    for a in range(d):
      u = i * d + a
      # D[a, b, c, f], D[b, c, a, f] and D[a, c, b, f], each at [b, c, f]
      if a not in d_parts:
        d_parts[a] = _contract(cd[a], cd), _contract(cd, cd[:, a])
      d1, d2 = d_parts.pop(a) if n == 1 else d_parts[a]
      d3 = d1.transpose(1, 0, 2)
      r = _outer(a1, d1) + _outer(a2, d2) - _outer(a3, d3)
      hits = np.argwhere((r[u + 1:] != 0) & later[u + 1:, :, None])
      if len(hits):
        v, t, f = (int(x) for x in hits[0])
        v += u + 1
        residual = Fraction(int(r[v, t, f]), scale**2)
        return JacobiReport(ok=False, violation=(u, v, t, f), residual=residual)
  return JacobiReport(ok=True)


def _certify_induced(wd: np.ndarray, cd: np.ndarray,
                     scale: int) -> JacobiReport:
  """Jacobi scan of the induced table, densely, for a symmetric W.

  The table T[(i,a), (j,b), (s,e)] = W^{ij}_s c_ab^e is the outer product
  of the cleared copies ``wd`` and ``cd`` (see ``jacobi_certify``).  For
  each leading index u, with P[x, y, f] = sum_g T[u, x, g] T[g, y, f], the
  Jacobiator J(u, v, t)_f = [[u, v], t] + [[v, t], u] + [[t, u], v] is
  P[v, t, f] - P[t, v, f] + sum_g T[v, t, g] T[g, u, f], two matrix products
  over v, t > u.  T is antisymmetric, so J is alternating and its first
  nonzero in C order has v < t: the lexicographically first (u, v, t, f),
  the one ``_jacobi_scan`` reports on ``induced_structure_constants``.
  """
  table = _outer(wd, cd)
  nd = table.shape[0]
  for u in range(nd - 2):
    k = nd - u - 1
    p = table[u, u + 1:].dot(table[:, u + 1:].reshape(nd, k * nd))
    p = p.reshape(k, k, nd)
    jac = p - p.transpose(1, 0, 2) + table[u + 1:, u + 1:].reshape(
        k * k, nd).dot(table[:, u]).reshape(k, k, nd)
    hits = np.argwhere(jac != 0)
    if len(hits):
      v, t, f = (int(x) for x in hits[0])
      return JacobiReport(ok=False, violation=(u, u + 1 + v, u + 1 + t, f),
                          residual=Fraction(int(jac[v, t, f]), scale**2))
  return JacobiReport(ok=True)


def jacobi_certify(w: WTensor, c: StructureConstants,
                   cap: int = DEFAULT_CAP) -> JacobiReport:
  """Certify Jacobi for the extension bracket on G^n over basis triples.

  The residual [[x, y], z] + [[y, z], x] - [[x, z], y] of basis triples is
  computed from the factorised formula of ``_certify_factorised``.
  Violations carry flat indices (u, v, t, f) with u < v < t, f = s*d + e,
  the lexicographically first.  When W is symmetric in its upper indices the
  extension bracket is the one of ``induced_structure_constants``, and the
  report is cross-checked against the Jacobiator of that table
  (``_certify_induced``): any difference raises InternalCheckError.  An
  asymmetric W has no such table (the induced one stores u < v only), so
  its report comes from the factorised route.  Both routes read W's cleared
  numerators and G's.
  """
  n, d = w.n, c.dim
  _check_extension_dim(n * d, cap)
  # a partial sum in either route adds at most 3*n*d products of two table
  # entries W^{ij}_s c_ab^e; max(., 1) bounds each factor's own entries too
  bound = 3 * n * d * (max(w.max_abs, 1) * max(c.max_abs, 1))**2
  dtype = np.float64 if bound < 2**53 else np.int64 if bound < 2**62 else object
  wd, cd = w.dense.astype(dtype), c.dense.astype(dtype)
  report = _certify_factorised(wd, cd, w.scale * c.scale)
  if _symmetry_violation(wd) is None:
    table = _certify_induced(wd, cd, w.scale * c.scale)
    if report != table:
      raise InternalCheckError(
          f"certify routes disagree: factorised={report!r} table={table!r}")
  return report


# ---------------------------------------------------------------------------
# serialization


def wtensor_to_json(w: WTensor) -> dict:
  """Canonical JSON-ready dict, entries sorted by (i, j, k) (C order); each
  distinct value is formatted once."""
  where = np.nonzero(w.dense)
  nums = w.dense[where].tolist()
  text = {x: format_rational(Fraction(x, w.scale)) for x in set(nums)}
  entries = [{"i": i, "j": j, "k": s, "value": text[x]}
             for i, j, s, x in zip(*(a.tolist() for a in where), nums)]
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
