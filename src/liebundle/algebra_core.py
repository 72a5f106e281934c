"""Lie algebras given by exact rational structure constants.

A bracket on a d-dimensional space is held as integers ``dense[a, b, e]``
over a common ``scale`` (see ``linalg.cleared``), antisymmetric in (a, b),
and read as the sparse view ``table[(a, b)] = {e: c_ab_e}`` for a < b, which
is always read off the array, in C order.  Fixed and user tables fill the
array from their coded values (``linalg._code``); gl(p), so(p) and the so(p)
bundle come from x a y - y a x on a matrix basis (``_matrix_table``), and
sums, pencils and coboundaries from their inputs' arrays.  Everything here is
exact: coefficients are Fractions, and every array is computed in the tier
of ``linalg._exact_sum_dtype`` for its bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .errors import InternalCheckError
from .linalg import (ClearedTable, _code, _exact_sum_dtype, _first_nonzero,
                     cleared, frac_matrix, nullspace)
from .rationals import as_fraction, format_rational

MAX_DIM = 64

# [v, t]: v < t; its [:n, :n] corner serves a table of dimension n
_UPPER = np.triu(np.ones((MAX_DIM, MAX_DIM), dtype=bool), 1)


@dataclass(frozen=True, eq=False)
class StructureConstants(ClearedTable):
  """c_ab^e = dense[a, b, e] / scale (see ``linalg.ClearedTable``), with
  ``dense`` antisymmetric in (a, b)."""
  dim: int
  dense: np.ndarray
  scale: int
  name: str | None = None

  @cached_property
  def table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
    """The nonzero brackets {(a, b): {e: c_ab^e}} with a < b, in C order."""
    return self.brackets()


def _from_numerators(dense: np.ndarray, scale: int,
                     name: str | None = None) -> StructureConstants:
  """The table dense / scale, antisymmetric in its first two indices."""
  dense, scale = cleared(dense, scale)
  return StructureConstants(dense.shape[0], dense, scale, name)


@dataclass(frozen=True)
class JacobiReport:
  """Outcome of a Jacobi scan; ``violation`` is (a, b, c, f) when it fails."""
  ok: bool
  violation: tuple[int, int, int, int] | None = None
  residual: Fraction | None = None

  def __bool__(self) -> bool:
    return self.ok


@dataclass(frozen=True)
class CompatibilityReport:
  compatible: bool
  mixed: JacobiReport
  sum_jacobi: JacobiReport

  def __bool__(self) -> bool:
    return self.compatible


def make_structure_constants(dim: int, brackets, name: str | None = None) -> StructureConstants:
  """Normalize a ``{(a, b): {e: value}}`` mapping into StructureConstants.

  Keys must satisfy 0 <= a < b < dim; each distinct value is coerced to a
  Fraction once, and zero coefficients are dropped.  The a < b numerators
  are filled in and then antisymmetrised.  No Jacobi check happens here.
  """
  return _coded_table(dim, brackets, name, {}, {Fraction(0): 0})


def _coded_table(dim: int, brackets, name: str | None, parsed: dict,
                 distinct: dict[Fraction, int]) -> StructureConstants:
  """``make_structure_constants`` with the values coded into ``parsed`` and
  ``distinct`` (see ``linalg._code``), which may hold values already coded."""
  if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
    raise ValueError(f"dim must be an integer in 1..{MAX_DIM}, got {dim!r}")
  codes = {}
  for key, coeffs in brackets.items():
    a, b = key
    if not type(a) is type(b) is int:
      raise ValueError(f"bracket key must be an integer pair, got {key!r}")
    if not (0 <= a < b < dim):
      raise ValueError(f"bracket key must satisfy 0 <= a < b < dim, got {key!r}")
    if (a, b) in codes:
      raise ValueError(f"duplicate bracket key {key!r}")
    inner: dict[int, int] = {}
    for e, value in coeffs.items():
      if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < dim:
        raise ValueError(f"coefficient index {e!r} out of range for dim {dim}")
      if e in inner:
        raise ValueError(f"duplicate coefficient index {e} in bracket {key!r}")
      if code := _code(value, parsed, distinct):
        inner[e] = code
    if inner:
      codes[(a, b)] = inner
  nums, scale = cleared(list(distinct))
  dense = np.zeros(dim**3, dtype=nums.dtype)
  dense[[(a * dim + b) * dim + e for a, b in codes for e in codes[(a, b)]]] = (
      nums[[x for inner in codes.values() for x in inner.values()]])
  dense = dense.reshape(dim, dim, dim)
  return StructureConstants(dim, dense - dense.transpose(1, 0, 2), scale, name)


_PARAM_NAME_RE = re.compile(r"^(abelian|so|gl)\((\d+)\)$")


def builtin_algebra(name: str) -> StructureConstants:
  """Return a builtin algebra by canonical name.

  Fixed names: ``heisenberg3``, ``sl2``, ``so3`` (cyclic basis).  Parametric
  names: ``abelian(d)`` (d >= 1), ``so(p)`` and ``gl(p)`` (p >= 2, matrix
  bases E_ab - E_ba for a < b, resp. E_ab).
  """
  if name == "heisenberg3":
    return make_structure_constants(3, {(0, 1): {2: 1}}, name=name)
  if name == "sl2":
    return make_structure_constants(
        3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, name=name)
  if name == "so3":
    return make_structure_constants(
        3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}, name=name)
  m = _PARAM_NAME_RE.match(name)
  if m is None:
    raise ValueError(f"unknown builtin algebra: {name!r}")
  family, digits = m.group(1), m.group(2)
  p = int(digits)
  if str(p) != digits:
    raise ValueError(f"non-canonical parameter in algebra name: {name!r}")
  if family == "abelian":
    if p < 1:
      raise ValueError("abelian(d) requires d >= 1")
    return make_structure_constants(p, {}, name=name)
  if p < 2:
    raise ValueError(f"{family}(p) requires p >= 2")
  dim = p * (p - 1) // 2 if family == "so" else p * p
  if dim > MAX_DIM:
    raise ValueError(f"{name} has dimension {dim}, above the cap {MAX_DIM}")
  if family == "so":
    basis, coordinates = so_matrix_basis(p), _UPPER[:p, :p]
  else:
    basis = np.identity(dim, dtype=np.int64).reshape(dim, p, p)
    coordinates = np.ones((p, p), dtype=bool)
  return _from_numerators(_matrix_table(
      basis, np.identity(p, dtype=np.int64), coordinates), 1, name)


def so_matrix_basis(p: int) -> np.ndarray:
  """Basis B_xy = E_xy - E_yx of antisymmetric p x p matrices, (x, y)
  ascending with x < y, as a (p(p-1)/2, p, p) int64 stack."""
  e = np.identity(p * p, dtype=np.int64).reshape(p, p, p, p)[_UPPER[:p, :p]]
  return e - e.transpose(0, 2, 1)  # E_xy - E_yx


def _matrix_table(basis: np.ndarray, a: np.ndarray,
                  coordinates: np.ndarray) -> np.ndarray:
  """Numerators c[u, v, e] of [x, y]_a = x a y - y a x on the (D, p, p)
  integer ``basis`` (E_ab or B_xy) for an integer p x p ``a``: entry e, in C
  order, of B_u a B_v - B_v a B_u where the p x p mask ``coordinates`` holds.
  An entry of B_u a B_v is one product +-a_jk in these bases, so the tier of
  ``_exact_sum_dtype`` for 2 max|a| holds every partial sum."""
  dtype = _exact_sum_dtype(2 * int(np.abs(a).max()))
  basis = basis.astype(dtype)
  d = len(basis)
  x = ((basis @ a.astype(dtype))[:, None] @ basis).reshape(d, d, -1)
  # take, unlike a mask, keeps C order, so that ravel() copies nothing
  x = x.take(np.flatnonzero(coordinates), axis=2)
  return x - x.transpose(1, 0, 2)


def basis_vector(dim: int, a: int) -> tuple[Fraction, ...]:
  if not 0 <= a < dim:
    raise ValueError(f"basis index {a} out of range for dim {dim}")
  return tuple(Fraction(1) if i == a else Fraction(0) for i in range(dim))


def bracket_eval(c: StructureConstants, x, y) -> tuple[Fraction, ...]:
  """Evaluate [x, y]: z_e = sum over a < b of (x_a y_b - x_b y_a) c_ab^e."""
  d = c.dim
  if len(x) != d or len(y) != d:
    raise ValueError("vector length does not match algebra dimension")
  z = [Fraction(0)] * d
  for (a, b), coeffs in c.table.items():
    t = x[a] * y[b] - x[b] * y[a]
    if t:
      for e, v in coeffs.items():
        z[e] += t * v
  return tuple(z)


def ad_matrix(c: StructureConstants, x) -> np.ndarray:
  """Matrix of ad_x = [x, .] in the chosen basis (columns are [x, e_b])."""
  return np.array([bracket_eval(c, x, basis_vector(c.dim, b))
                   for b in range(c.dim)], dtype=object).T


# entry caps of a block's two products: the first block halves from all
# indices, one block up to n = 10, and the later ones from twice the last
_BLOCK_ENTRIES, _FIRST_ENTRIES = 2**16, 2**13


@lru_cache(maxsize=16)
def _jacobi_plan(n: int) -> list[tuple]:
  """``_jacobiator``'s blocks [u0, u1) at dimension n: the ranges of their
  rows (u, v) and of the rows (v, t) above u0 among the pairs x < y, and the
  product rows of B[u, v, t], B[u, t, v] and B[v, t, u] for their triples
  u < v < t in C order (intp: C(64, 3) * 24 B, 1 MB, at n = 64)."""
  x = np.arange(n + 1)
  start = x * (2 * n - 1 - x) // 2  # start[x]: the pairs before (x, x + 1)
  plan, u0, size, cap = [], 0, n, _FIRST_ENTRIES
  while u0 < n - 2:
    w, size = n - 1 - u0, min(size, n - 2 - u0)  # w: the columns t > u0
    while size > 1 and n * ((start[u0 + size] - start[u0]) * w +
                            w * (w - 1) // 2 * size) > cap:
      size //= 2
    u1 = u0 + size
    u, v, t = np.nonzero(_UPPER[u0:u1, :n, None] & _UPPER[:n, :n])  # u from u0
    rows = start[u0 + u] - start[u0] - u0 - u - 1  # pair (u0 + u, y): rows + y
    plan.append((u0, u1, start[u0], start[u1], start[u0 + 1],
                 (rows + v) * w + t - u0 - 1, (rows + t) * w + v - u0 - 1,
                 (start[v] - start[u0 + 1] + t - v - 1) * size + u))
    u0, size, cap = u1, 2 * size, _BLOCK_ENTRIES
  return plan


def _jacobiator(left: np.ndarray, right: np.ndarray, scale: int,
                sign: int = 1) -> JacobiReport:
  """The first violation (u, v, t, f), u < v < t, of a Jacobi identity:
  with B[u, v, t, f] = sum_g left[u, v, g] right[g, t, f], the residual
  ``sign`` * (B[u, v, t] - B[u, t, v] + B[v, t, u]) / ``scale``^2, for a
  bracket table [[u, v], t] - [[u, t], v] + [[v, t], u].  When ``left`` is
  antisymmetric in (u, v), -B[u, t, v] = B[t, u, v] and this is the
  Jacobiator, which is alternating, so u < v < t suffice; for a table that
  is not antisymmetric (the induced table of a W that is not symmetric) it
  is that form as it stands, certify's residual.  A block [u0, u1) of
  ``_jacobi_plan`` takes two products, its pairs (u, v) times right[:, u0 +
  1:] and the pairs (v, t) above u0 times right[:, u0:u1]; the scan stops
  at the first block with a nonzero residual.  The dtype must hold every
  partial sum exactly (see ``_exact_sum_dtype``)."""
  n, (g, _, m) = left.shape[0], right.shape
  pairs, columns = left[_UPPER[:n, :n]], right.reshape(g, n * m)
  for u0, u1, p0, p1, p2, uvt, utv, vtu in _jacobi_plan(n):
    first = (pairs[p0:p1] @ columns[:, (u0 + 1) * m:]).reshape(-1, m)
    jac = first.take(uvt, axis=0)  # take gathers rows faster than [uvt]
    jac -= first.take(utv, axis=0)
    jac += (pairs[p2:] @ columns[:, u0 * m:u1 * m]).reshape(-1, m).take(
        vtu, axis=0)
    if jac.any():
      row, f = _first_nonzero(jac)
      w = n - 1 - u0  # the rows read the triple back: t > u0, v > u0, u
      u, v, t = int(vtu[row]) % (u1 - u0), int(utv[row]) % w, int(uvt[row]) % w
      return JacobiReport(ok=False,
                          violation=(u0 + u, u0 + 1 + v, u0 + 1 + t, f),
                          residual=Fraction(sign * int(jac[row, f]), scale**2))
  return JacobiReport(ok=True)


def validate_structure_constants(c: StructureConstants) -> JacobiReport:
  """Scan the Jacobi identity over basis triples (see ``_jacobiator``); a
  residual sums 3d products of two cleared numerators."""
  dense = c.dense.astype(_exact_sum_dtype(3 * c.dim * c.max_abs**2))
  return _jacobiator(dense, dense, c.scale)


def center_basis(c: StructureConstants) -> list[tuple[Fraction, ...]]:
  """Deterministic exact basis of the center {x : [x, y] = 0 for all y}.

  Solves the linear system sum_a x_a c_ab^e = 0 over all (b, e), on the
  cleared numerators (row b*d + e, column a).  ``nullspace`` reads its basis
  off the reduced form, which depends only on the row space, so it is given
  each distinct row once (above d = 6, the nonzero ones by ``np.unique``).
  """
  d = c.dim
  rows = c.dense.transpose(1, 2, 0).reshape(d * d, d)
  if d <= 6 or rows.dtype == object:  # fewer calls, or Python integers
    return nullspace(np.array(list(dict.fromkeys(map(tuple, rows.tolist()))),
                              dtype=rows.dtype).reshape(-1, d))
  rows = rows[rows.any(axis=1)]
  return nullspace(rows[np.unique(rows.view(f"V{8 * d}").ravel(),
                                  return_index=True)[1]])


def mixed_jacobi_check(first: StructureConstants,
                       second: StructureConstants) -> JacobiReport:
  """Check the mixed Jacobi identity coupling two brackets on one space.

  The residual at (X1, X2, X3) is the cyclic sum of
  [X1, [X2, X3]_1]_2 + [X1, [X2, X3]_2]_1, that is minus the cyclic sum of
  [[X2, X3]_1, X1]_2 + [[X2, X3]_2, X1]_1.  It vanishes identically iff the
  sum of the two brackets satisfies Jacobi.  The expression is a difference
  of Jacobiators, hence alternating: basis triples i < j < k suffice.
  Over one scale, the tables A and B give both terms in one product of
  [A | B] (joined along g) and [B ; A] (stacked along g).
  """
  if first.dim != second.dim:
    raise ValueError("brackets live on spaces of different dimension")
  scale = lcm(first.scale, second.scale)
  k1, k2 = scale // first.scale, scale // second.scale
  # max(., 1): k itself is converted to dtype, also for a zero table
  top = max(max(first.max_abs, 1) * k1, max(second.max_abs, 1) * k2)
  dtype = _exact_sum_dtype(6 * first.dim * top**2)
  a = np.multiply(first.dense, k1, dtype=dtype)
  b = np.multiply(second.dense, k2, dtype=dtype)
  return _jacobiator(np.concatenate([a, b], axis=2),
                     np.concatenate([b, a]), scale, sign=-1)


def _combine(first: StructureConstants, second: StructureConstants,
             lam: Fraction, mu: Fraction) -> StructureConstants:
  """lam * first + mu * second: k1 * first.dense + k2 * second.dense over
  den * first.scale * second.scale, with integers k1 = den * lam * second.scale
  and k2 = den * mu * first.scale, in the tier of ``_exact_sum_dtype``."""
  k1, k2 = lam * second.scale, mu * first.scale
  den = lcm(k1.denominator, k2.denominator)
  k1, k2 = int(k1 * den), int(k2 * den)
  # max(., 1): k itself is converted to dtype, also for a zero table
  dtype = _exact_sum_dtype(abs(k1) * max(first.max_abs, 1) +
                           abs(k2) * max(second.max_abs, 1))
  x, y = first.dense.astype(dtype), second.dense.astype(dtype)
  return _from_numerators(k1 * x + k2 * y, den * first.scale * second.scale)


def compatibility_check(first: StructureConstants,
                        second: StructureConstants) -> CompatibilityReport:
  """Decide whether two Lie brackets have a Lie bracket sum.

  Both inputs must individually satisfy Jacobi (ValueError otherwise --
  a precondition failure, not an incompatibility verdict).  The mixed-Jacobi
  route and the validate-the-sum route are both evaluated and must agree;
  disagreement raises InternalCheckError.
  """
  if first.dim != second.dim:
    raise ValueError("brackets live on spaces of different dimension")
  r1 = validate_structure_constants(first)
  if not r1.ok:
    raise ValueError(f"first bracket fails Jacobi at {r1.violation}")
  r2 = validate_structure_constants(second)
  if not r2.ok:
    raise ValueError(f"second bracket fails Jacobi at {r2.violation}")
  mixed = mixed_jacobi_check(first, second)
  sum_jacobi = validate_structure_constants(sum_bracket_table(first, second))
  if mixed.ok != sum_jacobi.ok:
    raise InternalCheckError(
        "mixed-Jacobi and sum-Jacobi routes disagree: "
        f"mixed={mixed!r} sum={sum_jacobi!r}")
  return CompatibilityReport(compatible=mixed.ok, mixed=mixed,
                             sum_jacobi=sum_jacobi)


def pencil_bracket(first: StructureConstants, second: StructureConstants,
                   lam, mu) -> StructureConstants:
  """Return lam*first + mu*second for a compatible pair.

  Every member of the pencil of a compatible pair is again a Lie bracket.
  """
  report = compatibility_check(first, second)
  if not report.compatible:
    raise ValueError(
        f"incompatible pair: mixed Jacobi fails at {report.mixed.violation}")
  return _combine(first, second, as_fraction(lam), as_fraction(mu))


def sum_bracket_table(first: StructureConstants,
                      second: StructureConstants) -> StructureConstants:
  """Plain entrywise sum of two tables, with no compatibility requirement."""
  if first.dim != second.dim:
    raise ValueError("brackets live on spaces of different dimension")
  return _combine(first, second, Fraction(1), Fraction(1))


def coboundary_of_one_cochain(c: StructureConstants, beta) -> StructureConstants:
  """Table of d_beta(X, Y) = [X, beta(Y)] - [Y, beta(X)] - beta([X, Y]).

  ``beta`` is a d x d rational matrix.  The result is a bracket table that
  need not satisfy Jacobi; with beta = identity it reproduces ``c``.
  """
  d = c.dim
  bmat = frac_matrix(beta)
  if bmat.shape != (d, d):
    raise ValueError(f"one-cochain must be a {d} x {d} matrix")
  bnum, bscale = cleared(bmat.ravel().tolist())
  # an entry sums 3d products c_ab^g beta_ge of cleared numerators
  dtype = _exact_sum_dtype(3 * d * c.max_abs * int(np.abs(bnum).max()))
  x, bnum = c.dense.astype(dtype), bnum.reshape(d, d).astype(dtype)
  # t[a, b, e] = sum_g c_ag^e beta_gb, the coefficients of [e_a, beta(e_b)]
  t = (x.transpose(0, 2, 1) @ bnum).transpose(0, 2, 1)
  return _from_numerators(t - t.transpose(1, 0, 2) - x @ bnum.T,
                          c.scale * bscale)


def structure_constants_to_json(c: StructureConstants) -> dict:
  """Canonical JSON-ready dict: brackets sorted by (a, b), coeffs by e (the
  C order of ``table``)."""
  brackets = [{"a": a, "b": b, "coeffs": [
      {"e": e, "value": format_rational(v)} for e, v in inner.items()]}
              for (a, b), inner in c.table.items()]
  out: dict = {"dim": c.dim}
  if c.name is not None:
    out["name"] = c.name
  out["brackets"] = brackets
  return out


def _require_int(value, what: str) -> int:
  if not isinstance(value, int) or isinstance(value, bool):
    raise ValueError(f"{what} must be an integer, got {value!r}")
  return value


def structure_constants_from_json(data) -> StructureConstants:
  """Strict parser for the structure-constants file format.

  Unknown fields, non-canonical rationals, zero coefficients, duplicate or
  misordered index pairs are all rejected.
  """
  if not isinstance(data, dict):
    raise ValueError("structure-constants document must be an object")
  allowed = {"dim", "name", "brackets"}
  extra = set(data) - allowed
  if extra:
    raise ValueError(f"unknown fields: {sorted(extra)}")
  if "dim" not in data or "brackets" not in data:
    raise ValueError("missing required fields 'dim' and/or 'brackets'")
  dim = _require_int(data["dim"], "dim")
  name = data.get("name")
  if name is not None and not isinstance(name, str):
    raise ValueError("name must be a string")
  if not isinstance(data["brackets"], list):
    raise ValueError("brackets must be a list")
  parsed, distinct, brackets = {}, {Fraction(0): 0}, {}
  for item in data["brackets"]:
    if not isinstance(item, dict):
      raise ValueError("each bracket must be an object")
    extra = set(item) - {"a", "b", "coeffs"}
    if extra:
      raise ValueError(f"unknown bracket fields: {sorted(extra)}")
    if set(item) != {"a", "b", "coeffs"}:
      raise ValueError("bracket needs exactly fields a, b, coeffs")
    a = _require_int(item["a"], "a")
    b = _require_int(item["b"], "b")
    if not a < b:
      raise ValueError(f"bracket indices must satisfy a < b, got ({a}, {b})")
    if (a, b) in brackets:
      raise ValueError(f"duplicate bracket ({a}, {b})")
    if not isinstance(item["coeffs"], list) or not item["coeffs"]:
      raise ValueError("coeffs must be a non-empty list")
    coeffs = {}
    for co in item["coeffs"]:
      if not isinstance(co, dict) or set(co) != {"e", "value"}:
        raise ValueError("each coefficient needs exactly fields e, value")
      e = _require_int(co["e"], "e")
      if e in coeffs:
        raise ValueError(f"duplicate coefficient index {e} in bracket ({a}, {b})")
      if not _code(co["value"], parsed, distinct):
        raise ValueError("zero coefficients are not stored in canonical files")
      coeffs[e] = co["value"]
    brackets[(a, b)] = coeffs
  return _coded_table(dim, brackets, name, parsed, distinct)
