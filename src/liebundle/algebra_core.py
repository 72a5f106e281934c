"""Lie algebras given by exact rational structure constants.

A bracket on a d-dimensional space is held as integers ``dense[a, b, e]``
over a common ``scale`` (see ``linalg.cleared``), antisymmetric in (a, b),
and read as the sparse view ``table[(a, b)] = {e: c_ab_e}`` for a < b.
Everything here is exact: coefficients are Fractions and validation
decisions never touch floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

import numpy as np

from .errors import InternalCheckError
from .linalg import (ClearedTable, cleared, frac_matrix, identity_matrix,
                     nullspace, zeros_matrix)
from .rationals import as_fraction, format_rational

MAX_DIM = 64

Table = dict[tuple[int, int], dict[int, Fraction]]


@dataclass(frozen=True, eq=False)
class StructureConstants(ClearedTable):
  """c_ab^e = dense[a, b, e] / scale (see ``linalg.ClearedTable``), with
  ``dense`` antisymmetric in (a, b)."""
  dim: int
  dense: np.ndarray
  scale: int
  name: str | None = None

  @cached_property
  def table(self) -> Table:
    """The nonzero brackets {(a, b): {e: c_ab^e}} with a < b, in C order
    (or in the order given to ``make_structure_constants``)."""
    table: Table = {}
    upper = np.triu(np.ones((self.dim,) * 2, dtype=bool), 1)[:, :, None]
    for (a, b, e), v in self._fractions(upper).items():
      table.setdefault((a, b), {})[e] = v
    return table


def _from_numerators(dense: np.ndarray, scale: int) -> StructureConstants:
  """The table dense / scale, antisymmetric in its first two indices."""
  dense, scale = cleared(dense, scale)
  return StructureConstants(dense.shape[0], dense, scale)


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

  Keys must satisfy 0 <= a < b < dim; values are coerced to Fraction and
  zero coefficients are dropped.  No Jacobi check happens here.
  """
  if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
    raise ValueError(f"dim must be an integer in 1..{MAX_DIM}, got {dim!r}")
  table: Table = {}
  for key, coeffs in brackets.items():
    a, b = key
    if not type(a) is type(b) is int:
      raise ValueError(f"bracket key must be an integer pair, got {key!r}")
    if not (0 <= a < b < dim):
      raise ValueError(f"bracket key must satisfy 0 <= a < b < dim, got {key!r}")
    if (a, b) in table:
      raise ValueError(f"duplicate bracket key {key!r}")
    inner: dict[int, Fraction] = {}
    for e, value in coeffs.items():
      if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < dim:
        raise ValueError(f"coefficient index {e!r} out of range for dim {dim}")
      if e in inner:
        raise ValueError(f"duplicate coefficient index {e} in bracket {key!r}")
      v = as_fraction(value)
      if v != 0:
        inner[e] = v
    if inner:
      table[(a, b)] = inner
  keys = [(a, b, e) for (a, b), inner in table.items() for e in inner]
  nums, scale = cleared([v for inner in table.values() for v in inner.values()])
  dense = np.zeros(dim**3, dtype=nums.dtype)
  dense[[(a * dim + b) * dim + e for a, b, e in keys]] = nums
  dense[[(b * dim + a) * dim + e for a, b, e in keys]] = -nums
  c = StructureConstants(dim, dense.reshape(dim, dim, dim), scale, name)
  c.__dict__["table"] = table
  return c


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
  table = _so_table(p, identity_matrix(p)) if family == "so" else _gl_table(p)
  return make_structure_constants(dim, table, name=name)


def so_matrix_basis(p: int) -> list[np.ndarray]:
  """Basis E_ab - E_ba of antisymmetric p x p matrices, (a, b) ascending."""
  out = []
  for a, b in combinations(range(p), 2):
    mat = zeros_matrix(p, p)
    mat[a, b], mat[b, a] = Fraction(1), Fraction(-1)
    out.append(mat)
  return out


def _gl_table(p: int) -> dict:
  """[E_ab, E_cd] = d_bc E_ad - d_da E_cb, with E_ab at index a*p + b."""
  brackets = {}
  for u, v in combinations(range(p * p), 2):
    (a, b), (c, d) = divmod(u, p), divmod(v, p)
    coeffs = {a * p + d: 1} if b == c else {}
    if d == a:
      coeffs[c * p + b] = -1
    if coeffs:
      brackets[(u, v)] = coeffs
  return brackets


def _so_table(p: int, m) -> dict:
  """Table of [x, y]_m = x m y - y m x on so(p) for a symmetric p x p
  matrix ``m``; the identity gives the commutator.  In the basis
  B_xy = E_xy - E_yx (x < y, ascending), with B_yx = -B_xy and B_xx = 0,
  [B_ab, B_cd]_m = m_bc B_ad - m_ac B_bd - m_bd B_ac + m_ad B_bc."""
  pairs = list(combinations(range(p), 2))
  index = {pair: k for k, pair in enumerate(pairs)}
  brackets = {}
  for (u, (a, b)), (v, (c, d)) in combinations(enumerate(pairs), 2):
    coeffs = {}
    for weight, x, y in ((m[b][c], a, d), (-m[a][c], b, d),
                         (-m[b][d], a, c), (m[a][d], b, c)):
      if weight and x != y:
        key, weight = ((x, y), weight) if x < y else ((y, x), -weight)
        coeffs[index[key]] = weight
    if coeffs:
      brackets[(u, v)] = coeffs
  return brackets


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


def _jacobi_scan(dim: int, pairs, sign: int = 1) -> JacobiReport:
  """The table Jacobi scan, bilinear in the two brackets of each pair.

  The residual at a basis triple is ``sign`` times the sum over (p, q) in
  ``pairs`` of the cyclic sum of [[x, y]_p, z]_q.  It must be alternating in
  the triple (a Jacobiator, or a sum of them), so triples a < b < c suffice;
  the first violation is the lexicographically smallest (a, b, c) and,
  within it, the smallest output component f.  The scan runs on sparse rows
  rows[x][y] = {e: numerator of c_xy^e} of the tables' cleared arrays, put
  over one common scale.
  """
  scale = lcm(*(c.scale for pair in pairs for c in pair))
  rows: dict[int, list[dict[int, dict[int, int]]]] = {}
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
        acc: dict[int, int] = {}
        for first, second in tables:
          for x, y, z in ((a, b, cc), (b, cc, a), (cc, a, b)):
            for e, q in first[x].get(y, {}).items():
              for f, r in second[e].get(z, {}).items():
                acc[f] = acc.get(f, 0) + q * r
        for f in sorted(acc):
          if acc[f] != 0:
            return JacobiReport(ok=False, violation=(a, b, cc, f),
                                residual=Fraction(sign * acc[f], scale**2))
  return JacobiReport(ok=True)


def validate_structure_constants(c: StructureConstants) -> JacobiReport:
  """Scan the Jacobi identity over basis triples (see ``_jacobi_scan``)."""
  return _jacobi_scan(c.dim, [(c, c)])


def center_basis(c: StructureConstants) -> list[tuple[Fraction, ...]]:
  """Deterministic exact basis of the center {x : [x, y] = 0 for all y}.

  Solves the linear system sum_a x_a c_ab^e = 0 over all (b, e), on the
  cleared numerators (row b*d + e, column a).
  """
  d = c.dim
  return nullspace(c.dense.transpose(1, 2, 0).reshape(d * d, d))


def mixed_jacobi_check(first: StructureConstants,
                       second: StructureConstants) -> JacobiReport:
  """Check the mixed Jacobi identity coupling two brackets on one space.

  The residual at (X1, X2, X3) is the cyclic sum of
  [X1, [X2, X3]_1]_2 + [X1, [X2, X3]_2]_1, that is minus the cyclic sum of
  [[X2, X3]_1, X1]_2 + [[X2, X3]_2, X1]_1.  It vanishes identically iff the
  sum of the two brackets satisfies Jacobi.  The expression is a difference
  of Jacobiators, hence alternating: basis triples i < j < k suffice.
  """
  if first.dim != second.dim:
    raise ValueError("brackets live on spaces of different dimension")
  return _jacobi_scan(first.dim, [(first, second), (second, first)], sign=-1)


def _combine(first: StructureConstants, second: StructureConstants,
             lam: Fraction, mu: Fraction) -> StructureConstants:
  """lam * first + mu * second: k1 * first.dense + k2 * second.dense over
  den * first.scale * second.scale, with integers k1 = den * lam * second.scale
  and k2 = den * mu * first.scale, in Python integers if a sum can pass 2^63."""
  k1, k2 = lam * second.scale, mu * first.scale
  den = lcm(k1.denominator, k2.denominator)
  k1, k2 = int(k1 * den), int(k2 * den)
  x, y = first.dense, second.dense
  bound = abs(k1) * max(first.max_abs, 1) + abs(k2) * max(second.max_abs, 1)
  if bound >= 2**63:
    x, y = x.astype(object), y.astype(object)
  return _from_numerators(k1 * x + k2 * y, den * first.scale * second.scale)


def compatibility_check(first: StructureConstants,
                        second: StructureConstants) -> CompatibilityReport:
  """Decide whether two Lie brackets have a Lie bracket sum.

  Both inputs must individually satisfy Jacobi (ValueError otherwise --
  a precondition failure, not an incompatibility verdict).  The mixed-Jacobi
  route and the validate-the-sum route are both evaluated and must agree;
  disagreement raises InternalCheckError.
  """
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
  x, bnum = c.dense, bnum.reshape(d, d)
  # an entry sums 3d products c_ab^g beta_ge of cleared numerators
  if 3 * d * c.max_abs * int(np.abs(bnum).max()) >= 2**63:
    x, bnum = x.astype(object), bnum.astype(object)
  # t[a, b, e] = sum_g c_ag^e beta_gb, the coefficients of [e_a, beta(e_b)]
  t = (x.transpose(0, 2, 1) @ bnum).transpose(0, 2, 1)
  return _from_numerators(t - t.transpose(1, 0, 2) - x @ bnum.T,
                          c.scale * bscale)


def structure_constants_to_json(c: StructureConstants) -> dict:
  """Canonical JSON-ready dict: brackets sorted by (a, b), coeffs by e."""
  brackets = []
  for (a, b) in sorted(c.table):
    coeffs = [{"e": e, "value": format_rational(v)}
              for e, v in sorted(c.table[(a, b)].items())]
    brackets.append({"a": a, "b": b, "coeffs": coeffs})
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
  brackets = {}
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
      v = as_fraction(co["value"])
      if v == 0:
        raise ValueError("zero coefficients are not stored in canonical files")
      coeffs[e] = v
    brackets[(a, b)] = coeffs
  return make_structure_constants(dim, brackets, name=name)
