"""Linear Poisson structures attached to structure constants.

On the dual space with coordinates xi_0..xi_{d-1} the bracket
{f, g} = sum c_ab^e xi_e (df/dxi_a)(dg/dxi_b) is Poisson exactly when c
satisfies Jacobi.  Polynomials are exact: sparse exponent-tuple -> Fraction
maps, no floats anywhere.  The Jacobi check runs the Jacobiator kernel on
the table's cleared numerators, with the inner bracket in the outer
bracket's second slot ([t, [u, v]]), against the table scan's [[u, v], t].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra_core import (JacobiReport, StructureConstants, _jacobiator,
                           center_basis, validate_structure_constants)
from .errors import InternalCheckError, SizeCapError
from .linalg import _exact_sum_dtype, cleared
from .rationals import as_fraction, format_rational

Terms = dict[tuple[int, ...], Fraction]

# cap on the products lie_poisson_bracket forms, at 6.4-9.6 us each about 1 s
MAX_BRACKET_WORK = 120_000


@dataclass(frozen=True, eq=True)
class PolyFunction:
  dim: int
  terms: Terms


def make_poly(dim: int, terms) -> PolyFunction:
  """Normalize {exponent tuple: value}: full-length keys, zeros dropped."""
  if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
    raise ValueError(f"dim must be a positive integer, got {dim!r}")
  table: Terms = {}
  for exps, value in terms.items():
    exps = tuple(exps)
    if len(exps) != dim:
      raise ValueError(f"exponent tuple {exps!r} does not have length {dim}")
    for e in exps:
      if not isinstance(e, int) or isinstance(e, bool) or e < 0:
        raise ValueError(f"exponents must be non-negative integers: {exps!r}")
    if exps in table:
      raise ValueError(f"duplicate exponent tuple {exps!r}")
    v = as_fraction(value)
    if v != 0:
      table[exps] = v
  return PolyFunction(dim=dim, terms=table)


def poly_zero(dim: int) -> PolyFunction:
  return make_poly(dim, {})


def coordinate_poly(dim: int, a: int) -> PolyFunction:
  """The coordinate function xi_a."""
  if not 0 <= a < dim:
    raise ValueError(f"coordinate index {a} out of range")
  exps = tuple(1 if i == a else 0 for i in range(dim))
  return PolyFunction(dim=dim, terms={exps: Fraction(1)})


def is_zero_poly(f: PolyFunction) -> bool:
  return not f.terms


def poly_add(f: PolyFunction, g: PolyFunction) -> PolyFunction:
  if f.dim != g.dim:
    raise ValueError("polynomials live on different spaces")
  terms = dict(f.terms)
  for exps, v in g.terms.items():
    t = terms.get(exps, Fraction(0)) + v
    if t:
      terms[exps] = t
    elif exps in terms:
      del terms[exps]
  return PolyFunction(dim=f.dim, terms=terms)


def poly_scale(f: PolyFunction, scalar) -> PolyFunction:
  scalar = as_fraction(scalar)
  if scalar == 0:
    return PolyFunction(dim=f.dim, terms={})
  return PolyFunction(dim=f.dim, terms={e: scalar * v
                                        for e, v in f.terms.items()})


def poly_mul(f: PolyFunction, g: PolyFunction) -> PolyFunction:
  if f.dim != g.dim:
    raise ValueError("polynomials live on different spaces")
  terms: Terms = {}
  for e1, v1 in f.terms.items():
    for e2, v2 in g.terms.items():
      key = tuple(a + b for a, b in zip(e1, e2))
      t = terms.get(key, Fraction(0)) + v1 * v2
      if t:
        terms[key] = t
      elif key in terms:
        del terms[key]
  return PolyFunction(dim=f.dim, terms=terms)


def poly_diff(f: PolyFunction, a: int) -> PolyFunction:
  """Partial derivative with respect to xi_a."""
  if not 0 <= a < f.dim:
    raise ValueError(f"coordinate index {a} out of range")
  return PolyFunction(f.dim, _partials(f.terms).get(a, {}))


def make_poisson_tensor(c: StructureConstants) -> StructureConstants:
  """``c`` itself, after checking that it satisfies Jacobi (ValueError when
  it does not), so that it is a Poisson tensor."""
  report = validate_structure_constants(c)
  if not report.ok:
    raise ValueError(
        f"constants fail Jacobi at {report.violation}: not a Poisson tensor")
  return c


def _constants_of(t) -> StructureConstants:
  if isinstance(t, StructureConstants):
    return t
  raise ValueError(f"expected StructureConstants, got {type(t).__name__}")


def _partials(terms: Terms) -> dict[int, Terms]:
  """{a: terms of df/dxi_a} over the coordinates f depends on, from one pass
  over the terms of f."""
  out: dict[int, Terms] = {}
  for exps, v in terms.items():
    for a, k in enumerate(exps):
      if k:
        out.setdefault(a, {})[exps[:a] + (k - 1,) + exps[a + 1:]] = v * k
  return dict(sorted(out.items()))


def _bracket(table, df: dict, dg: dict) -> dict:
  """The nonzero terms of sum c_ab^e xi_e f_a g_b over a != b in the
  derivative supports of f and g (c_ba = -c_ab), not over the whole table.
  ``table`` is {(a, b): {e: c_ab^e}} for a < b."""
  terms: Terms = {}
  for a, fa in df.items():
    for b, gb in dg.items():
      sign = 1 if a < b else -1
      coeffs = table.get((min(a, b), max(a, b)))  # none at a = b
      if not coeffs:
        continue
      for e1, v1 in fa.items():
        for e2, v2 in gb.items():
          base = tuple(x + y for x, y in zip(e1, e2))
          w = sign * v1 * v2
          for e, v in coeffs.items():
            key = base[:e] + (base[e] + 1,) + base[e + 1:]
            terms[key] = terms.get(key, 0) + v * w
  return {k: v for k, v in terms.items() if v}


def lie_poisson_bracket(t, f: PolyFunction, g: PolyFunction) -> PolyFunction:
  """{f, g} = sum of c_ab^e xi_e f_a g_b (see ``_bracket``), after checking
  the number of products it forms against MAX_BRACKET_WORK."""
  c = _constants_of(t)
  if f.dim != c.dim or g.dim != c.dim:
    raise ValueError("polynomials do not match the algebra dimension")
  df, dg, table = _partials(f.terms), _partials(g.terms), c.table
  work = sum(len(fa) * len(gb) * len(table.get((min(a, b), max(a, b)), ()))
             for a, fa in df.items() for b, gb in dg.items())
  if work > MAX_BRACKET_WORK:
    raise SizeCapError(f"bracket products {work} exceed the cap "
                       f"{MAX_BRACKET_WORK}")
  return PolyFunction(c.dim, _bracket(table, df, dg))


def _adjoint_jacobi(c: StructureConstants) -> JacobiReport:
  """Jacobi as the adjoint homomorphism, ([ad_u, ad_v] - ad_[u, v]) e_t =
  -J(u, v, t): the kernel (``_jacobiator``) on the numerators and their
  (a, b) transpose, which contracts [t, [u, v]], with sign -1."""
  x = c.dense.astype(_exact_sum_dtype(3 * c.dim * c.max_abs**2))
  return _jacobiator(x, x.transpose(1, 0, 2), c.scale, sign=-1)


def poisson_jacobi_check(t) -> JacobiReport:
  """Jacobi for the Lie-Poisson bracket, {{xi_a, xi_b}, xi_c} + cyclic = 0,
  as the adjoint homomorphism (``_adjoint_jacobi``), compared with
  validate_structure_constants on the same table (disagreement raises
  InternalCheckError).  Accepts raw StructureConstants so that invalid
  inputs can be *reported* rather than rejected upfront."""
  c = _constants_of(t)
  adjoint, table = _adjoint_jacobi(c), validate_structure_constants(c)
  if adjoint != table:
    raise InternalCheckError(f"adjoint-homomorphism Jacobi ({adjoint!r}) "
                             f"disagrees with the table scan ({table!r})")
  return adjoint


def casimir_linear_basis(t) -> list[PolyFunction]:
  """Linear Casimirs: coordinate combinations from the exact center, each
  checked to Poisson-commute with every xi_b: {z, xi_b} = sum_e (sum_a z_a
  c_ab^e) xi_e, so the cleared z times the numerators as a d x d^2 matrix
  is zero (InternalCheckError otherwise -- a center computation bug)."""
  c = _constants_of(t)
  d = c.dim
  basis = center_basis(c)
  if basis:
    z = cleared([v for vec in basis for v in vec])[0].reshape(-1, d)
    dtype = _exact_sum_dtype(d * int(abs(z).max()) * c.max_abs)
    if (z.astype(dtype) @ c.dense.reshape(d, d * d).astype(dtype)).any():
      raise InternalCheckError("center vector fails to Poisson-commute")
  return [PolyFunction(d, {tuple(int(i == a) for i in range(d)): v
                          for a, v in enumerate(vec) if v}) for vec in basis]


def involution_check(tensors, fs) -> bool:
  """True iff {f_i, f_j} = 0 for every pair under every given tensor (one
  table, or a list or tuple of them)."""
  tensors = tensors if isinstance(tensors, (list, tuple)) else (tensors,)
  tensors, fs = [_constants_of(t) for t in tensors], list(fs)
  return all(is_zero_poly(lie_poisson_bracket(t, f, g))
             for t in tensors for f, g in combinations(fs, 2))


# ---------------------------------------------------------------------------
# serialization


def poly_to_json(f: PolyFunction) -> dict:
  """Canonical JSON-ready dict, terms sorted by exponent tuple."""
  terms = [{"exps": list(exps), "value": format_rational(v)}
           for exps, v in sorted(f.terms.items())]
  return {"dim": f.dim, "terms": terms}


def poly_from_json(data) -> PolyFunction:
  """Strict parser for the polynomial file format."""
  if not isinstance(data, dict) or set(data) != {"dim", "terms"}:
    raise ValueError("polynomial document needs exactly fields 'dim' and 'terms'")
  dim = data["dim"]
  if not isinstance(dim, int) or isinstance(dim, bool):
    raise ValueError("dim must be an integer")
  if not isinstance(data["terms"], list):
    raise ValueError("terms must be a list")
  terms: Terms = {}
  for item in data["terms"]:
    if not isinstance(item, dict) or set(item) != {"exps", "value"}:
      raise ValueError("each term needs exactly fields exps, value")
    exps = item["exps"]
    if not isinstance(exps, list):
      raise ValueError("exps must be a list")
    for e in exps:
      if not isinstance(e, int) or isinstance(e, bool) or e < 0:
        raise ValueError("exponents must be non-negative integers")
    key = tuple(exps)
    if key in terms:
      raise ValueError(f"duplicate exponent tuple {list(key)}")
    v = as_fraction(item["value"])
    if v == 0:
      raise ValueError("zero terms are not stored in canonical files")
    terms[key] = v
  return make_poly(dim, terms)


def poly_to_text(f: PolyFunction) -> str:
  """Human-readable canonical rendering ("4*x1*x2 + x0^2"; "0" when empty)."""
  if not f.terms:
    return "0"
  pieces = []
  for exps, v in sorted(f.terms.items()):
    factors = [f"x{i}" if e == 1 else f"x{i}^{e}"
               for i, e in enumerate(exps) if e]
    if abs(v) != 1 or not factors:
      factors.insert(0, format_rational(abs(v)))
    pieces.append((" - " if v < 0 else " + ") + "*".join(factors))
  text = "".join(pieces)  # the first sign is "-" or nothing
  return ("-" if text[1] == "-" else "") + text[3:]
