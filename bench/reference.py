"""The benchmark's own constructions, written apart from liebundle.

Everything here is plain Python on ``fractions.Fraction``: the W-tensor
families from their defining formulas, the built-in algebras from closed
forms, the so(p) bracket bundle from matrix products, the linear Poisson
bracket, and the number of nonabelian copies of a circulant from a
polynomial gcd.  The checks compare liebundle's answers with these.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

Table = dict[tuple[int, int], dict[int, Fraction]]


# ---------------------------------------------------------------------------
# W-tensor families: entries[(i, j, s)] = W^{ij}_s


def family_entries(spec: dict) -> tuple[int, dict]:
  """(n, entries) of the tensor a question names, zero entries dropped."""
  family = spec["family"]
  entries: dict[tuple[int, int, int], Fraction] = {}
  if family == "direct-sum":
    n = spec["n"]
    entries = {(i, i, i): Fraction(1) for i in range(n)}
  elif family == "leibnitz":
    n = spec["n"]
    entries = {(i, j, i + j): Fraction(1)
               for i in range(n) for j in range(n) if i + j < n}
  elif family == "leibnitz-deform":
    n, lam = spec["n"], Fraction(spec["lam"])
    for i in range(n):
      for j in range(n):
        if i + j < n:
          entries[(i, j, i + j)] = Fraction(1)
        elif lam:
          entries[(i, j, i + j - n)] = lam
  elif family == "circulant":
    alpha = [Fraction(v) for v in spec["alpha"]]
    n = len(alpha)
    for s in range(n):
      for k in range(n):
        for i in range(n):
          if alpha[(s + k - i) % n]:
            entries[(s, k, i)] = alpha[(s + k - i) % n]
  elif family == "witness":
    n = 2
    entries = {(0, 1, 0): Fraction(1), (1, 0, 0): Fraction(1)}
  elif family == "entries":
    n = spec["n"]
    entries = {(i, j, s): Fraction(v) for i, j, s, v in spec["entries"]}
  elif family == "truncate":
    base_n, base = family_entries(spec["base"])
    n = base_n - 1
    entries = {(i - 1, j - 1, s - 1): v for (i, j, s), v in base.items()
               if i >= 1 and j >= 1 and s >= 1}
  else:
    raise ValueError(f"unknown family {family!r}")
  return n, {k: v for k, v in entries.items() if v}


# ---------------------------------------------------------------------------
# structure constants: table[(a, b)] = {e: c_ab^e} for a < b


def _put(table: Table, a: int, b: int, e: int, v: Fraction) -> None:
  """Add v * e_e to [e_a, e_b], storing only a < b."""
  if a == b or not v:
    return
  if a > b:
    a, b, v = b, a, -v
  inner = table.setdefault((a, b), {})
  inner[e] = inner.get(e, Fraction(0)) + v
  if not inner[e]:
    del inner[e]
    if not inner:
      del table[(a, b)]


def algebra_table(name: str) -> tuple[int, Table]:
  """Closed-form structure constants of a built-in algebra."""
  one = Fraction(1)
  if name == "sl2":  # basis h, e, f
    return 3, {(0, 1): {1: 2 * one}, (0, 2): {2: -2 * one}, (1, 2): {0: one}}
  if name == "so3":
    return 3, {(0, 1): {2: one}, (0, 2): {1: -one}, (1, 2): {0: one}}
  if name == "heisenberg3":
    return 3, {(0, 1): {2: one}}
  family, p = name[:-1].split("(")
  p = int(p)
  table: Table = {}
  if family == "gl":
    # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb, E_ab has index a*p + b
    for a in range(p):
      for b in range(p):
        for c in range(p):
          for d in range(p):
            x, y = a * p + b, c * p + d
            if x < y:
              if b == c:
                _put(table, x, y, a * p + d, one)
              if d == a:
                _put(table, x, y, c * p + b, -one)
    return p * p, table
  if family == "so":
    # B_ab = E_ab - E_ba (a < b, ascending);
    # [B_ab, B_cd] = d_bc B_ad - d_ac B_bd - d_bd B_ac + d_ad B_bc
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    index = {pr: k for k, pr in enumerate(pairs)}

    def add(x, y, r, s, v):
      if r != s:
        if r < s:
          _put(table, x, y, index[(r, s)], v)
        else:
          _put(table, x, y, index[(s, r)], -v)

    for x, (a, b) in enumerate(pairs):
      for y, (c, d) in enumerate(pairs):
        if x < y:
          if b == c:
            add(x, y, a, d, one)
          if a == c:
            add(x, y, b, d, -one)
          if b == d:
            add(x, y, a, c, -one)
          if a == d:
            add(x, y, b, c, one)
    return len(pairs), table
  raise ValueError(f"unknown algebra {name!r}")


def _matmul(x, y):
  n = len(x)
  return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]


def so_sym_table(p: int, a) -> tuple[int, Table]:
  """[x, y]_a = x a y - y a x on the basis B_rs of so(p), from matrices."""
  amat = [[Fraction(v) for v in row] for row in a]
  pairs = [(r, s) for r in range(p) for s in range(r + 1, p)]
  basis = []
  for r, s in pairs:
    m = [[Fraction(0)] * p for _ in range(p)]
    m[r][s], m[s][r] = Fraction(1), Fraction(-1)
    basis.append(m)
  table: Table = {}
  for x in range(len(basis)):
    for y in range(x + 1, len(basis)):
      left = _matmul(_matmul(basis[x], amat), basis[y])
      right = _matmul(_matmul(basis[y], amat), basis[x])
      for e, (r, s) in enumerate(pairs):
        _put(table, x, y, e, left[r][s] - right[r][s])
  return len(pairs), table


def swap_table(table: Table, x: int, y: int) -> Table:
  """The same bracket with basis vectors x and y exchanged."""
  sw = {x: y, y: x}
  out: Table = {}
  for (a, b), coeffs in table.items():
    for e, v in coeffs.items():
      _put(out, sw.get(a, a), sw.get(b, b), sw.get(e, e), v)
  return out


def sum_table(first: Table, second: Table) -> Table:
  out: Table = {}
  for table in (first, second):
    for (a, b), coeffs in table.items():
      for e, v in coeffs.items():
        _put(out, a, b, e, v)
  return out


def center_dim(name: str) -> int:
  """Closed-form center dimension of a built-in algebra."""
  if name in ("sl2", "so3"):
    return 0
  if name == "heisenberg3":
    return 1
  family, p = name[:-1].split("(")
  if family == "gl":
    return 1
  return 1 if int(p) == 2 else 0


# ---------------------------------------------------------------------------
# linear Poisson bracket on polynomials {exps: value}


def poisson_bracket(dim: int, table: Table, f: dict, g: dict) -> dict:
  """{f, g} = sum over a < b of c_ab^e xi_e (f_a g_b - f_b g_a)."""
  out: dict[tuple[int, ...], Fraction] = {}

  def diff(p, a):
    res = {}
    for exps, v in p.items():
      if exps[a]:
        key = tuple(x - (i == a) for i, x in enumerate(exps))
        res[key] = v * exps[a]
    return res

  df = [diff(f, a) for a in range(dim)]
  dg = [diff(g, a) for a in range(dim)]
  for (a, b), coeffs in table.items():
    for sign, left, right in ((1, df[a], dg[b]), (-1, df[b], dg[a])):
      for e1, v1 in left.items():
        for e2, v2 in right.items():
          for e, c in coeffs.items():
            key = tuple(x + y + (i == e)
                        for i, (x, y) in enumerate(zip(e1, e2)))
            out[key] = out.get(key, Fraction(0)) + sign * c * v1 * v2
  return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# circulants: A(x) = sum alpha_r x^r


def _strip(p: list) -> list:
  while p and not p[-1]:
    p.pop()
  return p


def _poly_mod(a: list, b: list) -> list:
  a = list(a)
  lead = b[-1]
  while len(_strip(a)) >= len(b):
    q = a[-1] / lead
    shift = len(a) - len(b)
    for k, v in enumerate(b):
      a[shift + k] -= q * v
  return a


def circulant_m(alpha) -> int:
  """Nonabelian copies m = n - deg gcd(A(x), x^n - 1) over Q."""
  n = len(alpha)
  a = _strip([Fraction(v) for v in alpha])
  b = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
  while a:
    a, b = _poly_mod(b, a), a
  return n - (len(_strip(b)) - 1)


def dft(alpha) -> list[complex]:
  """mu_k = sum_r alpha_r w^{-rk}, w = exp(2 pi i / n), in floats."""
  n = len(alpha)
  vals = [float(Fraction(v)) for v in alpha]
  return [sum(v * cmath.exp(-2j * cmath.pi * r * k / n)
              for r, v in enumerate(vals)) for k in range(n)]
