"""Independent checks of liebundle's answers.

``check(question, answer)`` returns a list of problems, empty when the
answer is right.  An answer that raised is a problem, except the one known
failure (``known_failure``).  Every expected value comes from the
benchmark's own computation (``reference`` and the integer kernels below)
or from a property the method must have; nothing is compared with stored
program output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

import numpy as np

import corpora
import reference

PRIME = 2**31 - 1  # products of two residues fit in int64
VALID_FAMILIES = ("direct-sum", "leibnitz", "leibnitz-deform", "circulant")


# ---------------------------------------------------------------------------
# exact integer kernels


def _cleared(items: dict, shape: tuple) -> tuple[np.ndarray, int, int]:
  """(dense integer copy, scale, max |entry|) of {index: Fraction}, scaled
  by the lcm of the denominators; object dtype, so nothing can overflow."""
  scale = lcm(1, *(v.denominator for v in items.values()))
  out = np.zeros(shape, dtype=object)
  for k, v in items.items():
    out[k] = int(v * scale)
  top = max((abs(int(v * scale)) for v in items.values()), default=0)
  return out, scale, top


def _full_table(d: int, table: reference.Table) -> dict:
  """{(a, b, e): c_ab^e} with antisymmetry filled in."""
  out = {}
  for (a, b), coeffs in table.items():
    for e, v in coeffs.items():
      out[(a, b, e)] = v
      out[(b, a, e)] = -v
  return out


def jacobi_violation(n: int, entries: dict, d: int, table: reference.Table):
  """First violation of Jacobi on G^n with the W-bracket, or None.

  Uses the factorised form [[e_ia, e_jb], e_kc] = A[i,j,k,.] (x) D[a,b,c,.]
  with A[i,j,k,t] = sum_s W^{ij}_s W^{sk}_t and D[a,b,c,f] = [[e_a, e_b],
  e_c]_f, on exact integers.  The residual at (u, v, t) is
  [[u, v], t] + [[v, t], u] - [[u, t], v]; the violation is the first
  (u, v, t, f) with u < v < t in lexicographic order, f = s*d + e.  With
  n = 1 and W = 1 this is the Jacobi scan of the table itself.
  """
  w_int, lw, mw = _cleared(entries, (n, n, n))
  c_int, lc, mc = _cleared(_full_table(d, table), (d, d, d))
  if 3 * n * d * mw**2 * mc**2 < 2**62:  # int64 cannot overflow
    w_int, c_int = w_int.astype(np.int64), c_int.astype(np.int64)
  nd = n * d
  a_ = np.einsum("ijs,skt->ijkt", w_int, w_int)
  d_ = np.einsum("abg,gcf->abcf", c_int, c_int)
  t_ = np.einsum("ijkt,abcf->iajbkctf", a_, d_).reshape(nd, nd, nd, nd)
  jac = t_ + np.einsum("vtuf->uvtf", t_) - np.einsum("utvf->uvtf", t_)
  idx = np.arange(nd)
  ordered = ((idx[:, None, None] < idx[None, :, None])
             & (idx[None, :, None] < idx[None, None, :]))
  hits = np.argwhere((jac != 0) & ordered[..., None])
  if not len(hits):
    return None
  u, v, t, f = (int(x) for x in hits[0])
  return (u, v, t, f), Fraction(int(jac[u, v, t, f]), (lw * lc) ** 2)


def rank_mod_p(rows) -> int:
  """Rank over GF(PRIME); never above the rank over Q."""
  m = np.array([[int(x) % PRIME for x in row] for row in rows],
               dtype=np.int64).reshape(len(rows), -1)
  r = 0
  for c in range(m.shape[1]):
    nz = np.nonzero(m[r:, c])[0]
    if not len(nz):
      continue
    p = r + int(nz[0])
    m[[r, p]] = m[[p, r]]
    m[r] = m[r] * pow(int(m[r, c]), PRIME - 2, PRIME) % PRIME
    col = m[:, c].copy()
    col[r] = 0
    m = (m - np.outer(col, m[r]) % PRIME) % PRIME
    r += 1
    if r == m.shape[0]:
      break
  return r


def _int_vector(vec) -> list[int]:
  scale = lcm(1, *(Fraction(v).denominator for v in vec))
  return [int(Fraction(v) * scale) for v in vec]


def center_problems(vectors, d: int, table: reference.Table,
                    expected_dim: int | None = None) -> list[str]:
  """The vectors must be central, independent and span the center.

  The span follows from a count: k independent central vectors give
  k <= dim Z = d - rank_Q(ad) <= d - rank_p(ad), so k = d - rank_p(ad)
  settles k = dim Z.
  """
  probs = []
  c_int, _, _ = _cleared(_full_table(d, table), (d, d, d))
  for k, vec in enumerate(vectors):
    if len(vec) != d:
      probs.append(f"center vector {k} has length {len(vec)}, not {d}")
      return probs
    z = np.array(_int_vector(vec), dtype=object)
    if np.tensordot(z, c_int, axes=(0, 0)).any():
      probs.append(f"center vector {k} does not commute with the basis")
  ad_rank = rank_mod_p(c_int.transpose(1, 2, 0).reshape(d * d, d).tolist())
  if len(vectors) != d - ad_rank:
    probs.append(f"{len(vectors)} center vectors, center dimension is "
                 f"{d - ad_rank}")
  if vectors and rank_mod_p([_int_vector(v) for v in vectors]) != len(vectors):
    probs.append("center vectors are dependent")
  if expected_dim is not None and len(vectors) != expected_dim:
    probs.append(f"center dimension {len(vectors)}, closed form "
                 f"{expected_dim}")
  return probs


def induced_table(n: int, entries: dict, d: int,
                  table: reference.Table) -> reference.Table:
  """c'_{(i,a),(j,b)}^{(s,e)} = W^{ij}_s c_ab^e for (i,a) < (j,b)."""
  full = _full_table(d, table)
  out: reference.Table = {}
  for (i, j, s), w in entries.items():
    for (a, b, e), c in full.items():
      u, v = i * d + a, j * d + b
      if u < v:
        inner = out.setdefault((u, v), {})
        inner[s * d + e] = inner.get(s * d + e, Fraction(0)) + w * c
  return {k: {e: v for e, v in inner.items() if v}
          for k, inner in out.items() if any(inner.values())}


def w_validation(n: int, entries: dict) -> tuple:
  """(ok, failure, indices, residual) of the universal identities.

  Symmetry first: the smallest (i, j, s) with W^{ij}_s != W^{ji}_s.  Then
  the slice commutators (W^(s) W^(q) - W^(q) W^(s))_{ip} over s < q, where
  (W^(k))_{ij} = W^{kj}_i, reported at the smallest (i, s, q, p).
  """
  zero = Fraction(0)
  keys = set(entries) | {(j, i, s) for (i, j, s) in entries}
  bad = [k for k in keys
         if entries.get(k, zero) != entries.get((k[1], k[0], k[2]), zero)]
  if bad:
    i, j, s = min(bad)
    return (False, "symmetry", (i, j, s),
            entries.get((i, j, s), zero) - entries.get((j, i, s), zero))
  hit = (_commutator_dense if n <= 32 else _commutator_sparse)(n, entries)
  if hit is None:
    return (True, None, None, None)
  return (False, "quadratic") + hit


def _commutator_dense(n: int, entries: dict):
  w_int, scale, top = _cleared(entries, (n, n, n))
  if 2 * n * top * top < 2**62:
    w_int = w_int.astype(np.int64)
  slices = w_int.transpose(0, 2, 1)  # slices[k][i][j] = W^{kj}_i
  prod = np.einsum("sij,qjp->sqip", slices, slices)
  comm = (prod - prod.transpose(1, 0, 2, 3)).transpose(2, 0, 1, 3)
  upper = np.triu(np.ones((n, n), dtype=bool), 1)
  hits = np.argwhere((comm != 0) & upper[None, :, :, None])
  if not len(hits):
    return None
  i, s, q, p = (int(x) for x in hits[0])
  return (i, s, q, p), Fraction(int(comm[i, s, q, p]), scale * scale)


def _commutator_sparse(n: int, entries: dict):
  rows = [dict() for _ in range(n)]  # rows[k][i] = {j: W^{kj}_i}
  for (k, j, i), v in entries.items():
    rows[k].setdefault(i, {})[j] = v

  def product(x, y):
    out = {}
    for i, row in x.items():
      for j, v in row.items():
        for p, w in y.get(j, {}).items():
          out[(i, p)] = out.get((i, p), Fraction(0)) + v * w
    return out

  best = None
  for s in range(n):
    for q in range(s + 1, n):
      left, right = product(rows[s], rows[q]), product(rows[q], rows[s])
      for (i, p) in set(left) | set(right):
        r = left.get((i, p), Fraction(0)) - right.get((i, p), Fraction(0))
        if r and (best is None or (i, s, q, p) < best[0]):
          best = ((i, s, q, p), r)
  return best


# ---------------------------------------------------------------------------
# checks per kind of question


def _jacobi_want(n, entries, d, table) -> tuple:
  hit = jacobi_violation(n, entries, d, table)
  return (True, None, None) if hit is None else (False,) + hit


def _table_jacobi(d: int, table: reference.Table) -> tuple:
  """(ok, violation, residual) of the Jacobi scan of one table."""
  return _jacobi_want(1, {(0, 0, 0): Fraction(1)}, d, table)


def check_certify(q: dict, ans: dict) -> list[str]:
  n, entries = reference.family_entries(q["w"])
  d, table = reference.algebra_table(q["algebra"])
  probs = []
  if (ans["n"], ans["entries"], ans["dim"]) != (n, len(entries), d):
    probs.append(f"sizes {ans['n'], ans['entries'], ans['dim']}, "
                 f"expected {n, len(entries), d}")
  want = _jacobi_want(n, entries, d, table)
  if tuple(ans["report"]) != want:
    probs.append(f"certify gave {ans['report']}, expected {want}")
  if w_validation(n, entries)[0] and not ans["report"][0]:
    probs.append("a valid W failed Jacobi over G")
  if q["center"]:
    probs += center_problems(ans["center"], n * d,
                             induced_table(n, entries, d, table))
  return probs


def check_validate(q: dict, ans: dict) -> list[str]:
  n, entries = reference.family_entries(q["w"])
  probs = []
  if (ans["n"], ans["entries"]) != (n, len(entries)):
    probs.append(f"tensor has n, entries = {ans['n'], ans['entries']}, "
                 f"expected {n, len(entries)}")
  want = w_validation(n, entries)
  if tuple(ans["report"]) != want:
    probs.append(f"validation gave {ans['report']}, expected {want}")
  if q["w"]["family"] in VALID_FAMILIES and not ans["report"][0]:
    probs.append(f"{q['w']['family']} is a valid family but failed")
  return probs


def check_classify(q: dict, ans: dict) -> list[str]:
  n, m = len(q["alpha"]), reference.circulant_m(q["alpha"])
  want = {"n": n, "m": m, "n_abelian": n - m, "zero_count": n - m}
  return [] if ans == want else [f"classify gave {ans}, expected {want}"]


def check_rank(q: dict, ans: dict) -> list[str]:
  m = reference.circulant_m(q["alpha"])
  return [] if ans["rank"] == m else [f"rank {ans['rank']}, expected {m}"]


def _table_problems(what: str, got, want) -> list[str]:
  return [] if got == want else [f"{what} structure constants differ"]


def check_center(q: dict, ans: dict) -> list[str]:
  d, table = reference.algebra_table(q["algebra"])
  probs = _table_problems(q["algebra"], ans["table"], table)
  return probs + center_problems(ans["center"], d, table,
                                 reference.center_dim(q["algebra"]))


def _compat_tables(q: dict):
  p = q["p"]
  d, first = reference.algebra_table(f"so({p})")
  _, second = reference.so_sym_table(p, q["a"])
  if q["swap"]:
    second = reference.swap_table(second, 0, 1)
  return d, first, second


def check_compat(q: dict, ans: dict) -> list[str]:
  d, first, second = _compat_tables(q)
  probs = (_table_problems("so(p)", ans["first"], first)
           + _table_problems("bundle", ans["second"], second))
  for name, table in (("first", first), ("second", second)):
    if not _table_jacobi(d, table)[0]:
      probs.append(f"{name} bracket of the pair is not a Lie bracket")
  ok, viol, res = _table_jacobi(d, reference.sum_table(first, second))
  # each side satisfies Jacobi, so the mixed residual is minus the
  # Jacobiator of the sum, with the outer bracket on the left
  mixed = (ok, viol, None if ok else -res)
  if ans["compatible"] != ok:
    probs.append(f"compatible={ans['compatible']}, expected {ok}")
  if tuple(ans["sum"]) != (ok, viol, res):
    probs.append(f"sum route gave {ans['sum']}, expected {(ok, viol, res)}")
  if tuple(ans["mixed"]) != mixed:
    probs.append(f"mixed route gave {ans['mixed']}, expected {mixed}")
  if not q["swap"] and not ans["compatible"]:
    probs.append("so(p) and its symmetric bundle must be compatible")
  return probs


def check_poisson(q: dict, ans: dict) -> list[str]:
  if q["algebra"] == "bundle":
    (d, table), center_dim = reference.so_sym_table(q["p"], q["a"]), None
  else:
    d, table = reference.algebra_table(q["algebra"])
    center_dim = reference.center_dim(q["algebra"])
  probs = _table_problems(q["algebra"], ans["table"], table)
  want = _table_jacobi(d, table)
  if want != (True, None, None) or tuple(ans["report"]) != want:
    probs.append(f"Poisson Jacobi gave {ans['report']}, expected {want}")
  vectors = []
  for terms in ans["casimirs"]:
    if any(sum(e) != 1 for e in terms):
      probs.append("a linear Casimir has a nonlinear term")
      return probs
    vectors.append([sum(v for e, v in terms.items() if e[a] == 1)
                    for a in range(d)])
  for k, vec in enumerate(vectors):
    f = {tuple(int(b == a) for b in range(d)): v
         for a, v in enumerate(vec) if v}
    for b in range(d):
      xi = {tuple(int(c == b) for c in range(d)): Fraction(1)}
      if reference.poisson_bracket(d, table, f, xi):
        probs.append(f"{{C_{k}, xi_{b}}} != 0")
  return probs + center_problems(vectors, d, table, center_dim)


def check_sandwich(q: dict, ans: dict) -> list[str]:
  t = q["trials"]
  want = {"trials": t, "closure": t, "component": t, "coboundary": t}
  return [] if ans == want else [f"sandwich gave {ans}, expected {want}"]


# ---------------------------------------------------------------------------
# command-line answers


def _fields(stdout: str) -> dict[str, str]:
  out = {}
  for line in stdout.splitlines():
    key, sep, value = line.partition(": ")
    if sep and key not in out:
      out[key] = value
  return out


def _ints(text: str) -> tuple:
  return tuple(int(x) for x in text.split())


def _verdict(result: str, indices, residual) -> tuple:
  if result.lower() == "pass":
    return (True, None, None)
  return (False, tuple(indices), Fraction(residual))


def _cli_validate(e: dict, out: str, fmt: str) -> tuple[list[str], int]:
  n, entries = reference.family_entries(e["w"])
  want = w_validation(n, entries)
  if fmt == "json":
    doc = json.loads(out)
    got = (doc["n"], doc["entries"], doc["result"] == "pass",
           doc.get("failure"), tuple(doc.get("indices", ())) or None,
           Fraction(doc["residual"]) if "residual" in doc else None)
  else:
    f = _fields(out)
    got = (int(f["n"]), int(f["entries"]), f["result"] == "PASS",
           f.get("failure"), _ints(f["indices"]) if "indices" in f else None,
           Fraction(f["residual"]) if "residual" in f else None)
  expected = (n, len(entries)) + want
  probs = [] if got == expected else [f"validate-w {got}, expected {expected}"]
  return probs, 0 if want[0] else 1


def _cli_certify(e: dict, out: str, fmt: str) -> tuple[list[str], int]:
  n, entries = reference.family_entries(e["w"])
  d, table = reference.algebra_table(e["algebra"])
  want = _jacobi_want(n, entries, d, table)
  if fmt == "json":
    doc = json.loads(out)
    head = (doc["n"], doc["algebra"], doc["dim"])
    got = _verdict(doc["result"], doc.get("violation"), doc.get("residual"))
    center = [[Fraction(v) for v in vec] for vec in doc.get("center", [])]
    has_center = "center" in doc
  else:
    f = _fields(out)
    head = (int(f["n"]), f["algebra"], int(f["dim"]))
    got = _verdict(f["result"], _ints(f.get("violation", "")),
                   f.get("residual"))
    has_center = "center-dim" in f
    center = [[Fraction(v) for v in f[f"z[{k}]"].split()]
              for k in range(int(f.get("center-dim", 0)))]
  probs = []
  if head != (n, e["algebra"], n * d):
    probs.append(f"certify header {head}")
  if got != want:
    probs.append(f"certify gave {got}, expected {want}")
  if has_center != e["center"]:
    probs.append("center shown without --check-center or missing")
  if e["center"]:
    probs += center_problems(center, n * d, induced_table(n, entries, d, table))
  return probs, 0 if want[0] else 1


def _cli_spectrum(e: dict, out: str, fmt: str, table: bool):
  alpha = e["alpha"]
  n, m = len(alpha), reference.circulant_m(alpha)
  mu = reference.dft(alpha)
  probs = []
  if fmt == "json":
    doc = json.loads(out)
    got = (doc["n"], doc["zero_count"], doc["m_nonabelian"])
    values = [complex(x["re"], x["im"]) for x in doc["mu"]]
    tol = 1e-9
  else:
    f = _fields(out)
    got = (int(f["n"]), int(f["zero-count"]), int(f["m-nonabelian"]))
    if not table and int(f["n-abelian"]) != n - m:
      probs.append("n-abelian differs")
    values = None
    if table:
      rows = [line.split() for line in out.splitlines()[2:2 + n]]
      values = [complex(float(r[1]), float(r[2])) for r in rows]
      flags = [r[3] == "yes" for r in rows]
      if sum(flags) != n - m or any(abs(mu[k]) > 1e-6
                                    for k in range(n) if flags[k]):
        probs.append("zero flags differ from the exact zeros")
    tol = 1e-5
  if got != (n, n - m, m):
    probs.append(f"classify gave {got}, expected {(n, n - m, m)}")
  scale = 1 + sum(abs(float(Fraction(a))) for a in alpha)
  if values is not None and (len(values) != n or any(
      abs(x - y) > tol * scale for x, y in zip(values, mu))):
    probs.append("mu values differ from the DFT")
  return probs, 0


def _cli_center(e: dict, out: str, fmt: str) -> tuple[list[str], int]:
  d, table = reference.algebra_table(e["algebra"])
  if fmt == "json":
    doc = json.loads(out)
    dim, center = doc["dim"], doc["center"]
  else:
    f = _fields(out)
    dim = int(f["dim"])
    center = [f[f"z[{k}]"].split() for k in range(int(f["center-dim"]))]
  center = [[Fraction(v) for v in vec] for vec in center]
  probs = [] if dim == d else [f"dim {dim}, expected {d}"]
  return probs + center_problems(center, d, table,
                                 reference.center_dim(e["algebra"])), 0


def _cli_compat(e: dict, out: str, fmt: str) -> tuple[list[str], int]:
  d, first, second = _compat_tables(e)
  ok, viol, res = _table_jacobi(d, reference.sum_table(first, second))
  want = (d, ok, (ok, viol, None if ok else -res), (ok, viol, res))
  if fmt == "json":
    doc = json.loads(out)
    got = (doc["dim"], doc["result"] == "compatible",
           _verdict(doc["mixed"]["result"], doc["mixed"].get("violation"),
                    doc["mixed"].get("residual")),
           _verdict(doc["sum"]["result"], doc["sum"].get("violation"),
                    doc["sum"].get("residual")))
  else:
    f = _fields(out)
    got = (int(f["dim"]), f["result"] == "COMPATIBLE",
           _verdict(f["mixed-jacobi"], _ints(f.get("mixed-violation", "")),
                    f.get("mixed-residual")),
           _verdict(f["sum-jacobi"], _ints(f.get("sum-violation", "")),
                    f.get("sum-residual")))
  probs = [] if got == want else [f"compat gave {got}, expected {want}"]
  return probs, 0 if ok else 1


def _cli_sandwich(e: dict, out: str, fmt: str) -> tuple[list[str], int]:
  t = e["trials"]
  if fmt == "json":
    doc = json.loads(out)
    got = (doc["trials"], doc["closure_ok"], doc["component_ok"],
           doc["coboundary_ok"], doc["result"] == "pass")
  else:
    f = _fields(out)
    counts = [f[k].split("/") for k in
              ("closure", "component-vs-sandwich", "coboundary")]
    if any(int(total) != t for _, total in counts):
      return ["sandwich totals differ from --trials"], 0
    got = (int(f["trials"]),) + tuple(int(k) for k, _ in counts) + (
        f["result"] == "PASS",)
  want = (t, t, t, t, True)
  return ([] if got == want else [f"sandwich gave {got}, expected {want}"]), 0


def _cli_poisson(e: dict, out: str, fmt: str) -> tuple[list[str], int]:
  d, table = reference.algebra_table(e["algebra"])
  f = {tuple(x): Fraction(v) for x, v in e["f"]}
  g = {tuple(x): Fraction(v) for x, v in e["g"]}
  want = reference.poisson_bracket(d, table, f, g)
  if fmt == "json":
    doc = json.loads(out)
    got = {tuple(t["exps"]): Fraction(t["value"]) for t in doc["terms"]}
    ok = doc["dim"] == d and got == want
  else:
    fields = _fields(out)
    ok = int(fields["dim"]) == d and (fields["bracket"] == "0") == (not want)
  return ([] if ok else ["poisson bracket differs"]), 0


def _cli_make_w(e: dict, out: str, fmt: str) -> tuple[list[str], int]:
  n, entries = reference.family_entries(e["w"])
  doc = json.loads(out)
  got = {(x["i"], x["j"], x["k"]): Fraction(x["value"])
         for x in doc["entries"]}
  ok = doc["n"] == n and got == entries
  return ([] if ok else ["make-w wrote another tensor"]), 0


_CLI = {
    "make-w": _cli_make_w, "validate": _cli_validate,
    "certify": _cli_certify, "center": _cli_center, "compat": _cli_compat,
    "sandwich": _cli_sandwich, "poisson-bracket": _cli_poisson,
    "classify": lambda e, o, f: _cli_spectrum(e, o, f, table=False),
    "spectrum": lambda e, o, f: _cli_spectrum(e, o, f, table=True),
}


def check_cli(q: dict, ans: dict) -> list[str]:
  e = q["expect"]
  try:
    probs, code = _CLI[e["check"]](e, ans["stdout"], e.get("format", "text"))
  except (KeyError, ValueError, IndexError, TypeError) as exc:
    return [f"unreadable output ({type(exc).__name__}: {exc})"]
  if ans["exit"] != code:
    probs.append(f"exit code {ans['exit']}, expected {code}")
  if ans["stderr"]:
    probs.append(f"stderr: {ans['stderr'][:200]!r}")
  return probs


CHECK = {"certify": check_certify, "validate": check_validate,
         "classify": check_classify, "rank": check_rank,
         "center": check_center, "compat": check_compat,
         "poisson": check_poisson, "sandwich": check_sandwich,
         "cli": check_cli}


def known_failure(q: dict, ans: dict) -> bool:
  """The one question allowed to raise: the near-singular circulant, whose
  float zero flag disagrees with the exact rank (``InternalCheckError``)."""
  return (q["kind"] == "classify"
          and q["alpha"] == corpora.NEAR_SINGULAR_ALPHA
          and ans.get("error") == "InternalCheckError")


def check(q: dict, ans: dict) -> list[str]:
  if "error" in ans:
    if known_failure(q, ans):
      return []
    return [f"raised {ans['error']}: {ans['message'][:160]}"]
  return CHECK[q["kind"]](q, ans)
