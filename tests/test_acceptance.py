"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every check is exact except where a tolerance is stated inline
(spectral float checks pin tol = 1e-9).  Expected-runtime budgets are
printed for operator visibility; they are not asserted.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import liebundle
from liebundle import (basis_vector, bracket_eval, builtin_algebra,
                       casimir_linear_basis, center_basis, circulant_rank_exact,
                       circulant_w, compatibility_check, coordinate_poly,
                       diagonal_pattern_deviation, direct_sum_w,
                       induced_structure_constants, invalid_witness_w,
                       jacobi_certify, leibnitz_deform, leibnitz_w,
                       lie_poisson_bracket, make_poisson_tensor, make_poly,
                       make_structure_constants, make_wtensor, mu_spectrum,
                       poisson_jacobi_check, sandwich_suite, so_sym_bundle,
                       sum_bracket_table, transform_w, truncate_to_solvable,
                       validate_structure_constants, wtensor_validate)
from liebundle.cli import main as cli_main
from liebundle.linalg import in_span, zeros_matrix
from liebundle.poisson import is_zero_poly

F = Fraction

SPECTRAL_TOL = 1e-9
LAMBDA_SET = (F(0), F(1), F(-1), F(1, 2), F(7, 3))


def _report(number, name, ok, started, budget, detail=""):
  elapsed = time.perf_counter() - started
  verdict = "PASS" if ok else "FAIL"
  suffix = f" [{detail}]" if detail else ""
  print(f"acceptance {number:02d} {name}: {verdict} "
        f"({elapsed:.2f}s / budget {budget:g}s){suffix}")
  assert ok, f"criterion {number:02d} {name} failed{suffix}"


def _rand_alpha(rng, n):
  return tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
               for _ in range(n))


def _criterion1_tensors(max_n):
  """The criterion-1 family corpus: (label, tensor) pairs, all expected
  valid.  Truncations are included for the families that stay in solvable
  form (the wrap-around families leave it; see the truncated-circulant
  counterexample test)."""
  rng = random.Random(108)
  out = []
  for n in range(1, max_n + 1):
    out.append((f"direct_sum_w({n})", direct_sum_w(n)))
    out.append((f"leibnitz_w({n})", leibnitz_w(n)))
    for lam in LAMBDA_SET:
      out.append((f"leibnitz_deform({n},{lam})", leibnitz_deform(n, lam)))
    for t in range(50):
      out.append((f"circulant_w[n={n},#{t}]", circulant_w(_rand_alpha(rng, n))))
    if n >= 2:
      out.append((f"trunc(direct_sum_w({n}))",
                  truncate_to_solvable(direct_sum_w(n))))
      out.append((f"trunc(leibnitz_w({n}))",
                  truncate_to_solvable(leibnitz_w(n))))
      out.append((f"trunc(leibnitz_deform({n},0))",
                  truncate_to_solvable(leibnitz_deform(n, 0))))
  return out


def test_criterion_01_family_validity():
  started = time.perf_counter()
  failures = []
  corpus = _criterion1_tensors(8)
  for label, w in corpus:
    if not wtensor_validate(w).ok:
      failures.append(label)
  _report(1, "family-validity", not failures, started, 10,
          f"{len(corpus)} tensors" + (f"; failed: {failures[:3]}"
                                      if failures else ""))


def test_criterion_02_universality():
  started = time.perf_counter()
  algebras = [builtin_algebra(x) for x in ("sl2", "so3", "heisenberg3")]
  failures = []
  checked = 0
  for label, w in _criterion1_tensors(4):
    for g in algebras:
      checked += 1
      if not jacobi_certify(w, g).ok:
        failures.append(f"{label} over {g.name}")
  # the stored symmetric-but-invalid witness must fail with a reported triple
  wit_rep = jacobi_certify(invalid_witness_w(), builtin_algebra("sl2"))
  witness_ok = (not wit_rep.ok and wit_rep.violation == (0, 3, 4, 1)
                and wit_rep.residual == F(4))
  _report(2, "universality", not failures and witness_ok, started, 30,
          f"{checked} certifications; witness violation {wit_rep.violation}")


def test_criterion_03_commutation_equivalence():
  started = time.perf_counter()
  rng = random.Random(300)
  valid = invalid = 0
  disagreement = None
  for _ in range(200):
    n = rng.randint(1, 5)
    entries = {}
    for i in range(n):
      for j in range(i, n):
        for s in range(n):
          v = rng.choice((-1, 0, 1))
          if v:
            entries[(i, j, s)] = v
            entries[(j, i, s)] = v
    w = make_wtensor(n, entries)
    try:
      # cross_check=True raises InternalCheckError on any route disagreement
      report = wtensor_validate(w, cross_check=True)
    except Exception as exc:  # noqa: BLE001 - report the verdict, not a trace
      disagreement = f"n={n}: {exc}"
      break
    if report.ok:
      valid += 1
    else:
      invalid += 1
  _report(3, "commutation-equivalence", disagreement is None, started, 5,
          disagreement or f"200 tensors, routes agreed on all "
          f"({valid} valid, {invalid} invalid)")


def test_criterion_04_spectral_oracle():
  started = time.perf_counter()
  rng = random.Random(400)
  failures = []
  alphas = [(F(1),) * 6, (F(1),) + (F(0),) * 7,
            (F(0), F(0), F(1), F(0)), (F(2), F(-2))]
  while len(alphas) < 100:
    alphas.append(_rand_alpha(rng, rng.randint(1, 16)))
  for alpha in alphas:
    n = len(alpha)
    spec = mu_spectrum(alpha, tol=SPECTRAL_TOL)
    if spec.zero_count != n - circulant_rank_exact(alpha):
      failures.append(f"count mismatch at {alpha}")
      continue
    dev = diagonal_pattern_deviation(transform_w(circulant_w(alpha)), spec)
    if dev > SPECTRAL_TOL:
      failures.append(f"pattern deviation {dev:.2e} at {alpha}")
  _report(4, "spectral-oracle", not failures, started, 10,
          f"100 spectra at tol {SPECTRAL_TOL:g}"
          + (f"; {failures[:2]}" if failures else ""))


def test_criterion_05_deformation_endpoints():
  started = time.perf_counter()
  rng = random.Random(500)
  ok = True
  for n in range(1, 9):
    e0 = tuple(F(1) if i == 0 else F(0) for i in range(n))
    ok &= leibnitz_deform(n, 1).entries == circulant_w(e0).entries
    ok &= leibnitz_deform(n, 0).entries == leibnitz_w(n).entries
    for _ in range(10):
      lam = F(rng.randint(-30, 30), rng.randint(1, 12))
      ok &= wtensor_validate(leibnitz_deform(n, lam)).ok
  _report(5, "deformation-endpoints", ok, started, 2,
          "entrywise endpoints n<=8; 10 random lambda per n")


def test_criterion_06_sandwich_realization():
  started = time.perf_counter()
  trials = 0
  ok = True
  details = []
  for n in (1, 2, 3):
    for p in (1, 2, 3):
      rep = sandwich_suite(n, p, trials=12, seed=600 + 10 * n + p)
      trials += rep.trials
      if not rep.ok:
        ok = False
        details.append(f"(n={n},p={p}): {rep}")
  _report(6, "sandwich-realization", ok and trials >= 100, started, 10,
          f"{trials} random triples, closure+component+coboundary"
          + ("; " + "; ".join(details) if details else ""))


def _random_symmetric(rng):
  m = zeros_matrix(3, 3)
  for r in range(3):
    for s in range(r, 3):
      v = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
      m[r, s] = v
      m[s, r] = v
  return m


def test_criterion_07_compatibility_theorem():
  started = time.perf_counter()
  rng = random.Random(700)
  failures = []
  for t in range(50):
    first = so_sym_bundle(3, _random_symmetric(rng))
    second = so_sym_bundle(3, _random_symmetric(rng))
    rep = compatibility_check(first, second)
    direct = validate_structure_constants(sum_bracket_table(first, second))
    if rep.compatible != direct.ok or not rep.compatible:
      failures.append(f"bundle pair #{t}")
  h3 = builtin_algebra("heisenberg3")
  for kappa in range(1, 21):
    aff = make_structure_constants(3, {(1, 2): {1: kappa}})
    rep = compatibility_check(h3, aff)
    direct = validate_structure_constants(sum_bracket_table(h3, aff))
    if rep.compatible != direct.ok or rep.compatible:
      failures.append(f"kappa={kappa}")
  _report(7, "compatibility-theorem", not failures, started, 5,
          "50 compatible bundle pairs + 20 incompatible corpus pairs"
          + (f"; {failures[:3]}" if failures else ""))


def _degenerate_symmetric(rng, kind):
  if kind == 0:
    # diagonal with two zero entries: nontrivial center
    m = zeros_matrix(3, 3)
    pos = rng.randint(0, 2)
    m[pos, pos] = F(rng.randint(1, 4))
    return m
  if kind == 1:
    # rank-one v v^T
    v = [F(rng.randint(-3, 3)) for _ in range(3)]
    m = zeros_matrix(3, 3)
    for r in range(3):
      for s in range(3):
        m[r, s] = v[r] * v[s]
    return m
  if kind == 2:
    return zeros_matrix(3, 3)
  return _random_symmetric(rng)


def test_criterion_08_center_propositions():
  started = time.perf_counter()
  rng = random.Random(800)
  samples = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1, 2), F(-3)),
             (F(7), F(2)))
  failures = []
  nontrivial = 0
  for t in range(20):
    u = _degenerate_symmetric(rng, t % 4)
    v = _degenerate_symmetric(rng, (t + 1) % 4)
    cu = so_sym_bundle(3, u)
    cv = so_sym_bundle(3, v)
    zu = center_basis(cu)
    zv = center_basis(cv)
    if zu:
      nontrivial += 1
    for lam, mu in samples:
      cw = so_sym_bundle(3, lam * u + mu * v)
      # bullet 1: Z(G_u) is a subalgebra in every algebra of the bundle
      for z1 in zu:
        for z2 in zu:
          r = bracket_eval(cw, z1, z2)
          if not in_span(zu, r):
            failures.append(f"bullet1 t={t} ({lam},{mu})")
      # bullet 2: brackets of centers land in the center of G_w
      for z1 in zu:
        for z2 in zv:
          r = bracket_eval(cw, z1, z2)
          if any(any(c != 0 for c in bracket_eval(cw, r, basis_vector(3, b)))
                 for b in range(3)):
            failures.append(f"bullet2 t={t} ({lam},{mu})")
  _report(8, "center-propositions", not failures, started, 5,
          f"20 parameter pairs x 5 pencil samples, {nontrivial} with "
          f"nontrivial Z(G_u)" + (f"; {failures[:3]}" if failures else ""))


def test_criterion_09_poisson_cross_check():
  started = time.perf_counter()
  corpus = [builtin_algebra(x)
            for x in ("sl2", "so3", "heisenberg3", "abelian(3)", "gl(2)")]
  corpus.append(induced_structure_constants(leibnitz_w(2),
                                            builtin_algebra("sl2")))
  corpus.append(induced_structure_constants(circulant_w((F(1), F(0), F(0))),
                                            builtin_algebra("so3")))
  corpus.append(make_structure_constants(
      3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}))  # fails Jacobi
  corpus.append(sum_bracket_table(
      builtin_algebra("heisenberg3"),
      make_structure_constants(3, {(1, 2): {1: 1}})))        # fails Jacobi
  corpus.append(induced_structure_constants(invalid_witness_w(),
                                            builtin_algebra("sl2")))
  failures = []
  for idx, c in enumerate(corpus):
    prep = poisson_jacobi_check(c)
    drep = validate_structure_constants(c)
    if (prep.ok, prep.violation, prep.residual) != (
        drep.ok, drep.violation, drep.residual):
      failures.append(f"corpus[{idx}]")
  casimir = make_poly(3, {(2, 0, 0): 1, (0, 1, 1): 4})
  t = make_poisson_tensor(builtin_algebra("sl2"))
  casimir_ok = all(
      is_zero_poly(lie_poisson_bracket(t, casimir, coordinate_poly(3, a)))
      for a in range(3))
  # and it is genuinely quadratic: no linear Casimir exists for sl2
  casimir_ok &= casimir_linear_basis(t) == []
  _report(9, "poisson-cross-check", not failures and casimir_ok, started, 2,
          f"{len(corpus)} tables; sl2 Casimir xi_h^2+4 xi_e xi_f"
          + (f"; {failures}" if failures else ""))


def _run_cli(argv):
  buf = io.StringIO()
  try:
    with contextlib.redirect_stdout(buf):
      code = cli_main(list(argv))
  except SystemExit as exc:
    code = exc.code
  return code, buf.getvalue()


def test_criterion_10_cli_determinism(tmp_path):
  started = time.perf_counter()

  def write(name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)

  leib3 = str(tmp_path / "leib3.json")
  assert _run_cli(["make-w", "leibnitz", "--n", "3", "--out", leib3])[0] == 0
  wit = str(tmp_path / "wit.json")
  assert _run_cli(["make-w", "witness", "--out", wit])[0] == 0
  h3 = write("h3.json", {"dim": 3, "brackets": [
      {"a": 0, "b": 1, "coeffs": [{"e": 2, "value": "1"}]}]})
  aff = write("aff.json", {"dim": 3, "brackets": [
      {"a": 1, "b": 2, "coeffs": [{"e": 1, "value": "1"}]}]})
  cas = write("cas.json", {"dim": 3, "terms": [
      {"exps": [2, 0, 0], "value": "1"}, {"exps": [0, 1, 1], "value": "4"}]})
  xi_h = write("xih.json", {"dim": 3, "terms": [
      {"exps": [1, 0, 0], "value": "1"}]})

  commands = [
      ["make-w", "direct-sum", "--n", "4"],
      ["make-w", "circulant", "--alpha", "1,-2/3,0,5"],
      ["make-w", "leibnitz", "--n", "5"],
      ["make-w", "leibnitz-deform", "--n", "3", "--lambda", "7/3"],
      ["make-w", "witness"],
      ["make-w", "truncate", "--input", leib3],
      ["validate-w", "--input", leib3],
      ["validate-w", "--input", wit],
      ["validate-w", "--input", wit, "--format", "json"],
      ["classify", "--alpha", "1,1,1", "--format", "json"],
      ["classify", "--alpha", "1,-2/3,0,5"],
      ["spectrum", "--alpha", "1,1,1"],
      ["spectrum", "--alpha", "1,-2/3,0,5"],
      ["certify", "--input", leib3, "--algebra", "sl2", "--check-center",
       "--check-filtration", "--format", "json"],
      ["certify", "--input", wit, "--algebra", "sl2"],
      ["center", "--algebra", "heisenberg3"],
      ["compat", "--first", h3, "--second", aff, "--format", "json"],
      ["sandwich-check", "--n", "2", "--p", "2", "--trials", "5",
       "--seed", "0", "--format", "json"],
      ["poisson-bracket", "--algebra", "sl2", "--f", cas, "--g", xi_h,
       "--format", "json"],
  ]
  failures = []
  for argv in commands:
    first = _run_cli(argv)
    second = _run_cli(argv)
    if first != second:
      failures.append(" ".join(argv[:2]) + " (rerun)")

  # spot-check golden bytes of the exact-rational outputs
  goldens = {
      ("make-w", "witness"):
          '{\n  "n": 2,\n  "entries": [\n'
          '    {"i": 0, "j": 1, "k": 0, "value": "1"},\n'
          '    {"i": 1, "j": 0, "k": 0, "value": "1"}\n  ]\n}\n',
      ("center", "--algebra", "heisenberg3"):
          "dim: 3\ncenter-dim: 1\nz[0]: 0 0 1\n",
  }
  for argv, expected in goldens.items():
    if _run_cli(list(argv))[1] != expected:
      failures.append(" ".join(argv[:2]) + " (golden)")

  # byte-identity across thread counts for the float-bearing subcommand; the
  # child imports the package the tests import
  src = os.path.dirname(os.path.dirname(os.path.abspath(liebundle.__file__)))
  base_env = {k: v for k, v in os.environ.items()
              if not k.endswith("_NUM_THREADS")}
  base_env["PYTHONPATH"] = src
  outputs = []
  for threads in ("1", "4"):
    env = dict(base_env, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-m", "liebundle.cli", "spectrum",
         "--alpha", "1,-2/3,0,5,7/2,1,0,-4"],
        capture_output=True, text=True, env=env)
    outputs.append((proc.returncode, proc.stdout))
  if outputs[0] != outputs[1] or outputs[0][0] != 0:
    failures.append("spectrum (thread counts)")

  _report(10, "cli-determinism", not failures, started, 5,
          f"{len(commands)} commands re-run byte-identically; "
          "thread-count probe on spectrum"
          + (f"; {failures}" if failures else ""))
