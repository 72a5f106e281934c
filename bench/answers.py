"""Answer one question through liebundle's public functions.

Each answer builds its program objects from the question's plain data, the
way a fresh command-line call would, so no cached state is reused between
passes.  Functions are looked up on their modules at call time, so the
traced run sees the wrapped entry points.  An answer is plain data.
"""

from __future__ import annotations

import contextlib
import io

import reference
from liebundle import (algebra_core, cli, matrix_bundle, poisson, spectral,
                       wtensor)


def build_w(spec: dict):
  family = spec["family"]
  if family == "direct-sum":
    return wtensor.direct_sum_w(spec["n"])
  if family == "leibnitz":
    return wtensor.leibnitz_w(spec["n"])
  if family == "leibnitz-deform":
    return wtensor.leibnitz_deform(spec["n"], spec["lam"])
  if family == "circulant":
    return wtensor.circulant_w(spec["alpha"])
  if family == "witness":
    return wtensor.invalid_witness_w()
  if family == "entries":
    return wtensor.make_wtensor(
        spec["n"], {(i, j, s): v for i, j, s, v in spec["entries"]})
  if family == "truncate":
    return wtensor.truncate_to_solvable(build_w(spec["base"]))
  raise ValueError(f"unknown family {family!r}")


def _report(r) -> tuple:
  return (r.ok, r.violation, r.residual)


def certify(q: dict) -> dict:
  w = build_w(q["w"])
  algebra = algebra_core.builtin_algebra(q["algebra"])
  report = wtensor.jacobi_certify(w, algebra)
  out = {"n": w.n, "entries": len(w.entries), "dim": algebra.dim,
         "report": _report(report), "center": None}
  if q["center"]:
    induced = wtensor.induced_structure_constants(w, algebra)
    out["center"] = algebra_core.center_basis(induced)
  return out


def validate(q: dict) -> dict:
  w = build_w(q["w"])
  r = wtensor.wtensor_validate(w, cross_check=q["cross_check"])
  return {"n": w.n, "entries": len(w.entries),
          "report": (r.ok, r.failure, r.indices, r.residual)}


def classify(q: dict) -> dict:
  cls = spectral.classify_circulant(q["alpha"])
  return {"n": cls.n, "m": cls.m_nonabelian, "n_abelian": cls.n_abelian,
          "zero_count": cls.spectrum.zero_count}


def rank(q: dict) -> dict:
  return {"rank": spectral.circulant_rank_exact(q["alpha"])}


def center(q: dict) -> dict:
  algebra = algebra_core.builtin_algebra(q["algebra"])
  return {"dim": algebra.dim, "table": algebra.table,
          "center": algebra_core.center_basis(algebra)}


def compat(q: dict) -> dict:
  p = q["p"]
  first = algebra_core.builtin_algebra(f"so({p})")
  second = matrix_bundle.so_sym_bundle(p, q["a"])
  if q["swap"]:
    second = algebra_core.make_structure_constants(
        second.dim, reference.swap_table(second.table, 0, 1))
  r = algebra_core.compatibility_check(first, second)
  return {"first": first.table, "second": second.table,
          "compatible": r.compatible, "mixed": _report(r.mixed),
          "sum": _report(r.sum_jacobi)}


def poisson_q(q: dict) -> dict:
  if q["algebra"] == "bundle":
    algebra = matrix_bundle.so_sym_bundle(q["p"], q["a"])
  else:
    algebra = algebra_core.builtin_algebra(q["algebra"])
  tensor = poisson.make_poisson_tensor(algebra)
  report = poisson.poisson_jacobi_check(tensor)
  casimirs = poisson.casimir_linear_basis(tensor)
  return {"dim": algebra.dim, "table": algebra.table,
          "report": _report(report),
          "casimirs": [dict(f.terms) for f in casimirs]}


def sandwich(q: dict) -> dict:
  r = matrix_bundle.sandwich_suite(q["n"], q["p"], q["trials"], q["seed"])
  return {"trials": r.trials, "closure": r.closure_ok,
          "component": r.component_ok, "coboundary": r.coboundary_ok}


def cli_in_process(argv: list[str]) -> dict:
  """liebundle.cli.main(argv) with stdout and stderr captured."""
  out, err = io.StringIO(), io.StringIO()
  with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
      code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
      code = exc.code
  return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


ANSWER = {"certify": certify, "validate": validate, "classify": classify,
          "rank": rank, "center": center, "compat": compat,
          "poisson": poisson_q, "sandwich": sandwich}
