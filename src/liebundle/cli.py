"""Command-line interface.

Exit codes: 0 = pass / produced output, 1 = a checked property failed,
2 = unusable input (malformed file, bad arguments, size cap).  All output is
canonical: entries sorted, rationals as exact "p/q" strings; floats appear
only in spectrum reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra_core import (builtin_algebra, center_basis, compatibility_check,
                           structure_constants_from_json)
from .errors import InternalCheckError
from .matrix_bundle import sandwich_suite
from .poisson import (lie_poisson_bracket, make_poisson_tensor, poly_from_json,
                      poly_to_json, poly_to_text)
from .rationals import format_rational, parse_rational
from .spectral import classify_circulant, spectrum_report_json
from .wtensor import (DEFAULT_CAP, circulant_w, direct_sum_w,
                      filtration_support_check, induced_structure_constants,
                      invalid_witness_w, jacobi_certify, leibnitz_deform,
                      leibnitz_w, max_abelian_filtration_ideal,
                      truncate_to_solvable, wtensor_from_json,
                      wtensor_to_json, wtensor_validate)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _parse_alpha(text: str):
  try:
    return tuple(parse_rational(tok) for tok in text.split(","))
  except ValueError as exc:
    raise ValueError(f"bad --alpha value: {exc}") from exc


def _load_json(path: str):
  try:
    with open(path, "r", encoding="utf-8") as fh:
      return json.load(fh)
  except OSError as exc:
    raise ValueError(f"cannot read {path}: {exc}") from exc
  except (json.JSONDecodeError, RecursionError) as exc:
    raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def _canonical_doc(head: list[tuple[str, object]], list_key: str,
                   items: list[dict]) -> str:
  """Stable one-item-per-line JSON document."""
  lines = ["{"]
  for key, value in head:
    lines.append(f"  {json.dumps(key)}: {json.dumps(value)},")
  if items:
    lines.append(f"  {json.dumps(list_key)}: [")
    lines.append(",\n".join(
        f"    {json.dumps(item, separators=(', ', ': '))}" for item in items))
    lines.append("  ]")
  else:
    lines.append(f"  {json.dumps(list_key)}: []")
  lines.append("}")
  return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
  if out_path is None:
    sys.stdout.write(text)
  else:
    try:
      with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    except OSError as exc:
      raise ValueError(f"cannot write {out_path}: {exc}") from exc


def _print_json(doc: dict) -> None:
  sys.stdout.write(json.dumps(doc, separators=(", ", ": ")) + "\n")


def _print_lines(lines: list[str]) -> None:
  sys.stdout.write("\n".join(lines) + "\n")


def _resolve_algebra(args):
  if getattr(args, "algebra", None):
    return builtin_algebra(args.algebra)
  return structure_constants_from_json(_load_json(args.constants))


def _w_document(w) -> str:
  doc = wtensor_to_json(w)
  return _canonical_doc([("n", doc["n"])], "entries", doc["entries"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_make_w(args) -> int:
  if args.family == "direct-sum":
    w = direct_sum_w(args.n)
  elif args.family == "circulant":
    w = circulant_w(_parse_alpha(args.alpha))
  elif args.family == "leibnitz":
    w = leibnitz_w(args.n)
  elif args.family == "leibnitz-deform":
    w = leibnitz_deform(args.n, parse_rational(args.lam))
  elif args.family == "truncate":
    w = truncate_to_solvable(wtensor_from_json(_load_json(args.input)))
  else:
    w = invalid_witness_w()
  _emit(_w_document(w), args.out)
  return EXIT_PASS


def cmd_validate_w(args) -> int:
  w = wtensor_from_json(_load_json(args.input))
  report = wtensor_validate(w, cross_check=args.cross_check)
  if args.format == "json":
    doc: dict = {"n": w.n, "entries": len(w.entries),
                 "result": "pass" if report.ok else "fail"}
    if not report.ok:
      doc["failure"] = report.failure
      doc["indices"] = list(report.indices)
      doc["residual"] = format_rational(report.residual)
    _print_json(doc)
  else:
    lines = [f"n: {w.n}", f"entries: {len(w.entries)}",
             f"result: {'PASS' if report.ok else 'FAIL'}"]
    if not report.ok:
      lines.append(f"failure: {report.failure}")
      lines.append("indices: " + " ".join(str(i) for i in report.indices))
      lines.append(f"residual: {format_rational(report.residual)}")
    _print_lines(lines)
  return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_classify(args) -> int:
  cls = classify_circulant(_parse_alpha(args.alpha), tol=args.tol)
  if args.format == "json":
    _print_json(spectrum_report_json(cls))
  else:
    _print_lines([
        f"n: {cls.n}",
        f"zero-count: {cls.spectrum.zero_count}",
        f"m-nonabelian: {cls.m_nonabelian}",
        f"n-abelian: {cls.n_abelian}",
    ])
  return EXIT_PASS


def cmd_spectrum(args) -> int:
  cls = classify_circulant(_parse_alpha(args.alpha), tol=args.tol)
  if args.format == "json":
    _print_json(spectrum_report_json(cls))
  else:
    lines = [f"n: {cls.n}", f"{'i':>4}  {'re':>15}  {'im':>15}  {'zero':>4}"]
    for i, v in enumerate(cls.spectrum.values):
      zero = "yes" if cls.spectrum.zero_flags[i] else "no"
      lines.append(f"{i:>4}  {v.real:>15.6e}  {v.imag:>15.6e}  {zero:>4}")
    lines.append(f"zero-count: {cls.spectrum.zero_count}")
    lines.append(f"m-nonabelian: {cls.m_nonabelian}")
    _print_lines(lines)
  return EXIT_PASS


def cmd_certify(args) -> int:
  w = wtensor_from_json(_load_json(args.input))
  algebra = builtin_algebra(args.algebra)
  report = jacobi_certify(w, algebra, cap=args.cap)
  dim = w.n * algebra.dim
  doc: dict = {"n": w.n, "algebra": args.algebra, "dim": dim,
               "result": "pass" if report.ok else "fail"}
  lines = [f"n: {w.n}", f"algebra: {args.algebra}", f"dim: {dim}",
           f"result: {'PASS' if report.ok else 'FAIL'}"]
  if not report.ok:
    doc["violation"] = list(report.violation)
    doc["residual"] = format_rational(report.residual)
    lines.append("violation: " + " ".join(str(i) for i in report.violation))
    lines.append(f"residual: {format_rational(report.residual)}")
  if args.check_center:
    induced = induced_structure_constants(w, algebra, cap=args.cap)
    center = center_basis(induced)
    doc["center"] = [[format_rational(v) for v in vec] for vec in center]
    lines.append(f"center-dim: {len(center)}")
    for k, vec in enumerate(center):
      lines.append(f"z[{k}]: " + " ".join(format_rational(v) for v in vec))
  if args.check_filtration:
    support = filtration_support_check(w)
    ideal = max_abelian_filtration_ideal(w)
    doc["filtration_support"] = support
    doc["max_abelian_ideal"] = ideal
    lines.append(f"filtration-support: {'PASS' if support else 'FAIL'}")
    lines.append(f"max-abelian-ideal: {ideal}")
  if args.format == "json":
    _print_json(doc)
  else:
    _print_lines(lines)
  return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_center(args) -> int:
  algebra = _resolve_algebra(args)
  center = center_basis(algebra)
  if args.format == "json":
    _print_json({"dim": algebra.dim,
                 "center": [[format_rational(v) for v in vec]
                            for vec in center]})
  else:
    lines = [f"dim: {algebra.dim}", f"center-dim: {len(center)}"]
    for k, vec in enumerate(center):
      lines.append(f"z[{k}]: " + " ".join(format_rational(v) for v in vec))
    _print_lines(lines)
  return EXIT_PASS


def cmd_compat(args) -> int:
  first = structure_constants_from_json(_load_json(args.first))
  second = structure_constants_from_json(_load_json(args.second))
  report = compatibility_check(first, second)

  def _side(rep):
    side: dict = {"result": "pass" if rep.ok else "fail"}
    if not rep.ok:
      side["violation"] = list(rep.violation)
      side["residual"] = format_rational(rep.residual)
    return side

  if args.format == "json":
    _print_json({
        "dim": first.dim,
        "mixed": _side(report.mixed),
        "sum": _side(report.sum_jacobi),
        "result": "compatible" if report.compatible else "incompatible",
    })
  else:
    lines = [f"dim: {first.dim}",
             f"mixed-jacobi: {'PASS' if report.mixed.ok else 'FAIL'}"]
    if not report.mixed.ok:
      lines.append("mixed-violation: " +
                   " ".join(str(i) for i in report.mixed.violation))
      lines.append(f"mixed-residual: {format_rational(report.mixed.residual)}")
    lines.append(f"sum-jacobi: {'PASS' if report.sum_jacobi.ok else 'FAIL'}")
    if not report.sum_jacobi.ok:
      lines.append("sum-violation: " +
                   " ".join(str(i) for i in report.sum_jacobi.violation))
      lines.append(
          f"sum-residual: {format_rational(report.sum_jacobi.residual)}")
    lines.append(
        f"result: {'COMPATIBLE' if report.compatible else 'INCOMPATIBLE'}")
    _print_lines(lines)
  return EXIT_PASS if report.compatible else EXIT_FAIL


def cmd_sandwich_check(args) -> int:
  report = sandwich_suite(args.n, args.p, args.trials, args.seed)
  if args.format == "json":
    _print_json({
        "n": report.n, "p": report.p, "trials": report.trials,
        "seed": report.seed, "closure_ok": report.closure_ok,
        "component_ok": report.component_ok,
        "coboundary_ok": report.coboundary_ok,
        "result": "pass" if report.ok else "fail",
    })
  else:
    _print_lines([
        f"n: {report.n}", f"p: {report.p}", f"trials: {report.trials}",
        f"seed: {report.seed}",
        f"closure: {report.closure_ok}/{report.trials}",
        f"component-vs-sandwich: {report.component_ok}/{report.trials}",
        f"coboundary: {report.coboundary_ok}/{report.trials}",
        f"result: {'PASS' if report.ok else 'FAIL'}",
    ])
  return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_poisson_bracket(args) -> int:
  algebra = _resolve_algebra(args)
  tensor = make_poisson_tensor(algebra)
  f = poly_from_json(_load_json(args.f))
  g = poly_from_json(_load_json(args.g))
  result = lie_poisson_bracket(tensor, f, g)
  if args.format == "json":
    doc = poly_to_json(result)
    sys.stdout.write(_canonical_doc([("dim", doc["dim"])], "terms",
                                    doc["terms"]))
  else:
    _print_lines([f"dim: {algebra.dim}", f"bracket: {poly_to_text(result)}"])
  return EXIT_PASS


# ---------------------------------------------------------------------------
# parser


def _add_format(sub) -> None:
  sub.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")


def build_parser() -> argparse.ArgumentParser:
  parser = argparse.ArgumentParser(
      prog="liebundle",
      description="exact universal Lie bracket extensions: construction, "
                  "validation, classification")
  subs = parser.add_subparsers(dest="command", required=True)

  mk = subs.add_parser("make-w", help="emit a canonical W-tensor file")
  mk_subs = mk.add_subparsers(dest="family", required=True)
  for family in ("direct-sum", "leibnitz"):
    fam = mk_subs.add_parser(family)
    fam.add_argument("--n", type=int, required=True)
    fam.add_argument("--out", default=None)
    fam.set_defaults(func=cmd_make_w)
  fam = mk_subs.add_parser("circulant")
  fam.add_argument("--alpha", required=True,
                   help="comma-separated rationals, e.g. 1,0,1/2")
  fam.add_argument("--out", default=None)
  fam.set_defaults(func=cmd_make_w)
  fam = mk_subs.add_parser("leibnitz-deform")
  fam.add_argument("--n", type=int, required=True)
  fam.add_argument("--lambda", dest="lam", required=True,
                   help="deformation parameter, a rational")
  fam.add_argument("--out", default=None)
  fam.set_defaults(func=cmd_make_w)
  fam = mk_subs.add_parser("truncate")
  fam.add_argument("--input", required=True, help="W-tensor file to truncate")
  fam.add_argument("--out", default=None)
  fam.set_defaults(func=cmd_make_w)
  fam = mk_subs.add_parser("witness",
                           help="stored symmetric-but-invalid witness")
  fam.add_argument("--out", default=None)
  fam.set_defaults(func=cmd_make_w)

  val = subs.add_parser("validate-w", help="check the universal identities")
  val.add_argument("--input", required=True)
  val.add_argument("--cross-check", action="store_true",
                   help="also run the direct contraction route")
  _add_format(val)
  val.set_defaults(func=cmd_validate_w)

  cls = subs.add_parser("classify", help="isomorphism class of a circulant")
  cls.add_argument("--alpha", required=True)
  cls.add_argument("--tol", type=float, default=1e-9)
  _add_format(cls)
  cls.set_defaults(func=cmd_classify)

  spec = subs.add_parser("spectrum", help="mu-spectrum of a circulant")
  spec.add_argument("--alpha", required=True)
  spec.add_argument("--tol", type=float, default=1e-9)
  _add_format(spec)
  spec.set_defaults(func=cmd_spectrum)

  cert = subs.add_parser("certify",
                         help="certify Jacobi for the extension on G^n")
  cert.add_argument("--input", required=True, help="W-tensor file")
  cert.add_argument("--algebra", required=True,
                    help="builtin name, e.g. sl2, so3, heisenberg3, so(4)")
  cert.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help=f"extension dimension cap (default {DEFAULT_CAP})")
  cert.add_argument("--check-center", action="store_true")
  cert.add_argument("--check-filtration", action="store_true")
  _add_format(cert)
  cert.set_defaults(func=cmd_certify)

  cen = subs.add_parser("center", help="exact center basis")
  group = cen.add_mutually_exclusive_group(required=True)
  group.add_argument("--algebra", help="builtin algebra name")
  group.add_argument("--constants", help="structure-constants file")
  _add_format(cen)
  cen.set_defaults(func=cmd_center)

  comp = subs.add_parser("compat", help="compatibility of two brackets")
  comp.add_argument("--first", required=True)
  comp.add_argument("--second", required=True)
  _add_format(comp)
  comp.set_defaults(func=cmd_compat)

  sand = subs.add_parser("sandwich-check",
                         help="seeded random sandwich-bracket identities")
  sand.add_argument("--n", type=int, required=True)
  sand.add_argument("--p", type=int, required=True)
  sand.add_argument("--trials", type=int, default=20)
  sand.add_argument("--seed", type=int, default=0)
  _add_format(sand)
  sand.set_defaults(func=cmd_sandwich_check)

  pb = subs.add_parser("poisson-bracket",
                       help="linear Poisson bracket of two polynomials")
  group = pb.add_mutually_exclusive_group(required=True)
  group.add_argument("--algebra", help="builtin algebra name")
  group.add_argument("--constants", help="structure-constants file")
  pb.add_argument("--f", required=True, help="polynomial file")
  pb.add_argument("--g", required=True, help="polynomial file")
  _add_format(pb)
  pb.set_defaults(func=cmd_poisson_bracket)

  return parser


def main(argv=None) -> int:
  args = build_parser().parse_args(argv)
  try:
    return args.func(args)
  except InternalCheckError as exc:
    print(f"internal-check-failure: {exc}", file=sys.stderr)
    return EXIT_FAIL
  except ValueError as exc:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
  sys.exit(main())
