"""Command-line interface.

Each report subcommand builds one ordered list of fields, which ``_render``
prints as one JSON line or as text lines; ``make-w`` and ``poisson-bracket
--format json`` write one-item-per-line JSON documents.  All output is
canonical: entries sorted, rationals as exact "p/q" strings; floats appear
only in spectrum reports.

Exit codes: 0 = pass / produced output, 1 = a checked property failed,
2 = unusable input (malformed file, bad arguments, size cap), 3 = tool fault
(two computation routes disagreed, or an unexpected error).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra_core import (builtin_algebra, center_basis, compatibility_check,
                           structure_constants_from_json,
                           validate_structure_constants)
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
EXIT_FAULT = 3


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


def _canonical_doc(head: tuple[str, int], list_key: str,
                   items: list[str]) -> str:
  """Stable one-item-per-line JSON document from the items' JSON texts."""
  sep = ",\n    "
  body = f"[\n    {sep.join(items)}\n  ]" if items else "[]"
  return f'{{\n  "{head[0]}": {head[1]},\n  "{list_key}": {body}\n}}\n'


def _emit(text: str, out_path: str | None) -> None:
  if out_path is None:
    sys.stdout.write(text)
  else:
    try:
      with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    except OSError as exc:
      raise ValueError(f"cannot write {out_path}: {exc}") from exc


def _resolve_algebra(args):
  if getattr(args, "algebra", None):
    return builtin_algebra(args.algebra)
  return structure_constants_from_json(_load_json(args.constants))


def _w_document(w) -> str:
  """The W-tensor file; a canonical rational is a JSON string as it is."""
  doc = wtensor_to_json(w)
  return _canonical_doc(("n", doc["n"]), "entries", [
      f'{{"i": {e["i"]}, "j": {e["j"]}, "k": {e["k"]}, '
      f'"value": "{e["value"]}"}}' for e in doc["entries"]])


# ---------------------------------------------------------------------------
# reports: a field is (JSON key, JSON value, text lines); a key of None marks
# text-only lines, an empty line list a JSON-only value


def _field(key: str, value, text=None, label: str | None = None):
  """JSON ``key: value``; one text line ``label: text`` (default key, value)."""
  return key, value, [f"{label or key}: {value if text is None else text}"]


def _verdict(ok: bool, words=("pass", "fail"), label: str = "result"):
  """The ``result`` word, upper-cased in text."""
  word = words[0] if ok else words[1]
  return _field("result", word, word.upper(), label)


def _witness(key: str, indices, residual) -> list:
  """Failure indices (space-joined in text) and their exact residual."""
  return [_field(key, list(indices), " ".join(str(i) for i in indices)),
          _field("residual", format_rational(residual))]


def _jacobi_side(key: str, report):
  """A side of ``compat``: nested in JSON, flattened as ``key-...`` in text."""
  fields = [_verdict(report.ok, label="jacobi")]
  if not report.ok:
    fields += _witness("violation", report.violation, report.residual)
  return (key, {k: v for k, v, _ in fields},
          [f"{key}-{line}" for _, _, lines in fields for line in lines])


def _center(center):
  """Center basis: rows in JSON; ``center-dim`` and ``z[k]`` lines in text."""
  rows = [[format_rational(v) for v in vec] for vec in center]
  return "center", rows, [f"center-dim: {len(rows)}"] + [
      f"z[{k}]: " + " ".join(row) for k, row in enumerate(rows)]


def _render(fields: list, fmt: str) -> None:
  """Print a report as one JSON line or as its text lines."""
  if fmt == "json":
    text = json.dumps({key: value for key, value, _ in fields
                       if key is not None}, separators=(", ", ": "))
  else:
    text = "\n".join(line for _, _, lines in fields for line in lines)
  sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands

_N = ("--n", {"type": int, "required": True})

# family -> (builder from the parsed arguments, subparser keywords, options)
_FAMILIES = {
    "direct-sum": (lambda a: direct_sum_w(a.n), {}, [_N]),
    "leibnitz": (lambda a: leibnitz_w(a.n), {}, [_N]),
    "circulant": (lambda a: circulant_w(_parse_alpha(a.alpha)), {}, [
        ("--alpha", {"required": True,
                     "help": "comma-separated rationals, e.g. 1,0,1/2"})]),
    "leibnitz-deform": (
        lambda a: leibnitz_deform(a.n, parse_rational(a.lam)), {}, [
            _N, ("--lambda", {"dest": "lam", "required": True,
                              "help": "deformation parameter, a rational"})]),
    "truncate": (
        lambda a: truncate_to_solvable(wtensor_from_json(_load_json(a.input))),
        {}, [("--input", {"required": True,
                          "help": "W-tensor file to truncate"})]),
    "witness": (lambda a: invalid_witness_w(),
                {"help": "stored symmetric-but-invalid witness"}, []),
}


def cmd_make_w(args) -> int:
  build = _FAMILIES[args.family][0]
  _emit(_w_document(build(args)), args.out)
  return EXIT_PASS


def cmd_validate_w(args) -> int:
  w = wtensor_from_json(_load_json(args.input))
  report = wtensor_validate(w, cross_check=args.cross_check)
  fields = [_field("n", w.n), _field("entries", len(w.entries)),
            _verdict(report.ok)]
  if not report.ok:
    fields += [_field("failure", report.failure),
               *_witness("indices", report.indices, report.residual)]
  _render(fields, args.format)
  return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_classify(args) -> int:
  """``classify`` and ``spectrum``: one JSON report, two text forms."""
  cls = classify_circulant(_parse_alpha(args.alpha), tol=args.tol)
  spectrum = cls.spectrum
  if args.format == "json":
    _render([(key, value, []) for key, value in
             spectrum_report_json(cls).items()], args.format)
    return EXIT_PASS
  lines = [f"n: {cls.n}"]
  if args.command == "spectrum":
    lines.append(f"{'i':>4}  {'re':>15}  {'im':>15}  {'zero':>4}")
    for i, v in enumerate(spectrum.values):
      zero = "yes" if spectrum.zero_flags[i] else "no"
      lines.append(f"{i:>4}  {v.real:>15.6e}  {v.imag:>15.6e}  {zero:>4}")
  lines += [f"zero-count: {spectrum.zero_count}",
            f"m-nonabelian: {cls.m_nonabelian}"]
  if args.command == "classify":
    lines.append(f"n-abelian: {cls.n_abelian}")
  _render([(None, None, lines)], args.format)
  return EXIT_PASS


def cmd_certify(args) -> int:
  w = wtensor_from_json(_load_json(args.input))
  algebra = builtin_algebra(args.algebra)
  report = jacobi_certify(w, algebra, cap=args.cap)
  fields = [_field("n", w.n), _field("algebra", args.algebra),
            _field("dim", w.n * algebra.dim), _verdict(report.ok)]
  if not report.ok:
    fields += _witness("violation", report.violation, report.residual)
  if args.check_center:
    induced = induced_structure_constants(w, algebra, cap=args.cap)
    fields.append(_center(center_basis(induced)))
  if args.check_filtration:
    support = filtration_support_check(w)
    fields += [_field("filtration_support", support,
                      "PASS" if support else "FAIL", "filtration-support"),
               _field("max_abelian_ideal", max_abelian_filtration_ideal(w),
                      label="max-abelian-ideal")]
  _render(fields, args.format)
  return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_center(args) -> int:
  algebra = _resolve_algebra(args)
  if args.constants:  # a loaded table must be a Lie bracket, as in compat
    report = validate_structure_constants(algebra)
    if not report.ok:
      raise ValueError(f"bracket fails Jacobi at {report.violation}")
  _render([_field("dim", algebra.dim), _center(center_basis(algebra))],
          args.format)
  return EXIT_PASS


def cmd_compat(args) -> int:
  first = structure_constants_from_json(_load_json(args.first))
  second = structure_constants_from_json(_load_json(args.second))
  report = compatibility_check(first, second)
  _render([_field("dim", first.dim), _jacobi_side("mixed", report.mixed),
           _jacobi_side("sum", report.sum_jacobi),
           _verdict(report.compatible, ("compatible", "incompatible"))],
          args.format)
  return EXIT_PASS if report.compatible else EXIT_FAIL


def cmd_sandwich_check(args) -> int:
  report = sandwich_suite(args.n, args.p, args.trials, args.seed)
  fields = [_field(key, getattr(report, key))
            for key in ("n", "p", "trials", "seed")]
  for key, label in (("closure_ok", "closure"),
                     ("component_ok", "component-vs-sandwich"),
                     ("coboundary_ok", "coboundary")):
    k = getattr(report, key)
    fields.append(_field(key, k, f"{k}/{report.trials}", label))
  _render(fields + [_verdict(report.ok)], args.format)
  return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_poisson_bracket(args) -> int:
  algebra = _resolve_algebra(args)
  tensor = make_poisson_tensor(algebra)
  f = poly_from_json(_load_json(args.f))
  g = poly_from_json(_load_json(args.g))
  result = lie_poisson_bracket(tensor, f, g)
  if args.format == "json":
    doc = poly_to_json(result)
    sys.stdout.write(_canonical_doc(("dim", doc["dim"]), "terms", [
        json.dumps(t, separators=(", ", ": ")) for t in doc["terms"]]))
  else:
    _render([_field("dim", algebra.dim),
             _field("bracket", poly_to_text(result))], args.format)
  return EXIT_PASS


# ---------------------------------------------------------------------------
# parser


def _add_format(sub) -> None:
  sub.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
  """The parser of every subcommand, built once per process; argparse keeps
  no state between ``parse_args`` calls."""
  parser = argparse.ArgumentParser(
      prog="liebundle",
      description="exact universal Lie bracket extensions: construction, "
                  "validation, classification")
  subs = parser.add_subparsers(dest="command", required=True)

  mk = subs.add_parser("make-w", help="emit a canonical W-tensor file")
  mk_subs = mk.add_subparsers(dest="family", required=True)
  for family, (_, keywords, options) in _FAMILIES.items():
    fam = mk_subs.add_parser(family, **keywords)
    for flag, spec in options:
      fam.add_argument(flag, **spec)
    fam.add_argument("--out", default=None)
    fam.set_defaults(func=cmd_make_w)

  val = subs.add_parser("validate-w", help="check the universal identities")
  val.add_argument("--input", required=True)
  val.add_argument("--cross-check", action="store_true",
                   help="also run the direct contraction route")
  _add_format(val)
  val.set_defaults(func=cmd_validate_w)

  for name, help_text in (("classify", "isomorphism class of a circulant"),
                          ("spectrum", "mu-spectrum of a circulant")):
    cls = subs.add_parser(name, help=help_text)
    cls.add_argument("--alpha", required=True)
    cls.add_argument("--tol", type=float, default=1e-9)
    _add_format(cls)
    cls.set_defaults(func=cmd_classify)

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
    return EXIT_FAULT
  except ValueError as exc:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT
  except Exception as exc:  # a fault of the tool: one line, no traceback
    print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_FAULT


if __name__ == "__main__":
  sys.exit(main())
