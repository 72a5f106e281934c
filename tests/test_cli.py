"""Command-line interface: golden outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import liebundle
from liebundle import (cli, circulant_w, leibnitz_deform, leibnitz_w,
                       make_wtensor, wtensor_to_json)
from liebundle.cli import main
from liebundle.rationals import format_rational

F = Fraction


def run_cli(*argv):
  buf = io.StringIO()
  try:
    with contextlib.redirect_stdout(buf):
      code = main(list(argv))
  except SystemExit as exc:  # argparse usage errors
    code = exc.code
  return code, buf.getvalue()


@pytest.fixture
def workdir(tmp_path):
  def write(name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)
  return tmp_path, write


def make_file(tmp_path, *argv):
  path = tmp_path / f"gen{len(list(tmp_path.iterdir()))}.json"
  code, _ = run_cli(*argv, "--out", str(path))
  assert code == 0
  return str(path)


# ---------------------------------------------------------------------------
# make-w goldens

GOLDEN_DIRECT2 = """{
  "n": 2,
  "entries": [
    {"i": 0, "j": 0, "k": 0, "value": "1"},
    {"i": 1, "j": 1, "k": 1, "value": "1"}
  ]
}
"""

GOLDEN_LEIB3 = """{
  "n": 3,
  "entries": [
    {"i": 0, "j": 0, "k": 0, "value": "1"},
    {"i": 0, "j": 1, "k": 1, "value": "1"},
    {"i": 0, "j": 2, "k": 2, "value": "1"},
    {"i": 1, "j": 0, "k": 1, "value": "1"},
    {"i": 1, "j": 1, "k": 2, "value": "1"},
    {"i": 2, "j": 0, "k": 2, "value": "1"}
  ]
}
"""

GOLDEN_DEFORM2_HALF = """{
  "n": 2,
  "entries": [
    {"i": 0, "j": 0, "k": 0, "value": "1"},
    {"i": 0, "j": 1, "k": 1, "value": "1"},
    {"i": 1, "j": 0, "k": 1, "value": "1"},
    {"i": 1, "j": 1, "k": 0, "value": "1/2"}
  ]
}
"""

GOLDEN_WITNESS = """{
  "n": 2,
  "entries": [
    {"i": 0, "j": 1, "k": 0, "value": "1"},
    {"i": 1, "j": 0, "k": 0, "value": "1"}
  ]
}
"""

GOLDEN_TRUNC_LEIB4 = """{
  "n": 3,
  "entries": [
    {"i": 0, "j": 0, "k": 1, "value": "1"},
    {"i": 0, "j": 1, "k": 2, "value": "1"},
    {"i": 1, "j": 0, "k": 2, "value": "1"}
  ]
}
"""


def test_make_w_goldens():
  assert run_cli("make-w", "direct-sum", "--n", "2") == (0, GOLDEN_DIRECT2)
  assert run_cli("make-w", "leibnitz", "--n", "3") == (0, GOLDEN_LEIB3)
  assert run_cli("make-w", "leibnitz-deform", "--n", "2", "--lambda",
                 "1/2") == (0, GOLDEN_DEFORM2_HALF)
  assert run_cli("make-w", "witness") == (0, GOLDEN_WITNESS)


def test_deform_at_one_is_byte_identical_to_circulant_e0():
  for n in (2, 5):
    e0 = ",".join(["1"] + ["0"] * (n - 1))
    deform = run_cli("make-w", "leibnitz-deform", "--n", str(n),
                     "--lambda", "1")
    circ = run_cli("make-w", "circulant", "--alpha", e0)
    assert deform == circ == (0, circ[1])


def test_make_w_out_file_matches_stdout(tmp_path):
  code, out = run_cli("make-w", "leibnitz", "--n", "3")
  path = tmp_path / "w.json"
  code2, out2 = run_cli("make-w", "leibnitz", "--n", "3", "--out", str(path))
  assert code == code2 == 0
  assert out2 == ""
  assert path.read_text() == out == GOLDEN_LEIB3


def per_entry_w_document(w):
  """The W-tensor file as first rendered: one Fraction and one json.dumps
  per entry."""
  entries = [{"i": i, "j": j, "k": s, "value": format_rational(v)}
             for (i, j, s), v in sorted(w.entries.items())]
  lines = ["{", f"  {json.dumps('n')}: {json.dumps(w.n)},"]
  if entries:
    lines.append(f"  {json.dumps('entries')}: [")
    lines.append(",\n".join(f"    {json.dumps(e, separators=(', ', ': '))}"
                            for e in entries))
    lines.append("  ]")
  else:
    lines.append(f"  {json.dumps('entries')}: []")
  lines.append("}")
  return "\n".join(lines) + "\n"


def test_w_document_matches_the_per_entry_rendering():
  alpha = [F(k % 7 - 3 or 1, 1 + k % 3) for k in range(64)]  # dense n = 64
  big = make_wtensor(2, {(0, 1, 0): 2**70, (1, 0, 0): 2**70, (1, 1, 1): F(1, 3)})
  for w in (circulant_w(alpha), leibnitz_deform(5, F(-5, 7)), big,
            circulant_w([0, 0, 0])):
    assert cli._w_document(w) == per_entry_w_document(w)
  assert run_cli("make-w", "circulant", "--alpha", "0,0,0") == (
      0, per_entry_w_document(circulant_w([0, 0, 0])))


def test_truncate_golden(tmp_path):
  leib4 = make_file(tmp_path, "make-w", "leibnitz", "--n", "4")
  assert run_cli("make-w", "truncate", "--input", leib4) == (
      0, GOLDEN_TRUNC_LEIB4)


# ---------------------------------------------------------------------------
# validate-w


def test_validate_w_pass(tmp_path):
  good = make_file(tmp_path, "make-w", "circulant", "--alpha", "1,1,1")
  assert run_cli("validate-w", "--input", good) == (
      0, "n: 3\nentries: 27\nresult: PASS\n")
  assert run_cli("validate-w", "--input", good, "--format", "json") == (
      0, '{"n": 3, "entries": 27, "result": "pass"}\n')


def test_validate_w_fail(tmp_path):
  wit = make_file(tmp_path, "make-w", "witness")
  assert run_cli("validate-w", "--input", wit) == (
      1, "n: 2\nentries: 2\nresult: FAIL\nfailure: quadratic\n"
         "indices: 0 0 1 1\nresidual: -1\n")
  for extra in ((), ("--cross-check",)):
    assert run_cli("validate-w", "--input", wit, *extra,
                   "--format", "json") == (
        1, '{"n": 2, "entries": 2, "result": "fail", "failure": "quadratic", '
           '"indices": [0, 0, 1, 1], "residual": "-1"}\n')


def test_cross_check_is_bounded_at_the_size_cap(workdir):
  # the direct route ran as an O(n^5) Fraction loop; n = 35 took minutes
  _, write = workdir
  empty = write("empty64.json", {"n": 64, "entries": []})
  assert run_cli_bounded("validate-w", "--input", empty, "--cross-check",
                         seconds=20) == 0
  # certify's cross-check on a dense 64-dimensional induced table; the
  # sparse table scan took about 4 s
  dense = write("circ16.json", wtensor_to_json(circulant_w(range(1, 17))))
  assert run_cli_bounded("certify", "--input", dense, "--algebra", "gl(2)",
                         seconds=20) == 0
  # a dense n = 64 file (262,144 entries): the loader parsed every value
  # twice and formatted it back, about 3.5 s in all
  tmp_path, _ = workdir
  alpha = ",".join(("1", "-2/3", "0", "5/4")[r % 4] for r in range(64))
  circ64 = make_file(tmp_path, "make-w", "circulant", "--alpha", alpha)
  assert run_cli_bounded("validate-w", "--input", circ64, seconds=20) == 0


def test_validate_w_asymmetric_file_is_a_validation_failure(workdir):
  # a one-sided mirror entry is well-formed input that fails validation
  # (exit 1), not a parse error (exit 2)
  _, write = workdir
  path = write("asym.json", {
      "n": 2, "entries": [{"i": 0, "j": 1, "k": 0, "value": "1"}]})
  code, out = run_cli("validate-w", "--input", path)
  assert code == 1
  assert "failure: symmetry" in out
  assert "indices: 0 1 0" in out


def test_validate_w_contradictory_mirror_is_a_parse_error(workdir):
  _, write = workdir
  path = write("contra.json", {
      "n": 2, "entries": [{"i": 0, "j": 1, "k": 0, "value": "1"},
                          {"i": 1, "j": 0, "k": 0, "value": "2"}]})
  code, _ = run_cli("validate-w", "--input", path)
  assert code == 2


def _entry(i, j, k, value):
  return {"i": i, "j": j, "k": k, "value": value}


@pytest.mark.parametrize("entries,stderr", [
    # unhashable values, which the loader fuzz below never draws
    ([_entry(0, 0, 0, [1])],
     "error: cannot interpret [1] as an exact rational\n"),
    ([_entry(0, 0, 0, {"p": 1})],
     "error: cannot interpret {'p': 1} as an exact rational\n"),
    ([_entry(True, 0, 0, "1")], "error: entry field i must be an integer\n"),
    ([_entry(0, 0, 0, "3/1")],
     "error: not in lowest terms / canonical form: '3/1'\n"),
    ([_entry(0, 1, 0, "1"), _entry(0, 1, 0, "1")],
     "error: duplicate entry for indices (0, 1, 0)\n"),
    ([_entry(0, 1, 0, "1/2"), _entry(1, 0, 0, "-1/2")],
     "error: contradictory mirrored entries at (0, 1, 0): 1/2 vs -1/2\n"),
])
def test_validate_w_strict_loader_messages(workdir, capsys, entries, stderr):
  _, write = workdir
  path = write("bad.json", {"n": 2, "entries": entries})
  assert run_cli("validate-w", "--input", path) == (2, "")
  assert capsys.readouterr().err == stderr


# ---------------------------------------------------------------------------
# classify / spectrum


def test_classify_goldens():
  assert run_cli("classify", "--alpha", "1,1,1") == (
      0, "n: 3\nzero-count: 2\nm-nonabelian: 1\nn-abelian: 2\n")
  code, out = run_cli("classify", "--alpha", "1,1,1", "--format", "json")
  assert code == 0
  assert json.loads(out) == {
      "n": 3, "mu": [{"re": 3.0, "im": 0.0}, {"re": 0.0, "im": 0.0},
                     {"re": 0.0, "im": 0.0}],
      "zero_count": 2, "m_nonabelian": 1}
  assert out.count("\n") == 1  # single-line document


def test_spectrum_golden():
  code, out = run_cli("spectrum", "--alpha", "1,1,1")
  assert code == 0
  assert out == ("n: 3\n"
                 "   i               re               im  zero\n"
                 "   0     3.000000e+00     0.000000e+00    no\n"
                 "   1     0.000000e+00     0.000000e+00   yes\n"
                 "   2     0.000000e+00     0.000000e+00   yes\n"
                 "zero-count: 2\n"
                 "m-nonabelian: 1\n")


def test_spectrum_and_classify_are_deterministic():
  for argv in (("spectrum", "--alpha", "1,-2/3,5,0"),
               ("classify", "--alpha", "1,-2/3,5,0", "--format", "json")):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second and first[0] == 0


# ---------------------------------------------------------------------------
# certify / center


def test_certify_goldens(tmp_path):
  leib3 = make_file(tmp_path, "make-w", "leibnitz", "--n", "3")
  assert run_cli("certify", "--input", leib3, "--algebra", "sl2") == (
      0, "n: 3\nalgebra: sl2\ndim: 9\nresult: PASS\n")
  code, out = run_cli("certify", "--input", leib3, "--algebra", "sl2",
                      "--check-center", "--check-filtration",
                      "--format", "json")
  assert code == 0
  assert json.loads(out) == {"n": 3, "algebra": "sl2", "dim": 9,
                             "result": "pass", "center": [],
                             "filtration_support": False,
                             "max_abelian_ideal": 2}


def test_certify_witness_fails(tmp_path):
  wit = make_file(tmp_path, "make-w", "witness")
  assert run_cli("certify", "--input", wit, "--algebra", "sl2") == (
      1, "n: 2\nalgebra: sl2\ndim: 6\nresult: FAIL\n"
         "violation: 0 3 4 1\nresidual: 4\n")
  argv = ("certify", "--input", wit, "--algebra", "gl(2)", "--check-center",
          "--check-filtration")
  assert run_cli(*argv) == (
      1, "n: 2\nalgebra: gl(2)\ndim: 8\nresult: FAIL\nviolation: 0 4 5 1\n"
         "residual: 1\ncenter-dim: 2\nz[0]: 1 0 0 1 0 0 0 0\n"
         "z[1]: 0 0 0 0 1 0 0 1\nfiltration-support: FAIL\n"
         "max-abelian-ideal: 1\n")
  assert run_cli(*argv, "--format", "json") == (
      1, '{"n": 2, "algebra": "gl(2)", "dim": 8, "result": "fail", '
         '"violation": [0, 4, 5, 1], "residual": "1", "center": '
         '[["1", "0", "0", "1", "0", "0", "0", "0"], '
         '["0", "0", "0", "0", "1", "0", "0", "1"]], '
         '"filtration_support": false, "max_abelian_ideal": 1}\n')


def test_certify_cap_exceeded(tmp_path):
  wit = make_file(tmp_path, "make-w", "witness")
  code, _ = run_cli("certify", "--input", wit, "--algebra", "sl2",
                    "--cap", "5")
  assert code == 2


def test_center_goldens():
  assert run_cli("center", "--algebra", "heisenberg3") == (
      0, "dim: 3\ncenter-dim: 1\nz[0]: 0 0 1\n")
  assert run_cli("center", "--algebra", "sl2") == (
      0, "dim: 3\ncenter-dim: 0\n")
  code, out = run_cli("center", "--algebra", "heisenberg3",
                      "--format", "json")
  assert code == 0
  assert json.loads(out) == {"dim": 3, "center": [["0", "0", "1"]]}
  assert run_cli("center", "--algebra", "heisenberg3", "--format", "json") == (
      0, '{"dim": 3, "center": [["0", "0", "1"]]}\n')


def test_center_from_constants_file(workdir):
  _, write = workdir
  path = write("h3.json", {"dim": 3, "brackets": [
      {"a": 0, "b": 1, "coeffs": [{"e": 2, "value": "1"}]}]})
  assert run_cli("center", "--constants", path) == (
      0, "dim: 3\ncenter-dim: 1\nz[0]: 0 0 1\n")


def test_center_rejects_a_table_that_fails_jacobi(workdir, capsys):
  # [e0,e1] = e2, [e0,e2] = e1, [e1,e2] = e1: well-formed, not a Lie bracket
  _, write = workdir
  path = write("bad.json", {"dim": 3, "brackets": [
      {"a": 0, "b": 1, "coeffs": [{"e": 2, "value": "1"}]},
      {"a": 0, "b": 2, "coeffs": [{"e": 1, "value": "1"}]},
      {"a": 1, "b": 2, "coeffs": [{"e": 1, "value": "1"}]}]})
  for fmt in ("text", "json"):
    assert run_cli("center", "--constants", path, "--format", fmt) == (2, "")
    assert capsys.readouterr().err == (
        "error: bracket fails Jacobi at (0, 1, 2, 2)\n")


# ---------------------------------------------------------------------------
# compat


def test_compat_compatible_pair(workdir):
  tmp_path, write = workdir
  # two members of the so(3)/sym(3) bundle are always compatible
  from liebundle import so_sym_bundle, structure_constants_to_json
  from liebundle.linalg import frac_matrix
  bu = write("bu.json", structure_constants_to_json(
      so_sym_bundle(3, frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))))
  bv = write("bv.json", structure_constants_to_json(
      so_sym_bundle(3, frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))))
  assert run_cli("compat", "--first", bu, "--second", bv) == (
      0, "dim: 3\nmixed-jacobi: PASS\nsum-jacobi: PASS\nresult: COMPATIBLE\n")
  code, out = run_cli("compat", "--first", bu, "--second", bv,
                      "--format", "json")
  assert code == 0
  assert json.loads(out) == {"dim": 3, "mixed": {"result": "pass"},
                             "sum": {"result": "pass"},
                             "result": "compatible"}


def test_compat_incompatible_pair(workdir):
  _, write = workdir
  h3 = write("h3.json", {"dim": 3, "brackets": [
      {"a": 0, "b": 1, "coeffs": [{"e": 2, "value": "1"}]}]})
  aff = write("aff.json", {"dim": 3, "brackets": [
      {"a": 1, "b": 2, "coeffs": [{"e": 1, "value": "1"}]}]})
  assert run_cli("compat", "--first", h3, "--second", aff) == (
      1, "dim: 3\nmixed-jacobi: FAIL\nmixed-violation: 0 1 2 2\n"
         "mixed-residual: 1\nsum-jacobi: FAIL\nsum-violation: 0 1 2 2\n"
         "sum-residual: -1\nresult: INCOMPATIBLE\n")
  code, out = run_cli("compat", "--first", h3, "--second", aff,
                      "--format", "json")
  assert code == 1
  assert json.loads(out)["result"] == "incompatible"
  assert out == (
      '{"dim": 3, "mixed": {"result": "fail", "violation": [0, 1, 2, 2], '
      '"residual": "1"}, "sum": {"result": "fail", "violation": [0, 1, 2, 2], '
      '"residual": "-1"}, "result": "incompatible"}\n')


def test_compat_invalid_input_bracket(workdir):
  _, write = workdir
  bad = write("bad.json", {"dim": 3, "brackets": [
      {"a": 0, "b": 1, "coeffs": [{"e": 2, "value": "1"}]},
      {"a": 0, "b": 2, "coeffs": [{"e": 1, "value": "1"}]},
      {"a": 1, "b": 2, "coeffs": [{"e": 1, "value": "1"}]}]})
  h3 = write("h3.json", {"dim": 3, "brackets": [
      {"a": 0, "b": 1, "coeffs": [{"e": 2, "value": "1"}]}]})
  code, _ = run_cli("compat", "--first", bad, "--second", h3)
  assert code == 2


def test_compat_refuses_brackets_of_different_dimension(workdir, capsys):
  _, write = workdir
  from liebundle import builtin_algebra, structure_constants_to_json
  so3, gl2 = (write(f"{name}.json", structure_constants_to_json(
      builtin_algebra(name))) for name in ("so3", "gl(2)"))
  assert run_cli("compat", "--first", so3, "--second", gl2) == (2, "")
  assert "different dimension" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sandwich-check / poisson-bracket


def test_sandwich_check_golden():
  assert run_cli("sandwich-check", "--n", "2", "--p", "2", "--trials", "5",
                 "--seed", "0") == (
      0, "n: 2\np: 2\ntrials: 5\nseed: 0\nclosure: 5/5\n"
         "component-vs-sandwich: 5/5\ncoboundary: 5/5\nresult: PASS\n")
  code, out = run_cli("sandwich-check", "--n", "2", "--p", "2",
                      "--trials", "5", "--seed", "0", "--format", "json")
  assert code == 0
  assert json.loads(out) == {"n": 2, "p": 2, "trials": 5, "seed": 0,
                             "closure_ok": 5, "component_ok": 5,
                             "coboundary_ok": 5, "result": "pass"}
  assert out == ('{"n": 2, "p": 2, "trials": 5, "seed": 0, "closure_ok": 5, '
                 '"component_ok": 5, "coboundary_ok": 5, "result": "pass"}\n')


def test_sandwich_check_is_bounded_before_work():
  # trials * (n*p)^3 above 81920 is refused; --n 64 --p 8 ran for minutes
  assert run_cli_bounded("sandwich-check", "--n", "64", "--p", "8",
                         "--trials", "1") == 2
  assert run_cli("sandwich-check", "--n", "2", "--p", "8",
                 "--trials", "21") == (2, "")


def test_sandwich_check_at_the_work_cap_is_fast():
  # both sit just inside MAX_SANDWICH_WORK; on Fraction objects each took
  # about 9 s.  Exit 0 means every trial passed all three identities.
  assert run_cli_bounded("sandwich-check", "--n", "1", "--p", "43",
                         "--trials", "1") == 0
  assert run_cli_bounded("sandwich-check", "--n", "4", "--p", "4",
                         "--trials", "20") == 0


def test_sandwich_check_seed_determinism():
  a = run_cli("sandwich-check", "--n", "3", "--p", "2", "--trials", "4",
              "--seed", "7")
  b = run_cli("sandwich-check", "--n", "3", "--p", "2", "--trials", "4",
              "--seed", "7")
  assert a == b and a[0] == 0


def test_poisson_bracket_goldens(workdir):
  _, write = workdir
  cas = write("cas.json", {"dim": 3, "terms": [
      {"exps": [2, 0, 0], "value": "1"}, {"exps": [0, 1, 1], "value": "4"}]})
  xi_h = write("h.json", {"dim": 3, "terms": [
      {"exps": [1, 0, 0], "value": "1"}]})
  assert run_cli("poisson-bracket", "--algebra", "sl2", "--f", cas,
                 "--g", xi_h) == (0, "dim: 3\nbracket: 0\n")
  code, out = run_cli("poisson-bracket", "--algebra", "sl2", "--f", cas,
                      "--g", xi_h, "--format", "json")
  assert code == 0
  assert out == '{\n  "dim": 3,\n  "terms": []\n}\n'

  xi0 = write("x0.json", {"dim": 3, "terms": [
      {"exps": [1, 0, 0], "value": "1"}]})
  xi1 = write("x1.json", {"dim": 3, "terms": [
      {"exps": [0, 1, 0], "value": "1"}]})
  assert run_cli("poisson-bracket", "--algebra", "heisenberg3", "--f", xi0,
                 "--g", xi1) == (0, "dim: 3\nbracket: x2\n")
  code, out = run_cli("poisson-bracket", "--algebra", "heisenberg3",
                      "--f", xi0, "--g", xi1, "--format", "json")
  assert code == 0
  assert out == ('{\n  "dim": 3,\n  "terms": [\n'
                 '    {"exps": [0, 0, 1], "value": "1"}\n  ]\n}\n')


def test_poisson_bracket_is_bounded_before_work(workdir):
  # 2,000 terms each over sl2 took 222 s before the cap; refused with exit
  # 2 as a fresh process
  _, write = workdir
  rng = random.Random(89)
  files = []
  for _ in range(2):
    terms = [{"exps": list(divmod(i // 13, 13)) + [i % 13],
              "value": str(rng.choice((-1, 1)) * rng.randint(1, 9))}
             for i in rng.sample(range(13**3), 2000)]
    files.append(write(f"big{len(files)}.json", {"dim": 3, "terms": terms}))
  assert run_cli_bounded("poisson-bracket", "--algebra", "sl2",
                         "--f", files[0], "--g", files[1]) == 2
  # README's example: the Casimir of sl2 commutes with every coordinate
  cas = write("cas.json", {"dim": 3, "terms": [
      {"exps": [2, 0, 0], "value": "1"}, {"exps": [0, 1, 1], "value": "4"}]})
  for a in range(3):
    xi = write("xi.json", {"dim": 3, "terms": [
        {"exps": [int(i == a) for i in range(3)], "value": "1"}]})
    assert run_cli("poisson-bracket", "--algebra", "sl2", "--f", cas,
                   "--g", xi) == (0, "dim: 3\nbracket: 0\n")


def test_poisson_bracket_dim_mismatch(workdir):
  _, write = workdir
  f2 = write("f2.json", {"dim": 2, "terms": [
      {"exps": [1, 0], "value": "1"}]})
  g3 = write("g3.json", {"dim": 3, "terms": [
      {"exps": [1, 0, 0], "value": "1"}]})
  code, _ = run_cli("poisson-bracket", "--algebra", "sl2", "--f", f2,
                    "--g", g3)
  assert code == 2


# ---------------------------------------------------------------------------
# input errors -> exit 2


def test_malformed_and_missing_files(tmp_path):
  bad = tmp_path / "bad.json"
  bad.write_text("{not json")
  assert run_cli("validate-w", "--input", str(bad))[0] == 2
  assert run_cli("validate-w", "--input", str(tmp_path / "nope.json"))[0] == 2


def test_deeply_nested_json_is_bad_input(tmp_path):
  deep = tmp_path / "deep.json"
  deep.write_text("[" * 100000 + "]" * 100000)
  assert run_cli("validate-w", "--input", str(deep))[0] == 2


def run_cli_bounded(*argv, seconds=5):
  """Exit code of a fresh CLI process that must finish within ``seconds``."""
  src = str(Path(liebundle.__file__).resolve().parents[1])
  env = {**os.environ, "PYTHONPATH": src}
  proc = subprocess.run([sys.executable, "-m", "liebundle.cli", *argv],
                        capture_output=True, timeout=seconds, env=env)
  return proc.returncode


def test_oversized_requests_are_rejected_before_work(workdir):
  assert run_cli_bounded("make-w", "leibnitz", "--n", "100000") == 2
  assert run_cli_bounded("center", "--algebra", "gl(40)") == 2
  # n*d = 72: a --cap above the dimension cap 64 does not lift it
  _, write = workdir
  leib8 = write("leib8.json", wtensor_to_json(leibnitz_w(8)))
  assert run_cli_bounded("certify", "--input", leib8, "--algebra", "gl(3)",
                         "--cap", "100") == 2


def test_tool_faults_exit_3(capsys, monkeypatch):
  # a tolerance too coarse for a near-singular circulant: the two routes of
  # the spectrum disagree, which is a fault of the tool, not a FAIL verdict
  assert run_cli("classify", "--alpha=1,-999999999999/1000000000000") == (
      3, "")
  assert capsys.readouterr().err.startswith("internal-check-failure: ")

  def broken(*args, **kwargs):
    raise KeyError("boom")

  monkeypatch.setattr(cli, "classify_circulant", broken)
  assert run_cli("classify", "--alpha", "1,1") == (3, "")
  assert capsys.readouterr().err == "internal-error: KeyError: 'boom'\n"


def test_unknown_algebra():
  assert run_cli("center", "--algebra", "su5")[0] == 2


def test_bad_alpha_values(capsys):
  assert run_cli("classify", "--alpha", "1,,2")[0] == 2
  assert run_cli("classify", "--alpha", "2/4")[0] == 2
  assert run_cli("classify", "--alpha", "")[0] == 2
  # an exact answer exists, but not a spectrum that can be printed
  capsys.readouterr()
  for command in ("classify", "spectrum"):
    for fmt in ("text", "json"):
      assert run_cli(command, "--alpha", f"1,{10**400}", "--format", fmt) == (
          2, "")
      assert capsys.readouterr().err == (
          "error: alpha has an entry beyond float64's range\n")


def test_truncate_error_paths(tmp_path):
  wit = make_file(tmp_path, "make-w", "witness")
  assert run_cli("make-w", "truncate", "--input", wit)[0] == 2
  ds1 = make_file(tmp_path, "make-w", "direct-sum", "--n", "1")
  assert run_cli("make-w", "truncate", "--input", ds1)[0] == 2


def test_usage_errors_exit_2():
  assert run_cli("no-such-command")[0] == 2
  assert run_cli("make-w", "circulant")[0] == 2        # missing --alpha
  assert run_cli("certify", "--algebra", "sl2")[0] == 2  # missing --input


def test_the_parser_is_built_once():
  assert cli.build_parser() is cli.build_parser()


def test_one_parser_answers_calls_in_turn():
  # the cached parser carries nothing from one call into the next: a usage
  # error, a golden and the same usage error give their own codes and bytes
  def call(*argv):
    with contextlib.redirect_stderr(io.StringIO()) as err:
      code, out = run_cli(*argv)
    return code, out, err.getvalue()

  usage = call("classify")  # the usage line wraps at the terminal width
  assert usage[:2] == (2, "")
  assert usage[2].startswith("usage: liebundle classify [-h] --alpha ALPHA")
  assert usage[2].endswith("\nliebundle classify: error: the following "
                           "arguments are required: --alpha\n")
  golden = (0, "n: 3\nzero-count: 2\nm-nonabelian: 1\nn-abelian: 2\n", "")
  assert call("classify", "--alpha", "1,1,1") == golden
  assert call("classify") == usage
  assert call("classify", "--alpha", "1,1,1") == golden


# ---------------------------------------------------------------------------
# the three JSON loaders, fuzzed through main

# mostly in-range indices and canonical values, some of every kind of error
_SIZE = st.sampled_from([1, 2, 3] * 8 + [0, 6, -1, "2"])
_INDEX = st.sampled_from([0, 1, 2] * 8 + [-1, 5, True, "1"])
_VALUE = st.sampled_from(["1", "-1", "1/2", "-3/4", 2] * 8 +
                         ["0", "2/4", "x", "", None, True, 1.5])
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "dim", "entries", "brackets", "terms", "i",
                         "value"]), inner, max_size=4),
    max_leaves=8)


def _mostly(doc):
  """A well-shaped document three times in four, else arbitrary JSON."""
  return st.one_of(doc, doc, doc, _JUNK)


_W_DOC = _mostly(st.fixed_dictionaries({"n": _SIZE, "entries": st.lists(
    st.fixed_dictionaries({"i": _INDEX, "j": _INDEX, "k": _INDEX,
                           "value": _VALUE}), max_size=5)}))
_C_DOC = _mostly(st.fixed_dictionaries({"dim": _SIZE, "brackets": st.lists(
    st.fixed_dictionaries({"a": _INDEX, "b": _INDEX, "coeffs": st.lists(
        st.fixed_dictionaries({"e": _INDEX, "value": _VALUE}),
        max_size=3)}), max_size=5)}))
_P_DOC = _mostly(st.fixed_dictionaries({"dim": _SIZE, "terms": st.lists(
    st.fixed_dictionaries({"exps": st.lists(_INDEX, max_size=5),
                           "value": _VALUE}), max_size=4)}))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["validate-w", "certify", "truncate",
                                "center", "compat", "poisson-bracket"]),
       w=_W_DOC, c1=_C_DOC, c2=_C_DOC, f=_P_DOC, g=_P_DOC)
def test_loaders_end_in_a_documented_exit_code(command, w, c1, c2, f, g):
  with tempfile.TemporaryDirectory() as tmp:
    paths = {}
    for name, doc in (("w", w), ("c1", c1), ("c2", c2), ("f", f), ("g", g)):
      paths[name] = str(Path(tmp) / f"{name}.json")
      Path(paths[name]).write_text(json.dumps(doc))
    argv = {
        "validate-w": ["validate-w", "--input", paths["w"], "--cross-check"],
        "certify": ["certify", "--input", paths["w"], "--algebra", "sl2"],
        "truncate": ["make-w", "truncate", "--input", paths["w"]],
        "center": ["center", "--constants", paths["c1"]],
        "compat": ["compat", "--first", paths["c1"], "--second", paths["c2"]],
        "poisson-bracket": ["poisson-bracket", "--constants", paths["c1"],
                            "--f", paths["f"], "--g", paths["g"]],
    }[command]
    with contextlib.redirect_stderr(io.StringIO()) as err:
      code, _ = run_cli(*argv)
    assert code in (0, 1, 2), err.getvalue()
