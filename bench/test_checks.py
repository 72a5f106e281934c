"""Tests of the benchmark's own checks.

    python3 -m pytest -q bench

On small questions the checks must agree with liebundle, and they must
reject a deliberately corrupted answer: a flipped verdict, a witness index
shifted by one, a residual off by one.
"""

from __future__ import annotations

import copy
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import answers  # noqa: E402
import corpora  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

WITNESS = {"family": "witness"}
RANDOM4 = {"family": "entries", "n": 3, "entries": [
    [0, 0, 1, "1"], [0, 1, 0, "2"], [1, 0, 0, "2"], [1, 2, 2, "-1/2"],
    [2, 1, 2, "-1/2"], [2, 2, 0, "3"]]}
SMALL = [
    {"kind": "certify", "w": WITNESS, "algebra": "sl2", "center": True},
    {"kind": "certify", "w": {"family": "leibnitz", "n": 3},
     "algebra": "so3", "center": True},
    {"kind": "certify", "w": {"family": "circulant", "alpha": ["1", "-2/3"]},
     "algebra": "gl(2)", "center": True},
    {"kind": "certify", "w": RANDOM4, "algebra": "sl2", "center": False},
    {"kind": "certify", "w": RANDOM4, "algebra": "heisenberg3",
     "center": False},
    {"kind": "validate", "w": {"family": "leibnitz-deform", "n": 5,
                               "lam": "1/2"}, "cross_check": True},
    {"kind": "validate", "w": RANDOM4, "cross_check": True},
    {"kind": "validate", "w": {"family": "entries", "n": 2, "entries": [
        [0, 1, 1, "1"]]}, "cross_check": False},
    {"kind": "validate", "w": {"family": "truncate", "base": {
        "family": "leibnitz-deform", "n": 6, "lam": "2"}},
     "cross_check": False},
    {"kind": "classify", "alpha": ["1", "1", "1"]},
    {"kind": "classify", "alpha": ["1", "0", "-1", "0"]},
    {"kind": "rank", "alpha": ["2", "-1", "-1", "0", "0", "0"]},
    {"kind": "center", "algebra": "gl(3)"},
    {"kind": "center", "algebra": "so(4)"},
    {"kind": "center", "algebra": "heisenberg3"},
    {"kind": "compat", "p": 3, "a": [["1", "2", "0"], ["2", "-1", "1/2"],
                                     ["0", "1/2", "3"]], "swap": False},
    {"kind": "compat", "p": 4, "a": [["1", "0", "0", "2"], ["0", "1", "0", "0"],
                                     ["0", "0", "-1", "0"],
                                     ["2", "0", "0", "1"]], "swap": True},
    {"kind": "poisson", "algebra": "gl(2)"},
    {"kind": "poisson", "algebra": "bundle", "p": 3,
     "a": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-1"]]},
    {"kind": "sandwich", "n": 2, "p": 2, "trials": 2, "seed": 7},
]


def _answer(q):
  return answers.ANSWER[q["kind"]](q)


@pytest.mark.parametrize("q", SMALL, ids=lambda q: q["kind"])
def test_checks_agree_with_the_program(q):
  assert oracle.check(q, _answer(q)) == []


def _corrupt_report(report, field):
  ok, *rest = report
  if field == "verdict":
    return (not ok, *rest)
  if field == "index":
    idx = list(rest[-2])
    idx[-1] += 1
    return (ok, *rest[:-2], tuple(idx), rest[-1])
  return (ok, *rest[:-1], rest[-1] + 1)


@pytest.mark.parametrize("field", ["verdict", "index", "residual"])
@pytest.mark.parametrize("q", [SMALL[0], SMALL[3], SMALL[6], SMALL[16]],
                         ids=["witness", "random-certify", "validate",
                              "compat"])
def test_checks_reject_a_corrupted_failure(q, field):
  ans = _answer(q)
  key = "sum" if q["kind"] == "compat" else "report"
  assert ans[key][0] is False
  bad = copy.deepcopy(ans)
  bad[key] = _corrupt_report(ans[key], field)
  assert oracle.check(q, bad)


def test_checks_reject_a_flipped_pass_and_a_bad_center():
  q = SMALL[1]
  ans = _answer(q)
  assert ans["report"][0] is True
  assert oracle.check(q, dict(ans, report=(False, (0, 1, 2, 0),
                                           Fraction(1))))
  q = SMALL[12]
  ans = _answer(q)
  assert oracle.check(q, dict(ans, center=[]))
  shifted = [tuple(list(v[1:]) + [v[0]]) for v in ans["center"]]
  assert oracle.check(q, dict(ans, center=shifted))


def test_checks_reject_wrong_counts():
  q = SMALL[9]
  ans = _answer(q)
  assert oracle.check(q, dict(ans, m=ans["m"] + 1))
  q = SMALL[19]
  ans = _answer(q)
  assert oracle.check(q, dict(ans, coboundary=ans["coboundary"] - 1))


def test_cli_checks_agree_and_reject_corruption(tmp_path):
  questions, files = corpora.cli_questions(random.Random(3))
  for name, text in files.items():
    (tmp_path / name).write_text(text, encoding="utf-8")
  rejected = 0
  for q in questions:
    argv = [str(tmp_path / a) if a in files else a for a in q["argv"]]
    ans = answers.cli_in_process(argv)
    assert oracle.check(q, ans) == [], q["argv"]
    assert oracle.check(q, dict(ans, exit=3 - ans["exit"]))
    out = ans["stdout"]
    for old, new in (("PASS", "FAIL"), ('"pass"', '"fail"'),
                     ("violation: 0 3 4 1", "violation: 0 3 4 2"),
                     ("residual: 4", "residual: 5"),
                     ('"residual": "4"', '"residual": "5"')):
      if old in out:
        assert oracle.check(q, dict(ans, stdout=out.replace(old, new, 1)))
        rejected += 1
  assert rejected >= 10


@pytest.mark.parametrize("workload", ["certify", "tables"])
def test_corpora_are_seeded_and_their_shape_is_fixed(workload):
  a, fa = corpora.generate(workload, 1)
  b, fb = corpora.generate(workload, 1)
  c, fc = corpora.generate(workload, 2)
  assert corpora.digest(a, fa) == corpora.digest(b, fb)
  assert corpora.digest(a, fa) != corpora.digest(c, fc)
  assert len(a) == len(c) >= 110
  kinds = sorted(q["kind"] for q in a)
  assert kinds == sorted(q["kind"] for q in c)
  near = [q for q in a if q.get("alpha") == corpora.NEAR_SINGULAR_ALPHA]
  assert len(near) == (workload == "tables")


def test_near_singular_question_fails_with_internal_check_error():
  q = {"kind": "classify", "alpha": corpora.NEAR_SINGULAR_ALPHA}
  with pytest.raises(Exception) as info:
    _answer(q)
  assert type(info.value).__name__ == "InternalCheckError"
  assert reference.circulant_m(q["alpha"]) == 2


def test_checks_reject_every_other_raised_question():
  near = {"kind": "classify", "alpha": corpora.NEAR_SINGULAR_ALPHA}
  raised = {"error": "InternalCheckError", "message": "mu_0"}
  assert oracle.check(near, raised) == []
  assert oracle.check(near, dict(raised, error="ValueError"))
  for q in SMALL:
    assert oracle.check(q, raised)


def test_triple_position_counts_the_scan_order():
  for pos, triple in enumerate(combinations(range(7), 3), start=1):
    assert tracing.triple_position(7, *triple) == pos
