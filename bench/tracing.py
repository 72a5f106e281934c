"""Outside-in tracing of liebundle's modules.

``Tracer.install`` replaces each entry point below with a timing wrapper in
every liebundle module that binds it, so calls between modules are traced
as well as the benchmark's own calls.  Per-element helpers (bracket_eval,
extension_bracket, parse_rational) are left alone: a wrapper on them would
cost more than the work it measures.  A span's self time is its duration
minus the time its child spans cover; a layer's busy time is the sum of the
self times of its spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

# layer -> (module, function) entry points
LAYERS = {
    "wtensor.jacobi_certify": [("wtensor", "jacobi_certify")],
    "wtensor.induced_structure_constants": [
        ("wtensor", "induced_structure_constants")],
    "wtensor.builders": [("wtensor", name) for name in (
        "circulant_w", "leibnitz_w", "leibnitz_deform", "direct_sum_w",
        "make_wtensor", "truncate_to_solvable")],
    "wtensor.wtensor_validate": [("wtensor", "wtensor_validate")],
    "algebra_core.builtin_algebra": [("algebra_core", "builtin_algebra")],
    "algebra_core.validate_structure_constants": [
        ("algebra_core", "validate_structure_constants")],
    "algebra_core.mixed_jacobi_check": [("algebra_core", "mixed_jacobi_check")],
    "algebra_core.compatibility_check": [
        ("algebra_core", "compatibility_check")],
    "algebra_core.center_basis": [("algebra_core", "center_basis")],
    "linalg.nullspace": [("linalg", "nullspace")],
    "linalg.rank": [("linalg", "rank")],
    "spectral.classify_circulant": [("spectral", "classify_circulant")],
    "spectral.circulant_rank_exact": [("spectral", "circulant_rank_exact")],
    "poisson.poisson_jacobi_check": [("poisson", "poisson_jacobi_check")],
    "poisson.casimir_linear_basis": [("poisson", "casimir_linear_basis")],
    "poisson.lie_poisson_bracket": [("poisson", "lie_poisson_bracket")],
    "matrix_bundle.sandwich_suite": [("matrix_bundle", "sandwich_suite")],
    "matrix_bundle.so_sym_bundle": [("matrix_bundle", "so_sym_bundle")],
    "cli.main": [("cli", "main")],
    "cli.loaders": [("cli", "_load_json"), ("wtensor", "wtensor_from_json"),
                    ("algebra_core", "structure_constants_from_json"),
                    ("poisson", "poly_from_json")],
    "cli.renderers": [("wtensor", "wtensor_to_json"),
                      ("algebra_core", "structure_constants_to_json"),
                      ("poisson", "poly_to_json"),
                      ("spectral", "spectrum_report_json"),
                      ("rationals", "format_rational")],
}
# format_rational is also the canonical-form test inside parse_rational,
# called per element; only the command-line renderers' binding is traced.
CLI_ONLY = {"format_rational"}

# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = [(f"{layer}.busy_s", "s", "lower") for layer in LAYERS
             if layer != "cli.main"]
PER_LAYER[4:4] = [("wtensor.wtensor_validate.cross_check_busy_s", "s", "lower"),
                  ("wtensor.wtensor_validate.entries_per_s", "1/s", "higher")]
PER_LAYER += [
    ("wtensor.jacobi_certify.triples_per_s", "1/s", "higher"),
    ("algebra_core.validate_structure_constants.triples_per_s", "1/s",
     "higher"),
    ("spectral.classify_circulant.internal_errors", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_ms", "ms", "lower"),
]


def triple_position(dim: int, u: int, v: int, t: int) -> int:
  """1-based position of u < v < t among basis triples in scan order."""
  before = sum(comb(dim - 1 - x, 2) for x in range(u))
  before += sum(dim - 1 - y for y in range(u + 1, v))
  return before + (t - v)


def _triples(dim: int, report) -> int:
  """Basis triples a Jacobi scan examined: all of them on PASS, up to and
  including the witness triple on FAIL."""
  if report.ok:
    return comb(dim, 3)
  return triple_position(dim, *report.violation[:3])


def _count_certify(tracer, args, kwargs, result, self_s, duration):
  w, c = args[0], args[1]
  tracer.counts["wtensor.jacobi_certify.triples"] += _triples(
      w.n * c.dim, result)


def _count_table_scan(tracer, args, kwargs, result, self_s, duration):
  tracer.counts["algebra_core.validate_structure_constants.triples"] += (
      _triples(args[0].dim, result))


def _count_validate(tracer, args, kwargs, result, self_s, duration):
  tracer.counts["wtensor.wtensor_validate.entries"] += len(args[0].entries)
  cross = kwargs.get("cross_check", args[1] if len(args) > 1 else False)
  if cross:
    tracer.counts["wtensor.wtensor_validate.cross_check_busy_s"] += self_s


def _count_main(tracer, args, kwargs, result, self_s, duration):
  tracer.main_durations.append(duration)


COUNTERS = {
    "jacobi_certify": _count_certify,
    "validate_structure_constants": _count_table_scan,
    "wtensor_validate": _count_validate,
    "main": _count_main,
}


class Tracer:
  """Spans and per-layer totals of one traced run."""

  def __init__(self):
    self._patched: list[tuple[object, str, object]] = []
    self.reset()

  def reset(self) -> None:
    self.busy: dict[str, float] = defaultdict(float)
    self.counts: dict[str, float] = defaultdict(float)
    self.main_durations: list[float] = []
    self.spans: list[tuple] = []
    self.stack: list[list] = []
    self.question = None

  def install(self) -> None:
    package = [m for name, m in sys.modules.items()
               if name == "liebundle" or name.startswith("liebundle.")]
    for layer, targets in LAYERS.items():
      for module, name in targets:
        original = getattr(sys.modules[f"liebundle.{module}"], name)
        wrapper = self._wrap(layer, name, original)
        scope = [sys.modules["liebundle.cli"]] if name in CLI_ONLY else package
        for mod in scope:
          for attr, value in list(vars(mod).items()):
            if value is original:
              setattr(mod, attr, wrapper)
              self._patched.append((mod, attr, original))

  def uninstall(self) -> None:
    for mod, attr, original in reversed(self._patched):
      setattr(mod, attr, original)
    self._patched.clear()

  def _wrap(self, layer: str, name: str, fn):
    counter = COUNTERS.get(name)
    tracer = self

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
      frame = [len(tracer.spans) + len(tracer.stack), 0.0]
      parent = tracer.stack[-1][0] if tracer.stack else None
      tracer.stack.append(frame)
      start = perf_counter()
      try:
        result = fn(*args, **kwargs)
      except BaseException as exc:
        tracer._close(layer, name, frame, parent, start)
        if type(exc).__name__ == "InternalCheckError":
          tracer.counts[f"{layer}.internal_errors"] += 1
        raise
      self_s, duration = tracer._close(layer, name, frame, parent, start)
      if counter is not None:
        counter(tracer, args, kwargs, result, self_s, duration)
      return result

    return wrapper

  def _close(self, layer, name, frame, parent, start) -> tuple[float, float]:
    """End a span; returns (self time, duration)."""
    end = perf_counter()
    self.stack.pop()
    duration = end - start
    if self.stack:
      self.stack[-1][1] += duration
    self_s = duration - frame[1]
    self.busy[layer] += self_s
    self.spans.append((self.question, frame[0], parent, layer, name,
                       start, end))
    return self_s, duration

  def metrics(self, passes: int, import_s: float) -> dict:
    """Every per-layer metric; busy times are per pass of the corpus."""
    values = {f"{layer}.busy_s": self.busy[layer] / passes
              for layer in LAYERS}
    xc = "wtensor.wtensor_validate.cross_check_busy_s"
    values[xc] = self.counts[xc] / passes

    def rate(count_key, layer):
      busy = self.busy[layer]
      return self.counts[count_key] / busy if busy else 0.0

    values["wtensor.wtensor_validate.entries_per_s"] = rate(
        "wtensor.wtensor_validate.entries", "wtensor.wtensor_validate")
    values["wtensor.jacobi_certify.triples_per_s"] = rate(
        "wtensor.jacobi_certify.triples", "wtensor.jacobi_certify")
    values["algebra_core.validate_structure_constants.triples_per_s"] = rate(
        "algebra_core.validate_structure_constants.triples",
        "algebra_core.validate_structure_constants")
    values["spectral.classify_circulant.internal_errors"] = (
        self.counts["spectral.classify_circulant.internal_errors"] / passes)
    values["cli.import_s"] = import_s
    values["cli.main_ms"] = (statistics.median(self.main_durations) * 1e3
                             if self.main_durations else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}

  def write_spans(self, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
      for question, span, parent, layer, name, start, end in self.spans:
        fh.write(json.dumps({"question": question, "span": span,
                             "parent": parent, "layer": layer, "name": name,
                             "start": start, "end": end}) + "\n")
