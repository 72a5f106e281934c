"""Benchmark of liebundle's exact questions, end to end and per module.

    python3 bench/run.py --workload certify --seed 1 --seconds 50 --trace 0

Run from anywhere; the sources are read from ``src/`` next to this
directory.  One process answers one question at a time (a closed loop with
one client): a person or a script waits for each verdict.  After an untimed
warm-up the corpus is answered in whole passes until ``--seconds`` have
been timed, and at least twice.  A question's latency is the least of its
timed repeats.  Every answer is then checked against the benchmark's own
computation.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
module's entry points, reports per-layer busy times and counts, and writes
the spans to ``bench/out/``.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
  os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOADS = ("certify", "tables")
# fresh processes per run for setup_s and cli.import_s, half of them before
# the timed passes and half after, so that their median spans the run
PROBES = 6
WARMUP_QUESTIONS = 15  # answered once, untimed, before the timed passes
MIN_PASSES = 2
MAX_TIMED_S = 120.0  # stop adding passes here, so a run ends within 180 s


def parse_args(argv):
  ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  ap.add_argument("--workload", choices=WORKLOADS, required=True)
  ap.add_argument("--seed", type=int, required=True)
  ap.add_argument("--seconds", type=float, default=50.0)
  ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
  ap.add_argument("--probe", choices=("setup", "import"),
                  help=argparse.SUPPRESS)
  return ap.parse_args(argv)


def probe(kind: str, workload: str, seed: int) -> None:
  """Child process: time a fresh import (and corpus generation)."""
  start = time.perf_counter()
  if kind == "import":
    import liebundle.cli  # noqa: F401
    print(json.dumps({"seconds": time.perf_counter() - start}))
    return
  import liebundle  # noqa: F401
  import corpora
  questions, files = corpora.generate(workload, seed)
  elapsed = time.perf_counter() - start
  print(json.dumps({"seconds": elapsed,
                    "digest": corpora.digest(questions, files)}))


def run_probes(kind: str, workload: str, seed: int, count: int) -> list[dict]:
  out = []
  for _ in range(count):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--probe", kind,
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True)
    out.append(json.loads(proc.stdout.splitlines()[-1]))
  return out


def one_pass(questions, answer, tracer=None) -> tuple[list, list, float]:
  """Answer every question once: (answers, latencies, seconds)."""
  answers, latencies = [], []
  start = time.perf_counter()
  for q in questions:
    if tracer is not None:
      tracer.question = q["id"]
    t0 = time.perf_counter()
    try:
      ans = answer(q)
    except Exception as exc:  # counted as a failed question
      ans = {"error": type(exc).__name__, "message": str(exc)}
    latencies.append(time.perf_counter() - t0)
    answers.append(ans)
  return answers, latencies, time.perf_counter() - start


def main(argv=None) -> int:
  args = parse_args(argv)
  if not (SRC / "liebundle" / "__init__.py").is_file():
    print(f"error: liebundle sources not found under {SRC}", file=sys.stderr)
    return 2
  if args.seconds <= 0:
    print("error: --seconds must be positive", file=sys.stderr)
    return 2
  sys.path.insert(0, str(SRC))
  if args.probe:
    probe(args.probe, args.workload, args.seed)
    return 0
  os.environ["PYTHONPATH"] = os.pathsep.join(
      p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
  traced = args.trace == 1
  probe_kind = "import" if traced else "setup"
  probes = run_probes(probe_kind, args.workload, args.seed, PROBES // 2)

  import answers
  import corpora
  import oracle
  import tracing

  questions, files = corpora.generate(args.workload, args.seed)
  workdir = OUT / f"cli-inputs-{os.getpid()}"
  tracer = tracing.Tracer() if traced else None
  if files:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
      (workdir / name).write_text(text, encoding="utf-8")

  def answer(q: dict) -> dict:
    if q["kind"] == "cli":
      return answers.cli_in_process(
          [str(workdir / a) if a in files else a for a in q["argv"]])
    return answers.ANSWER[q["kind"]](q)

  # Only the first pass's answers are kept; each later pass is compared with
  # them as it ends and then dropped, and latencies are kept as a running
  # least per question, so peak_rss_mb does not grow with the pass count.
  first: list | None = None
  best: list[float] = []
  pass_seconds: list[float] = []
  differ: set[int] = set()
  failed = 0
  timed = 0.0
  try:
    if tracer is not None:
      tracer.install()
    one_pass(questions[:WARMUP_QUESTIONS], answer, tracer)
    if tracer is not None:
      tracer.reset()
    while timed < MAX_TIMED_S and (timed < args.seconds
                                   or len(pass_seconds) < MIN_PASSES):
      gc.collect()
      got, latencies, seconds = one_pass(questions, answer, tracer)
      timed += seconds
      pass_seconds.append(seconds)
      failed += sum("error" in a for a in got)
      if first is None:
        first, best = got, latencies
      else:
        differ.update(k for k, (a, b) in enumerate(zip(first, got)) if a != b)
        best = [min(a, b) for a, b in zip(best, latencies)]
      del got, latencies
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
  finally:
    if tracer is not None:
      tracer.uninstall()
    shutil.rmtree(workdir, ignore_errors=True)
  probes += run_probes(probe_kind, args.workload, args.seed,
                       PROBES - PROBES // 2)

  problems = []
  if not traced and any(p["digest"] != corpora.digest(questions, files)
                        for p in probes):
    problems.append("a fresh process generated other inputs for this seed")
  passes = len(pass_seconds)
  attempted = len(questions) * passes
  for q, ref in zip(questions, first):
    if q["id"] in differ:
      problems.append(f"question {q['id']}: answers differ between passes")
      continue
    if "error" in ref:
      print(f"question {q['id']} ({q['kind']}) failed: {ref['error']}: "
            f"{ref['message'][:160]}", file=sys.stderr)
    problems += [f"question {q['id']} ({q['kind']}): {p}"
                 for p in oracle.check(q, ref)]
  for p in problems[:20]:
    print(f"check failed: {p}", file=sys.stderr)

  # A question's latency is the least of its timed repeats: other tenants
  # of a shared host only ever add time, and they slow whole passes by
  # 10-60 % for seconds at a time.
  p90 = statistics.quantiles(best, n=10)[8]
  beyond = sum(x > p90 for x in best)
  OUT.mkdir(parents=True, exist_ok=True)
  raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "best_latencies": best, "pass_seconds": pass_seconds,
         "probes": [p["seconds"] for p in probes]}
  (OUT / f"raw-{args.workload}-seed{args.seed}-trace{args.trace}.json"
   ).write_text(json.dumps(raw), encoding="utf-8")
  print(f"{args.workload} seed {args.seed}: {len(questions)} questions x "
        f"{passes} passes, {timed:.2f} s timed, {failed} failed, "
        f"{'checks passed' if not problems else 'CHECKS FAILED'}")
  print(f"latency_p90_ms {p90 * 1e3:.3f} over {len(best)} samples "
        f"(best of {passes} repeats each), {beyond} beyond it")
  if traced:
    tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracer.metrics(
        passes, statistics.median(p["seconds"] for p in probes))
  else:
    metrics = {
        "setup_s": (statistics.median(p["seconds"] for p in probes), "s"),
        "throughput_qps": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
  print(json.dumps({"correct": not problems, "attempted": attempted,
                    "failed": failed, "metrics": metrics}))
  return 0


if __name__ == "__main__":
  sys.exit(main())
