"""Reference figures: sets of runs per workload, their spread, and tracing.

    python3 bench/report.py --seconds 50 --runs 10 --sets 2 --trace-pairs 2

Runs ``bench/run.py`` once per seed, one process at a time: set k uses
seeds k*runs+1 .. (k+1)*runs.  For each workload and end-to-end metric it
prints every set's median, quartiles and quartile spread (IQR / median),
and the change of the median from the first set to each later one.  With
``--trace-pairs N`` it then makes N pairs of an untraced and a traced run
on seeds 1..N, back to back, and prints the traced run's per-layer metrics
(seed 1) and the tracing overhead: the median over the pairs of untraced
over traced throughput, minus one, where throughput is the corpus size over
the sum of per-question least latencies in both runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("certify", "tables")
METRICS = ("setup_s", "throughput_qps", "latency_p50_ms", "latency_p90_ms",
           "peak_rss_mb")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
  proc = subprocess.run(
      [sys.executable, str(BENCH / "run.py"), "--workload", workload,
       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
      capture_output=True, text=True, timeout=300, check=True)
  result = json.loads(proc.stdout.splitlines()[-1])
  print(f"  {workload} seed {seed} trace {trace}: " + ", ".join(
      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
      if k in METRICS), file=sys.stderr, flush=True)
  if not result["correct"]:
    raise SystemExit(f"{workload} seed {seed}: checks failed\n{proc.stderr}")
  return result


def best_qps(workload: str, seed: int, trace: int) -> float:
  raw = json.loads((BENCH / "out" / f"raw-{workload}-seed{seed}-trace{trace}"
                    ".json").read_text(encoding="utf-8"))
  best = raw["best_latencies"]
  return len(best) / sum(best)


def spread(values: list[float]) -> tuple[float, float, float, float]:
  q1, med, q3 = statistics.quantiles(values, n=4)
  return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(
      values)


def main() -> int:
  ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  ap.add_argument("--seconds", type=float, default=50)
  ap.add_argument("--runs", type=int, default=10)
  ap.add_argument("--sets", type=int, default=2)
  ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                  choices=WORKLOADS)
  ap.add_argument("--trace-pairs", type=int, default=0)
  args = ap.parse_args()
  for workload in args.workloads:
    sets = []
    for k in range(args.sets):
      results = [run(workload, k * args.runs + i + 1, args.seconds, 0)
                 for i in range(args.runs)]
      sets.append(results)
      shares = {r["failed"] / r["attempted"] for r in results}
      print(f"\n{workload} set {k + 1} (seeds {k * args.runs + 1}-"
            f"{(k + 1) * args.runs}): failed share {sorted(shares)}")
      print("| metric | median | q1 | q3 | IQR/median | vs set 1 |")
      print("| --- | --- | --- | --- | --- | --- |")
      for m in METRICS:
        med, q1, q3, rel = spread([r["metrics"][m]["value"] for r in results])
        first = statistics.median(r["metrics"][m]["value"] for r in sets[0])
        print(f"| {m} | {med:.4g} | {q1:.4g} | {q3:.4g} | {rel:.3f} | "
              f"{med / first - 1:+.3f} |")
    traced = []
    for seed in range(1, args.trace_pairs + 1):
      run(workload, seed, args.seconds, 0)
      traced.append(run(workload, seed, args.seconds, 1))
    if traced:
      ratios = [best_qps(workload, seed, 0) / best_qps(workload, seed, 1)
                for seed in range(1, len(traced) + 1)]
      print(f"\n{workload} tracing overhead over {len(ratios)} pairs: "
            f"{statistics.median(ratios) - 1:+.3f} (pairs: "
            + ", ".join(f"{r - 1:+.3f}" for r in ratios) + ")")
      print(f"{workload} traced per-layer metrics (seed 1):")
      for name, metric in traced[0]["metrics"].items():
        print(f"  {name} = {metric['value']:.4g} {metric['unit']}")
  return 0


if __name__ == "__main__":
  sys.exit(main())
