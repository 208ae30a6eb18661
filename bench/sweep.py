"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --seeds 1-10 --out .bench_run/sweep.json
    python3 bench/sweep.py --seeds 1-10 --workloads desk --trace 1

Workloads are interleaved seed by seed, and their order rotates from one
seed to the next, so slow drift of the machine falls on every workload
alike.  For each workload and metric it prints the median, the quartiles
and the quartile spread as a share of the median, plus the failed share of
operations, and writes the same figures and every run's result as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS, log, machine


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_run" / "sweep.json"))
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    workloads = args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k, seed in enumerate(seeds):
        for w in workloads[k % len(workloads):] + workloads[:k % len(workloads)]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                log(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            runs[w].append(result)
            log(f"{w} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()))

    report = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for w, results in runs.items():
        names = sorted({n for r in results for n in r["metrics"]})
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        report["workloads"][w] = {
            "failed_share": failed / attempted,
            "all_correct": all(r["correct"] for r in results),
            "metrics": {n: summary([r["metrics"][n]["value"] for r in results
                                    if n in r["metrics"]]) for n in names},
            "runs": results,
        }
        print(f"{w}: {len(results)} runs, failed {failed}/{attempted}, "
              f"all correct {report['workloads'][w]['all_correct']}")
        for n, s in report["workloads"][w]["metrics"].items():
            print(f"  {n:32s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {100 * s['spread']:6.2f}%")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
