"""End-to-end benchmark of the ``listcom`` pipeline.

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  One run:

1. Set-up: ``listcom synth`` writes the workload's corpus and ground truth
   from ``--seed``, ``SETUPS`` times; every copy must be byte-identical.
2. Timed operations: one ``listcom pipeline ... --groundtruth`` child at a
   time, at least ``MIN_OPS`` and until their wall times add up to
   ``--seconds``.  Wall time runs from spawn to exit; CPU time and peak RSS
   come from the child's own rusage.  Every bundle is checked by
   ``checks.py`` and must hash the same as the first one, although each
   child gets another ``PYTHONHASHSEED``.  A child that exits non-zero or
   fails a check counts as failed.
3. ``--trace 1`` adds one traced in-process run (``trace.py``) after the
   timed ones and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.  Progress, bundle hashes and the machine go to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

SETUPS = 9
MIN_OPS = 2
STOP_AFTER_S = 150.0   # start no operation that would end past this
IMPORT_SAMPLES = 3

# Corpus spec (``listcom synth`` flags), pipeline flags and the recovery floor.
WORKLOADS = {
    "desk": {
        "synth": {"groups": 8, "users-per-group": 25, "lists-per-group": 40,
                  "size-min": 5, "size-max": 15, "noise": 0.1, "overlap": 0.1},
        "config": {"rho": 6.0, "runs": 100, "tau": 0.2, "mu": 0.1},
        "f1_floor": 0.85,
    },
    "overlap": {
        "synth": {"groups": 200, "users-per-group": 25, "lists-per-group": 25,
                  "size-min": 5, "size-max": 15, "noise": 0.4, "overlap": 0.4},
        "config": {"rho": 3.0, "runs": 20, "tau": 0.2, "mu": 0.1},
        "f1_floor": 0.70,
    },
    "scale": {
        "synth": {"groups": 25, "users-per-group": 30, "lists-per-group": 220,
                  "size-min": 22, "size-max": 28, "noise": 0.05, "overlap": 0.0},
        "config": {"rho": 6.0, "runs": 4, "tau": 0.2, "mu": 0.1},
        "f1_floor": 0.90,
    },
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict[str, str], log_path: Path) -> Sample:
    """Run one child to its end; rusage covers it and its descendants."""
    with open(log_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text("utf-8", "replace").splitlines()[-lines:])


def flags(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in (f"--{key}", str(value))]


def file_hash(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "commit": commit}


class Run:
    def __init__(self, workload: str, seed: int, work: Path):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.config = dict(self.spec["config"], **{"master-seed": seed})
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_hash: str | None = None

    def setup(self) -> list[float]:
        """Each copy goes to a fresh directory: rewriting a file in place
        makes ext4 flush it on close, which adds a variable I/O wait."""
        walls, hashes = [], set()
        for k in range(SETUPS):
            data = self.data if k == 0 else self.work / f"setup{k}"
            argv = [sys.executable, "-m", "listcom.cli", "synth", "--out", str(data),
                    "--seed", str(self.seed), *flags(self.spec["synth"])]
            err = self.work / f"synth{k}.err"
            sample = spawn(argv, child_env(k), err)
            if sample.code != 0:
                raise SystemExit(f"synth exited {sample.code}: {tail(err)}")
            walls.append(sample.wall_s)
            hashes.add(file_hash(sorted(data.iterdir())))
            if data != self.data:
                shutil.rmtree(data)
        if len(hashes) != 1:
            raise SystemExit("synth wrote different corpora for one seed")
        self.inputs = checks.load_inputs(self.data)
        return walls

    def corpus_args(self, out: Path) -> list[str]:
        return ["--memberships", str(self.data / "memberships.tsv"),
                "--lists", str(self.data / "lists.jsonl"),
                "--groundtruth", str(self.data / "groundtruth.tsv"),
                "--out", str(out)]

    def verify(self, out: Path, label: str) -> None:
        """Independent checks plus determinism against the first bundle."""
        failures, f1 = checks.check_bundle(
            self.inputs, out, rho=self.spec["config"]["rho"],
            mu=self.spec["config"]["mu"], f1_floor=self.spec["f1_floor"],
            seed=self.seed)
        digest = checks.bundle_hash(out)
        if self.first_hash is None:
            self.first_hash = digest
        elif digest != self.first_hash:
            failures.append(f"bundle {digest} differs from the first {self.first_hash}")
        log(f"{label}: bundle sha256 {digest} recovery F1 {f1:.4f}")
        if failures:
            self.failed += 1
            self.wrong += 1
            for msg in failures[:10]:
                log(f"{label}: CHECK FAILED {msg}")

    def operation(self, index: int) -> Sample:
        out = self.work / f"op{index}"
        argv = [sys.executable, "-m", "listcom.cli", "pipeline", *self.corpus_args(out),
                *flags(self.config)]
        err = self.work / f"op{index}.err"
        sample = spawn(argv, child_env(index), err)
        self.attempted += 1
        label = f"op {index}"
        log(f"{label}: {sample.wall_s:.3f} s wall {sample.cpu_s:.3f} s cpu "
            f"{sample.rss_mb:.1f} MB exit {sample.code}")
        if sample.code != 0:
            self.failed += 1
            log(f"{label}: FAILED {tail(err)}")
        else:
            self.verify(out, label)
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def timed(self, seconds: float, started: float) -> list[Sample]:
        samples: list[Sample] = []
        while len(samples) < MIN_OPS or sum(s.wall_s for s in samples) < seconds:
            if samples and time.perf_counter() - started + samples[-1].wall_s > STOP_AFTER_S:
                log("stopping early: another operation would overrun the run")
                break
            samples.append(self.operation(len(samples)))
        return samples

    def import_time(self) -> float:
        code = ("import time; t = time.perf_counter(); import listcom.cli; "
                "print(time.perf_counter() - t)")
        times = [float(subprocess.run([sys.executable, "-c", code], env=child_env(k),
                                      cwd=ROOT, capture_output=True, text=True,
                                      check=True).stdout)
                 for k in range(IMPORT_SAMPLES)]
        return statistics.median(times)

    def traced(self, untraced_wall: float) -> dict[str, float]:
        out = self.work / "traced"
        report = self.work / "trace.json"
        argv = [sys.executable, str(HERE / "trace.py"), *self.corpus_args(out),
                "--report", str(report), *flags(self.config)]
        sample = spawn(argv, child_env(self.attempted), self.work / "trace.err")
        self.attempted += 1
        log(f"traced: {sample.wall_s:.3f} s wall exit {sample.code}")
        if sample.code != 0:
            self.failed += 1
            log(f"traced: FAILED {tail(self.work / 'trace.err')}")
            return {}
        self.verify(out, "traced")
        trace = json.loads(report.read_text("utf-8"))
        for name in trace["absent"]:
            log(f"traced: absent {name}")
        metrics = layer_metrics(trace, out, self.data, self.config["tau"])
        metrics["cli.import_s"] = self.import_time()
        metrics["trace.overhead_pct"] = 100.0 * (sample.wall_s - untraced_wall) / untraced_wall
        return metrics


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def candidate_pairs(memberships: Path) -> int:
    """List pairs that share at least one member: upper triangle of B Bᵀ."""
    import numpy as np
    from scipy import sparse

    rows = [line.split("\t") for line in _lines(memberships)]
    lists = {lid: i for i, lid in enumerate(sorted({r[0] for r in rows}))}
    users = {uid: i for i, uid in enumerate(sorted({r[1] for r in rows}))}
    incidence = sparse.csr_matrix(
        (np.ones(len(rows)), ([lists[r[0]] for r in rows], [users[r[1]] for r in rows])),
        shape=(len(lists), len(users)))
    return int(sparse.triu(incidence @ incidence.T, k=1).nnz)


def layer_metrics(trace: dict, out: Path, data: Path, tau: float) -> dict[str, float]:
    """Per-layer metrics from the trace spans and from counts over the files."""
    spans = trace["spans"]
    m: dict[str, float] = {}
    for name, values in spans.items():
        if name.endswith("_s"):
            m[name] = sum(values)
    m.update(trace["counters"])
    if "corpus.load_s" in spans:
        m["corpus.load_calls"] = len(spans["corpus.load_s"])

    graph = [line.split("\t") for line in _lines(out / "graph.tsv")]
    active = len({f[0] for f in graph} | {f[1] for f in graph})
    fast = spans.get("detect.fast")
    if fast:
        m["detect.fast_calls"] = len(fast)
        m["detect.fast_s"] = sum(fast)
        m["detect.fast_median_ms"] = 1000.0 * statistics.median(fast)
        m["detect.node_updates"] = active * sum(trace["fast_iterations"])
        m["detect.updates_per_s"] = m["detect.node_updates"] / m["detect.fast_s"]
        if "consensus.run_ensemble" in spans:
            m["consensus.ensemble_self_s"] = sum(spans["consensus.run_ensemble"]) - sum(fast)

    consensus = _lines(out / "consensus.tsv")[1:]
    communities = json.loads((out / "communities.json").read_text("utf-8"))
    users = json.loads((out / "users.json").read_text("utf-8"))
    m.update({
        "pipeline.artifact_mb": sum((out / f).stat().st_size for f in checks.BUNDLE) / 2**20,
        "corpus.membership_rows": len(_lines(data / "memberships.tsv")),
        "listgraph.candidate_pairs": candidate_pairs(data / "memberships.tsv"),
        "listgraph.edges": len(graph),
        "consensus.entries": len(consensus),
        "consensus.graph_edges": sum(float(line.rsplit("\t", 1)[1]) >= tau
                                     for line in consensus),
        "consensus.communities": len(communities),
        "stability.distinct_sizes": len({len(c) for c in communities if len(c) >= 2}),
        "stability.scored": len(_lines(out / "stability.tsv")),
        "members.users": sum(len(r["users"]) for r in users),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="listcom pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "listcom" / "cli.py").is_file():
        log(f"no listcom sources under {ROOT / 'src'}; run from a source checkout")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    log("machine: " + json.dumps(machine()))

    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        run = Run(args.workload, args.seed, work)
        setups = run.setup()
        samples = run.timed(args.seconds, started)
        ok = [s for s in samples if s.code == 0] or samples
        values = {
            "pipeline_s": statistics.median(s.wall_s for s in ok),
            "cpu_s": statistics.median(s.cpu_s for s in ok),
            "peak_rss_mb": statistics.median(s.rss_mb for s in ok),
            "setup_s": statistics.median(setups),
        }
        if args.trace:
            values = run.traced(values["pipeline_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            log(f"metric {spec['name']}: not measured")
            continue
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
