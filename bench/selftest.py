"""Self-test of the output checks: a clean bundle passes, a corrupted one fails.

    python3 bench/selftest.py

Writes a small planted corpus and one pipeline bundle under ``.bench_run/``,
checks it, then corrupts one graph weight and one user weight in turn and
requires the graph-weight and user-weight checks to fail.  Takes a few
seconds; exits 0 on success.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from run import ROOT, child_env

SYNTH = ["--groups", "4", "--users-per-group", "18", "--lists-per-group", "12",
         "--size-min", "5", "--size-max", "12", "--noise", "0.1", "--overlap", "0.1",
         "--seed", "9"]
CONFIG = {"rho": 6.0, "mu": 0.1}


def cli(*args: str) -> None:
    subprocess.run([sys.executable, "-m", "listcom.cli", *args], env=child_env(0),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    work = ROOT / ".bench_run" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    data, out = work / "data", work / "out"
    try:
        cli("synth", "--out", str(data), *SYNTH)
        cli("pipeline", "--memberships", str(data / "memberships.tsv"),
            "--lists", str(data / "lists.jsonl"),
            "--groundtruth", str(data / "groundtruth.tsv"), "--out", str(out),
            "--rho", str(CONFIG["rho"]), "--runs", "8", "--mu", str(CONFIG["mu"]),
            "--master-seed", "5")
        inputs = checks.load_inputs(data)

        def graph_failures():
            return checks.check_graph(inputs, out, CONFIG["rho"], seed=0, sample=None)

        def user_failures():
            return checks.check_user_weights(inputs, out, CONFIG["mu"])

        clean = graph_failures() + user_failures() + checks.check_stability(out) \
            + checks.check_labels(inputs, out)
        if clean:
            print("FAIL: clean bundle fails its checks:", *clean[:5], sep="\n  ")
            return 1

        graph = out / "graph.tsv"
        text = graph.read_text("utf-8")
        a, b, w = text.splitlines()[0].split("\t")
        graph.write_text(text.replace(f"{a}\t{b}\t{w}\n",
                                      f"{a}\t{b}\t{float(w) + 0.01:.6f}\n", 1), "utf-8")
        caught_graph = graph_failures()
        graph.write_text(text, "utf-8")

        users = out / "users.json"
        text = users.read_text("utf-8")
        payload = json.loads(text)
        payload[0]["users"][0]["weight"] -= 0.01
        users.write_text(json.dumps(payload), "utf-8")
        caught_user = user_failures()
        users.write_text(text, "utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, caught in (("graph weight", caught_graph), ("user weight", caught_user)):
        print(f"{'ok' if caught else 'FAIL'}: corrupted {name} "
              f"{'caught: ' + caught[0] if caught else 'not caught'}")
    return 0 if caught_graph and caught_user else 1


if __name__ == "__main__":
    raise SystemExit(main())
