"""Traced pipeline run: the public ``pipeline.stage_*`` functions in process,
with every layer's public functions wrapped in timers.

Detections are timed through the ``detector`` seam of ``run_ensemble`` (fast
runs) and ``consensus_communities`` (the thorough pass).  A function that is
missing from its module, or a seam a function no longer offers, is listed as
absent and the run goes on without it.  Spans and the few counters only the
running program can see go to ``--report`` as JSON; ``run.py`` derives the
other counters from the inputs and the artifacts.

    python3 bench/trace.py --memberships M --lists L --groundtruth G \\
        --out DIR --rho 6 --runs 100 --tau 0.2 --mu 0.1 --master-seed 1 \\
        --report trace.json
"""
from __future__ import annotations

import argparse
import importlib
import inspect
import json
import time
from pathlib import Path

# (module, function, span) for every wrapped layer function.
LAYER_FUNCTIONS = (
    ("corpus", "load_corpus", "corpus.load_s"),
    ("listgraph", "build_list_graph", "listgraph.build_s"),
    ("listgraph", "save_graph", "listgraph.save_s"),
    ("listgraph", "load_graph", "listgraph.load_s"),
    ("consensus", "accumulate", "consensus.accumulate_s"),
    ("consensus", "save_matrix", "consensus.save_s"),
    ("consensus", "load_matrix", "consensus.load_s"),
    ("stability", "rank_communities", "stability.rank_s"),
    ("labeling", "build_vectors", "labeling.vectors_s"),
    ("labeling", "label_community", "labeling.label_s"),
    ("members", "derive_members", "members.derive_s"),
    ("members", "evaluate", "members.evaluate_s"),
)

# (span, stage function, arguments by name) in pipeline order.
STAGES = (
    ("pipeline.build_graph_s", "stage_build_graph", ("memberships", "lists", "out", "config")),
    ("pipeline.ensemble_s", "stage_ensemble", ("out", "config")),
    ("pipeline.consensus_s", "stage_consensus", ("out", "config")),
    ("pipeline.stability_s", "stage_stability", ("out", "config")),
    ("pipeline.label_s", "stage_label", ("memberships", "lists", "out", "config")),
    ("pipeline.members_s", "stage_members", ("memberships", "lists", "out", "config")),
    ("pipeline.evaluate_s", "stage_evaluate", ("groundtruth", "out", "config")),
)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[float]] = {}
        self.absent: list[str] = []
        self.counters: dict[str, int] = {}
        self.fast_iterations: list[int] = []

    def timed(self, span, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.setdefault(span, []).append(time.perf_counter() - t0)
        return wrapper

    def wrap(self, module, name, span):
        fn = getattr(module, name, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{name}")
        else:
            setattr(module, name, self.timed(span, fn))

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value


def _label_sets(cover) -> int:
    """Distinct sets of community labels over the nodes of one detection."""
    labels: dict[str, list[int]] = {}
    for cid, community in enumerate(cover):
        for node in community:
            labels.setdefault(node, []).append(cid)
    return len({frozenset(ids) for ids in labels.values()})


def _install(tracer: Tracer, modules) -> None:
    for mod, name, span in LAYER_FUNCTIONS:
        tracer.wrap(modules[mod], name, span)

    detect_fn = getattr(modules["detect"], "detect", None)
    if detect_fn is None:
        tracer.absent.append("listcom.detect.detect")
        return
    fast = tracer.timed("detect.fast", detect_fn)

    def fast_detector(graph, config):
        cover = fast(graph, config)
        tracer.fast_iterations.append(getattr(config, "resolved_iterations", 0))
        tracer.count("consensus.label_sets", _label_sets(cover))
        return cover

    thorough = tracer.timed("detect.thorough_s", detect_fn)
    cons = modules["consensus"]
    for name, span, detector in (("run_ensemble", "consensus.run_ensemble", fast_detector),
                                 ("consensus_communities", None, thorough)):
        fn = getattr(cons, name, None)
        if fn is None or "detector" not in inspect.signature(fn).parameters:
            tracer.absent.append(f"listcom.consensus.{name}(detector=)")
            continue

        def seam(*args, _fn=fn, _detector=detector, **kwargs):
            kwargs.setdefault("detector", _detector)
            return _fn(*args, **kwargs)
        setattr(cons, name, tracer.timed(span, seam) if span else seam)

    vectors = getattr(modules["labeling"], "build_vectors", None)
    if vectors is not None:
        def build_vectors(*args, **kwargs):
            result = vectors(*args, **kwargs)
            if isinstance(result, dict):
                tracer.count("labeling.terms",
                             len(set().union(*(v.keys() for v in result.values()))))
            return result
        modules["labeling"].build_vectors = build_vectors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--memberships", "--lists", "--groundtruth", "--out", "--report"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--rho", type=float, required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--tau", type=float, required=True)
    parser.add_argument("--mu", type=float, required=True)
    parser.add_argument("--master-seed", type=int, required=True)
    args = parser.parse_args(argv)

    # ``listcom.detect`` names the function once the package is imported.
    modules = {name: importlib.import_module(f"listcom.{name}")
               for name in ("consensus", "corpus", "detect", "labeling",
                            "listgraph", "members", "pipeline", "stability")}
    pipeline = modules["pipeline"]
    tracer = Tracer()
    _install(tracer, modules)

    config = pipeline.resolve_config({
        "rho": args.rho, "runs": args.runs, "tau": args.tau, "mu": args.mu,
        "master_seed": args.master_seed})
    Path(args.out).mkdir(parents=True, exist_ok=True)
    values = {"memberships": args.memberships, "lists": args.lists,
              "groundtruth": args.groundtruth, "out": args.out, "config": config}
    for span, name, params in STAGES:
        stage = getattr(pipeline, name, None)
        if stage is None:
            tracer.absent.append(f"listcom.pipeline.{name}")
            continue
        tracer.timed(span, stage)(*(values[p] for p in params))

    report = {"spans": tracer.spans, "counters": tracer.counters,
              "fast_iterations": tracer.fast_iterations, "absent": tracer.absent}
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
