"""Command-line interface.

One subcommand per pipeline stage plus ``pipeline`` (end to end) and
``synth`` (planted-benchmark generator).  Exit codes: 0 success,
2 validation error, 3 parse error, 4 internal error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import pipeline as pipe
from .errors import ParseError, StageError
from .synth import PlantedSpec, synth_files

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4

def _config_parent() -> argparse.ArgumentParser:
    """``--config`` and one flag per :class:`~listcom.pipeline.PipelineConfig`
    field: ``--master-seed`` sets ``master_seed``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", default=None, help="key = value config file")
    for setting in fields(pipe.PipelineConfig):
        parent.add_argument("--" + setting.name.replace("_", "-"),
                            type=pipe.config_type(setting), default=None,
                            help=setting.metadata["help"])
    return parent


def _corpus_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--memberships", required=True, help="memberships.tsv path")
    parent.add_argument("--lists", required=True, help="lists.jsonl path")
    return parent


def _out_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--out", required=True, help="artifact directory")
    return parent


def _resolved_config(args: argparse.Namespace) -> pipe.PipelineConfig:
    flags = {setting.name: getattr(args, setting.name, None)
             for setting in fields(pipe.PipelineConfig)}
    return pipe.resolve_config(flags, args.config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listcom",
        description="Ensemble overlapping community detection over curated lists",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cfg = _config_parent()
    corpus = _corpus_parent()
    out = _out_parent()

    p = sub.add_parser("synth", parents=[out],
                       help="generate a planted-benchmark corpus")
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--users-per-group", type=int, required=True)
    p.add_argument("--lists-per-group", type=int, required=True)
    p.add_argument("--size-min", type=int, required=True)
    p.add_argument("--size-max", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build-graph", parents=[corpus, out, cfg],
                       help="build the significance-weighted list graph")
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("ensemble", parents=[out, cfg],
                       help="aggregate base runs into the consensus matrix")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("consensus", parents=[out, cfg],
                       help="detect communities on the thresholded matrix")
    p.set_defaults(func=_cmd_consensus)

    p = sub.add_parser("stability", parents=[out, cfg],
                       help="rank communities by corrected stability")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("label", parents=[corpus, out, cfg],
                       help="derive term labels per community")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("members", parents=[corpus, out, cfg],
                       help="derive weighted user communities")
    p.set_defaults(func=_cmd_members)

    p = sub.add_parser("evaluate", parents=[out, cfg],
                       help="score user communities against ground truth")
    p.add_argument("--groundtruth", required=True)
    p.add_argument("--core", default=None,
                   help="file of core user ids (default: all ground-truth users)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", parents=[corpus, out, cfg],
                       help="run every stage end to end")
    p.add_argument("--groundtruth", default=None)
    p.add_argument("--core", default=None)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def _cmd_synth(args) -> int:
    spec = PlantedSpec(
        groups=args.groups,
        users_per_group=args.users_per_group,
        lists_per_group=args.lists_per_group,
        size_min=args.size_min,
        size_max=args.size_max,
        noise=args.noise,
        overlap=args.overlap,
    )
    paths = synth_files(spec, args.seed, args.out)
    for path in paths.values():
        print(path)
    return EXIT_OK


def _cmd_build_graph(args) -> int:
    cfg = _resolved_config(args)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    pipe.stage_build_graph(args.memberships, args.lists, args.out, cfg)
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    pipe.stage_ensemble(args.out, _resolved_config(args))
    return EXIT_OK


def _cmd_consensus(args) -> int:
    pipe.stage_consensus(args.out, _resolved_config(args))
    return EXIT_OK


def _cmd_stability(args) -> int:
    pipe.stage_stability(args.out, _resolved_config(args))
    return EXIT_OK


def _cmd_label(args) -> int:
    pipe.stage_label(args.memberships, args.lists, args.out, _resolved_config(args))
    return EXIT_OK


def _cmd_members(args) -> int:
    pipe.stage_members(args.memberships, args.lists, args.out, _resolved_config(args))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    pipe.stage_evaluate(args.groundtruth, args.out, _resolved_config(args),
                        core_path=args.core)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg = _resolved_config(args)
    pipe.run_pipeline(args.memberships, args.lists, args.out, cfg,
                      groundtruth_path=args.groundtruth, core_path=args.core)
    return EXIT_OK


def _exit_code(exc: BaseException) -> int:
    """The exit status of an exception, or of a failed stage's cause: a
    malformed file exits 3, a refused value or a file that cannot be read
    exits 2 (:class:`ValidationError` is a ``ValueError``), anything else 4."""
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, (ValueError, OSError)):
        return EXIT_VALIDATION
    return EXIT_INTERNAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc.cause)
    except Exception as exc:
        code = _exit_code(exc)
        print(f"{'internal error' if code == EXIT_INTERNAL else 'error'}: {exc}",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
