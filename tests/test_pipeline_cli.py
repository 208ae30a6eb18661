import filecmp
import importlib
import json
from pathlib import Path

import pytest

from listcom.cli import main
from listcom.errors import ParseError, ValidationError
from listcom.pipeline import (ARTIFACTS, PipelineConfig, parse_config_file,
                              resolve_config, run_pipeline, stage_label)
from listcom.synth import PlantedSpec, synth_files

SPEC = PlantedSpec(groups=4, users_per_group=18, lists_per_group=12,
                   size_min=5, size_max=12, noise=0.1, overlap=0.1)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    return synth_files(SPEC, 21, out)


def fast_config(**overrides):
    base = dict(runs=6, master_seed=3)
    base.update(overrides)
    return PipelineConfig(**base)


def bundle_bytes(out_dir):
    return {
        name: (Path(out_dir) / fname).read_bytes()
        for name, fname in ARTIFACTS.items()
        if (Path(out_dir) / fname).exists()
    }


def test_config_defaults_match_reported_parameters():
    cfg = PipelineConfig()
    assert (cfg.rho, cfg.runs, cfg.tau, cfg.mu) == (6.0, 100, 0.2, 0.1)
    assert cfg.top_k == 3


# One bad value of each checked key, and the word its error names.
BAD_VALUES = [("tau", 1.5, "tau"), ("runs", 0, "runs"), ("mu", -0.1, "mu"),
              ("rho", -1.0, "rho"), ("rho", float("nan"), "rho"),
              ("top_k", 0, "top_k"), ("fast_iterations", 0, "iteration"),
              ("thorough_iterations", 0, "iteration"),
              ("overlap_threshold", 0.0, "overlap_threshold"),
              ("overlap_threshold", 1.0, "overlap_threshold")]


def test_config_validation():
    for key, value, word in BAD_VALUES:
        with pytest.raises(ValidationError, match=word):
            PipelineConfig(**{key: value})


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nrho = 4.5\nruns=7\n\nmu = 0.2\n",
                    encoding="utf-8")
    values = parse_config_file(path)
    assert values == {"rho": "4.5", "runs": "7", "mu": "0.2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("rho 4.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_config_file(bad)


def test_config_precedence_matrix(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rho = 4.0\nruns = 9\n", encoding="utf-8")
    # defaults only
    assert resolve_config({}, None).rho == 6.0
    # file overrides defaults
    cfg = resolve_config({}, path)
    assert cfg.rho == 4.0 and cfg.runs == 9
    # flags override the file; unset flags (None) fall through
    cfg = resolve_config({"rho": 2.5, "runs": None}, path)
    assert cfg.rho == 2.5 and cfg.runs == 9
    with pytest.raises(ValidationError):
        resolve_config({"bogus_key": 1}, None)
    badfile = tmp_path / "bad.cfg"
    badfile.write_text("bogus = 1\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        resolve_config({}, badfile)


def test_run_pipeline_produces_bundle(corpus_files, tmp_path):
    out = tmp_path / "run"
    produced = run_pipeline(corpus_files["memberships"], corpus_files["lists"],
                            out, fast_config(),
                            groundtruth_path=corpus_files["groundtruth"])
    for name in ("graph", "nodes", "consensus", "communities", "stability",
                 "labels", "users", "eval"):
        assert produced[name].exists(), name
    payload = json.loads((out / "users.json").read_text("utf-8"))
    assert payload and all("users" in entry for entry in payload)


def test_run_pipeline_byte_identical_reruns(corpus_files, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                     fast_config(),
                     groundtruth_path=corpus_files["groundtruth"])
    assert bundle_bytes(out1) == bundle_bytes(out2)


def test_bundle_does_not_depend_on_the_worker_count(corpus_files, tmp_path,
                                                    monkeypatch):
    # Threads start even on this small corpus; which thread runs which run
    # changes with their number, and no artifact does.
    detect_module = importlib.import_module("listcom.detect")
    monkeypatch.setattr(detect_module, "THREAD_POSITIONS", 1)
    bundles = []
    for count in (1, 2):
        monkeypatch.setattr(detect_module, "WORKERS", count)
        out = tmp_path / f"workers{count}"
        run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                     fast_config(), groundtruth_path=corpus_files["groundtruth"])
        bundles.append(bundle_bytes(out))
    assert len(bundles[0]) == len(ARTIFACTS) == 8
    assert bundles[0] == bundles[1]


def test_stagewise_equals_one_shot(corpus_files, tmp_path):
    from listcom import pipeline as pipe

    cfg = fast_config()
    one = tmp_path / "oneshot"
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], one, cfg,
                 groundtruth_path=corpus_files["groundtruth"])
    staged = tmp_path / "staged"
    staged.mkdir()
    pipe.stage_build_graph(corpus_files["memberships"], corpus_files["lists"],
                           staged, cfg)
    pipe.stage_ensemble(staged, cfg)
    pipe.stage_consensus(staged, cfg)
    pipe.stage_stability(staged, cfg)
    pipe.stage_label(corpus_files["memberships"], corpus_files["lists"],
                     staged, cfg)
    pipe.stage_members(corpus_files["memberships"], corpus_files["lists"],
                       staged, cfg)
    pipe.stage_evaluate(corpus_files["groundtruth"], staged, cfg)
    assert bundle_bytes(one) == bundle_bytes(staged)


def test_stage_error_names_stage(tmp_path):
    from listcom.errors import StageError

    cfg = fast_config()
    with pytest.raises(StageError, match="build-graph"):
        run_pipeline(tmp_path / "missing.tsv", tmp_path / "missing.jsonl",
                     tmp_path / "out", cfg)


def test_cli_full_stage_sequence(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--groups", "3",
                 "--users-per-group", "15", "--lists-per-group", "10",
                 "--size-min", "5", "--size-max", "10", "--noise", "0.1",
                 "--overlap", "0.1", "--seed", "11"]) == 0
    out = tmp_path / "run"
    corpus_flags = ["--memberships", str(data / "memberships.tsv"),
                    "--lists", str(data / "lists.jsonl")]
    common = ["--out", str(out), "--runs", "5", "--master-seed", "2"]
    assert main(["build-graph", *corpus_flags, *common]) == 0
    assert main(["ensemble", *common]) == 0
    assert main(["consensus", *common]) == 0
    assert main(["stability", *common]) == 0
    assert main(["label", *corpus_flags, *common]) == 0
    assert main(["members", *corpus_flags, *common]) == 0
    assert main(["evaluate", "--groundtruth", str(data / "groundtruth.tsv"),
                 *common]) == 0
    for fname in ARTIFACTS.values():
        assert (out / fname).exists(), fname


def test_cli_pipeline_matches_stagewise(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--groups", "3",
          "--users-per-group", "15", "--lists-per-group", "10",
          "--size-min", "5", "--size-max", "10", "--noise", "0.1",
          "--overlap", "0.1", "--seed", "11"])
    corpus_flags = ["--memberships", str(data / "memberships.tsv"),
                    "--lists", str(data / "lists.jsonl")]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = [*corpus_flags, "--runs", "5", "--master-seed", "2",
            "--groundtruth", str(data / "groundtruth.tsv")]
    assert main(["pipeline", "--out", str(out1), *args]) == 0
    assert main(["pipeline", "--out", str(out2), *args]) == 0
    assert bundle_bytes(out1) == bundle_bytes(out2)


def test_cli_exit_codes(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--groups", "2",
          "--users-per-group", "10", "--lists-per-group", "6",
          "--size-min", "4", "--size-max", "8", "--seed", "1"])
    corpus_flags = ["--memberships", str(data / "memberships.tsv"),
                    "--lists", str(data / "lists.jsonl")]
    out = tmp_path / "run"
    # validation error: tau out of range
    assert main(["pipeline", *corpus_flags, "--out", str(out),
                 "--tau", "1.5"]) == 2
    # parse error: malformed memberships file
    broken = tmp_path / "broken.tsv"
    broken.write_text("no-tabs-here\n", encoding="utf-8")
    assert main(["pipeline", "--memberships", str(broken),
                 "--lists", str(data / "lists.jsonl"),
                 "--out", str(out)]) == 3
    # parse error: malformed config file
    badcfg = tmp_path / "bad.cfg"
    badcfg.write_text("not a key value line\n", encoding="utf-8")
    assert main(["pipeline", *corpus_flags, "--out", str(out),
                 "--config", str(badcfg)]) == 3
    # missing artifact for a resumed stage is a validation error
    assert main(["consensus", "--out", str(tmp_path / "empty")]) == 2


def test_cli_refuses_a_list_id_with_a_line_break(corpus_files, tmp_path, capsys):
    # The id would split into two fake nodes in graph.nodes, and a stage run
    # alone would then see one list more than the one-shot run.
    lists = tmp_path / "lists.jsonl"
    lists.write_text(Path(corpus_files["lists"]).read_text("utf-8")
                     + '{"id": "lonely\\nlist", "name": "", "description": ""}\n',
                     encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pipeline", "--memberships", str(corpus_files["memberships"]),
                 "--lists", str(lists), "--out", str(out), "--runs", "2"]) == 2
    assert "lists.jsonl:" in capsys.readouterr().err
    assert not (out / "graph.nodes").exists()


def test_cli_exits_4_without_a_compiler(corpus_files, kernel_cache, tmp_path,
                                        monkeypatch, capsys):
    # No kernel is built yet and no cc is on the PATH.
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    out = tmp_path / "out"
    assert main(["pipeline", "--memberships", str(corpus_files["memberships"]),
                 "--lists", str(corpus_files["lists"]), "--out", str(out)]) == 4
    assert "cc -O2 -shared -fPIC" in capsys.readouterr().err
    assert not (out / "consensus.tsv").exists()


def test_cli_rho_nan_exits_2_before_creating_out(tmp_path, capsys):
    # So does a bad value of every other checked key.
    out = tmp_path / "run"
    for key, value, word in BAD_VALUES:
        assert main(["pipeline", "--memberships", str(tmp_path / "m.tsv"),
                     "--lists", str(tmp_path / "l.jsonl"), "--out", str(out),
                     "--" + key.replace("_", "-"), str(value)]) == 2, key
        assert word in capsys.readouterr().err, key
        assert not out.exists(), key


def test_cli_missing_stopword_file_exits_2_before_any_stage(corpus_files, tmp_path,
                                                            capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--memberships", str(corpus_files["memberships"]),
                 "--lists", str(corpus_files["lists"]), "--out", str(out),
                 "--stopwords", str(tmp_path / "missing.txt")]) == 2
    assert "missing.txt" in capsys.readouterr().err
    assert not out.exists()


def test_cli_repeated_config_key_is_a_parse_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("runs = 3\n# twice\nruns = 5\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"{cfgfile}:3: .*'runs'"):
        parse_config_file(cfgfile)
    out = tmp_path / "run"
    assert main(["pipeline", "--memberships", str(tmp_path / "m.tsv"),
                 "--lists", str(tmp_path / "l.jsonl"), "--out", str(out),
                 "--config", str(cfgfile)]) == 3
    assert f"{cfgfile}:3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_input_is_a_validation_error(tmp_path, capsys):
    # An unreadable input exits 2 whether or not it fails inside a stage.
    missing = ["--memberships", str(tmp_path / "nonexist.tsv"),
               "--lists", str(tmp_path / "nonexist.jsonl"),
               "--out", str(tmp_path / "run")]
    for command in ("build-graph", "pipeline"):
        assert main([command, *missing]) == 2, command
        assert "nonexist.jsonl" in capsys.readouterr().err


def test_cli_draws_flag_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--out", str(tmp_path), "--draws", "50"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --draws" in capsys.readouterr().err


def test_cli_draws_config_key_is_unknown(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("runs = 4\ndraws = 50\n", encoding="utf-8")
    assert main(["stability", "--out", str(tmp_path),
                 "--config", str(cfgfile)]) == 2
    assert "unknown config key 'draws'" in capsys.readouterr().err


def test_cli_workers_flag_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--out", str(tmp_path), "--workers", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_cli_workers_config_key_is_unknown(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("runs = 4\nworkers = 4\n", encoding="utf-8")
    assert main(["ensemble", "--out", str(tmp_path),
                 "--config", str(cfgfile)]) == 2
    assert "unknown config key 'workers'" in capsys.readouterr().err


def test_cli_iterate_flag_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["consensus", "--out", str(tmp_path), "--iterate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --iterate" in capsys.readouterr().err


def test_cli_iterate_config_key_is_unknown(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("runs = 4\niterate = true\n", encoding="utf-8")
    assert main(["consensus", "--out", str(tmp_path),
                 "--config", str(cfgfile)]) == 2
    assert "unknown config key 'iterate'" in capsys.readouterr().err


def test_cli_config_file_respected(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--groups", "2",
          "--users-per-group", "12", "--lists-per-group", "8",
          "--size-min", "4", "--size-max", "9", "--seed", "4"])
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("runs = 4\nmaster_seed = 9\ntop_k = 2\n",
                       encoding="utf-8")
    out1, out2 = tmp_path / "via-file", tmp_path / "via-flags"
    corpus_flags = ["--memberships", str(data / "memberships.tsv"),
                    "--lists", str(data / "lists.jsonl")]
    assert main(["pipeline", *corpus_flags, "--out", str(out1),
                 "--config", str(cfgfile)]) == 0
    assert main(["pipeline", *corpus_flags, "--out", str(out2),
                 "--runs", "4", "--master-seed", "9", "--top-k", "2"]) == 0
    assert bundle_bytes(out1) == bundle_bytes(out2)


def test_stopword_override_changes_labels(corpus_files, tmp_path, monkeypatch):
    from listcom import labeling as lab

    # A stopword file replaces the built-in list; without one, the built-in
    # list applies.
    seen = []
    build = lab.build_vectors
    monkeypatch.setattr(lab, "build_vectors",
                        lambda corpus, stopwords: seen.append(stopwords)
                        or build(corpus, stopwords))
    out = tmp_path / "run"
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                 fast_config())

    def labels():
        payload = json.loads((out / ARTIFACTS["labels"]).read_text("utf-8"))
        return {term for entry in payload for term in entry["labels"]}

    assert seen == [lab.default_stopwords()] and "the" in seen[0]
    assert "topic00news" in labels()
    custom = tmp_path / "stop.txt"
    custom.write_text("topic00news\n", encoding="utf-8")
    stage_label(corpus_files["memberships"], corpus_files["lists"], out,
                fast_config(stopwords=str(custom)))
    assert seen[1:] == [frozenset({"topic00news"})]
    assert "topic00news" not in labels()


def test_partial_artifacts_retained_on_failure(corpus_files, tmp_path):
    from listcom.errors import StageError

    out = tmp_path / "run"
    cfg = fast_config()
    # give evaluate a missing ground-truth path: earlier artifacts must stay
    with pytest.raises(StageError, match="evaluate"):
        run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                     cfg, groundtruth_path=tmp_path / "nope.tsv")
    assert (out / ARTIFACTS["users"]).exists()
    assert not (out / ARTIFACTS["eval"]).exists()


def test_run_pipeline_parses_corpus_once(corpus_files, tmp_path, monkeypatch):
    from listcom import corpus as corp

    calls = []
    load = corp.load_corpus
    monkeypatch.setattr(corp, "load_corpus",
                        lambda *args: calls.append(args) or load(*args))
    run_pipeline(corpus_files["memberships"], corpus_files["lists"],
                 tmp_path / "run", fast_config(),
                 groundtruth_path=corpus_files["groundtruth"])
    assert len(calls) == 1


def test_run_pipeline_parses_no_artifact(corpus_files, tmp_path, monkeypatch):
    # The graph and the matrix go from their writers to the next stages.
    from listcom import consensus as cons
    from listcom import listgraph as lg

    calls = []
    for module, name in ((lg, "load_graph"), (cons, "load_matrix")):
        load = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _load=load, _name=name, **kwargs:
                            calls.append(_name) or _load(*args, **kwargs))
    run_pipeline(corpus_files["memberships"], corpus_files["lists"],
                 tmp_path / "run", fast_config(),
                 groundtruth_path=corpus_files["groundtruth"])
    assert calls == []


def test_stage_hand_offs_equal_a_reload(corpus_files, tmp_path):
    from listcom import listgraph as lg
    from listcom import pipeline as pipe
    from reference import same_graph, same_matrix

    cfg = fast_config()
    graph = pipe.stage_build_graph(corpus_files["memberships"],
                                   corpus_files["lists"], tmp_path, cfg)
    assert same_graph(graph, lg.load_graph(tmp_path / ARTIFACTS["graph"],
                                           tmp_path / ARTIFACTS["nodes"]))
    matrix = pipe.stage_ensemble(tmp_path, cfg, graph=graph)
    assert same_matrix(matrix, pipe._load_matrix(tmp_path))
    # Run alone, the stage parses graph.tsv and hands over the same matrix.
    assert same_matrix(pipe.stage_ensemble(tmp_path, cfg), matrix)


def test_users_json_carries_full_precision_stability(corpus_files, tmp_path):
    from listcom import pipeline as pipe
    from listcom.detect import load_communities
    from listcom.stability import rank_communities

    out = tmp_path / "run"
    cfg = fast_config(rho=2.0)  # communities with corrected scores below 1
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out, cfg)
    matrix = pipe._load_matrix(out)
    cover = load_communities(out / ARTIFACTS["communities"], matrix.order)
    corrected = {k: s.corrected for k, s in rank_communities(cover, matrix)}
    rows = [line.split("\t") for line in
            (out / ARTIFACTS["stability"]).read_text("utf-8").splitlines()]
    assert {int(f[5]): float(f[6]) for f in rows} == corrected
    assert all(f[1] == f"{corrected[int(f[5])]:.2f}" for f in rows)
    reports = json.loads((out / ARTIFACTS["users"]).read_text("utf-8"))
    assert any(round(v, 6) != round(v, 2) for v in corrected.values())
    for report in reports:
        assert report["stability"] == round(corrected[report["community_id"]], 6)
    order = sorted(corrected, key=lambda cid: (-corrected[cid], cid))
    assert [r["community_id"] for r in reports][:len(order)] == order


def test_stale_stability_without_full_precision_column(corpus_files, tmp_path):
    from listcom import pipeline as pipe

    out = tmp_path / "run"
    cfg = fast_config()
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out, cfg)
    path = out / ARTIFACTS["stability"]
    path.write_text("".join(line.rsplit("\t", 1)[0] + "\n" for line in
                            path.read_text("utf-8").splitlines()), "utf-8")
    with pytest.raises(ValidationError, match="full-precision"):
        pipe.stage_members(corpus_files["memberships"], corpus_files["lists"],
                           out, cfg)


def test_members_exits_2_on_a_list_outside_the_corpus(corpus_files, tmp_path,
                                                      capsys):
    # communities.tsv names lists that another corpus does not hold.
    out = tmp_path / "run"
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                 fast_config())
    (tmp_path / "m.tsv").write_text("other\tu1\n", encoding="utf-8")
    (tmp_path / "l.jsonl").write_text("", encoding="utf-8")
    assert main(["members", "--memberships", str(tmp_path / "m.tsv"),
                 "--lists", str(tmp_path / "l.jsonl"), "--out", str(out)]) == 2
    assert "is not in the corpus" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    [{"labels": ["a"], "scores": [1.0]}],
    {"community_id": 0, "labels": ["a"], "scores": [1.0]},
])
def test_members_exits_2_on_a_malformed_labels_file(corpus_files, tmp_path,
                                                    capsys, payload):
    out = tmp_path / "run"
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                 fast_config())
    (out / ARTIFACTS["labels"]).write_text(json.dumps(payload), "utf-8")
    assert main(["members", "--memberships", str(corpus_files["memberships"]),
                 "--lists", str(corpus_files["lists"]), "--out", str(out)]) == 2
    assert f"{ARTIFACTS['labels']}: expected a JSON array" in capsys.readouterr().err


def test_evaluate_exits_2_on_a_user_without_a_weight(corpus_files, tmp_path,
                                                     capsys):
    out = tmp_path / "run"
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                 fast_config())
    path = out / ARTIFACTS["users"]
    reports = json.loads(path.read_text("utf-8"))
    del reports[0]["users"][0]["weight"]
    path.write_text(json.dumps(reports), "utf-8")
    assert main(["evaluate", "--groundtruth", str(corpus_files["groundtruth"]),
                 "--out", str(out)]) == 2
    assert f"{ARTIFACTS['users']}: expected a JSON array" in capsys.readouterr().err


def test_resumed_stages_exit_2_on_a_repeated_node(corpus_files, tmp_path,
                                                  capsys):
    # graph.nodes is read by one reader, with its duplicate check, wherever
    # a stage reloads it.
    out = tmp_path / "run"
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                 fast_config())
    nodes = out / ARTIFACTS["nodes"]
    first = nodes.read_text("utf-8").splitlines()[0]
    with open(nodes, "a", encoding="utf-8") as fh:
        fh.write(first + "\n")
    for stage in ("ensemble", "consensus", "stability"):
        assert main([stage, "--out", str(out), "--runs", "6",
                     "--master-seed", "3"]) == 2, stage
        assert f"duplicate node {first!r}" in capsys.readouterr().err, stage


def test_consensus_exits_2_without_graph_nodes(corpus_files, tmp_path, capsys):
    # The node order comes from graph.nodes alone: rebuilt from the matrix
    # entries' endpoints, it would leave out the lists without an entry.
    out = tmp_path / "run"
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                 fast_config())
    communities = (out / ARTIFACTS["communities"]).read_bytes()
    (out / ARTIFACTS["nodes"]).unlink()
    assert main(["consensus", "--out", str(out), "--runs", "6",
                 "--master-seed", "3"]) == 2
    assert f"missing artifact {out / ARTIFACTS['nodes']}" in capsys.readouterr().err
    assert (out / ARTIFACTS["communities"]).read_bytes() == communities


class _FailingFile:
    """Writes half of its first chunk to the real file, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.fh.write(text[: len(text) // 2 + 1])
        raise OSError("simulated failure mid-write")

    def writelines(self, lines):
        self.write("".join(lines))


def test_atomic_write_keeps_previous_file(tmp_path):
    from listcom.atomic import atomic_write

    path = tmp_path / "artifact.tsv"
    path.write_text("previous\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert path.read_text("utf-8") == "previous\n"
    assert list(tmp_path.iterdir()) == [path]
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text("utf-8") == "new\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_artifact_writes_leave_previous_bundle(corpus_files, tmp_path,
                                                     monkeypatch):
    import builtins

    from listcom import atomic
    from listcom import pipeline as pipe

    out = tmp_path / "run"
    run_pipeline(corpus_files["memberships"], corpus_files["lists"], out,
                 fast_config(), groundtruth_path=corpus_files["groundtruth"])
    before = bundle_bytes(out)
    assert len(before) == len(ARTIFACTS)
    monkeypatch.setattr(atomic, "open", raising=False,
                        value=lambda *a, **k: _FailingFile(builtins.open(*a, **k)))
    cfg = fast_config(master_seed=4, mu=0.3, top_k=2)
    m, lists, truth = (corpus_files[k] for k in ("memberships", "lists", "groundtruth"))
    stages = [
        lambda: pipe.stage_build_graph(m, lists, out, cfg),
        lambda: pipe.stage_ensemble(out, cfg),
        lambda: pipe.stage_consensus(out, cfg),
        lambda: pipe.stage_stability(out, cfg),
        lambda: pipe.stage_label(m, lists, out, cfg),
        lambda: pipe.stage_members(m, lists, out, cfg),
        lambda: pipe.stage_evaluate(truth, out, cfg),
    ]
    for stage in stages:
        with pytest.raises(OSError, match="mid-write"):
            stage()
        assert bundle_bytes(out) == before
        assert not list(out.glob("*.tmp"))


def test_failed_synth_writes_leave_previous_inputs(tmp_path, monkeypatch,
                                                   capsys):
    import builtins

    from listcom import atomic

    def synth_args(out, groups):
        return ["synth", "--out", str(out), "--groups", str(groups),
                "--users-per-group", "12", "--lists-per-group", "8",
                "--size-min", "4", "--size-max", "9"]

    def contents(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    assert main(synth_args(tmp_path / "other", 3)) == 0
    other = contents(tmp_path / "other")
    data = tmp_path / "data"
    real_open = builtins.open
    for name in ("memberships.tsv", "lists.jsonl", "groundtruth.tsv"):
        assert main(synth_args(data, 2)) == 0
        before = contents(data)
        assert before[name] != other[name]

        def failing_open(file, *args, _tmp=name + ".tmp", **kwargs):
            fh = real_open(file, *args, **kwargs)
            return _FailingFile(fh) if Path(file).name == _tmp else fh

        monkeypatch.setattr(atomic, "open", failing_open, raising=False)
        assert main(synth_args(data, 3)) == 2
        assert "mid-write" in capsys.readouterr().err
        assert contents(data)[name] == before[name]
        assert not list(data.glob("*.tmp"))
        monkeypatch.undo()


def test_cli_pipeline_leaves_scipy_unimported(tmp_path):
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from listcom.cli import main\n"
        f"data, out = {str(tmp_path / 'data')!r}, {str(tmp_path / 'out')!r}\n"
        "assert main(['synth', '--out', data, '--groups', '3',"
        " '--users-per-group', '10', '--lists-per-group', '6', '--size-min', '4',"
        " '--size-max', '8', '--seed', '1']) == 0\n"
        "assert main(['pipeline', '--memberships', data + '/memberships.tsv',"
        " '--lists', data + '/lists.jsonl', '--out', out, '--runs', '3']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=tmp_path,
                   env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
                   stdout=subprocess.DEVNULL)
    pyproject = (src.parent / "pyproject.toml").read_text("utf-8")
    assert 'dependencies = ["numpy>=1.24"]' in pyproject.splitlines()


def test_a_one_shot_run_imports_only_what_it_uses(corpus_files, tmp_path):
    # On one thread and with the kernel built, a run loads numpy.ma,
    # subprocess and concurrent.futures only where importing the CLI already
    # does (numpy 1.24 imports numpy.ma itself): each costs milliseconds of
    # start-up in every command.
    import os
    import subprocess
    import sys

    importlib.import_module("listcom.kernel").load()
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import json, os, sys\n"
        "if hasattr(os, 'sched_setaffinity'):\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from listcom.cli import main\n"
        "names = ('numpy.ma', 'subprocess', 'concurrent.futures')\n"
        "loaded = [[name for name in names if name in sys.modules]]\n"
        "assert main(sys.argv[1:]) == 0\n"
        "loaded.append([name for name in names if name in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    argv = ["pipeline", "--memberships", str(corpus_files["memberships"]),
            "--lists", str(corpus_files["lists"]),
            "--groundtruth", str(corpus_files["groundtruth"]),
            "--out", str(tmp_path / "out"), "--runs", "6"]
    result = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                            capture_output=True, text=True, cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    cli_alone, after_run = json.loads(result.stdout)
    assert after_run == cli_alone
