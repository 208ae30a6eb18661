"""End-to-end orchestration with file-based stages.

Stages communicate through artifacts in the output directory, so any prefix
of the pipeline can be resumed from disk with an identical final result,
and a one-shot run equals running the stages one by one.  A one-shot run
reads back no artifact it writes: each stage returns what it built, which
equals a reload of its artifact, and :func:`run_pipeline` hands that to
the stages that read the artifact.  The graph and the matrix are built
with the weights and scores their files hold, so each is made once and
its writer only writes; the cover goes to the stability, label and
members stages; the corrected stability scores at full precision (the last
column of stability.tsv) and the label terms go to the members stage; and
the user communities with their weights as written go to the evaluate
stage.  A stage run alone reads the same objects from the files.  Artifact
filenames are fixed:

    graph.tsv, graph.nodes, consensus.tsv, communities.json,
    stability.tsv, labels.json, users.json, eval.tsv

Configuration merges three layers with increasing precedence: built-in
defaults, a flat ``key = value`` config file, then explicit flags.
:class:`PipelineConfig` is the one config type.  It declares every default
and checks every value, a stopword path that names no file included, so a bad
setting fails before any stage runs.  Its fields are the config file's keys
and, with ``-`` for ``_``, the command line's flags, whose help text each
field carries.  A key given twice in the file is a parse error.  A layer
function takes only the values it uses: ``build_list_graph`` takes rho,
labelling the stopwords and top_k, and members mu.  The ensemble and the
thorough pass take the whole config and build each detection's
:class:`~listcom.detect.DetectorConfig` from it.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import consensus as cons
from . import corpus as corp
from . import labeling as lab
from . import listgraph as lg
from . import members as memb
from . import stability as stab
from .detect import Cover, load_communities, save_communities
from .errors import ParseError, StageError, ValidationError

ARTIFACTS = {
    "graph": "graph.tsv",
    "nodes": "graph.nodes",
    "consensus": "consensus.tsv",
    "communities": "communities.json",
    "stability": "stability.tsv",
    "labels": "labels.json",
    "users": "users.json",
    "eval": "eval.tsv",
}


def _setting(default, help_text):
    """A field of :class:`PipelineConfig`; ``help_text`` is its flag's help."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run, each with its default and its check; the
    config file's keys and the command line's config flags are these
    fields."""

    rho: float = _setting(6.0, "minimum edge significance weight")
    runs: int = _setting(100, "number of base detection runs")
    tau: float = _setting(0.2, "consensus matrix threshold")
    mu: float = _setting(0.1, "membership weight threshold")
    master_seed: int = _setting(0, "seed all randomness derives from")
    top_k: int = _setting(3, "labels per community")
    fast_iterations: int = _setting(5, "propagation iterations for base runs")
    thorough_iterations: int = _setting(50, "propagation iterations for the final pass")
    overlap_threshold: float = _setting(0.3, "label retention threshold in (0,1)")
    stopwords: str | None = _setting(None, "stopword file overriding the built-in list")

    def __post_init__(self):
        if not (self.rho >= 0.0):
            raise ValidationError("rho must be >= 0")
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        if not (0.0 <= self.tau <= 1.0):
            raise ValidationError("tau must be in [0, 1]")
        if not (0.0 <= self.mu <= 1.0):
            raise ValidationError("mu must be in [0, 1]")
        if self.top_k < 1:
            raise ValidationError("top_k must be >= 1")
        if self.fast_iterations < 1 or self.thorough_iterations < 1:
            raise ValidationError("iteration counts must be >= 1")
        if not (0.0 < self.overlap_threshold < 1.0):
            raise ValidationError("overlap_threshold must be in (0, 1)")
        if self.stopwords and not Path(self.stopwords).is_file():
            raise ValidationError(f"stopwords file {self.stopwords!r} not found")


def config_type(setting) -> type:
    """The type that parses the values of a :class:`PipelineConfig` field
    from text: its annotation, with ``str | None`` read as ``str``."""
    return {"int": int, "float": float}.get(setting.type, str)


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines, read by :func:`~listcom.corpus.read_lines`;
    blank lines and ``#`` comments allowed.  A key given twice raises
    :class:`ParseError` at its second line."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(corp.read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ParseError(f"{path}:{lineno}: config key {key!r} given twice")
        values[key] = value.strip()
    return values


def resolve_config(flag_values: dict[str, object] | None = None,
                   config_path=None) -> PipelineConfig:
    """Merge defaults < config file < flags into a validated PipelineConfig."""
    settings = {f.name: f for f in fields(PipelineConfig)}
    merged: dict[str, object] = {}
    if config_path is not None:
        for key, raw in parse_config_file(config_path).items():
            if key not in settings:
                raise ValidationError(f"unknown config key {key!r}")
            try:
                merged[key] = config_type(settings[key])(raw)
            except ValueError as exc:
                raise ValidationError(f"config key {key!r}: bad value {raw!r}") from exc
    for key, value in (flag_values or {}).items():
        if value is None:
            continue
        if key not in settings:
            raise ValidationError(f"unknown config key {key!r}")
        merged[key] = value
    return PipelineConfig(**merged)


def _artifact(out_dir, name) -> Path:
    return Path(out_dir) / ARTIFACTS[name]


def _require(out_dir, name) -> Path:
    path = _artifact(out_dir, name)
    if not path.exists():
        raise ValidationError(
            f"missing artifact {path}; run the producing stage first")
    return path


def stage_build_graph(memberships_path, lists_path, out_dir,
                      config: PipelineConfig, corpus=None) -> lg.ListGraph:
    """Returns the graph as graph.tsv and graph.nodes hold it."""
    if corpus is None:
        corpus = corp.load_corpus(memberships_path, lists_path)
    graph = lg.build_list_graph(corpus, config.rho)
    lg.save_graph(graph, _artifact(out_dir, "graph"), _artifact(out_dir, "nodes"))
    return graph


def stage_ensemble(out_dir, config: PipelineConfig,
                   graph=None) -> cons.ConsensusMatrix:
    """``graph`` is graph.tsv as :func:`listgraph.load_graph` reads it; it is
    parsed here when not given.  Returns the matrix as consensus.tsv holds
    it."""
    if graph is None:
        graph = lg.load_graph(_require(out_dir, "graph"), _require(out_dir, "nodes"))
    matrix = cons.run_ensemble(graph, config)
    cons.save_matrix(matrix, _artifact(out_dir, "consensus"))
    return matrix


def stage_consensus(out_dir, config: PipelineConfig, matrix=None) -> Cover:
    """``matrix`` is consensus.tsv as parsed by :func:`_load_matrix`; it is
    parsed here when not given, which requires graph.nodes.  Returns the
    cover that communities.json holds, over the matrix order."""
    if matrix is None:
        matrix = _load_matrix(out_dir)
    cover = cons.consensus_communities(matrix, config)
    save_communities(cover, _artifact(out_dir, "communities"))
    return cover


def _load_matrix(out_dir) -> cons.ConsensusMatrix:
    """consensus.tsv over the order of graph.nodes, which keeps the lists
    that have no matrix entry; both files are required."""
    order = lg.load_nodes(_require(out_dir, "nodes"))
    return cons.load_matrix(_require(out_dir, "consensus"), order)


def stage_stability(out_dir, config: PipelineConfig, matrix=None,
                    cover=None) -> dict[int, float]:
    """``matrix`` is consensus.tsv as parsed by :func:`_load_matrix`, and
    ``cover`` communities.json over its order; each is read here when not
    given.  Returns the corrected stability by community id, as the last
    column of stability.tsv holds it."""
    if matrix is None:
        matrix = _load_matrix(out_dir)
    if cover is None:
        cover = load_communities(_require(out_dir, "communities"), matrix.order)
    ranked = stab.rank_communities(cover, matrix)
    stab.write_ranking(ranked, cover, _artifact(out_dir, "stability"))
    return {k: score.corrected for k, score in ranked}


def _cover(out_dir, cover) -> Cover:
    """``cover``, or communities.json when it is not given."""
    return load_communities(_require(out_dir, "communities")) if cover is None else cover


def stage_label(memberships_path, lists_path, out_dir,
                config: PipelineConfig, corpus=None, cover=None) -> dict[int, list[str]]:
    """Returns each community's label terms, as labels.json holds them."""
    if corpus is None:
        corpus = corp.load_corpus(memberships_path, lists_path)
    cover = _cover(out_dir, cover)
    stopwords = (lab.load_stopwords(config.stopwords) if config.stopwords
                 else lab.default_stopwords())
    vectors = lab.build_vectors(corpus, stopwords)
    background = lab.Background(lab.background_vector(vectors))
    labels = {
        cid: lab.label_community(community, vectors, config.top_k,
                                 background=background)
        for cid, community in enumerate(cover.id_lists())
    }
    lab.write_labels(labels, _artifact(out_dir, "labels"))
    return {cid: [term for term, _ in pairs] for cid, pairs in labels.items()}


def _read_stability(out_dir) -> dict[int, float]:
    """Corrected stability by community id, at the full precision of the
    last column."""
    path = _artifact(out_dir, "stability")
    scores: dict[int, float] = {}
    if path.exists():
        for line in corp.read_lines(path):
            fields_ = line.split("\t")
            if len(fields_) < 7:
                raise ValidationError(f"{path}: no full-precision stability "
                                      "column; rerun the stability stage")
            scores[int(fields_[5])] = float(fields_[6])
    return scores


def stage_members(memberships_path, lists_path, out_dir,
                  config: PipelineConfig, corpus=None, cover=None,
                  stability=None, labels=None) -> memb.UserCommunities:
    """``stability`` and ``labels`` are what :func:`stage_stability` and
    :func:`stage_label` return; each is read here when not given, and is
    empty when its artifact is missing.  Returns the user communities as
    users.json holds them."""
    if corpus is None:
        corpus = corp.load_corpus(memberships_path, lists_path)
    communities = memb.derive_members(_cover(out_dir, cover), corpus, config.mu)
    if labels is None:
        labels_path = _artifact(out_dir, "labels")
        labels = lab.load_labels(labels_path) if labels_path.exists() else {}
    if stability is None:
        stability = _read_stability(out_dir)
    return memb.write_users(communities, _artifact(out_dir, "users"),
                            stability_by_id=stability, labels_by_id=labels)


def stage_evaluate(groundtruth_path, out_dir, config: PipelineConfig,
                   core_path=None, users=None) -> None:
    """``users`` is what :func:`stage_members` returns; users.json is read
    when it is not given.  The core file holds one user id per line, read
    by :func:`~listcom.corpus.read_lines`."""
    truth = corp.load_ground_truth(groundtruth_path)
    if users is None:
        users = memb.load_users(_require(out_dir, "users"))
    if core_path is not None:
        core = frozenset(line.strip() for line in corp.read_lines(core_path)
                         if line.strip())
    else:
        core = frozenset().union(*truth.categories.values()) if truth.categories else frozenset()
    rows = memb.evaluate(users, truth, core)
    memb.write_eval(rows, truth, _artifact(out_dir, "eval"))


@contextmanager
def _stage(name):
    """Report a failure inside the block as a :class:`StageError` of the
    stage ``name``."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(
    memberships_path,
    lists_path,
    out_dir,
    config: PipelineConfig,
    groundtruth_path=None,
    core_path=None,
) -> dict[str, Path]:
    """Run every stage in order; artifacts from completed stages survive a
    failure, which is reported with the failing stage's name.  The corpus
    is parsed once, inside build-graph; each stage's result is handed on
    as the stage returns it, and no artifact is read back."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("build-graph"):
        corpus = corp.load_corpus(memberships_path, lists_path)
        graph = stage_build_graph(memberships_path, lists_path, out, config,
                                  corpus=corpus)
    with _stage("ensemble"):
        matrix = stage_ensemble(out, config, graph=graph)
    del graph  # read by no later stage; freed before the thorough pass
    with _stage("consensus"):
        cover = stage_consensus(out, config, matrix=matrix)
    with _stage("stability"):
        stability = stage_stability(out, config, matrix=matrix, cover=cover)
    del matrix  # read by no later stage
    with _stage("label"):
        labels = stage_label(memberships_path, lists_path, out, config,
                             corpus=corpus, cover=cover)
    with _stage("members"):
        users = stage_members(memberships_path, lists_path, out, config,
                              corpus=corpus, cover=cover, stability=stability,
                              labels=labels)
    if groundtruth_path is not None:
        with _stage("evaluate"):
            stage_evaluate(groundtruth_path, out, config, core_path, users=users)
    produced = {name: _artifact(out, name) for name in ARTIFACTS}
    if groundtruth_path is None:
        produced.pop("eval")
    return {name: path for name, path in produced.items() if path.exists()}
