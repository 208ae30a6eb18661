"""Ensemble overlapping community detection over curated-list co-membership data.

Pipeline: significance-weighted list graph -> ensemble of fast stochastic
detections -> consensus matrix -> consensus communities -> stability ranking,
term labels, and weighted user communities, with optional ground-truth
evaluation.
"""

from .corpus import (GroundTruth, ListRecord, MembershipCorpus, load_corpus,
                     load_ground_truth, save_corpus)
from .detect import Cover, DetectorConfig, detect, filter_singletons
from .consensus import (ConsensusMatrix, accumulate, consensus_communities,
                        consensus_graph, cover_agreement, label_jaccard,
                        run_ensemble)
from .errors import ParseError, StageError, ValidationError
from .labeling import build_vectors, label_community, tokenize
from .listgraph import ListGraph, build_list_graph, overlap_lpv, overlap_pvalue
from .members import EvalRow, UserCommunities, derive_members, evaluate, f1_score
from .pipeline import PipelineConfig, resolve_config, run_pipeline
from .stability import (StabilityScore, corrected_stability, expected_stability,
                        rank_communities, raw_stabilities, raw_stability)
from .synth import PlantedSpec, synth, synth_files

__all__ = [
    "ConsensusMatrix", "Cover", "DetectorConfig", "EvalRow", "GroundTruth",
    "ListGraph", "ListRecord", "MembershipCorpus",
    "ParseError", "PipelineConfig", "PlantedSpec", "StabilityScore",
    "StageError", "UserCommunities", "ValidationError", "accumulate",
    "build_list_graph", "build_vectors", "consensus_communities",
    "consensus_graph", "corrected_stability", "cover_agreement",
    "derive_members", "detect", "evaluate", "expected_stability", "f1_score",
    "filter_singletons", "label_community", "label_jaccard",
    "load_corpus", "load_ground_truth", "overlap_lpv", "overlap_pvalue",
    "rank_communities", "raw_stabilities", "raw_stability", "resolve_config",
    "run_ensemble", "run_pipeline", "save_corpus", "synth", "synth_files",
    "tokenize",
]
