"""Golden bundles: two committed ``listcom synth`` corpora, the sha256 of the
corpus ``synth`` writes for each spec, and the sha256 of all 8 artifacts of
a one-shot run and of the stages run one by one, all pinned in
``data/golden.json``.  A drift in ``synth`` then shows apart from a drift in
the pipeline.

A change that alters an output on purpose regenerates the table, from the
root of a source checkout:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from listcom.cli import main
from listcom.pipeline import ARTIFACTS

DATA = Path(__file__).resolve().parent / "data"
TABLE = DATA / "golden.json"
INPUTS = ("memberships.tsv", "lists.jsonl", "groundtruth.tsv")
# The synth spec and pipeline flags of each corpus: desk's bench workload,
# and a small one with overlapping groups.
CORPORA = {
    "desk": {
        "synth": {"groups": 8, "users-per-group": 25, "lists-per-group": 40,
                  "size-min": 5, "size-max": 15, "noise": 0.1, "overlap": 0.1,
                  "seed": 1},
        "config": {"rho": 6.0, "runs": 100, "tau": 0.2, "mu": 0.1, "master-seed": 1},
    },
    "overlap": {
        "synth": {"groups": 12, "users-per-group": 20, "lists-per-group": 12,
                  "size-min": 5, "size-max": 12, "noise": 0.3, "overlap": 0.4,
                  "seed": 1},
        "config": {"rho": 3.0, "runs": 20, "tau": 0.2, "mu": 0.1, "master-seed": 1},
    },
}


def flags(values):
    return [arg for key, value in values.items() for arg in (f"--{key}", str(value))]


def hashes(folder, names):
    return {name: hashlib.sha256((Path(folder) / name).read_bytes()).hexdigest()
            for name in names}


def synth_hashes(name, out):
    assert main(["synth", "--out", str(out), *flags(CORPORA[name]["synth"])]) == 0
    return hashes(out, INPUTS)


def bundle_hashes(name, out, one_shot):
    """The artifacts' sha256 of the committed corpus ``name``, run one-shot
    or stage by stage into ``out``."""
    data = DATA / "golden" / name
    config = flags(CORPORA[name]["config"])
    corpus = ["--memberships", str(data / "memberships.tsv"),
              "--lists", str(data / "lists.jsonl")]
    truth = ["--groundtruth", str(data / "groundtruth.tsv")]
    where = ["--out", str(out)]
    if one_shot:
        commands = [["pipeline", *corpus, *truth]]
    else:
        commands = [["build-graph", *corpus], ["ensemble"], ["consensus"], ["stability"],
                    ["label", *corpus], ["members", *corpus], ["evaluate", *truth]]
    for command in commands:
        assert main([*command, *where, *config]) == 0, command
    return hashes(out, ARTIFACTS.values())


@pytest.mark.parametrize("name", CORPORA)
def test_synth_writes_the_golden_corpus(tmp_path, name):
    want = json.loads(TABLE.read_text("utf-8"))[name]["inputs"]
    assert hashes(DATA / "golden" / name, INPUTS) == want
    assert synth_hashes(name, tmp_path / "synth") == want


@pytest.mark.parametrize("one_shot", [True, False], ids=["one-shot", "stages"])
@pytest.mark.parametrize("name", CORPORA)
def test_the_pipeline_writes_the_golden_bundle(tmp_path, name, one_shot):
    want = json.loads(TABLE.read_text("utf-8"))[name]["artifacts"]
    assert bundle_hashes(name, tmp_path / "out", one_shot) == want


if __name__ == "__main__":
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CORPORA:
            inputs = synth_hashes(name, Path(tmp) / name / "synth")
            folder = DATA / "golden" / name
            folder.mkdir(parents=True, exist_ok=True)
            for file in INPUTS:
                shutil.copyfile(Path(tmp) / name / "synth" / file, folder / file)
            artifacts = bundle_hashes(name, Path(tmp) / name / "out", True)
            if bundle_hashes(name, Path(tmp) / name / "stages", False) != artifacts:
                sys.exit(f"{name}: the stages and the one-shot run differ")
            table[name] = {"inputs": inputs, "artifacts": artifacts}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
