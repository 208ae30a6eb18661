import pytest

from listcom.corpus import load_corpus, load_ground_truth
from listcom.errors import ValidationError
from listcom.synth import PlantedSpec, synth, synth_files
from reference import id_sets, same_corpus


def small_spec(**overrides):
    base = dict(groups=3, users_per_group=12, lists_per_group=8,
                size_min=4, size_max=8, noise=0.1, overlap=0.2)
    base.update(overrides)
    return PlantedSpec(**base)


def test_shapes_and_counts():
    spec = small_spec()
    corpus, truth = synth(spec, 1)
    assert len(corpus.lists) == 3 * 8
    assert len(truth.categories) == 3
    for members in id_sets(corpus)[0].values():
        assert 4 <= len(members) <= 8


def test_determinism():
    spec = small_spec()
    (corpus, truth), (again, again_truth) = synth(spec, 5), synth(spec, 5)
    assert same_corpus(corpus, again) and truth == again_truth
    other, other_truth = synth(spec, 6)
    assert not (same_corpus(corpus, other) and truth == other_truth)


def test_zero_noise_zero_overlap_group_separation():
    spec = small_spec(noise=0.0, overlap=0.0)
    corpus, truth = synth(spec, 2)
    group_of = {}
    for cat, users in truth.categories.items():
        for u in users:
            group_of[u] = cat
    # within a group lists overlap heavily; across groups not at all
    memberships, _ = id_sets(corpus)
    lists = sorted(memberships)
    for a in lists:
        for b in lists:
            if a >= b:
                continue
            shared = memberships[a] & memberships[b]
            same_group = a[:3] == b[:3]
            if not same_group:
                assert not shared
    intra = [
        len(memberships[a] & memberships[b])
        for a in lists for b in lists
        if a < b and a[:3] == b[:3]
    ]
    assert sum(intra) / len(intra) >= 2.0


def test_overlap_fraction_two_group_users():
    spec = small_spec(noise=0.0, overlap=0.25)
    corpus, truth = synth(spec, 3)
    counts = {}
    for users in truth.categories.values():
        for u in users:
            counts[u] = counts.get(u, 0) + 1
    two_group = sum(1 for v in counts.values() if v == 2)
    assert two_group == round(0.25 * 3 * 12)


def test_noise_members_are_bystanders_outside_groups():
    spec = small_spec(noise=0.3, overlap=0.0)
    corpus, truth = synth(spec, 4)
    planted = frozenset().union(*truth.categories.values())
    _, user_index = id_sets(corpus)
    outsiders = set(user_index) - planted
    assert outsiders  # noise introduced co-listed bystanders
    for u in outsiders:
        assert len(user_index[u]) == 1  # each bystander listed once
    assert corpus.n > len(planted)


def test_infeasible_spec_rejected():
    with pytest.raises(ValidationError):
        small_spec(size_max=13)  # exceeds users_per_group=12
    with pytest.raises(ValidationError):
        small_spec(size_min=0)
    with pytest.raises(ValidationError):
        small_spec(noise=1.0)
    with pytest.raises(ValidationError):
        small_spec(overlap=-0.1)


def test_vocab_appears_in_names():
    vocab = (("alpha", "beta"), ("gamma", "delta"), ("epsilon", "zeta"))
    spec = small_spec(vocab=vocab)
    corpus, _ = synth(spec, 5)
    for lid, rec in corpus.lists.items():
        k = int(lid[1:3])
        for word in rec.name.split():
            assert word in vocab[k]


def test_synth_files_round_trip(tmp_path):
    spec = small_spec()
    paths = synth_files(spec, 7, tmp_path)
    corpus = load_corpus(paths["memberships"], paths["lists"])
    truth = load_ground_truth(paths["groundtruth"])
    direct_corpus, direct_truth = synth(spec, 7)
    assert same_corpus(corpus, direct_corpus)
    assert truth == direct_truth
