"""One-pass forest descent against the per-member loop it replaces.

AdaBoost and Bagging over J48 or REPTree grade a batch through a
``FlatForest`` (every member in one descent) instead of one
``FlatTree.descend`` per member.  The probabilities must be byte-equal
to the per-member loop, for fitted and for registry-loaded (memory
mapped) models, on single-row and empty batches, with members whose
root is a leaf, and for a boosted ensemble that stopped after one round;
batches too large for one pass keep the per-member loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.ml import J48, REPTree, AdaBoostM1, Bagging, OneR
from repro.ml.base import classifier_from_artifact, export_classifier
from repro.ml.ensemble import forest as forest_module
from repro.ml.ensemble.forest import ensemble_forest
from repro.ml.tree import FlatForest, FlatTree, grow_tree
from repro.registry import ModelRegistry

ENSEMBLES = {
    "boosted": lambda base: AdaBoostM1(base, n_estimators=6, seed=3),
    "bagging": lambda base: Bagging(base, n_estimators=6, seed=4),
}
BASES = {"J48": J48, "REPTree": lambda: REPTree(seed=2)}


def member_loop_proba(model, features):
    """The per-member stacked loop (the pre-forest ensemble kernel)."""
    features = np.asarray(features, dtype=float)
    if isinstance(model, AdaBoostM1):
        stacked = np.stack([m.predict(features) for m in model.estimators_])
        alphas = np.asarray(model.estimator_weights_)[:, None]
        votes = np.stack(
            [(alphas * (stacked == 0)).sum(axis=0), (alphas * (stacked == 1)).sum(axis=0)],
            axis=1,
        )
        total = votes.sum(axis=1, keepdims=True)
        return votes / np.where(total > 0, total, 1.0)
    stacked = np.stack([m.predict_proba(features) for m in model.estimators_])
    return stacked.sum(axis=0) / len(model.estimators_)


def assert_forest_matches_loop(model, queries):
    assert ensemble_forest(model, queries.shape[0]) is not None
    for batch in (queries, queries[:1], queries[:0]):
        got = model.predict_proba(batch)
        want = member_loop_proba(model, batch)
        assert got.shape == want.shape == (batch.shape[0], 2)
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(2018)
    features = rng.normal(size=(260, 4)).round(2)  # ties land on thresholds
    labels = (features[:, 0] + 0.7 * features[:, 1] + rng.normal(scale=0.6, size=260) > 0)
    queries = np.vstack([features[:40], rng.normal(size=(80, 4))])
    return features, labels.astype(np.intp), queries


def _roundtrip(model):
    spec, arrays = export_classifier(model)
    return classifier_from_artifact(spec, arrays)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_fitted_and_loaded_forests_match_member_loop(data, base, ensemble):
    features, labels, queries = data
    model = ENSEMBLES[ensemble](BASES[base]()).fit(features, labels)
    assert model.n_models > 1
    assert_forest_matches_loop(model, queries)
    loaded = _roundtrip(model)
    assert_forest_matches_loop(loaded, queries)
    assert loaded.predict_proba(queries).tobytes() == model.predict_proba(queries).tobytes()


def test_members_with_leaf_roots(data):
    _, _, queries = data
    constant = np.zeros((30, 4))  # no split exists: every member is one leaf
    labels = np.array([0, 1] * 15)
    for make in ENSEMBLES.values():
        for base in BASES.values():
            model = make(base()).fit(constant, labels)
            assert all(m._flat.n_nodes == 1 for m in model.estimators_)
            assert_forest_matches_loop(model, queries)
            assert_forest_matches_loop(_roundtrip(model), queries)


def test_one_member_early_stopped_adaboost(data):
    features, _, queries = data
    separable = (features[:, 0] > 0).astype(np.intp)
    for base in BASES.values():
        model = AdaBoostM1(base(), n_estimators=10).fit(features, separable)
        assert model.n_models == 1
        assert_forest_matches_loop(model, queries)
        assert_forest_matches_loop(_roundtrip(model), queries)


def test_non_tree_members_keep_the_member_loop(data):
    features, labels, queries = data
    model = AdaBoostM1(OneR(), n_estimators=4, seed=1).fit(features, labels)
    assert ensemble_forest(model, 1) is None
    assert model.predict_proba(queries).tobytes() == member_loop_proba(model, queries).tobytes()


def test_large_batches_keep_the_member_loop(data, monkeypatch):
    features, labels, queries = data
    model = Bagging(REPTree(seed=2), n_estimators=4, seed=1).fit(features, labels)
    monkeypatch.setattr(forest_module, "_MAX_PASS_PAIRS", 4 * 50)
    assert ensemble_forest(model, 50) is not None
    assert ensemble_forest(model, 51) is None
    for batch in (queries[:50], queries[:51], queries):
        want = member_loop_proba(model, batch)
        assert model.predict_proba(batch).tobytes() == want.tobytes()


def test_refit_replaces_the_cached_forest(data):
    features, labels, queries = data
    model = Bagging(J48(), n_estimators=4, seed=1).fit(features, labels)
    first = ensemble_forest(model, 1)
    model.fit(features[::-1][:150], labels[::-1][:150])
    assert ensemble_forest(model, 1) is not first
    assert_forest_matches_loop(model, queries)


@pytest.mark.parametrize("classifier", ["J48", "REPTree"])
@pytest.mark.parametrize("ensemble", ["boosted", "bagging"])
def test_registry_loaded_forest_descends_the_mapped_payload(
    classifier, ensemble, small_split, tmp_path
):
    detector = HMDDetector(DetectorConfig(classifier, ensemble, 4)).fit(small_split.train)
    registry = ModelRegistry(tmp_path)
    entry = registry.save_detector(detector)
    loaded = registry.load_detector(entry.model_id, mmap=True)
    model = loaded.model
    forest = ensemble_forest(model, 1)
    # no private copy: the forest arrays are views of the mapped stacks
    # the members' own flat trees also view
    for key in ("attribute", "threshold", "left", "right", "counts"):
        stacked = getattr(forest, key)
        assert isinstance(stacked, np.memmap)
        assert all(np.shares_memory(stacked, getattr(m._flat, key)) for m in model.estimators_)
    names = small_split.test.feature_names
    rows = small_split.test.features[:, [names.index(e) for e in loaded.monitored_events]]
    assert_forest_matches_loop(model, rows)
    assert model.predict_proba(rows).tobytes() == detector.model.predict_proba(rows).tobytes()


# ------------------------------------------------------- FlatForest kernel
def _random_tree(seed: int, n_cols: int) -> FlatTree:
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(2, 120))
    features = rng.normal(size=(n_rows, n_cols)).round(1)
    labels = (rng.random(n_rows) < 0.5).astype(np.intp)
    root = grow_tree(features, labels, np.ones(n_rows), 1.0, use_gain_ratio=seed % 2 == 0,
                     max_depth=int(rng.integers(-1, 6)))
    return FlatTree(root)


def _forest_of(trees: list[FlatTree]) -> FlatForest:
    """Lay the trees end to end, as an ensemble's packed artifact does."""
    keys = ("attribute", "threshold", "left", "right", "counts")
    sizes = [tree.n_nodes for tree in trees]
    return FlatForest(
        *(np.concatenate([getattr(tree, key) for tree in trees]) for key in keys),
        offsets=np.cumsum([0] + sizes[:-1]),
    )


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
    n_cols=st.integers(1, 5),
    n_queries=st.integers(0, 40),
)
def test_forest_leaf_counts_match_each_tree(seeds, n_cols, n_queries):
    trees = [_random_tree(seed, n_cols) for seed in seeds]
    rng = np.random.default_rng(sum(seeds))
    thresholds = np.concatenate([t.threshold[~np.isnan(t.threshold)] for t in trees])
    queries = rng.normal(size=(n_queries, n_cols)).round(1)
    if thresholds.size and n_queries:
        queries[::2] = rng.choice(thresholds, size=queries[::2].shape)
    got = _forest_of(trees).leaf_counts(queries)
    want = np.stack([tree.leaf_counts(queries) for tree in trees])
    assert got.shape == (len(trees), n_queries, 2)
    assert got.tobytes() == want.tobytes()
