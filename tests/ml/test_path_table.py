"""The path-table kernel against the level loop it stands in for.

``FlatForest.leaves`` grades a small batch through a per-member signed
path table (``D @ paths == need``) and a large one through the level
loop (``FlatForest.descend``).  Both must land every (member, row) pair
in the same leaf as each member's own ``FlatTree.descend`` — on members
whose root is a leaf, single members and members of unequal depth, on
NaN, ±inf, -0.0 and exact-threshold features, on either side of the
dispatch bound, and for fitted and registry-loaded (memory-mapped)
models, whose probabilities must stay byte-equal to the per-member loop.
Both kernels rely on the preorder layout, so arrays that break it (a
damaged artifact, a cyclic child pointer) must fail to load.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.ml import J48, REPTree, AdaBoostM1, ArtifactError, Bagging
from repro.ml import tree as tree_module
from repro.ml.base import classifier_from_artifact, export_classifier, proba_from_counts
from repro.ml.ensemble.forest import leaf_tables
from repro.ml.tree import FlatForest, FlatTree, _PathTable, derived, grow_tree
from repro.registry import ModelRegistry

KEYS = ("attribute", "threshold", "left", "right", "counts")


def _tree(seed: int, n_cols: int, max_depth: int) -> FlatTree:
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(2, 150))
    features = rng.normal(size=(n_rows, n_cols)).round(1)
    features[rng.random(features.shape) < 0.1] = -0.0
    labels = (rng.random(n_rows) < 0.5).astype(np.intp)
    root = grow_tree(features, labels, np.ones(n_rows), 1.0,
                     use_gain_ratio=seed % 2 == 0, max_depth=max_depth)
    return FlatTree(root)


def _forest(trees: list[FlatTree]) -> FlatForest:
    sizes = [tree.n_nodes for tree in trees]
    return FlatForest(
        *(np.concatenate([getattr(tree, key) for tree in trees]) for key in KEYS),
        offsets=np.cumsum([0] + sizes[:-1]),
    )


def _queries(trees: list[FlatTree], n_rows: int, n_cols: int, seed: int) -> np.ndarray:
    """Rows mixing normals, exact thresholds, NaN, ±inf and signed zeros."""
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(n_rows, n_cols)).round(1)
    thresholds = np.concatenate([t.threshold[t.attribute >= 0] for t in trees])
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    pool = np.concatenate([thresholds, specials])
    pick = rng.random(queries.shape) < 0.5
    queries[pick] = rng.choice(pool, size=int(pick.sum()))
    return queries


def _each_tree(trees: list[FlatTree], forest: FlatForest, queries: np.ndarray) -> np.ndarray:
    """Every member's own level loop, as forest indices."""
    return np.stack([t.descend(queries) for t in trees]) + forest.offsets[:, None]


class _Kernels:
    """Counts the calls each kernel serves, inside a ``with`` block."""

    def __enter__(self):
        self.table = self.loop = 0
        self._patch = pytest.MonkeyPatch()
        table_leaves, loop_leaves = _PathTable.leaves, FlatForest.descend

        def table(table_self, features):
            self.table += 1
            return table_leaves(table_self, features)

        def loop(forest_self, features):
            self.loop += 1
            return loop_leaves(forest_self, features)

        self._patch.setattr(_PathTable, "leaves", table)
        self._patch.setattr(FlatForest, "descend", loop)
        return self

    def __exit__(self, *exc):
        self._patch.undo()


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=7),
    depths=st.lists(st.sampled_from([-1, 0, 1, 2, 4]), min_size=7, max_size=7),
    n_cols=st.integers(1, 5),
    n_rows=st.sampled_from([0, 1, 2, 7, 19, 64]),
)
def test_table_and_loop_match_each_tree(seeds, depths, n_cols, n_rows):
    trees = [_tree(seed, n_cols, depth) for seed, depth in zip(seeds, depths)]
    forest = _forest(trees)
    queries = _queries(trees, n_rows, n_cols, sum(seeds))
    want = _each_tree(trees, forest, queries)
    assert _PathTable(forest).leaves(queries).tobytes() == want.tobytes()
    assert forest.descend(queries).tobytes() == want.tobytes()
    assert forest.leaves(queries).tobytes() == want.tobytes()
    assert forest.leaf_counts(queries).tobytes() == forest.counts[want].tobytes()


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
       extra=st.integers(1, 40))
def test_dispatch_bound_splits_the_kernels(seeds, extra):
    trees = [_tree(seed, 3, -1) for seed in seeds]
    forest = _forest(trees)
    cells = forest._cells
    bound_rows = 8
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_MAX_TABLE_WORK", bound_rows * cells)
        for n_rows, table_calls in ((0, 1), (1, 1), (bound_rows, 1), (bound_rows + extra, 0)):
            queries = _queries(trees, n_rows, 3, n_rows + extra)
            with _Kernels() as used:
                got = forest.leaves(queries)
            assert (used.table, used.loop) == (table_calls, 1 - table_calls)
            assert got.tobytes() == _each_tree(trees, forest, queries).tobytes()


def test_table_size_cap_keeps_the_loop(monkeypatch):
    trees = [_tree(seed, 3, -1) for seed in (1, 2, 3)]
    forest = _forest(trees)
    monkeypatch.setattr(tree_module, "_MAX_TABLE_CELLS", forest._cells - 1)
    queries = _queries(trees, 12, 3, 5)
    for _ in range(2):
        with _Kernels() as used:
            got = forest.leaves(queries)
    assert forest._table is None
    assert (used.table, used.loop) == (0, 1)
    assert got.tobytes() == _each_tree(trees, forest, queries).tobytes()


def test_leaf_roots_and_lone_leaf():
    leaf = FlatTree(grow_tree(np.zeros((4, 2)), np.array([0, 1, 1, 1]), np.ones(4), 2.0, False))
    deep = _tree(11, 2, -1)
    assert leaf.n_nodes == 1 and deep.n_nodes > 3
    for trees in ([leaf], [leaf, leaf], [leaf, deep, leaf], [deep, leaf]):
        forest = _forest(trees)
        queries = _queries(trees, 9, 2, 3)
        want = _each_tree(trees, forest, queries)
        assert _PathTable(forest).leaves(queries).tobytes() == want.tobytes()
        assert forest.leaves(queries).tobytes() == want.tobytes()


# ------------------------------------------------------------------ layout
def _relabelled(tree: FlatTree) -> dict[str, np.ndarray]:
    """The tree with every node but the root numbered in reverse: still
    one tree, but not in preorder."""
    n = tree.n_nodes
    order = np.concatenate([[0], np.arange(n - 1, 0, -1)])
    new_of = np.empty(n, dtype=np.intp)
    new_of[order] = np.arange(n)
    internal = tree.attribute[order] >= 0
    return {
        "attribute": tree.attribute[order],
        "threshold": tree.threshold[order],
        "left": np.where(internal, new_of[tree.left[order]], -1),
        "right": np.where(internal, new_of[tree.right[order]], -1),
        "counts": tree.counts[order],
    }


def _arrays(tree: FlatTree, **changes) -> dict[str, np.ndarray]:
    arrays = {key: getattr(tree, key).copy() for key in KEYS}
    for key, (at, value) in changes.items():
        arrays[key][at] = value
    return arrays


def test_loader_rejects_arrays_that_are_not_a_preorder_tree():
    tree = _tree(7, 3, -1)
    n = tree.n_nodes
    assert n > 4
    inner = np.flatnonzero(tree.attribute >= 0)
    broken = {
        "not preorder": _relabelled(tree),
        "cycle": _arrays(tree, left=(0, 0)),
        "back edge": _arrays(tree, right=(inner[-1], 0)),
        "shared child": _arrays(tree, right=(0, 1)),
        "left skips": _arrays(tree, left=(0, 2)),
        "right skips": _arrays(tree, right=(0, tree.right[0] + 1)),
        "past the end": _arrays(tree, right=(inner[-1], n)),
        "stray node": {key: np.concatenate([getattr(tree, key), getattr(tree, key)[-1:]])
                       for key in KEYS},
    }
    for name, arrays in broken.items():
        with pytest.raises(ValueError, match="preorder"):
            FlatTree.from_arrays(*(arrays[key] for key in KEYS))
    loaded = FlatTree.from_arrays(*(getattr(tree, key) for key in KEYS))
    queries = _queries([tree], 15, 3, 1)
    assert loaded.descend(queries).tobytes() == tree.descend(queries).tobytes()


@pytest.mark.parametrize("make", [lambda: REPTree(seed=1), lambda: Bagging(J48(), 3, seed=2)])
def test_loading_a_cyclic_artifact_raises(make):
    rng = np.random.default_rng(8)
    features = rng.normal(size=(200, 3))
    labels = (features[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(np.intp)
    spec, arrays = export_classifier(make().fit(features, labels))
    key = next(k for k in arrays if k.endswith("tree_left"))
    arrays[key] = arrays[key].copy()
    arrays[key][0] = 0  # the root is its own left child
    with pytest.raises(ArtifactError, match="preorder"):
        classifier_from_artifact(spec, arrays)


# ------------------------------------------------ fitted and loaded models
ENSEMBLES = {
    "general": lambda base: base,
    "boosted": lambda base: AdaBoostM1(base, n_estimators=6, seed=3),
    "bagging": lambda base: Bagging(base, n_estimators=6, seed=4),
}
BASES = {"J48": J48, "REPTree": lambda: REPTree(seed=2)}


def _tree_loop_proba(model, features):
    """Each member through its own ``FlatTree`` level loop, reduced as the
    per-member ensemble loop reduces it."""
    if not hasattr(model, "estimators_"):
        return proba_from_counts(model._flat.leaf_counts(features))
    probas = [proba_from_counts(m._flat.leaf_counts(features)) for m in model.estimators_]
    if isinstance(model, AdaBoostM1):
        stacked = np.stack([(p[:, 1] >= 0.5).astype(np.intp) for p in probas])
        alphas = np.asarray(model.estimator_weights_)[:, None]
        votes = np.stack(
            [(alphas * (stacked == 0)).sum(axis=0), (alphas * (stacked == 1)).sum(axis=0)],
            axis=1,
        )
        total = votes.sum(axis=1, keepdims=True)
        return votes / np.where(total > 0, total, 1.0)
    return np.stack(probas).sum(axis=0) / len(model.estimators_)


def _model_forest(model) -> FlatForest:
    if hasattr(model, "estimators_"):
        return leaf_tables(model, 1).forest
    return derived(model, model._flat, FlatTree.forest)


def _assert_table_matches_loop(model, rows):
    for batch in (rows, rows[:1], rows[:0]):
        with _Kernels() as used:
            got = model.predict_proba(batch)
        assert used.table == 1 and used.loop == 0
        assert got.tobytes() == _tree_loop_proba(model, batch).tobytes()
    assert isinstance(_model_forest(model)._table, _PathTable)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_fitted_and_mapped_models_match_the_member_loop(base, ensemble, small_split, tmp_path):
    detector = HMDDetector(DetectorConfig(base, ensemble, 4)).fit(small_split.train)
    names = small_split.test.feature_names
    rows = small_split.test.features[:20, [names.index(e) for e in detector.monitored_events]]
    _assert_table_matches_loop(detector.model, rows)
    registry = ModelRegistry(tmp_path)
    loaded = registry.load_detector(registry.save_detector(detector).model_id, mmap=True)
    forest = _model_forest(loaded.model)
    assert all(isinstance(getattr(forest, key), np.memmap) for key in KEYS)
    _assert_table_matches_loop(loaded.model, rows)
    want = detector.model.predict_proba(rows)
    assert loaded.model.predict_proba(rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_random_data_models_match_the_member_loop(base, ensemble):
    rng = np.random.default_rng(15)
    features = rng.normal(size=(240, 4)).round(2)
    labels = (features[:, 0] - 0.5 * features[:, 2] + rng.normal(scale=0.7, size=240) > 0)
    model = ENSEMBLES[ensemble](BASES[base]()).fit(features, labels.astype(np.intp))
    queries = np.vstack([features[:30], rng.normal(size=(30, 4))])
    _assert_table_matches_loop(model, queries)


def test_refit_lone_tree_grades_its_new_tree():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(120, 3))
    labels = (features[:, 0] > 0).astype(np.intp)
    model = REPTree(seed=1).fit(features, labels)
    first = _model_forest(model)
    model.predict_proba(features[:5])
    flipped = 1 - labels
    model.fit(features, flipped)
    assert _model_forest(model) is not first
    fresh = REPTree(seed=1).fit(features, flipped)
    got = model.predict_proba(features[:9])
    assert got.tobytes() == fresh.predict_proba(features[:9]).tobytes()
