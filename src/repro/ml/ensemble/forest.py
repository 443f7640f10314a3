"""One-pass prediction for ensembles whose members are all decision trees.

AdaBoost and Bagging over J48 or REPTree hold ten flat trees.  Grading a
batch through each member in turn costs ten descents; a
:class:`~repro.ml.tree.FlatForest` over the same arrays costs one, and a
per-node table turns each member's leaf into its probability row with
one gather.  Any other member type, and any batch too large for one
pass, keeps the per-member path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ml.base import Classifier, pack_members, proba_from_counts
from repro.ml.j48 import J48
from repro.ml.reptree import REPTree
from repro.ml.tree import FlatForest, adopt_derived, derived

_TREE_MEMBERS = (J48, REPTree)
_TREE_KEYS = ("attribute", "threshold", "left", "right", "counts")

#: Most (member, row) pairs graded in one forest pass.  One pass saves
#: per-member loop overhead, which is what small batches pay for; beyond
#: this size its whole-forest index arrays leave the cache and the
#: members descended one by one measured faster (boosted REPTree and
#: bagged J48 at 8,000 and 36,000 rows).  Within one pass the forest
#: picks its own kernel (``repro.ml.tree._MAX_TABLE_WORK``).
_MAX_PASS_PAIRS = 1 << 15


class LeafTables(NamedTuple):
    """A tree ensemble's forest and each node's probability row.

    ``proba[forest.leaves(x)]`` is the members' stacked ``(members, n,
    2)`` probabilities, member-major and C-contiguous: a reduction over
    the member axis runs in member order.  Each row is the member's
    ``proba_from_counts`` of that leaf's counts, so the gather is
    bit-identical to computing it per call.
    """

    forest: FlatForest
    #: ``proba_from_counts`` of every node's class counts, ``(nodes, 2)``.
    proba: np.ndarray


def leaf_tables(ensemble: Classifier, n_rows: int) -> LeafTables | None:
    """The tables to grade ``n_rows`` rows with, or None for the member loop.

    None when some member is not a tree, or when the batch is larger
    than one pass serves well (``_MAX_PASS_PAIRS``).  The tables are
    built from ``ensemble.estimators_`` on first use, kept until a refit
    replaces that list, and adopted over the packed arrays on an
    artifact load (:func:`adopt_packed_forest`).
    """
    tables = derived(ensemble, ensemble.estimators_, _member_tables)
    if n_rows * len(ensemble.estimators_) > _MAX_PASS_PAIRS:
        return None
    return tables


def ensemble_forest(ensemble: Classifier, n_rows: int) -> FlatForest | None:
    """The forest of :func:`leaf_tables`, or None for the member loop.

    Kept for ``tests/ml/test_forest.py``, which pins the one-pass
    dispatch through it; the ensembles call :func:`leaf_tables`.
    """
    tables = leaf_tables(ensemble, n_rows)
    return None if tables is None else tables.forest


def adopt_packed_forest(
    ensemble: Classifier, layouts: list[dict], arrays: dict
) -> None:
    """Cache a loaded ensemble's tables over its packed member arrays."""
    adopt_derived(ensemble, ensemble.estimators_, _tables(_packed_forest(layouts, arrays)))


def _member_tables(members: list[Classifier]) -> LeafTables | None:
    trees = bool(members) and all(isinstance(m, _TREE_MEMBERS) for m in members)
    return _tables(_packed_forest(*pack_members(members))) if trees else None


def _tables(forest: FlatForest | None) -> LeafTables | None:
    if forest is None:
        return None
    return LeafTables(forest, proba_from_counts(forest.counts))


def _packed_forest(layouts: list[dict], arrays: dict) -> FlatForest | None:
    """The forest over an ensemble's packed member arrays, as views.

    :func:`~repro.ml.base.pack_members` concatenates the members'
    ``tree_*`` arrays in member order, so the stacks already are the
    forest's arrays and each member's node count gives its offset —
    nothing is copied, and a memory-mapped payload stays shared.  Call
    after :func:`~repro.ml.base.unpack_members` has validated the layout.
    """
    kinds = {cls.__name__ for cls in _TREE_MEMBERS}
    if not layouts or any(entry["spec"]["kind"] not in kinds for entry in layouts):
        return None
    sizes = [int(entry["layout"]["tree_attribute"][0]) for entry in layouts]
    total = sum(sizes)
    attribute, threshold, left, right, counts = (
        np.asanyarray(arrays[f"member_tree_{key}"]) for key in _TREE_KEYS
    )
    return FlatForest(
        attribute[:total],
        threshold[:total],
        left[:total],
        right[:total],
        counts[: 2 * total].reshape(total, 2),
        offsets=np.cumsum([0] + sizes[:-1]),
    )
