"""One-pass prediction for ensembles whose members are all decision trees.

AdaBoost and Bagging over J48 or REPTree hold ten flat trees.  Grading a
batch through each member in turn costs ten descent loops; a
:class:`~repro.ml.tree.FlatForest` over the same arrays costs one.  Any
other member type, and any batch too large for one pass, keeps the
per-member path.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.ml.base import Classifier, pack_members
from repro.ml.j48 import J48
from repro.ml.reptree import REPTree
from repro.ml.tree import FlatForest

_TREE_MEMBERS = (J48, REPTree)
_TREE_KEYS = ("attribute", "threshold", "left", "right", "counts")

#: Most (member, row) pairs graded in one forest pass.  One pass saves
#: per-member loop overhead, which is what small batches pay for; beyond
#: this size its whole-forest index arrays leave the cache and the
#: members descended one by one measured faster (boosted REPTree and
#: bagged J48 at 8,000 and 36,000 rows).
_MAX_PASS_PAIRS = 1 << 15

# Per-ensemble forests live beside the ensemble rather than on it: the
# forest is a derived view of the members, and ``vars(model)`` stays the
# fitted state alone (the golden fit digests hash exactly that).
_FORESTS: "weakref.WeakKeyDictionary[Classifier, FlatForest | None]" = (
    weakref.WeakKeyDictionary()
)


def ensemble_forest(ensemble: Classifier, n_rows: int) -> FlatForest | None:
    """The forest to grade ``n_rows`` rows with, or None for the member loop.

    None when some member is not a tree, or when the batch is larger
    than one pass serves well (``_MAX_PASS_PAIRS``).  The forest is built
    from ``ensemble.estimators_`` on first use and cached until
    :func:`forget_forest` (a refit) or :func:`adopt_packed_forest` (an
    artifact load) replaces it.
    """
    if ensemble not in _FORESTS:
        members = ensemble.estimators_
        trees = bool(members) and all(isinstance(m, _TREE_MEMBERS) for m in members)
        _FORESTS[ensemble] = _packed_forest(*pack_members(members)) if trees else None
    if n_rows * len(ensemble.estimators_) > _MAX_PASS_PAIRS:
        return None
    return _FORESTS[ensemble]


def forget_forest(ensemble: Classifier) -> None:
    """Drop a cached forest whose members were just refitted."""
    _FORESTS.pop(ensemble, None)


def adopt_packed_forest(
    ensemble: Classifier, layouts: list[dict], arrays: dict
) -> None:
    """Cache a loaded ensemble's forest over its packed member arrays."""
    _FORESTS[ensemble] = _packed_forest(layouts, arrays)


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
