"""Shared machinery for the decision-tree learners (J48, REPTree).

Both of the paper's tree classifiers are top-down inducers over numeric
attributes with binary threshold splits; they differ in split criterion
(gain ratio vs. information gain) and pruning (C4.5 pessimistic error
vs. reduced-error pruning).  This module provides the node structure,
the vectorized split search and the flat forms they predict with.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import fitmode
from repro.ml.base import check_features, proba_from_counts

_EPS = 1e-12


@dataclass
class TreeNode:
    """One node of a binary decision tree.

    Attributes:
        counts: weighted class counts of the training data reaching the node.
        attribute: split attribute index (internal nodes only).
        threshold: split threshold; left subtree takes ``value <= threshold``.
        left, right: children (internal nodes only).
    """

    counts: np.ndarray
    attribute: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    #: scratch field used by reduced-error pruning (held-out counts).
    prune_counts: np.ndarray = field(default_factory=lambda: np.zeros(2))

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None

    @property
    def majority(self) -> int:
        return int(np.argmax(self.counts))

    def make_leaf(self) -> None:
        """Collapse this node into a leaf."""
        self.attribute = None
        self.threshold = None
        self.left = None
        self.right = None

    # -- structure statistics (used by the hardware cost model) ---------
    def n_nodes(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + self.left.n_nodes() + self.right.n_nodes()

    def n_leaves(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return self.left.n_leaves() + self.right.n_leaves()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())


def entropy(counts: np.ndarray) -> float:
    """Entropy (nats) of a weighted class-count vector."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


@dataclass(frozen=True)
class Split:
    """Result of a split search on one node's data."""

    attribute: int
    threshold: float
    gain: float
    gain_ratio: float


def best_split_for_attribute(
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
) -> tuple[float, float, float] | None:
    """Best binary threshold on one attribute.

    Vectorized sweep: sort once, build cumulative weighted class counts,
    evaluate every distinct-value boundary simultaneously.

    Returns:
        ``(threshold, gain, gain_ratio)`` of the entropy-gain maximizing
        cut, or None when no cut leaves ``min_leaf_weight`` on both sides.
    """
    order = np.argsort(values, kind="stable")
    v, y, w = values[order], labels[order], weights[order]
    boundaries = np.flatnonzero(np.diff(v) > 0)
    if boundaries.size == 0:
        return None
    onehot = np.zeros((len(y), 2))
    onehot[np.arange(len(y)), y] = w
    cum = np.cumsum(onehot, axis=0)
    total_counts = cum[-1]
    total = total_counts.sum()

    left = cum[boundaries]  # (k, 2)
    right = total_counts - left
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    ok = (wl >= min_leaf_weight) & (wr >= min_leaf_weight)
    if not ok.any():
        return None
    left, right, wl, wr = left[ok], right[ok], wl[ok], wr[ok]
    boundaries = boundaries[ok]

    def ent(counts: np.ndarray, mass: np.ndarray) -> np.ndarray:
        p = counts / np.maximum(mass[:, None], _EPS)
        p = np.clip(p, _EPS, 1.0)
        return -(p * np.log(p)).sum(axis=1)

    parent_entropy = entropy(total_counts)
    children = (wl * ent(left, wl) + wr * ent(right, wr)) / total
    gains = parent_entropy - children
    pl, pr = wl / total, wr / total
    split_info = -(pl * np.log(pl) + pr * np.log(pr))
    ratios = gains / np.maximum(split_info, _EPS)

    best = int(np.argmax(gains))
    i = boundaries[best]
    threshold = (v[i] + v[i + 1]) / 2.0
    return threshold, float(gains[best]), float(ratios[best])


def _select_split(candidates: list[Split], use_gain_ratio: bool) -> Split | None:
    """Pick the winning split from per-attribute candidates.

    With ``use_gain_ratio`` (C4.5/J48) the winner is the highest gain
    *ratio* among splits whose raw gain is at least the average positive
    gain — C4.5's guard against the ratio favouring near-trivial splits.
    Otherwise (REPTree) plain information gain decides.

    Shared verbatim by the scalar and batch split searches so that tie
    breaking and the mean-gain reduction order cannot drift between them.
    """
    if not candidates:
        return None
    if not use_gain_ratio:
        return max(candidates, key=lambda s: s.gain)
    mean_gain = sum(s.gain for s in candidates) / len(candidates)
    eligible = [s for s in candidates if s.gain >= mean_gain - _EPS]
    return max(eligible, key=lambda s: s.gain_ratio)


def find_split_scalar(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
    use_gain_ratio: bool,
) -> Split | None:
    """Per-attribute split search (pre-vectorization reference).

    One :func:`best_split_for_attribute` call — sort, cumulative class
    counts, boundary sweep — per attribute.  Retained as the differential
    reference for :func:`find_split_batch`.
    """
    candidates: list[Split] = []
    for j in range(features.shape[1]):
        found = best_split_for_attribute(features[:, j], labels, weights, min_leaf_weight)
        if found is None:
            continue
        threshold, gain, ratio = found
        if gain > _EPS:
            candidates.append(Split(j, threshold, gain, ratio))
    return _select_split(candidates, use_gain_ratio)


def find_split_batch(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
    use_gain_ratio: bool,
) -> Split | None:
    """Split search over *all* attributes in one vectorized sweep.

    Sorts every feature column at once, builds per-column cumulative
    weighted class counts, and evaluates every candidate boundary of
    every attribute simultaneously; invalid positions (equal-value runs,
    leaves below ``min_leaf_weight``) are masked to ``-inf`` before a
    per-column first-argmax.  Every arithmetic step mirrors
    :func:`best_split_for_attribute` elementwise — axis-0 ``cumsum`` of a
    2-D array is computed per column exactly like the 1-D cumsums of the
    scalar path, and a masked full-column argmax picks the same first
    maximum as the scalar path's argmax over compacted candidates — so
    the produced :class:`Split` is bit-identical.
    """
    n, d = features.shape
    if n < 2:
        return None
    order = np.argsort(features, axis=0, kind="stable")
    v = np.take_along_axis(features, order, axis=0)
    y = labels[order]
    w = weights[order]
    w0 = np.where(y == 0, w, 0.0)
    w1 = np.where(y == 1, w, 0.0)
    cum0 = np.cumsum(w0, axis=0)
    cum1 = np.cumsum(w1, axis=0)
    total0, total1 = cum0[-1], cum1[-1]
    total = total0 + total1

    boundary = np.diff(v, axis=0) > 0  # (n-1, d)
    left0, left1 = cum0[:-1], cum1[:-1]
    right0, right1 = total0 - left0, total1 - left1
    wl = left0 + left1
    wr = right0 + right1
    ok = boundary & (wl >= min_leaf_weight) & (wr >= min_leaf_weight)

    def ent(c0: np.ndarray, c1: np.ndarray, mass: np.ndarray) -> np.ndarray:
        denom = np.maximum(mass, _EPS)
        p0 = np.clip(c0 / denom, _EPS, 1.0)
        p1 = np.clip(c1 / denom, _EPS, 1.0)
        return -(p0 * np.log(p0) + p1 * np.log(p1))

    with np.errstate(divide="ignore", invalid="ignore"):
        children = (wl * ent(left0, left1, wl) + wr * ent(right0, right1, wr)) / total
        # entropy() of the parent counts, term-summed: a zero class
        # contributes an exact 0.0, matching the scalar filtered sum.
        safe_total = np.where(total > 0, total, 1.0)
        pp0 = np.where(total0 > 0, total0 / safe_total, 1.0)
        pp1 = np.where(total1 > 0, total1 / safe_total, 1.0)
        parent = -(
            np.where(total0 > 0, pp0 * np.log(pp0), 0.0)
            + np.where(total1 > 0, pp1 * np.log(pp1), 0.0)
        )
        gains = parent - children
        pl, pr = wl / total, wr / total
        split_info = -(pl * np.log(pl) + pr * np.log(pr))
        ratios = gains / np.maximum(split_info, _EPS)

    gains_masked = np.where(ok, gains, -np.inf)
    best_rows = np.argmax(gains_masked, axis=0)
    cols = np.arange(d)
    best_gains = gains_masked[best_rows, cols]

    candidates: list[Split] = []
    for j in np.flatnonzero(best_gains > _EPS):
        i = best_rows[j]
        threshold = (v[i, j] + v[i + 1, j]) / 2.0
        candidates.append(Split(int(j), float(threshold), float(gains[i, j]), float(ratios[i, j])))
    return _select_split(candidates, use_gain_ratio)


def find_split(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
    use_gain_ratio: bool,
) -> Split | None:
    """Search all attributes for the best split (dispatching entry point)."""
    if fitmode.scalar_fit_enabled():
        return find_split_scalar(features, labels, weights, min_leaf_weight, use_gain_ratio)
    return find_split_batch(features, labels, weights, min_leaf_weight, use_gain_ratio)


def grow_tree(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    min_leaf_weight: float,
    use_gain_ratio: bool,
    max_depth: int = -1,
    _depth: int = 0,
) -> TreeNode:
    """Recursively grow an unpruned binary tree."""
    counts = np.array([weights[labels == 0].sum(), weights[labels == 1].sum()])
    node = TreeNode(counts=counts)
    pure = (counts <= _EPS).any()
    if pure or (0 <= max_depth <= _depth) or counts.sum() < 2 * min_leaf_weight:
        return node
    split = find_split(features, labels, weights, min_leaf_weight, use_gain_ratio)
    if split is None:
        return node
    mask = features[:, split.attribute] <= split.threshold
    node.attribute = split.attribute
    node.threshold = split.threshold
    node.left = grow_tree(
        features[mask], labels[mask], weights[mask],
        min_leaf_weight, use_gain_ratio, max_depth, _depth + 1,
    )
    node.right = grow_tree(
        features[~mask], labels[~mask], weights[~mask],
        min_leaf_weight, use_gain_ratio, max_depth, _depth + 1,
    )
    return node


def route(node: TreeNode, row: np.ndarray) -> TreeNode:
    """Follow a feature row from ``node`` down to its leaf.

    This is the scalar reference for the vectorized :class:`FlatTree`
    kernels: one row, one Python descent.  The batch paths below are
    differential-tested against it and must stay bit-identical.
    """
    while not node.is_leaf:
        assert node.attribute is not None and node.threshold is not None
        assert node.left is not None and node.right is not None
        node = node.left if row[node.attribute] <= node.threshold else node.right
    return node


def leaf_counts_matrix_scalar(node: TreeNode, features: np.ndarray) -> np.ndarray:
    """Per-row leaf class counts via the scalar :func:`route` reference.

    Retained (pre-vectorization hot path) for differential tests and the
    before/after inference benchmark; production prediction goes through
    :class:`FlatTree`.
    """
    out = np.zeros((features.shape[0], 2))
    for i in range(features.shape[0]):
        out[i] = route(node, features[i]).counts
    return out


class FlatTree:
    """Array form of a fitted :class:`TreeNode` tree for batch inference.

    The pointer tree is flattened (preorder) into parallel arrays —
    split attribute (-1 at leaves), threshold, left/right child index,
    and leaf class counts — so a whole feature matrix descends at once:
    every iteration of :meth:`descend` advances *all* rows still at an
    internal node by one level with masked gathers, instead of walking
    one Python node per row per level.  Comparisons are the same
    ``row[attribute] <= threshold`` the scalar :func:`route` performs,
    so leaf assignment is bit-identical.
    """

    __slots__ = ("attribute", "threshold", "left", "right", "counts", "nodes")

    def __init__(self, root: TreeNode) -> None:
        nodes: list[TreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.append(node.right)
                stack.append(node.left)
        index = {id(node): i for i, node in enumerate(nodes)}
        n = len(nodes)
        self.nodes = tuple(nodes)
        self.attribute = np.full(n, -1, dtype=np.intp)
        self.threshold = np.full(n, np.nan)
        self.left = np.full(n, -1, dtype=np.intp)
        self.right = np.full(n, -1, dtype=np.intp)
        self.counts = np.empty((n, 2))
        for i, node in enumerate(nodes):
            self.counts[i] = node.counts
            if not node.is_leaf:
                assert node.attribute is not None and node.threshold is not None
                self.attribute[i] = node.attribute
                self.threshold[i] = node.threshold
                self.left[i] = index[id(node.left)]
                self.right[i] = index[id(node.right)]

    @classmethod
    def from_arrays(
        cls,
        attribute: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        counts: np.ndarray,
    ) -> "FlatTree":
        """Rebuild a flat tree (and its pointer form) from parallel arrays.

        Inverse of the flattening constructor: the arrays become the live
        inference state verbatim (they may be read-only memory maps), and
        the :class:`TreeNode` pointer graph is re-linked so structural
        accessors (``nodes[0]`` is the root, as in preorder flattening)
        keep working on loaded models.

        Raises:
            ValueError: misaligned arrays, or child indices that do not lay
                out one tree in preorder (a damaged artifact).
        """
        attribute = np.asanyarray(attribute)
        threshold = np.asanyarray(threshold)
        left = np.asanyarray(left)
        right = np.asanyarray(right)
        counts = np.asanyarray(counts)
        n = attribute.shape[0]
        if n == 0 or counts.shape != (n, 2):
            raise ValueError("tree arrays are empty or misaligned")
        shapes = (threshold.shape, left.shape, right.shape)
        if any(shape != (n,) for shape in shapes):
            raise ValueError("tree arrays are misaligned")
        # the preorder layout the flattening constructor emits: an internal
        # node's left child follows it and its right child follows the left
        # subtree, which ends where the left child's right spine does; the
        # pointers only go forward, so no path can loop
        internal = attribute >= 0
        inner = np.flatnonzero(internal)
        spine = np.where(internal, right, np.arange(n))
        if ((left[inner] != inner + 1) | (spine[inner] <= inner + 1) | (spine[inner] >= n)).any():
            raise ValueError("tree arrays are not a preorder tree")
        end = spine
        for _ in range(n.bit_length()):
            end = end[end]
        if end[0] != n - 1 or (spine[inner] != end[inner + 1] + 1).any():
            raise ValueError("tree arrays are not a preorder tree")
        nodes = [TreeNode(counts=counts[i]) for i in range(n)]
        for i in inner.tolist():
            node = nodes[i]
            node.attribute = int(attribute[i])
            node.threshold = float(threshold[i])
            node.left = nodes[i + 1]
            node.right = nodes[int(right[i])]
        flat = cls.__new__(cls)
        flat.nodes = tuple(nodes)
        flat.attribute = attribute
        flat.threshold = threshold
        flat.left = left
        flat.right = right
        flat.counts = counts
        return flat

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def descend(self, features: np.ndarray) -> np.ndarray:
        """Flat index of the leaf each row lands in, shape ``(n,)``."""
        n, n_cols = features.shape
        flat = np.ascontiguousarray(features).reshape(-1)
        cur = np.zeros(n, dtype=np.intp)
        if self.attribute[0] < 0:  # root is a leaf
            return cur
        active = np.arange(n)
        while active.size:
            node = cur[active]
            attr = self.attribute[node]
            values = flat.take(active * n_cols + attr)
            go_left = values <= self.threshold[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            cur[active] = nxt
            active = active[self.attribute[nxt] >= 0]
        return cur

    def leaf_counts(self, features: np.ndarray) -> np.ndarray:
        """Class counts of the leaf each row lands in, shape ``(n, 2)``."""
        return self.counts[self.descend(features)]

    def forest(self) -> "FlatForest":
        """This tree as a one-member :class:`FlatForest` over the same arrays."""
        return FlatForest(
            self.attribute, self.threshold, self.left, self.right, self.counts, offsets=[0]
        )

    def path_class_mass(
        self, features: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Weighted class mass deposited at every node along each row's
        root-to-leaf path, shape ``(n_nodes, 2)``.

        This is the batch form of REPTree's held-out prune-count
        accumulation.  ``np.add.at`` applies duplicate indices in row
        order — the same order the scalar per-row loop adds them — so
        the accumulated floats are bit-identical.
        """
        acc = np.zeros((self.n_nodes, 2))
        cur = np.zeros(features.shape[0], dtype=np.intp)
        active = np.arange(features.shape[0])
        while active.size:
            node = cur[active]
            np.add.at(acc, (node, labels[active]), weights[active])
            internal = self.attribute[node] >= 0
            active = active[internal]
            node = cur[active]
            go_left = (
                features[active, self.attribute[node]] <= self.threshold[node]
            )
            cur[active] = np.where(go_left, self.left[node], self.right[node])
        return acc


#: Most rows × path-table cells one :class:`FlatForest` call grades with
#: the path table.  The table costs one matrix product over every cell per
#: row; the level loop costs one pass per tree level over the rows still
#: descending.  Over the J48 and REPTree grid models (alone, boosted and
#: bagged at 4, 8 and 16 events) the table won every batch below 5M rows
#: × cells and the loop first won between 9M and 60M; on the boosted
#: REPTree deployment model the table ran 1.9× as fast as the loop at
#: 500 rows and 0.95× at 2,000.  The ensemble member-loop bound,
#: ``_MAX_PASS_PAIRS``, lives beside the ensembles in
#: :mod:`repro.ml.ensemble.forest`.
_MAX_TABLE_WORK = 1 << 22

#: Largest path table built, in cells (members × internal nodes × leaves,
#: padded to the largest member).  Larger forests keep the level loop, so
#: a big bagged J48 never holds a table of more than 1 MiB.
_MAX_TABLE_CELLS = 1 << 18


class FlatForest:
    """Several flat trees laid end to end, graded together.

    An ensemble of trees predicts by descending every member over the
    same batch.  Each member is a tree in the preorder layout of
    :class:`FlatTree` (which :meth:`FlatTree.from_arrays` enforces on
    load) with local child indices; ``offsets[m]`` (member ``m``'s first
    node) is exactly the layout of an ensemble's packed ``member_tree_*``
    artifact arrays, so a loaded ensemble reads its (possibly
    memory-mapped) attributes, thresholds and counts in place.  The child
    indices are copied once into forest-wide ``int64`` arrays (16 bytes
    per node), which the level loop reads.  A lone tree is the one-member
    forest (:meth:`FlatTree.forest`).

    Two kernels find the leaves, both with the ``row[attribute] <=
    threshold`` comparison of :func:`route`, so every member lands in the
    same leaf (NaN goes right):

    * the level loop advances every (member, row) pair still at an
      internal node by one level per iteration, so a batch costs as many
      iterations as the deepest member;
    * the path table (:class:`_PathTable`) grades a small batch in a
      fixed number of numpy calls, whatever the depth.  It is built on the
      first small batch and kept: at most ``_MAX_TABLE_CELLS`` float32
      cells (1 MiB) plus a few arrays per internal node and leaf.
    """

    __slots__ = (
        "attribute", "threshold", "left", "right", "counts", "offsets",
        "_left", "_right", "_cells", "_table",
    )

    def __init__(
        self,
        attribute: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        counts: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.attribute = attribute
        self.threshold = threshold
        self.left = left
        self.right = right
        self.counts = counts
        self.offsets = np.asarray(offsets, dtype=np.intp)
        n_nodes = attribute.shape[0]
        sizes = np.diff(self.offsets, append=n_nodes)
        base = np.repeat(self.offsets, sizes)
        leaf = attribute < 0
        node = np.arange(n_nodes)
        # forest-wide child indices; a leaf is its own child
        self._left = np.where(leaf, node, left + base)
        self._right = np.where(leaf, node, right + base)
        n_internal = np.add.reduceat(~leaf, self.offsets, dtype=np.intp)
        widest = max(int(n_internal.max()), 1) * int((sizes - n_internal).max())
        self._cells = len(self.offsets) * widest
        self._table: _PathTable | None = None

    def leaves(self, features: np.ndarray) -> np.ndarray:
        """Forest index of every member's leaf per row, ``(members, n)``."""
        small = features.shape[0] * self._cells <= _MAX_TABLE_WORK
        if small and self._cells <= _MAX_TABLE_CELLS:
            if self._table is None:
                self._table = _PathTable(self)
            return self._table.leaves(features)
        return self.descend(features)

    def descend(self, features: np.ndarray) -> np.ndarray:
        """:meth:`leaves` by the level loop, at any batch size."""
        n, n_cols = features.shape
        flat = np.ascontiguousarray(features).reshape(-1)
        cur = np.repeat(self.offsets, n)
        # where each (member, row) pair's row starts in ``flat``; a lone
        # tree's pairs are its rows
        n_members = len(self.offsets)
        starts = np.tile(np.arange(n) * n_cols, n_members) if n_members > 1 else None
        active = np.flatnonzero(self.attribute[cur] >= 0)
        while active.size:
            node = cur[active]
            at = active * n_cols if starts is None else starts[active]
            values = flat.take(at + self.attribute[node])
            nxt = np.where(values <= self.threshold[node], self._left[node], self._right[node])
            cur[active] = nxt
            active = active[self.attribute[nxt] >= 0]
        return cur.reshape(len(self.offsets), n)

    def leaf_counts(self, features: np.ndarray) -> np.ndarray:
        """Class counts of every member's leaf per row, ``(members, n, 2)``."""
        return self.counts[self.leaves(features)]


class _PathTable:
    """A forest's root-to-leaf paths as one signed matrix per member.

    Column ``l`` of member ``m``'s matrix is leaf ``l``'s path: +1 at each
    internal node where it goes left, -1 where it goes right, 0 off the
    path; ``need[l]`` counts its +1 entries.  With ``D`` the 0/1 matrix of
    ``row[attribute] <= threshold`` over a member's internal nodes,
    ``(D @ paths)[row, l]`` is ``need[l]`` minus the nodes where the row
    leaves ``l``'s path, so the row's leaf is the one column where the
    product equals ``need``.  Every entry is 0 or ±1 and every sum at most
    the depth, so the product is exact in float32 under any BLAS blocking.

    Members are stacked and padded to the widest one (padding never
    matches), member-major, so a batch is one batched matrix product.
    """

    __slots__ = ("attribute", "threshold", "paths", "need", "leaf", "first")

    def __init__(self, forest: FlatForest) -> None:
        """Built without walking a path: in preorder, node ``i``'s left
        subtree is the node range ``(i, right[i])`` and its right subtree
        ``[right[i], end[i]]``, where ``end[i]`` is the leaf its right
        spine ends on; ``end`` comes from pointer doubling.
        """
        attribute = np.asarray(forest.attribute)
        offsets, right = forest.offsets, forest._right
        n_nodes, n_members = attribute.shape[0], len(offsets)
        internal = attribute >= 0
        end = right
        for _ in range(n_nodes.bit_length()):
            end = end[end]
        inner_nodes = np.flatnonzero(internal)
        member = np.repeat(np.arange(n_members), np.diff(offsets, append=n_nodes))

        def stacked(nodes: np.ndarray) -> np.ndarray:
            """Node indices by member, ``(members, widest)``, padded with -1."""
            per_member = np.bincount(member[nodes], minlength=n_members)
            out = np.full((n_members, max(int(per_member.max()), 1)), -1)
            starts = np.cumsum(per_member) - per_member
            out[member[nodes], np.arange(nodes.size) - np.repeat(starts, per_member)] = nodes
            return out

        inner, leaf = stacked(inner_nodes), stacked(np.flatnonzero(~internal))
        pad = inner < 0
        # padded rows get empty ranges; padded leaves (-1) fall in none
        lo = np.where(pad, n_nodes, inner)[:, :, None]
        mid = right[inner][:, :, None]
        hi = np.where(pad, -1, end[inner])[:, :, None]
        at = leaf[:, None, :]
        goes_left = (lo < at) & (at < mid)
        goes_right = (mid <= at) & (at <= hi)
        self.attribute = np.where(pad, 0, attribute[inner]).reshape(-1)
        self.threshold = np.where(pad, 0.0, np.asarray(forest.threshold)[inner]).reshape(-1)
        self.paths = goes_left.astype(np.float32) - goes_right
        need = goes_left.sum(axis=1, dtype=np.float32)
        need[leaf < 0] = -1.0
        self.need = need[:, None, :]
        self.leaf = leaf.reshape(-1)
        self.first = np.arange(0, leaf.size, leaf.shape[1])[:, None]

    def leaves(self, features: np.ndarray) -> np.ndarray:
        """Forest index of every member's leaf per row, ``(members, n)``."""
        n_members, n_inner, _ = self.paths.shape
        below = (features[:, self.attribute] <= self.threshold).astype(np.float32)
        below = below.reshape(-1, n_members, n_inner).transpose(1, 0, 2)
        reached = (below @ self.paths == self.need).argmax(axis=2)
        return self.leaf[reached + self.first]


def leaf_counts_matrix(node: TreeNode, features: np.ndarray) -> np.ndarray:
    """Class counts of the leaf each row lands in, shape ``(n, 2)``.

    Convenience wrapper that flattens on the fly; fitted classifiers
    cache their :class:`FlatTree` instead of re-flattening per call.
    """
    return FlatTree(node).leaf_counts(features)


# State derived from a fitted model (its forest and lookup tables) lives
# beside the model rather than on it: ``vars(model)`` stays the fitted
# state alone, which is what the golden fit digests hash.  It lives as long
# as the model, so a model that has predicted once (an ensemble member
# included) holds its forest and, after a small batch, its path table.
_DERIVED: "weakref.WeakKeyDictionary[object, tuple]" = weakref.WeakKeyDictionary()


def derived(owner: object, source: object, build: Callable):
    """``build(source)``, cached beside ``owner`` while it holds ``source``.

    A refit that replaces ``source`` (a new flat tree, a new member list)
    rebuilds on the next call.
    """
    cached = _DERIVED.get(owner)
    if cached is None or cached[0] is not source:
        cached = _DERIVED[owner] = (source, build(source))
    return cached[1]


def adopt_derived(owner: object, source: object, value: object) -> None:
    """Cache ``value`` as what :func:`derived` builds from ``source``."""
    _DERIVED[owner] = (source, value)


class FlatTreeModel:
    """Prediction and artifacts of a learner fitted to one flat tree.

    Mixed into :class:`~repro.ml.j48.J48` and
    :class:`~repro.ml.reptree.REPTree` ahead of ``Classifier``: both keep
    the pointer tree in ``root_`` and its arrays in ``_flat``, and grade
    through the tree's one-member :class:`FlatForest`.
    """

    _flat: FlatTree | None

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        features = check_features(features)
        forest = derived(self, self._flat, FlatTree.forest)
        return proba_from_counts(forest.leaf_counts(features)[0])

    def export_artifact(self) -> tuple[dict, dict[str, np.ndarray]]:
        self._require_fitted()
        flat = self._flat
        assert flat is not None
        return {"params": dict(self.params)}, {
            "tree_attribute": flat.attribute,
            "tree_threshold": flat.threshold,
            "tree_left": flat.left,
            "tree_right": flat.right,
            "tree_counts": flat.counts,
        }

    @classmethod
    def from_artifact(cls, spec: dict, arrays: dict):
        model = cls(**spec["params"])
        model._flat = FlatTree.from_arrays(
            arrays["tree_attribute"],
            arrays["tree_threshold"],
            arrays["tree_left"],
            arrays["tree_right"],
            arrays["tree_counts"],
        )
        model.root_ = model._flat.nodes[0]
        model.fitted_ = True
        return model
