"""Decision trees grown on presorted features, plus gradient boosting.

There is one grower (grow_tree) and one exact split search (_best_split),
both over an (n, K) float target matrix.  A CART classification tree is a
regression tree on one-hot class indicators: a node's summed squared error
of those indicators is n times its Gini impurity (Breiman et al. 1984), so
the least-squares split is the Gini split and each node's mean target row
is its class fractions.  Gradient boosting grows K = 1 regression trees on
the softmax residuals.

A forest, whether one tree or a boosted ensemble, is one dict of flat node
arrays: feature, threshold, left, right and value per node, and the root node
of each tree in roots.  Child ids are global across the forest, so one
vectorized walk finds every tree's leaf for every row at once, and the same
arrays are what model.npz stores.

Split ties are broken toward the smallest feature index, then the smallest
threshold, so training is deterministic for a fixed input.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelSpec
from ..core import sorted_unique
from .common import FitError, PredictError, mean_cross_entropy, one_hot, softmax

LEAF = -1
Forest = dict[str, np.ndarray]


def _node_rows_sorted(sorted_idx: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Row indices of one node, one column per feature, each column sorted by
    that feature.  sorted_idx is the global (n, d) presort."""
    keep = member[sorted_idx]
    m = int(member.sum())
    d = sorted_idx.shape[1]
    return sorted_idx.T[keep.T].reshape(d, m).T


# Elements of each (m, w) array in one column block of _best_split: the
# search holds about ten such arrays at once, so a node of m rows is
# searched _SPLIT_BLOCK_ELEMENTS // m features at a time.
_SPLIT_BLOCK_ELEMENTS = 1 << 18


def _best_split(
    X: np.ndarray,
    T: np.ndarray,
    rows_sorted: np.ndarray,
    min_leaf: int,
) -> tuple[int, float] | None:
    """Exact least-squares split of one node over the (n, K) targets T.

    A cut's score is sum_k (S_left_k**2 / n_left + S_right_k**2 / n_right)
    over the per-side target sums S; maximising it minimises the summed
    squared error.  On one-hot class targets that error is n times the
    node's Gini impurity, so the same search grows Gini trees.  Features are
    searched in column blocks whose width keeps each block's arrays near
    _SPLIT_BLOCK_ELEMENTS elements; a later block wins only with a strictly
    higher score, so the first maximum in feature-major order is kept.
    """
    m, d = rows_sorted.shape
    if m < 2 * min_leaf:
        return None
    targets = [np.ascontiguousarray(T[:, k]) for k in range(T.shape[1])]
    # each target column's node total, summed in the order of feature 0
    totals = [float(t[rows_sorted[:, 0]].sum()) for t in targets]
    base_score = sum(total * total for total in totals) / m
    positions = np.arange(min_leaf, m - min_leaf + 1)  # left-side sizes
    cuts = slice(min_leaf - 1, m - min_leaf)  # last left row of each cut
    n_left = positions[:, None].astype(float)
    width = max(1, _SPLIT_BLOCK_ELEMENTS // m)
    best = None  # (score, feature, cut position, vals of that block)
    for first in range(0, d, width):
        block = rows_sorted[:, first : first + width]
        vals = X[block, np.arange(first, first + block.shape[1])[None, :]]
        # (P, w) sums over the target columns of the squared per-side sums,
        # one column at a time: an (m, w, K) block would cost K times the
        # memory.  Starting from the first column's squares rather than
        # zeros gives the same bits (0.0 + x == x) with one pass less.
        sq_left = sq_right = None
        for t, total in zip(targets, totals):
            s_left = np.cumsum(t[block], axis=0)[cuts]  # (P, w)
            s_right = total - s_left
            s_left *= s_left
            s_right *= s_right
            if sq_left is None:
                sq_left, sq_right = s_left, s_right
            else:
                sq_left += s_left
                sq_right += s_right
        score = sq_left / n_left + sq_right / (m - n_left)
        # a split must separate distinct values
        score[vals[cuts] >= vals[min_leaf : m - min_leaf + 1]] = -np.inf
        flat = score.T.ravel()  # feature-major so argmax honors the tie order
        at = int(np.argmax(flat))
        if best is None or flat[at] > best[0]:
            j, pos_at = divmod(at, positions.shape[0])
            best = (flat[at], first + j, positions[pos_at], vals[:, j])
    score, j, cut, column = best
    if not np.isfinite(score) or score <= base_score + 1e-12:
        return None
    return j, 0.5 * (column[cut - 1] + column[cut])


def grow_tree(
    X: np.ndarray,
    T: np.ndarray,
    max_depth: int,
    min_leaf: int,
    sorted_idx: np.ndarray | None = None,
) -> Forest:
    """Grow one CART tree on the (n, K) float targets T, as a one-tree forest
    rooted at node 0; every node's value is the mean target row of its
    members.  Callers fitting many trees on one matrix should presort it once
    and pass sorted_idx."""
    n = X.shape[0]
    if n == 0:
        raise FitError("cannot grow a tree on an empty sample")
    if sorted_idx is None:
        sorted_idx = np.argsort(X, axis=0, kind="stable")
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[np.ndarray] = []

    # (member mask, depth, slot in the child arrays to patch)
    root_member = np.ones(n, dtype=bool)
    stack = [(root_member, 0, None, None)]
    while stack:
        member, depth, parent, side = stack.pop()
        node_id = len(feature)
        if parent is not None:
            if side == "L":
                left[parent] = node_id
            else:
                right[parent] = node_id
        split = None
        if depth < max_depth:
            rows_sorted = _node_rows_sorted(sorted_idx, member)
            split = _best_split(X, T, rows_sorted, min_leaf)
        left.append(LEAF)
        right.append(LEAF)
        value.append(T[member].mean(axis=0))
        if split is None:
            feature.append(LEAF)
            threshold.append(0.0)
            continue
        j, cut = split
        feature.append(j)
        threshold.append(cut)
        go_left = member & (X[:, j] <= cut)
        go_right = member & ~(X[:, j] <= cut)
        # push right first so the left child is materialized first
        stack.append((go_right, depth + 1, node_id, "R"))
        stack.append((go_left, depth + 1, node_id, "L"))

    return {
        "roots": np.zeros(1, dtype=np.int64),
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "value": np.asarray(value, dtype=np.float64),
    }


def join_forests(forests: list[Forest]) -> Forest:
    """One forest holding the trees of each given forest in order; every
    root and child id is shifted by the node count of the forests before it."""
    sizes = [f["feature"].shape[0] for f in forests]
    offsets = np.cumsum([0] + sizes[:-1])
    joined = {key: np.concatenate([f[key] for f in forests]) for key in forests[0]}
    joined["roots"] = np.concatenate([f["roots"] + at for f, at in zip(forests, offsets)])
    shift = np.repeat(offsets, sizes)
    for key in ("left", "right"):
        joined[key] += np.where(joined[key] == LEAF, 0, shift)
    return joined


def forest_leaves(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(n_rows, n_trees) leaf node ids: every row walks every tree at once,
    one level per step."""
    node = np.tile(forest["roots"], (X.shape[0], 1))
    while True:
        rows, trees = np.nonzero(forest["feature"][node] != LEAF)
        if rows.size == 0:
            return node
        at = node[rows, trees]
        goes_left = X[rows, forest["feature"][at]] <= forest["threshold"][at]
        node[rows, trees] = np.where(goes_left, forest["left"][at], forest["right"][at])


def _newton_leaf_values(
    tree: Forest, leaf_ids: np.ndarray, residual: np.ndarray, n_classes: int
) -> None:
    """Overwrite the tree's leaf means with the one-step Newton estimate for
    the softmax cross-entropy objective: (K-1)/K * sum(r) / sum(|r|(1-|r|))."""
    scale = (n_classes - 1) / n_classes
    for leaf in sorted_unique(leaf_ids):
        r = residual[leaf_ids == leaf]
        denom = float(np.sum(np.abs(r) * (1.0 - np.abs(r))))
        tree["value"][leaf] = 0.0 if denom < 1e-150 else scale * float(r.sum()) / denom


def fit_tree(
    X: np.ndarray, y_idx: np.ndarray, n_classes: int, spec: ModelSpec
) -> Forest:
    return grow_tree(X, one_hot(y_idx, n_classes), spec.tree_max_depth, spec.tree_min_leaf)


def tree_scores(forest: Forest, rows: np.ndarray, n_classes: int) -> np.ndarray:
    """The class fractions of each row's leaf."""
    return forest["value"][forest_leaves(forest, rows)[:, 0]]


def fit_gboost(
    X: np.ndarray, y_idx: np.ndarray, n_classes: int, spec: ModelSpec
) -> dict[str, np.ndarray]:
    """Additive model on the softmax cross-entropy objective.

    Each round fits one shallow regression tree per class to the negative
    gradient (one-hot minus predicted probability), then sets each leaf by a
    single Newton step on that objective.  Returns one round-major forest
    (tree r * n_classes + c is class c of round r) with the learning rate and
    train_loss, the training loss after each round.
    """
    n = X.shape[0]
    targets = one_hot(y_idx, n_classes)
    logits = np.zeros((n, n_classes))
    trees: list[Forest] = []
    losses = np.empty(spec.gboost_rounds)
    sorted_idx = np.argsort(X, axis=0, kind="stable")
    proba = softmax(logits)
    for r in range(spec.gboost_rounds):
        residual = targets - proba
        for c in range(n_classes):
            t = grow_tree(X, residual[:, c : c + 1], spec.gboost_depth, 1, sorted_idx=sorted_idx)
            leaf_ids = forest_leaves(t, X)[:, 0]
            _newton_leaf_values(t, leaf_ids, residual[:, c], n_classes)
            logits[:, c] += spec.gboost_learning_rate * t["value"][leaf_ids, 0]
            trees.append(t)
        proba = softmax(logits)
        losses[r] = mean_cross_entropy(proba, y_idx)
    params = join_forests(trees)
    params["learning_rate"] = np.asarray(spec.gboost_learning_rate)
    params["train_loss"] = losses
    return params


def gboost_scores(
    params: dict[str, np.ndarray], rows: np.ndarray, n_classes: int
) -> np.ndarray:
    """Softmax of the summed leaf values of a round-major forest, one logit
    column per class, added one round at a time."""
    n_trees = params["roots"].shape[0]
    if n_trees % n_classes:
        raise PredictError(
            f"boosted forest of {n_trees} trees is not whole rounds of {n_classes} classes"
        )
    learning_rate = float(params["learning_rate"])
    leaf_values = params["value"][forest_leaves(params, rows), 0]
    logits = np.zeros((rows.shape[0], n_classes))
    for r in range(0, n_trees, n_classes):
        logits += learning_rate * leaf_values[:, r : r + n_classes]
    return softmax(logits)
