"""Bagged CART trees with Gini-impurity splits, stored as flat node arrays.

Each tree is grown on a bootstrap resample (same size as the training
set) with axis-aligned splits. Splitting is deterministic: features are
scanned in order, candidate thresholds are midpoints between consecutive
distinct sorted values, and ties keep the first (lowest feature, lowest
threshold) candidate. A node splits whenever it is impure, depth allows,
and some candidate respects the minimum leaf size; zero-gain splits are
allowed so consistent data can always be driven to pure leaves.

Scoring walks every tree at once. ``ForestParams`` fuses the trees into
one set of node arrays in which each leaf loops back to itself, so a
(trees x rows) matrix of nodes takes the same number of steps, the
forest's depth, and then rests on every row's leaf in every tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Cells of the (trees x rows) node matrix scored at once: the matrix and
# its temporaries stay near 1 MB whatever the batch size.
_BLOCK_CELLS = 32768


@dataclass(frozen=True)
class TreeArrays:
    """One tree as parallel node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64 (0.0 at leaves)
    left: np.ndarray  # int32 child index (-1 at leaves)
    right: np.ndarray  # int32 child index (-1 at leaves)
    value: np.ndarray  # float64 positive-class fraction at the node


@dataclass(frozen=True)
class ForestParams:
    """The trees, and one fused form of all of them built for scoring.

    The fused arrays hold every tree's nodes end to end, tree t from node
    ``roots[t]``. From ``node`` a row goes to ``child[2 * node + go_left]``.
    A leaf is a self-loop: feature 0, threshold +inf and both children the
    leaf itself, so after ``depth`` steps, the longest root-to-leaf path of
    the forest, every row rests on its leaf. Children must follow their
    node, as loaded documents are checked to ensure.
    """

    trees: tuple[TreeArrays, ...]
    roots: np.ndarray = field(init=False, repr=False)  # (n_trees,) root nodes
    feature: np.ndarray = field(init=False, repr=False)  # (nodes,) 0 at leaves
    threshold: np.ndarray = field(init=False, repr=False)  # (nodes,) +inf at leaves
    child: np.ndarray = field(init=False, repr=False)  # (2 * nodes,) right, left
    value: np.ndarray = field(init=False, repr=False)  # (nodes,)
    depth: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a forest needs at least one tree")

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(t, name) for t in self.trees])

        sizes = [t.feature.shape[0] for t in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)
        feature = joined("feature")
        leaf = feature < 0
        node = np.arange(leaf.shape[0])
        child = np.empty(2 * node.shape[0], dtype=np.intp)
        child[0::2] = np.where(leaf, node, joined("right") + offset)
        child[1::2] = np.where(leaf, node, joined("left") + offset)
        # Children follow their node, so one pass in node order sees each
        # node's level before its children's.
        level = [0] * node.shape[0]
        for n, (right, left) in enumerate(zip(child[0::2].tolist(), child[1::2].tolist())):
            if left != n:
                level[left] = level[right] = level[n] + 1
        set_ = object.__setattr__
        set_(self, "roots", roots)
        set_(self, "feature", np.where(leaf, 0, feature).astype(np.intp))
        set_(self, "threshold", np.where(leaf, np.inf, joined("threshold")))
        set_(self, "child", child)
        set_(self, "value", joined("value"))
        set_(self, "depth", max(level))


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Lowest weighted-Gini split, or None when no candidate is valid."""
    n = y.shape[0]
    best_score = np.inf
    best = None
    sizes_l = np.arange(1, n, dtype=np.float64)
    sizes_r = n - sizes_l
    for f in range(X.shape[1]):
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        pos_l = np.cumsum(y[order]).astype(np.float64)[:-1]
        total_pos = float(y.sum())
        valid = (xs_sorted[1:] > xs_sorted[:-1]) & (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
        if not valid.any():
            continue
        pos_r = total_pos - pos_l
        gini_l = 1.0 - (pos_l / sizes_l) ** 2 - ((sizes_l - pos_l) / sizes_l) ** 2
        gini_r = 1.0 - (pos_r / sizes_r) ** 2 - ((sizes_r - pos_r) / sizes_r) ** 2
        score = (sizes_l * gini_l + sizes_r * gini_r) / n
        score[~valid] = np.inf
        i = int(np.argmin(score))
        if score[i] < best_score:
            threshold = 0.5 * (xs_sorted[i] + xs_sorted[i + 1])
            left_mask = xs <= threshold
            # Midpoint can round onto the upper value; fall back to the
            # exact lower value so the partition matches the scan.
            if left_mask.sum() != i + 1:
                threshold = xs_sorted[i]
                left_mask = xs <= threshold
            best_score = float(score[i])
            best = (f, float(threshold), left_mask)
    return best


def _grow(X: np.ndarray, y: np.ndarray, max_depth, min_leaf: int) -> TreeArrays:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node(val: float) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(val)
        return len(feature) - 1

    root = new_node(float(y.mean()))
    stack = [(root, np.arange(y.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        pure = bool((ys == ys[0]).all())
        if pure or (max_depth is not None and depth >= max_depth) or idx.shape[0] < 2 * min_leaf:
            continue
        split = _best_split(X[idx], ys, min_leaf)
        if split is None:
            continue
        f, thr, left_mask = split
        idx_l = idx[left_mask]
        idx_r = idx[~left_mask]
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node(float(y[idx_l].mean()))
        right[node] = new_node(float(y[idx_r].mean()))
        stack.append((left[node], idx_l, depth + 1))
        stack.append((right[node], idx_r, depth + 1))

    return TreeArrays(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def fit(
    Xs: np.ndarray,
    y: np.ndarray,
    seed: int,
    n_trees: int,
    max_depth,
    min_leaf: int,
    bootstrap: bool,
) -> ForestParams:
    n = y.shape[0]
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        if bootstrap:
            idx = np.sort(rng.integers(0, n, size=n))
        else:
            idx = np.arange(n)
        trees.append(_grow(Xs[idx], y[idx], max_depth, min_leaf))
    return ForestParams(trees=tuple(trees))


def scores(params: ForestParams, Xs: np.ndarray) -> np.ndarray:
    """Mean leaf positive-class fraction across the ensemble.

    Leaf values are summed in tree order, then divided by the tree count.
    """
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    n_trees = params.roots.shape[0]
    block = max(1, _BLOCK_CELLS // n_trees)
    out = np.empty(Xs.shape[0], dtype=np.float64)
    for start in range(0, Xs.shape[0], block):
        X = Xs[start : start + block]
        rows = np.arange(X.shape[0])
        node = np.repeat(params.roots[:, None], X.shape[0], axis=1)
        for _ in range(params.depth):
            go_left = X[rows, params.feature[node]] <= params.threshold[node]
            node = params.child[2 * node + go_left]
        total = np.zeros(X.shape[0], dtype=np.float64)
        for leaf in params.value[node]:
            total += leaf
        out[start : start + block] = total / n_trees
    return out
