"""Bagged CART trees with Gini-impurity splits, stored as flat node arrays.

Each tree is grown on a bootstrap resample (same size as the training
set) with axis-aligned splits. The resample is kept as counts: a drawn
row enters once, weighted by how often it was drawn, and gives the tree
its copies would give. Each feature is sorted once per fit; a split
partitions the sorted rows stably (as SLIQ does), so no node sorts.
Splitting is deterministic: features are
scanned in order, candidate thresholds are midpoints between consecutive
distinct sorted values, and ties keep the first (lowest feature, lowest
threshold) candidate. A node splits whenever it is impure, depth allows,
and some candidate respects the minimum leaf size; zero-gain splits are
allowed so consistent data can always be driven to pure leaves.

Growth makes no arrays per node. ``fit`` allocates one workspace for
its call, sized to the training set: a tree's drawn rows in feature
order, and buffers whose fronts hold, for one feature of the node being
split at a time, the gathered values, cumulative counts, Gini terms,
scores and masks, written in place with ``out=``. The in-place
arithmetic performs the same IEEE operations in the same order as the
plain expressions, so every score and every chosen split is the same.
The split feature's order needs no partition, since the left child's
rows are a prefix of it; only the other feature's order is partitioned,
into a workspace buffer (``compress`` still lists the kept positions
internally).

Scoring looks leaves up in a table. A forest on two features is a step
function: within a tree, the leaf a row reaches depends only on which of
the tree's feature-0 thresholds the row lies between, and which of its
feature-1 thresholds. ``ForestParams`` fills one table of every tree's
leaf values by these cells, so scoring a row takes two ``searchsorted``
calls into the forest's thresholds and one gather per tree, whatever
the depth. The table is filled by the fused walk: the trees as one set
of node arrays in which each leaf loops back to itself, so rows started
at any roots take the same number of steps, the forest's depth, and
then rest on their leaves. A forest whose table would break a fixed
cell budget, such as a long chain alternating between the features,
scores by that walk instead, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .base import _check, _floats, _ints, _known

# Cells of the (trees x rows) node matrix scored at once: the matrix and
# its temporaries stay near 1 MB whatever the batch size.
_BLOCK_CELLS = 32768

# The cell budget (see ForestParams): a forest gets a lookup table only if
# the table and its maps hold at most _CELLS_PER_NODE cells a node, and
# filling the table walks at most _STEPS_PER_NODE cells a node.
_CELLS_PER_NODE = 64
_STEPS_PER_NODE = 4096


@dataclass(frozen=True, eq=False)
class TreeArrays:
    """One tree as parallel node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64 (0.0 at leaves)
    left: np.ndarray  # int32 child index (-1 at leaves)
    right: np.ndarray  # int32 child index (-1 at leaves)
    value: np.ndarray  # float64 positive-class fraction at the node


@dataclass(frozen=True, eq=False)
class ForestParams:
    """The trees, one fused form of all of them, and their lookup table.

    The fused arrays hold every tree's nodes end to end, tree t from node
    ``roots[t]``. From ``node`` a row goes to ``child[2 * node + go_left]``.
    A leaf is a self-loop: feature 0, threshold +inf and both children the
    leaf itself, so after ``depth`` steps, the longest root-to-leaf path of
    the forest, every row rests on its leaf. Children must follow their
    node, as loaded documents are checked to ensure, and each node but a
    root must be the child of exactly one split, or ValueError is raised.

    ``grid[f]`` holds the sorted unique split thresholds of feature f over
    the forest. Splits test ``x <= threshold``, so a row's cell
    c = ``grid[f].searchsorted(x, side="left")``, the number of thresholds
    below x, decides every feature-f split: x goes left at ``grid[f][j]``
    exactly when j >= c. NaN, which goes right at every split, and values
    above every threshold take the last cell. Tree t's own
    thresholds cut the plane into fewer cells, and ``table`` holds the
    leaf value of each, tree after tree; ``cell[0][t, c0] + cell[1][t, c1]``
    is the position of the tree cell holding grid cell (c0, c1). The
    table is filled by walking one representative point per tree cell
    from the tree's root: the cell's upper threshold, or NaN for the cell
    above every threshold. Each lookup thus gives the leaf the walk gives.

    Model documents are untrusted, and a tree's table grows with the
    product of its two threshold counts. So before allocating anything,
    the table and maps are sized from those counts. If they exceed
    ``_CELLS_PER_NODE`` cells a node of the forest, or filling the table
    would walk more than ``_STEPS_PER_NODE`` cells a node (cells times
    depth), or a threshold is NaN, ``grid``, ``cell`` and ``table`` are
    None and ``scores`` walks the fused arrays. The table is derived
    here, like the fused arrays, and never saved.
    """

    trees: tuple[TreeArrays, ...]
    roots: np.ndarray = field(init=False, repr=False)  # (n_trees,) root nodes
    feature: np.ndarray = field(init=False, repr=False)  # (nodes,) 0 at leaves
    threshold: np.ndarray = field(init=False, repr=False)  # (nodes,) +inf at leaves
    child: np.ndarray = field(init=False, repr=False)  # (2 * nodes,) right, left
    value: np.ndarray = field(init=False, repr=False)  # (nodes,)
    depth: int = field(init=False, repr=False)
    grid: tuple | None = field(init=False, repr=False)  # features' unique thresholds
    cell: tuple | None = field(init=False, repr=False)  # (n_trees, len(grid[f]) + 1) each
    table: np.ndarray | None = field(init=False, repr=False)  # every tree's leaves by cell

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
        # Every node must be a root or the child of exactly one split.
        parents = np.concatenate([roots, child[np.repeat(~leaf, 2)]])
        if (np.bincount(parents, minlength=node.shape[0]) != 1).any():
            raise ValueError("every tree node but the root must be the child of exactly one split")
        # Children follow their node and have one parent, so one pass in
        # node order sees each node's level before its children's.
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
        for name, value in zip(("grid", "cell", "table"), _lookup(self)):
            set_(self, name, value)


def _lookup(params: ForestParams) -> tuple:
    """``(grid, cell, table)`` of a forest whose other fields are set, or
    three Nones when a threshold is NaN or the table breaks the cell budget."""
    # Each tree's sorted unique thresholds of features 0 and 1. Its table
    # has a row per feature-0 cell and a column per feature-1 cell.
    own = [[np.unique(t.threshold[t.feature == f]) for f in (0, 1)] for t in params.trees]
    grid = tuple(np.unique(np.concatenate([o[f] for o in own])) for f in (0, 1))
    width = np.array([o[1].shape[0] + 1 for o in own])
    size = np.array([o[0].shape[0] + 1 for o in own]) * width
    n_cells, n_nodes = int(size.sum()), params.value.shape[0]
    n_maps = len(own) * (grid[0].shape[0] + grid[1].shape[0] + 2)
    if (
        np.isnan(params.threshold).any()
        or n_cells + n_maps > _CELLS_PER_NODE * n_nodes
        or n_cells * params.depth > _STEPS_PER_NODE * n_nodes
    ):
        return None, None, None
    # Each cell's representative: its upper threshold, or NaN, which goes
    # right at every split, for the cell above every threshold.
    rep = [[np.append(o[f], np.nan) for f in (0, 1)] for o in own]
    upper = [np.append(g, np.nan) for g in grid]
    # A grid cell's representative lies in the tree cell it maps to.
    start = np.cumsum(size) - size
    cell = (
        np.stack([s + w * o[0].searchsorted(upper[0]) for s, w, o in zip(start, width, own)]),
        np.stack([o[1].searchsorted(upper[1]) for o in own]),
    )
    X = np.concatenate(
        [np.column_stack([np.repeat(r0, r1.shape[0]), np.tile(r1, r0.shape[0])]) for r0, r1 in rep]
    )
    root = np.repeat(params.roots, size)
    table = np.empty(n_cells, dtype=np.float64)
    for i in range(0, n_cells, _BLOCK_CELLS):
        block = slice(i, i + _BLOCK_CELLS)
        table[block] = params.value[_walk(params, X[block], root[block])]
    return grid, cell, table


def _walk(params: ForestParams, X: np.ndarray, node: np.ndarray) -> np.ndarray:
    """The leaves that the rows of ``X`` reach from the nodes ``node``,
    whose last axis runs over the rows: ``params.depth`` steps of the fused
    arrays, the same for every row."""
    rows = np.arange(X.shape[0])
    for _ in range(params.depth):
        go_left = X[rows, params.feature[node]] <= params.threshold[node]
        node = params.child[2 * node + go_left]
    return node


class _Workspace:
    """Scratch arrays for growing trees on ``n`` rows of ``n_features`` features.

    ``fit`` makes one for its call, so concurrent fits share nothing.
    Every per-node temporary of ``_best_split`` and ``_grow`` is the front
    of one of these buffers; a node scores one feature at a time, so each
    buffer holds one feature's rows.
    """

    def __init__(self, n_features: int, n: int) -> None:
        self.order = np.empty((n_features, n), dtype=np.intp)  # a tree's drawn rows
        self.pos = np.empty(n, dtype=np.intp)  # each row's positive copies
        self.ints = np.empty((2, n), dtype=np.intp)
        self.floats = np.empty((5, n), dtype=np.float64)
        self.bools = np.empty((2, n), dtype=bool)


def _weighted_gini(size: np.ndarray, pos: np.ndarray, out: np.ndarray, term: np.ndarray) -> None:
    """``size * (1 - (pos / size)**2 - ((size - pos) / size)**2)`` into ``out``,
    one operation at a time in that order; ``term`` is scratch."""
    np.divide(pos, size, out=out)
    np.square(out, out=out)
    np.subtract(1.0, out, out=out)
    np.subtract(size, pos, out=term)
    np.divide(term, size, out=term)
    np.square(term, out=term)
    np.subtract(out, term, out=out)
    np.multiply(size, out, out=out)


def _best_split(
    cols: np.ndarray,
    counts: np.ndarray,
    pos: np.ndarray,
    order: np.ndarray,
    min_leaf: int,
    ws: _Workspace,
):
    """Lowest weighted-Gini split of a node, or None when no candidate is valid.

    ``order[f]`` holds the node's rows sorted by feature f; row r stands
    for ``counts[r]`` copies of itself, ``pos[r]`` of them positive. Only
    boundaries between distinct values are candidates, and there the
    cumulative counts equal those of the copies laid out one by one, so
    every score, and the first minimum, is what the copies would give.
    Returns (feature, threshold, rows on the left of ``order[feature]``,
    copies on the left, positive copies on the left). Every temporary is
    a view into ``ws``.
    """
    m = order.shape[1]
    xs, ci, pi = ws.floats[0, :m], ws.ints[0, :m], ws.ints[1, :m]
    best = None
    for f in range(order.shape[0]):
        # mode="clip" writes straight into ``out``, where the default
        # "raise" fills a temporary first; every index is in range.
        cols[f].take(order[f], out=xs, mode="clip")
        counts.take(order[f], out=ci, mode="clip")
        pos.take(order[f], out=pi, mode="clip")
        ci.cumsum(out=ci)
        pi.cumsum(out=pi)
        n = int(ci[-1])
        # Left sizes never fall, so the boundaries whose sides both hold
        # min_leaf copies form one range [lo, hi).
        lo = int(ci[:-1].searchsorted(min_leaf))
        hi = int(ci[:-1].searchsorted(n - min_leaf, side="right"))
        if lo >= hi:
            continue
        k = hi - lo
        valid = ws.bools[0, :k]
        np.greater(xs[lo + 1 : hi + 1], xs[lo:hi], out=valid)
        if not valid.any():
            continue
        sizes_l, sizes_r, pos_side, term = (ws.floats[j, :k] for j in range(1, 5))
        score = xs[:k]  # the gathered values are spent
        np.copyto(sizes_l, ci[lo:hi])
        np.subtract(n, sizes_l, out=sizes_r)
        np.copyto(pos_side, pi[lo:hi])
        _weighted_gini(sizes_l, pos_side, score, term)
        np.subtract(float(pi[-1]), pos_side, out=pos_side)
        right = sizes_l  # spent too
        _weighted_gini(sizes_r, pos_side, right, term)
        np.add(score, right, out=score)
        np.divide(score, n, out=score)
        np.logical_not(valid, out=valid)
        np.copyto(score, np.inf, where=valid)
        i = int(np.argmin(score))
        # Strictly lower only: ties keep the lower feature, and argmin the
        # lower threshold.
        if best is None or score[i] < best[0]:
            best = (float(score[i]), f, lo + i, int(ci[lo + i]), int(pi[lo + i]))
    if best is None:
        return None
    _, f, i, n_l, n_pos_l = best
    lower, upper = float(cols[f, order[f, i]]), float(cols[f, order[f, i + 1]])
    threshold = 0.5 * (lower + upper)
    # The midpoint can round onto the upper value; fall back to the exact
    # lower value so the partition matches the scan.
    if not lower <= threshold < upper:
        threshold = lower
    return f, threshold, i + 1, n_l, n_pos_l


def _grow(
    cols: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    order: np.ndarray,
    max_depth,
    min_leaf: int,
    ws: _Workspace,
) -> TreeArrays:
    """One tree grown on the rows with ``counts > 0``, row r counted ``counts[r]`` times.

    ``cols`` is (features, rows); ``order[f]`` lists every row sorted by
    feature f, stably. The drawn rows' orders go to ``ws.order``, where
    each node owns one slice of every feature's order. A split feature's
    slice is partitioned already; the other features' slices are
    partitioned stably, so the children's slices stay sorted and no node
    sorts.
    """
    n_features, n = order.shape
    pos = ws.pos[:n]
    np.multiply(counts, y, out=pos)
    drawn, picked = ws.bools[0, :n], ws.bools[1, :n]
    np.greater(counts, 0, out=drawn)
    kept = ws.order[:, : int(np.count_nonzero(drawn))]
    for f in range(n_features):
        drawn.take(order[f], out=picked, mode="clip")
        order[f].compress(picked, out=kept[f])
    order = kept
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node(n_pos: int, n: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(n_pos / n)
        return len(feature) - 1

    root_n, root_pos = int(counts.sum()), int(pos.sum())
    stack = [(new_node(root_pos, root_n), 0, order.shape[1], root_n, root_pos, 0)]
    while stack:
        node, start, stop, n, n_pos, depth = stack.pop()
        pure = n_pos == 0 or n_pos == n
        if pure or (max_depth is not None and depth >= max_depth) or n < 2 * min_leaf:
            continue
        rows = order[:, start:stop]
        split = _best_split(cols, counts, pos, rows, min_leaf, ws)
        if split is None:
            continue
        f, thr, n_rows_l, n_l, n_pos_l = split
        m = stop - start
        x, go_left, parted = ws.floats[0, :m], ws.bools[0, :m], ws.ints[0, :m]
        for g in range(n_features):
            if g == f:
                continue
            cols[f].take(rows[g], out=x, mode="clip")
            np.less_equal(x, thr, out=go_left)
            rows[g].compress(go_left, out=parted[:n_rows_l])
            np.logical_not(go_left, out=go_left)
            rows[g].compress(go_left, out=parted[n_rows_l:])
            np.copyto(rows[g], parted)
        mid = start + n_rows_l
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node(n_pos_l, n_l)
        right[node] = new_node(n_pos - n_pos_l, n - n_l)
        stack.append((left[node], start, mid, n_l, n_pos_l, depth + 1))
        stack.append((right[node], mid, stop, n - n_l, n_pos - n_pos_l, depth + 1))

    return TreeArrays(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def fit(Xs: np.ndarray, y: np.ndarray, hyperparams: dict, seed: int) -> ForestParams:
    """Tree t drawn with the t-th child of ``SeedSequence(seed)``."""
    n = y.shape[0]
    max_depth, min_leaf = hyperparams["max_depth"], hyperparams["min_leaf"]
    cols = np.ascontiguousarray(np.asarray(Xs, dtype=np.float64).T)
    order = np.argsort(cols, axis=1, kind="stable")
    ws = _Workspace(*cols.shape)
    seeds = np.random.SeedSequence(seed).spawn(hyperparams["n_trees"])
    trees = []
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        if hyperparams["bootstrap"]:
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        else:
            counts = np.ones(n, dtype=np.intp)
        trees.append(_grow(cols, y, counts, order, max_depth, min_leaf, ws))
    # The lookup table is built once growth's arrays are freed, so its
    # temporaries do not add to the fit's peak memory.
    del cols, order, ws
    return ForestParams(trees=tuple(trees))


def to_params(params: ForestParams) -> dict:
    return {
        "trees": [{f.name: getattr(t, f.name).tolist() for f in fields(t)} for t in params.trees]
    }


def _tree(raw: dict) -> TreeArrays:
    """Node arrays whose every path reaches a leaf: children follow parents.
    ``ForestParams`` checks that each node but the root has one parent."""
    feature = _ints(raw["feature"], "tree feature")
    left = _ints(raw["left"], "tree left")
    right = _ints(raw["right"], "tree right")
    threshold = _floats(raw["threshold"], "tree threshold")
    value = _floats(raw["value"], "tree value")
    m = feature.shape[0]
    _check(m >= 1 and all(a.shape == (m,) for a in (left, right, threshold, value)),
           "tree arrays must be nonempty and of equal length")
    _check(np.isin(feature, (-1, 0, 1)).all(), "tree feature must be -1, 0 or 1")
    node = np.arange(m)
    split = (left > node) & (right > node) & (left < m) & (right < m)
    leaf = (left == -1) & (right == -1)
    _check(np.where(feature >= 0, split, leaf).all(),
           "tree children must follow their node inside the arrays, and leaves have none")
    _check(((value >= 0.0) & (value <= 1.0)).all(), "tree values must lie in [0, 1]")
    _known(raw, ("feature", "threshold", "left", "right", "value"), "a tree")
    return TreeArrays(
        feature=feature.astype(np.int32),
        threshold=threshold,
        left=left.astype(np.int32),
        right=right.astype(np.int32),
        value=value,
    )


def from_params(raw: dict, hyperparams: dict) -> ForestParams:
    trees = tuple(_tree(t) for t in raw["trees"])
    _known(raw, ("trees",), "trees params")
    return ForestParams(trees=trees)


def scores(params: ForestParams, hyperparams: dict, Xs: np.ndarray) -> np.ndarray:
    """Mean leaf positive-class fraction across the ensemble; no
    hyperparameter acts on scoring.

    Each row's leaves come from the lookup table, or from the fused walk
    for a forest without one. Leaf values are summed in tree order from
    +0.0, then divided by the tree count.
    """
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    n_trees = params.roots.shape[0]
    block = max(1, _BLOCK_CELLS // n_trees)
    out = np.empty(Xs.shape[0], dtype=np.float64)
    for start in range(0, Xs.shape[0], block):
        X = Xs[start : start + block]
        if params.table is None:
            node = np.repeat(params.roots[:, None], X.shape[0], axis=1)
            values = params.value[_walk(params, X, node)]
        else:
            # searchsorted's default side, "left", counts the thresholds
            # below each value.
            (grid0, grid1), (cell0, cell1) = params.grid, params.cell
            cells = cell0[:, grid0.searchsorted(X[:, 0])] + cell1[:, grid1.searchsorted(X[:, 1])]
            values = params.table[cells]
        # cumsum adds one tree at a time, in order. Adding +0.0 gives the
        # sum from +0.0: it turns a sum of -0.0 leaves into +0.0.
        total = np.cumsum(values, axis=0)[-1] + 0.0
        out[start : start + block] = total / n_trees
    return out
