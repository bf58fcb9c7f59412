"""Weighted k-nearest-neighbors over standardized pair features.

Votes are weighted by inverse squared Euclidean distance in standardized
feature space. Exact feature matches (distance 0) dominate the vote.
Ties in neighbor selection at the k-th position are broken toward label 0,
then toward the lower training index, so prediction is deterministic.

The search is exact and goes through a uniform grid over the training
points. Its cells are sized for where the points are: the side that gives
about four points a cell over the bounding box is shrunk, from one count
of its cells, so that a training point's cell holds about four points on
average over the points, with about two cells a point at most. A
summed-area table of the cell counts gives any window's count in four
lookups. A call resolves all its rows together, in rounds of whole-array
work. Each row starts from the smallest square of cells around its own
cell, among half-widths 0, 1, 2, 3, 4, 6, 9, ..., that holds about 4k
points, so it holds at least k. The k-th smallest squared distance in the
window bounds the true one; when the padded radius of that bound stays
inside the window, every point that brute force could select is in it,
and the row is scored from the window.
Otherwise the row goes round again with the square its bound reaches,
which certifies it, so no row takes more than two rounds. The squared
distances are computed by the same float operations as a vote over all
training points, and the votes are summed in the same order, so the
scores are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import _check, _floats, _ints, _known

# Grid cells are sized so that the cell of a training point holds about
# _POINTS_PER_CELL points, on average over the points, with at most about
# _CELLS_PER_POINT cells a point.
_POINTS_PER_CELL = 4.0
_CELLS_PER_POINT = 2.0

# Points a row's first window holds, per neighbor asked for: enough that
# the k-th nearest lies inside it, for about evenly spread points.
_FIRST_WINDOW = 4

# Widening of the certified search radius. A point whose rounded squared
# distance is at most the bound lies within sqrt(bound) up to a few ulps,
# or within the range where squares underflow to zero.
_RADIUS_REL_PAD = 1e-9
_RADIUS_ABS_PAD = 1e-150

# Float64 values one chunk of rows may fill (1 MB), so memory does not grow
# with the call; see _chunks.
_CHUNK_ELEMENTS = 1 << 17

# Signs that turn a radius into the lower and upper corners of a square.
_CORNERS = np.array([-1.0, 1.0])[:, None, None]


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``s, s + 1, ..., s + n - 1`` for each ``s`` of ``start`` and ``n``
    of ``length``, end to end."""
    ends = np.cumsum(length)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(start - (ends - length), length)


def _box_side(ext: list, n: int, per_cell: float) -> float:
    """Side of square cells that hold ``per_cell`` of ``n`` points each, on
    average over a box of extents ``ext``. The area sets the side; the
    longer extent caps the number of cells when the box is thin."""
    return max(max(ext) * per_cell / n, math.sqrt(ext[0]) * math.sqrt(ext[1] * per_cell / n))


@dataclass(frozen=True, eq=False)
class KnnParams:
    """Training set plus the grid index built from it.

    Cell (cx, cy) spans ``origin + cell * [cx, cx + 1) x [cy, cy + 1)``;
    points beyond the last cell of an axis are clamped into it. The
    points of cell ``c = cx * shape[1] + cy`` are
    ``order[starts[c]:starts[c + 1]]``, in ascending training index, so
    the cells of one column of a window are one slice of ``order``.
    ``counts[i * (shape[1] + 1) + j]`` is the number of points in the cells
    below ``(i, j)`` on both axes, so any window's count takes four lookups.
    """

    points: np.ndarray  # (n, 2) standardized training features
    labels: np.ndarray  # (n,) uint8
    origin: np.ndarray = field(init=False, repr=False)  # (2,) lower corner
    cell: float = field(init=False, repr=False)  # side of a square cell
    shape: tuple[int, int] = field(init=False, repr=False)  # cells along x, y
    order: np.ndarray = field(init=False, repr=False)  # (n,) cell-sorted indices
    starts: np.ndarray = field(init=False, repr=False)  # (cells + 1,) CSR offsets
    counts: np.ndarray = field(init=False, repr=False)  # flat summed-area table
    halves: np.ndarray = field(init=False, repr=False)  # half-widths a first window may take

    def __post_init__(self) -> None:
        pts = self.points
        n = pts.shape[0]
        lo = pts.min(axis=0)
        ext = [hi - low for hi, low in zip(pts.max(axis=0).tolist(), lo.tolist())]
        set_ = object.__setattr__
        set_(self, "origin", lo)
        # A box of one repeated point, or too wide for floats, leaves a
        # single cell.
        if max(ext) < math.inf:
            side = _box_side(ext, n, _POINTS_PER_CELL) or 1.0
            # The points crowd into part of the box. A point's cell holds
            # sum(count ** 2) / n points on average over the points; shrink
            # the side to bring that to _POINTS_PER_CELL, taking counts as
            # following the area, but to no more than about
            # _CELLS_PER_POINT * n cells.
            per_cell = np.bincount(self._grid(pts, side, ext)).astype(np.float64)
            refined = side * math.sqrt(_POINTS_PER_CELL * n / float(per_cell @ per_cell))
            if refined < side:
                side = max(refined, _box_side(ext, n, 1.0 / _CELLS_PER_POINT)) or side
        else:
            side, ext = math.inf, [0.0, 0.0]
        flat = self._grid(pts, side, ext)
        order = np.argsort(flat, kind="stable")
        nx, ny = self.shape
        per_cell = np.bincount(flat, minlength=nx * ny)
        starts = np.zeros(nx * ny + 1, dtype=np.intp)
        np.cumsum(per_cell, out=starts[1:])
        counts = np.zeros((nx + 1, ny + 1), dtype=np.intp)
        np.cumsum(np.cumsum(per_cell.reshape(nx, ny), axis=0), axis=1, out=counts[1:, 1:])
        counts = counts.ravel()
        halves = [0]
        while halves[-1] < max(nx, ny) - 1:
            halves.append(halves[-1] + max(1, halves[-1] // 2))
        halves = np.array(halves, dtype=np.intp)
        for name, value in (("order", order), ("starts", starts), ("counts", counts), ("halves", halves)):
            value.setflags(write=False)
            set_(self, name, value)

    def _grid(self, pts: np.ndarray, side: float, ext: list) -> np.ndarray:
        """Sets the grid of cells of ``side`` over the box and returns the
        flat cell of each point."""
        object.__setattr__(self, "cell", side)
        object.__setattr__(self, "shape", (1 + int(ext[0] / side), 1 + int(ext[1] / side)))
        cells = self._cells(pts)
        return cells[:, 0] * self.shape[1] + cells[:, 1]

    def _cells(self, xy: np.ndarray) -> np.ndarray:
        """Clamped (cx, cy) cell of each row; NaN maps to cell 0."""
        c = np.floor((xy - self.origin) / self.cell)
        c = np.fmin(np.fmax(c, 0.0), np.array(self.shape) - 1.0)
        return c.astype(np.intp)

    def _held(self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """Points in the windows of cells ``(x0, y0)`` to ``(x1, y1)``,
        inclusive corners."""
        s, w = self.counts, self.shape[1] + 1
        x0, x1, y1 = x0 * w, (x1 + 1) * w, y1 + 1
        return s[x1 + y1] - s[x0 + y1] - s[x1 + y0] + s[x0 + y0]

    def _first(self, cell: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first window of each row: the square of cells around its
        ``cell``, clamped to the grid, of the first of ``halves`` that holds
        at least ``target`` points.

        The last half-width covers the grid from any cell, so ``target``
        must be at most n. Returns the inclusive corners of the windows and
        their counts. Rows are looked up in blocks, so that memory does not
        grow with the call.
        """
        m = cell.shape[0]
        lo, hi = np.empty_like(cell), np.empty_like(cell)
        held = np.empty(m, dtype=np.intp)
        last = np.array(self.shape)[:, None] - 1
        block = max(1, _CHUNK_ELEMENTS // (8 * self.halves.size))
        for b in range(0, m, block):
            c = cell[b : b + block, :, None]
            low, high = np.maximum(c - self.halves, 0), np.minimum(c + self.halves, last)
            count = self._held(low[:, 0], low[:, 1], high[:, 0], high[:, 1])
            level = np.argmax(count >= target, axis=1)
            row = np.arange(level.size)
            lo[b : b + block], hi[b : b + block] = low[row, :, level], high[row, :, level]
            held[b : b + block] = count[row, level]
        return lo, hi, held

    def _columns(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ranges of ``order`` that hold the windows of cells ``lo`` to ``hi``.

        ``lo`` and ``hi`` are (rows, 2) inclusive corners. Each column of a
        window is one range. Returns the start and the length of each
        range, grouped by row.
        """
        width = hi[:, 0] - lo[:, 0] + 1
        col = _ranges(lo[:, 0], width) * self.shape[1]
        start = self.starts[col + np.repeat(lo[:, 1], width)]
        return start, self.starts[col + np.repeat(hi[:, 1] + 1, width)] - start


def fit(Xs: np.ndarray, y: np.ndarray, hyperparams: dict, seed: int) -> KnnParams:
    """The training set, indexed; ``k`` acts only in ``scores``."""
    pts = np.array(Xs, dtype=np.float64)
    labels = np.array(y, dtype=np.uint8)
    pts.setflags(write=False)
    labels.setflags(write=False)
    return KnnParams(points=pts, labels=labels)


def to_params(params: KnnParams) -> dict:
    return {"points": params.points.tolist(), "labels": params.labels.tolist()}


def from_params(raw: dict, hyperparams: dict) -> KnnParams:
    points = _floats(raw["points"], "knn points", rows=True)
    _check(points.ndim == 2 and points.shape[0] >= 1 and points.shape[1] == 2,
           "knn points must have shape (n, 2) with n >= 1")
    labels = _ints(raw["labels"], "knn labels")
    _check(labels.shape == (points.shape[0],), "knn needs one label per point")
    _check(np.isin(labels, (0, 1)).all(), "knn labels must be 0 or 1")
    _check("k" in hyperparams, "knn needs hyperparams.k")
    _known(raw, ("points", "labels"), "knn params")
    return KnnParams(points=points, labels=labels.astype(np.uint8))


def _chunks(count: np.ndarray) -> list:
    """Sets of rows that each fill at most ``_CHUNK_ELEMENTS`` float64
    values, or a single set of every row if it fits.

    Rows whose windows hold ``count`` points take about four flat arrays
    of that many values and a (rows x widest window) matrix. A row too
    wide for the budget makes a chunk of its own.
    """
    if 4 * int(count.sum()) + count.size * int(count.max()) <= _CHUNK_ELEMENTS:
        return [slice(None)]
    rows = np.argsort(count, kind="stable")
    count = count[rows]
    parts = []
    i = 0
    while i < count.size:
        c = count[i : i + _CHUNK_ELEMENTS // (5 * max(int(count[i]), 1))]
        cost = 4 * np.cumsum(c) + np.arange(1, c.size + 1) * c
        j = i + max(1, int(np.count_nonzero(cost <= _CHUNK_ELEMENTS)))
        parts.append(rows[i:j])
        i = j
    return parts


def _round(
    params: KnnParams,
    k: int,
    q: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    count: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search the windows ``lo`` to ``hi`` of queries ``q``, which hold
    ``count`` points each, at least k.

    Returns the scores of the rows that their windows certify, which rows
    those are, and the corners of the square each row's bound reaches.
    """
    m = q.shape[0]
    idx = params.order[_ranges(*params._columns(lo, hi))]
    pts = params.points
    d2 = (np.repeat(q[:, 0], count) - pts[:, 0][idx]) ** 2 + (np.repeat(q[:, 1], count) - pts[:, 1][idx]) ** 2
    # The k-th squared distance of each row, with its window padded by inf.
    width = int(count.max())
    padded = np.full((m, width), np.inf)
    padded[np.arange(width) < count[:, None]] = d2
    padded.partition(k - 1, axis=1)
    kth = padded[:, k - 1]
    # Every point within the bound lies in the cells that meet the square
    # of half-width r around the query.
    r = np.sqrt(kth) * (1.0 + _RADIUS_REL_PAD) + _RADIUS_ABS_PAD
    reach = params._cells(q + r[:, None] * _CORNERS)
    done = ((reach[0] >= lo) & (reach[1] <= hi)).all(axis=1)
    # Only the points within the bound can be selected: sort those by
    # (distance, label, index) and take the first k of each row.
    keep = np.flatnonzero(d2 <= np.repeat(np.where(done, kth, -1.0), count))
    rows = np.repeat(np.arange(m), count)[keep]
    idx, d2 = idx[keep], d2[keep]
    labels = params.labels[idx]
    first = np.lexsort((idx, labels, d2, rows))
    if keep.size > k * np.count_nonzero(done):  # ties at the k-th distance
        held = np.bincount(rows, minlength=m)[done]
        first = first[_ranges(np.cumsum(held) - held, np.full(held.size, k))]
    d2 = d2[first].reshape(-1, k)
    y = labels[first].reshape(-1, k).astype(np.float64)
    exact = d2[:, 0] == 0.0
    if not exact.any():
        w = 1.0 / d2
        return (w * y).sum(axis=1) / w.sum(axis=1), done, reach
    score = np.empty(d2.shape[0], dtype=np.float64)
    w = 1.0 / d2[~exact]
    score[~exact] = (w * y[~exact]).sum(axis=1) / w.sum(axis=1)
    # Exact matches outvote the rest: the mean label of the exact matches.
    hit = d2[exact] == 0.0
    score[exact] = (y[exact] * hit).sum(axis=1) / hit.sum(axis=1)
    return score, done, reach


def scores(params: KnnParams, hyperparams: dict, Xs: np.ndarray) -> np.ndarray:
    """Weighted positive-class vote of the ``hyperparams["k"]`` nearest
    training points, for each standardized query row.

    Rows that are not finite score NaN, as a vote over infinite distances
    does.
    """
    n = params.points.shape[0]
    k = min(int(hyperparams["k"]), n)
    if k < 1:
        raise ValueError("k must be >= 1")
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    out = np.full(Xs.shape[0], np.nan)
    rows = np.flatnonzero(np.isfinite(Xs).all(axis=1))
    q = Xs[rows]
    lo, hi, count = params._first(params._cells(q), min(_FIRST_WINDOW * k, n))
    while rows.size:
        done = np.zeros(rows.size, dtype=bool)
        for part in _chunks(count):
            score, ok, reach = _round(params, k, q[part], lo[part], hi[part], count[part])
            out[rows[part][ok]] = score
            done[part] = ok
            # A row that is not certified goes round again with the square
            # its bound reaches, which certifies it.
            lo[part], hi[part] = reach
        if done.all():
            break
        left = ~done
        rows, q, lo, hi = rows[left], q[left], lo[left], hi[left]
        count = params._held(*lo.T, *hi.T)
    return out
