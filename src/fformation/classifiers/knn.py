"""Weighted k-nearest-neighbors over standardized pair features.

Votes are weighted by inverse squared Euclidean distance in standardized
feature space. Exact feature matches (distance 0) dominate the vote.
Ties in neighbor selection at the k-th position are broken toward label 0,
then toward the lower training index, so prediction is deterministic.

The search is exact and goes through a uniform grid over the training
points. A call resolves all its rows together, in rounds of whole-array
work. Each row starts from the 3 x 3 window of cells around its own cell.
The k-th smallest squared distance in the window bounds the true one; when
the padded radius of that bound stays inside the window, every point that
brute force could select is in it, and the row is scored from the window.
Otherwise the row goes round again with a wider window: the square its
bound reaches, or twice the half-width if the window held fewer than k
points. The squared distances are computed by the same float operations
as a vote over all training points, and the votes are summed in the same
order, so the scores are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import _check, _floats, _ints, _known

# Training points per grid cell, on average over the bounding box.
_POINTS_PER_CELL = 4.0

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


@dataclass(frozen=True)
class KnnParams:
    """Training set plus the grid index built from it.

    Cell (cx, cy) spans ``origin + cell * [cx, cx + 1) x [cy, cy + 1)``;
    points beyond the last cell of an axis are clamped into it. The
    points of cell ``c = cx * shape[1] + cy`` are
    ``order[starts[c]:starts[c + 1]]``, in ascending training index, so
    the cells of one column of a window are one slice of ``order``.
    """

    points: np.ndarray  # (n, 2) standardized training features
    labels: np.ndarray  # (n,) uint8
    origin: np.ndarray = field(init=False, repr=False)  # (2,) lower corner
    cell: float = field(init=False, repr=False)  # side of a square cell
    shape: tuple[int, int] = field(init=False, repr=False)  # cells along x, y
    order: np.ndarray = field(init=False, repr=False)  # (n,) cell-sorted indices
    starts: np.ndarray = field(init=False, repr=False)  # (cells + 1,) CSR offsets

    def __post_init__(self) -> None:
        pts = self.points
        n = pts.shape[0]
        lo = pts.min(axis=0)
        ext = [hi - low for hi, low in zip(pts.max(axis=0).tolist(), lo.tolist())]
        # The area sets the side; the longer extent caps the number of
        # cells when the box is thin. A box of one repeated point, or too
        # wide for floats, leaves a single cell.
        span = max(ext)
        side = span * _POINTS_PER_CELL / n
        if span < math.inf:
            side = max(side, math.sqrt(ext[0]) * math.sqrt(ext[1] * _POINTS_PER_CELL / n))
            if side == 0.0:
                side = 1.0
        shape = (1 + int(ext[0] / side), 1 + int(ext[1] / side)) if span < math.inf else (1, 1)
        set_ = object.__setattr__
        set_(self, "origin", lo)
        set_(self, "cell", side)
        set_(self, "shape", shape)
        cells = self._cells(pts)
        flat = cells[:, 0] * self.shape[1] + cells[:, 1]
        order = np.argsort(flat, kind="stable")
        starts = np.zeros(self.shape[0] * self.shape[1] + 1, dtype=np.intp)
        np.cumsum(np.bincount(flat, minlength=starts.shape[0] - 1), out=starts[1:])
        order.setflags(write=False)
        starts.setflags(write=False)
        set_(self, "order", order)
        set_(self, "starts", starts)

    def _cells(self, xy: np.ndarray) -> np.ndarray:
        """Clamped (cx, cy) cell of each row; NaN maps to cell 0."""
        c = np.floor((xy - self.origin) / self.cell)
        c = np.fmin(np.fmax(c, 0.0), np.array(self.shape) - 1.0)
        return c.astype(np.intp)

    def _columns(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ranges of ``order`` that hold the windows of cells ``lo`` to ``hi``.

        ``lo`` and ``hi`` are (rows, 2) inclusive corners. Each column of a
        window is one range. Returns the start and the length of each
        range, grouped by row, and the number of points in each window.
        """
        width = hi[:, 0] - lo[:, 0] + 1
        col = _ranges(lo[:, 0], width) * self.shape[1]
        start = self.starts[col + np.repeat(lo[:, 1], width)]
        length = self.starts[col + np.repeat(hi[:, 1] + 1, width)] - start
        return start, length, np.add.reduceat(length, np.cumsum(width) - width)


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
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search the windows ``lo`` to ``hi`` of queries ``q``, whose
    ``columns`` are as ``KnnParams._columns`` gives them.

    Returns the scores of the rows that their windows certify, which rows
    those are, and the corners of the square each row's bound reaches.
    """
    m = q.shape[0]
    start, length, count = columns
    idx = params.order[_ranges(start, length)]
    pts = params.points
    d2 = (np.repeat(q[:, 0], count) - pts[:, 0][idx]) ** 2 + (np.repeat(q[:, 1], count) - pts[:, 1][idx]) ** 2
    # The k-th squared distance of each row, with its window padded by inf.
    width = max(int(count.max()), k)
    padded = np.full((m, width), np.inf)
    padded[np.arange(width) < count[:, None]] = d2
    padded.partition(k - 1, axis=1)
    kth = padded[:, k - 1]
    # Every point within the bound lies in the cells that meet the square
    # of half-width r around the query.
    r = np.sqrt(kth) * (1.0 + _RADIUS_REL_PAD) + _RADIUS_ABS_PAD
    reach = params._cells(q + r[:, None] * _CORNERS)
    done = (count >= k) & ((reach[0] >= lo) & (reach[1] <= hi)).all(axis=1)
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
    last = np.array(params.shape) - 1
    cell = params._cells(q)
    half = np.ones(rows.shape[0], dtype=np.intp)
    lo = np.maximum(cell - 1, 0)
    hi = np.minimum(cell + 1, last)
    while rows.size:
        columns = params._columns(lo, hi)
        count = columns[2]
        done = np.zeros(rows.size, dtype=bool)
        parts = _chunks(np.maximum(count, k))
        for part in parts:
            if len(parts) > 1:
                columns = params._columns(lo[part], hi[part])
            score, ok, reach = _round(params, k, q[part], lo[part], hi[part], columns)
            out[rows[part][ok]] = score
            done[part] = ok
            # A row whose bound is known goes round again with the square
            # the bound reaches, which certifies it.
            lo[part], hi[part] = reach
        if done.all():
            break
        # A row whose window held fewer than k points doubles its half-width.
        few = count < k
        if few.any():
            half[few] = 2 * half[few] + 1
            lo[few] = np.maximum(cell[few] - half[few, None], 0)
            hi[few] = np.minimum(cell[few] + half[few, None], last)
        left = ~done
        rows, q, cell, half, lo, hi = rows[left], q[left], cell[left], half[left], lo[left], hi[left]
    return out
