"""Weighted k-nearest-neighbors over standardized pair features.

Votes are weighted by inverse squared Euclidean distance in standardized
feature space. Exact feature matches (distance 0) dominate the vote.
Ties in neighbor selection at the k-th position are broken toward label 0,
so prediction is deterministic; which of the points equal in distance and
label is taken does not matter, as they cast equal votes.

The search is exact and goes through a uniform grid over the training
points. Its cells are sized for where the points are: the side that gives
about four points a cell over the bounding box is shrunk, from one count
of its cells, so that a training point's cell holds about four points on
average over the points, with about two cells a point at most. A
summed-area table of the cell counts gives any window's count in four
lookups. A call resolves all its rows together, in rounds of whole-array
work. Each row starts from the smallest square of cells around its own
cell, among half-widths 0, 1, 2, 3, 4, 6, 9, ..., that holds about 4k
points, so it holds at least k. That half-width depends only on the cell
and k, so the grid keeps it for every cell, one byte a cell, derived from
the summed-area table for the model's own k when the grid is built; a row
takes it in one lookup. A call that asks for another k derives that k's
table the same way, for the call. The k-th smallest squared distance in the
window bounds the true one; when the padded radius of that bound stays
inside the window, every point that brute force could select is in it,
and the row is scored from the window: each window point has one key
that orders (distance, label), and the row's k smallest keys, sorted
within the row, vote.
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

from .base import DEFAULT_HYPERPARAMS, _check, _floats, _ints, _known

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

# 8-byte values one chunk of rows may fill (1 MB), so memory does not grow
# with the call; see _chunks.
_CHUNK_ELEMENTS = 1 << 17

# Signs that turn a radius into the lower and upper corners of a square.
_CORNERS = np.array([-1.0, 1.0])[:, None, None]

# The key that pads a row: it sorts after every window point's.
_PAD = np.iinfo(np.uint64).max


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
    ``first[c]`` indexes in ``halves`` the half-width of the first window of
    a query in cell ``c``, for ``k``; see :meth:`_levels`.
    """

    points: np.ndarray  # (n, 2) standardized training features
    labels: np.ndarray  # (n,) uint8
    k: int  # neighbors the first windows are sized for
    origin: np.ndarray = field(init=False, repr=False)  # (2,) lower corner
    cell: float = field(init=False, repr=False)  # side of a square cell
    shape: tuple[int, int] = field(init=False, repr=False)  # cells along x, y
    order: np.ndarray = field(init=False, repr=False)  # (n,) cell-sorted indices
    starts: np.ndarray = field(init=False, repr=False)  # (cells + 1,) CSR offsets
    counts: np.ndarray = field(init=False, repr=False)  # flat summed-area table
    halves: np.ndarray = field(init=False, repr=False)  # half-widths a first window may take
    last: np.ndarray = field(init=False, repr=False)  # (2,) last cell of each axis
    target: int = field(init=False, repr=False)  # points a first window holds for k
    first: np.ndarray = field(init=False, repr=False)  # (cells,) uint8 index in halves

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
        for name, value in (("order", order), ("starts", starts), ("counts", counts),
                            ("halves", np.array(halves, dtype=np.intp))):
            value.setflags(write=False)
            set_(self, name, value)
        set_(self, "target", _target(self.k, n))
        set_(self, "first", self._levels(self.target))
        self.first.setflags(write=False)

    def _grid(self, pts: np.ndarray, side: float, ext: list) -> np.ndarray:
        """Sets the grid of cells of ``side`` over the box and returns the
        flat cell of each point."""
        object.__setattr__(self, "cell", side)
        object.__setattr__(self, "shape", (1 + int(ext[0] / side), 1 + int(ext[1] / side)))
        last = np.array(self.shape) - 1
        last.setflags(write=False)
        object.__setattr__(self, "last", last)
        cells = self._cells(pts)
        return cells[:, 0] * self.shape[1] + cells[:, 1]

    def _cells(self, xy: np.ndarray) -> np.ndarray:
        """Clamped (cx, cy) cell of each row; NaN maps to cell 0."""
        c = np.floor((xy - self.origin) / self.cell)
        return np.fmin(np.fmax(c, 0.0), self.last).astype(np.intp)

    def _held(self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """Points in the windows of cells ``(x0, y0)`` to ``(x1, y1)``,
        inclusive corners."""
        s, w = self.counts, self.shape[1] + 1
        x0, x1, y1 = x0 * w, (x1 + 1) * w, y1 + 1
        return s[x1 + y1] - s[x0 + y1] - s[x1 + y0] + s[x0 + y0]

    def _levels(self, target: int) -> np.ndarray:
        """For each cell, the index in ``halves`` of the first half-width
        whose square of cells around it, clamped to the grid, holds at least
        ``target`` points.

        The last half-width covers the grid from any cell, so ``target``
        must be at most n. The index is the number of half-widths whose
        square holds fewer. Each half-width counts, from the summed-area
        table, the squares of the grid rows that still have a cell short of
        ``target``; rows go in blocks, so that memory does not grow with the
        grid.
        """
        nx, ny = self.shape
        s = self.counts.reshape(nx + 1, ny + 1)
        # Half-widths grow by half, so a grid has far fewer than 256.
        level = np.zeros((nx, ny), dtype=np.uint8)
        y = np.arange(ny)
        # A block's (rows, ny + 1) counts take a quarter of _CHUNK_ELEMENTS.
        block = max(1, _CHUNK_ELEMENTS // (4 * (ny + 1)))
        for x0 in range(0, nx, block):
            x = np.arange(x0, min(x0 + block, nx))
            for h in self.halves.tolist():
                # The counts of the rows' squares: columns of the x range
                # first, then the y range of each.
                band = s[np.minimum(x + h + 1, nx)] - s[np.maximum(x - h, 0)]
                short = band[:, np.minimum(y + h + 1, ny)] - band[:, np.maximum(y - h, 0)] < target
                level[x] += short
                x = x[short.any(axis=1)]
                if not x.size:
                    break
        return level.ravel()

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


def _target(k: int, n: int) -> int:
    """Points the first window of a query holds for ``k`` of ``n``."""
    return min(_FIRST_WINDOW * min(k, n), n)


def fit(Xs: np.ndarray, y: np.ndarray, hyperparams: dict, seed: int) -> KnnParams:
    """The training set, indexed, with first windows sized for
    ``hyperparams["k"]`` (the default k when it names none)."""
    pts = np.array(Xs, dtype=np.float64)
    labels = np.array(y, dtype=np.uint8)
    pts.setflags(write=False)
    labels.setflags(write=False)
    k = hyperparams.get("k", DEFAULT_HYPERPARAMS["weighted_knn"]["k"])
    return KnnParams(points=pts, labels=labels, k=int(k))


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
    return KnnParams(points=points, labels=labels.astype(np.uint8), k=int(hyperparams["k"]))


def _chunks(count: np.ndarray) -> list:
    """Sets of rows that each fill at most ``_CHUNK_ELEMENTS`` 8-byte
    values, or a single set of every row if it fits.

    Rows whose windows hold ``count`` points take about four flat arrays
    of that many values (indices, squared distances and keys) and a
    (rows x widest window) matrix of keys. A row too
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
    # One key a window point, in rows padded with keys that sort last. A
    # squared distance is +0.0 to inf, so its bits order as unsigned
    # integers do, and with the label, 0 or 1, as the lowest bit one key
    # orders (distance, label); inf's key stays below the padding. The index
    # needs no key: points equal in distance and label cast equal votes.
    width = int(count.max())
    key = np.full((m, width), _PAD, dtype=np.uint64)
    key[np.arange(width) < count[:, None]] = (d2.view(np.uint64) << 1) | params.labels[idx]
    key.partition(k - 1, axis=1)
    kth = (key[:, k - 1] >> 1).view(np.float64)
    # Every point within the bound lies in the cells that meet the square
    # of half-width r around the query.
    r = np.sqrt(kth) * (1.0 + _RADIUS_REL_PAD) + _RADIUS_ABS_PAD
    reach = params._cells(q + r[:, None] * _CORNERS)
    done = ((reach[0] >= lo) & (reach[1] <= hi)).all(axis=1)
    key = key[done, :k]
    key.sort(axis=1)
    d2 = (key >> 1).view(np.float64)
    y = (key & 1).astype(np.float64)
    # Exact matches outvote the rest: a row with one votes the mean label
    # of its exact matches.
    exact = d2[:, :1] == 0.0
    w = 1.0 / np.where(exact, np.where(d2 == 0.0, 1.0, np.inf), d2)
    return (w * y).sum(axis=1) / w.sum(axis=1), done, reach


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
    q = Xs if rows.size == Xs.shape[0] else Xs[rows]
    # Each row's first window: the square of its cell's half-width, from
    # the table built for the params' own k or, for another k, one built
    # for the call.
    target = _target(k, n)
    first = params.first if target == params.target else params._levels(target)
    cell = params._cells(q)
    half = params.halves[first[cell[:, 0] * params.shape[1] + cell[:, 1]]][:, None]
    lo, hi = np.maximum(cell - half, 0), np.minimum(cell + half, params.last)
    count = params._held(*lo.T, *hi.T)
    while rows.size:
        again = []
        for part in _chunks(count):
            score, ok, reach = _round(params, k, q[part], lo[part], hi[part], count[part])
            out[rows[part][ok]] = score
            if not ok.all():
                # A row that is not certified goes round again with the
                # square its bound reaches, which certifies it.
                left = ~ok
                again.append((rows[part][left], q[part][left], reach[0][left], reach[1][left]))
        if not again:
            break
        rows, q, lo, hi = map(np.concatenate, zip(*again))
        count = params._held(*lo.T, *hi.T)
    return out
