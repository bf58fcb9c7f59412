"""Weighted k-nearest-neighbors over standardized pair features.

Votes are weighted by inverse squared Euclidean distance in standardized
feature space. Exact feature matches (distance 0) dominate the vote.
Ties in neighbor selection at the k-th position are broken toward label 0,
then toward the lower training index, so prediction is deterministic.

The search is exact and goes through a uniform grid over the training
points. Each query finds an upper bound on its k-th squared distance from
a square of cells around it, then scores every point in the cells that
bound can reach, in training-index order. Every point that brute force
could select is among them, and the squared distances are computed by the
same float operations, so the scores are bit-identical to a vote over all
training points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Extra neighbors kept past k so boundary ties can be resolved without
# sorting the whole row; if ties spill past the buffer we fall back to a
# full sort of that row.
_TIE_BUFFER = 8

# Training points per grid cell, on average over the bounding box.
_POINTS_PER_CELL = 4.0

# Widening of the certified search radius. A point whose rounded squared
# distance is at most the bound lies within sqrt(bound) up to a few ulps,
# or within the range where squares underflow to zero.
_RADIUS_REL_PAD = 1e-9
_RADIUS_ABS_PAD = 1e-150


@dataclass(frozen=True)
class KnnParams:
    """Training set plus the grid index built from it.

    Cell (cx, cy) spans ``origin + cell * [cx, cx + 1) x [cy, cy + 1)``;
    points beyond the last cell of an axis are clamped into it. The
    points of cell ``c = cx * shape[1] + cy`` are
    ``order[starts[c]:starts[c + 1]]``, in ascending training index. A
    column of cells is contiguous, so a search square that spans every row
    (queries far out along the distance feature, whose range has no upper
    limit) reads one slice of ``order``.
    """

    points: np.ndarray  # (n, 2) standardized training features
    labels: np.ndarray  # (n,) uint8
    origin: np.ndarray = field(init=False, repr=False)  # (2,) lower corner
    cell: float = field(init=False, repr=False)  # side of a square cell
    shape: tuple[int, int] = field(init=False, repr=False)  # cells along x, y
    order: np.ndarray = field(init=False, repr=False)  # (n,) cell-sorted indices
    starts: tuple[int, ...] = field(init=False, repr=False)  # cells + 1 CSR offsets

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
        set_(self, "order", order)
        set_(self, "starts", tuple(starts.tolist()))

    def _cells(self, xy: np.ndarray) -> np.ndarray:
        """Clamped (cx, cy) cell of each row; NaN maps to cell 0."""
        c = np.floor((xy - self.origin) / self.cell)
        c = np.fmin(np.fmax(c, 0.0), np.array(self.shape) - 1.0)
        return c.astype(np.intp)

    def _spans(self, x0: int, x1: int, y0: int, y1: int) -> list[tuple[int, int]]:
        """Ranges of ``order`` that hold the cells [x0, x1] x [y0, y1]."""
        ny = self.shape[1]
        s = self.starts
        if y0 == 0 and y1 == ny - 1:
            return [(s[x0 * ny], s[(x1 + 1) * ny])]
        return [(s[c + y0], s[c + y1 + 1]) for c in range(x0 * ny, x1 * ny + 1, ny)]

    def _gather(self, spans: list[tuple[int, int]]) -> np.ndarray:
        return np.concatenate([self.order[a:b] for a, b in spans])


def fit(Xs: np.ndarray, y: np.ndarray) -> KnnParams:
    pts = np.array(Xs, dtype=np.float64)
    labels = np.array(y, dtype=np.uint8)
    pts.setflags(write=False)
    labels.setflags(write=False)
    return KnnParams(points=pts, labels=labels)


def _row_score(d2: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Score one query given squared distances to every training point."""
    n = d2.shape[0]
    kth = min(k + _TIE_BUFFER, n) - 1
    cand = np.argpartition(d2, kth)[: kth + 1]
    order = np.lexsort((cand, labels[cand], d2[cand]))
    cand = cand[order]
    # Boundary tie spilling past the buffer: resort the full row.
    if kth + 1 < n and d2[cand[k - 1]] == d2[cand[-1]]:
        cand = np.lexsort((np.arange(n), labels, d2))
    sel = cand[:k]
    d2_sel = d2[sel]
    y_sel = labels[sel].astype(np.float64)
    if d2_sel[0] == 0.0:
        exact = d2_sel == 0.0
        return float(y_sel[exact].mean())
    w = 1.0 / d2_sel
    return float((w * y_sel).sum() / w.sum())


def scores(params: KnnParams, k: int, Xs: np.ndarray) -> np.ndarray:
    """Weighted positive-class vote for each standardized query row."""
    pts = params.points
    labels = params.labels
    n = pts.shape[0]
    k = min(int(k), n)
    if k < 1:
        raise ValueError("k must be >= 1")
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    px = pts[:, 0]
    py = pts[:, 1]
    nx, ny = params.shape
    m = Xs.shape[0]
    # Double the square around each query's cell until it holds k points;
    # the k-th squared distance among them bounds the true one.
    bound = np.empty(m, dtype=np.float64)
    for i, ((cx, cy), (qx, qy)) in enumerate(zip(params._cells(Xs).tolist(), Xs.tolist())):
        radius = 0
        while True:
            spans = params._spans(
                max(cx - radius, 0), min(cx + radius, nx - 1),
                max(cy - radius, 0), min(cy + radius, ny - 1),
            )
            if sum(b - a for a, b in spans) >= k:
                break
            radius = 2 * radius + 1
        near = params._gather(spans)
        d2 = (qx - px[near]) ** 2 + (qy - py[near]) ** 2
        bound[i] = np.partition(d2, k - 1)[k - 1]
    # Every point whose squared distance is at most the bound lies in the
    # cells that meet the square of half-width r around the query. They
    # are scored in training-index order, as brute force sees them.
    r = (np.sqrt(bound) * (1.0 + _RADIUS_REL_PAD) + _RADIUS_ABS_PAD)[:, None]
    lower = params._cells(Xs - r).tolist()
    upper = params._cells(Xs + r).tolist()
    out = np.empty(m, dtype=np.float64)
    for i, ((qx, qy), (x0, y0), (x1, y1)) in enumerate(zip(Xs.tolist(), lower, upper)):
        cand = np.sort(params._gather(params._spans(x0, x1, y0, y1)))
        d2 = (qx - px[cand]) ** 2 + (qy - py[cand]) ** 2
        out[i] = _row_score(d2, labels[cand], k)
    return out
