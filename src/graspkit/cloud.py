"""Point-cloud container, spatial queries, preprocessing and normal estimation.

All operations are pure: they take immutable clouds and return new clouds.
Determinism is a hard requirement throughout, so every nearest-neighbor
query breaks distance ties by ascending point index and every reduction
runs in a fixed order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

logger = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-6
# knn_all: rows per block (bounds its scratch memory) and extra tree neighbours per row
KNN_BLOCK = 1024
KNN_SLACK = 8


def _as_points(arr, name: str) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {out.shape}")
    return out


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contain non-finite values (NaN or inf)")


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points with optional per-point normals, curvatures, confidences.

    Invariants enforced at construction: every array is finite, optional
    attribute arrays match the point count, normals are unit length within
    1e-6 and curvatures lie in [0, 1]. Arrays are marked read-only; treat
    instances as immutable.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    curvatures: np.ndarray | None = None
    confidences: np.ndarray | None = None

    def __post_init__(self):
        points = _as_points(self.points, "points")
        _check_finite(points, "points")
        object.__setattr__(self, "points", points)
        n = len(points)
        if self.normals is not None:
            normals = _as_points(self.normals, "normals")
            if len(normals) != n:
                raise ValueError("normals length does not match points")
            _check_finite(normals, "normals")
            norms = np.linalg.norm(normals, axis=1)
            if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
                raise ValueError("normals must be unit length within 1e-6")
            object.__setattr__(self, "normals", normals)
        if self.curvatures is not None:
            curv = np.ascontiguousarray(self.curvatures, dtype=np.float64)
            if curv.shape != (n,):
                raise ValueError("curvatures length does not match points")
            _check_finite(curv, "curvatures")
            if np.any(curv < 0.0) or np.any(curv > 1.0):
                raise ValueError("curvatures must lie in [0, 1]")
            object.__setattr__(self, "curvatures", curv)
        if self.confidences is not None:
            conf = np.ascontiguousarray(self.confidences, dtype=np.float64)
            if conf.shape != (n,):
                raise ValueError("confidences length does not match points")
            _check_finite(conf, "confidences")
            object.__setattr__(self, "confidences", conf)
        for arr in (self.points, self.normals, self.curvatures, self.confidences):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    @property
    def has_curvatures(self) -> bool:
        return self.curvatures is not None

    def centroid(self) -> np.ndarray:
        if len(self) == 0:
            raise ValueError("empty cloud has no centroid")
        return self.points.mean(axis=0)

    def bounding_radius(self) -> float:
        """Radius of the bounding sphere centered at the centroid."""
        if len(self) == 0:
            raise ValueError("empty cloud has no bounding radius")
        return float(np.linalg.norm(self.points - self.centroid(), axis=1).max())

    def select(self, indices) -> "PointCloud":
        """New cloud restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices)
        return PointCloud(
            points=self.points[idx],
            normals=None if self.normals is None else self.normals[idx],
            curvatures=None if self.curvatures is None else self.curvatures[idx],
            confidences=None if self.confidences is None else self.confidences[idx],
        )

    def with_attrs(self, normals=None, curvatures=None) -> "PointCloud":
        return PointCloud(
            points=self.points,
            normals=self.normals if normals is None else normals,
            curvatures=self.curvatures if curvatures is None else curvatures,
            confidences=self.confidences,
        )


class SpatialIndex:
    """k-NN / radius queries over a fixed cloud with deterministic tie-breaks.

    Results are sorted by ascending distance; exact distance ties are broken
    by ascending point index, so queries are reproducible bit for bit.
    """

    def __init__(self, cloud_or_points):
        pts = cloud_or_points.points if isinstance(cloud_or_points, PointCloud) else cloud_or_points
        self._points = _as_points(pts, "points")
        if len(self._points) == 0:
            raise ValueError("cannot index an empty cloud")
        self._tree = cKDTree(self._points)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        """Read-only view of the indexed points."""
        view = self._points.view()
        view.setflags(write=False)
        return view

    def _order(self, query: np.ndarray, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diff = self._points[candidates] - query
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2
        order = np.lexsort((candidates, d2))
        return candidates[order], np.sqrt(d2[order])

    def knn(self, query, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the k nearest points to ``query``."""
        query = np.asarray(query, dtype=np.float64)
        n = len(self._points)
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        dist, _ = self._tree.query(query, k=k)
        dk = float(np.max(dist))
        # Re-collect everything within the k-th distance (slightly inflated to
        # be safe against rounding) so ties at the boundary are resolved by
        # index rather than by tree traversal order.
        candidates = np.asarray(
            self._tree.query_ball_point(query, dk * (1.0 + 1e-9) + 1e-300), dtype=np.intp
        )
        idx, d = self._order(query, candidates)
        return idx[:k], d[:k]

    def _knn_rows(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact k-NN (indices, distances) of every row of ``queries`` (m, 3).

        Rows are computed in blocks of KNN_BLOCK: per block, the KNN_SLACK
        extra tree neighbours of each row are ordered by (d², index). A row
        is exact when its farthest candidate lies strictly beyond the k-th
        (relative 1e-8 in d², well above the tree's round-off and ``knn``'s
        1e-9 ball inflation), so no point outside the candidates can tie
        into the first k. The few other rows take the per-point ``knn``.
        """
        n = len(self._points)
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        m = min(k + KNN_SLACK, n)
        out_idx = np.empty((len(queries), k), dtype=np.intp)
        out_d = np.empty((len(queries), k), dtype=np.float64)
        for start in range(0, len(queries), KNN_BLOCK):
            query = queries[start : start + KNN_BLOCK]
            _, cand = self._tree.query(query, k=m)
            # ascending index first, so the stable sort by d² breaks ties by index
            cand = np.sort(cand.reshape(len(query), m), axis=1)
            diff = self._points[cand] - query[:, np.newaxis, :]
            d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2
            order = np.argsort(d2, axis=1, kind="stable")
            cand = np.take_along_axis(cand, order, axis=1)
            d2 = np.take_along_axis(d2, order, axis=1)
            out_idx[start : start + len(query)] = cand[:, :k]
            out_d[start : start + len(query)] = np.sqrt(d2[:, :k])
            if m < n:
                for i in np.flatnonzero(d2[:, -1] <= d2[:, k - 1] * (1.0 + 1e-8)):
                    out_idx[start + i], out_d[start + i] = self.knn(query[i], k)
        return out_idx, out_d

    def knn_all(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k-NN of every indexed point against the cloud itself.

        Returns (indices, distances) of shape (n, k), row i equal to
        ``knn(points[i], k)``. Each query point is its own nearest neighbor
        (distance 0) unless a duplicate point with a lower index exists.
        """
        return self._knn_rows(self._points, k)

    def nearest_many(self, queries) -> np.ndarray:
        """Index of the nearest indexed point to each row of ``queries`` (m, 3).

        Entry i equals ``knn(queries[i], 1)``'s index: the lowest index among
        exactly equidistant points.
        """
        return self._knn_rows(_as_points(queries, "queries"), 1)[0][:, 0]

    def radius(self, query, r: float) -> tuple[np.ndarray, np.ndarray]:
        """All indices within distance ``r`` of ``query`` (sorted, tie-broken)."""
        query = np.asarray(query, dtype=np.float64)
        candidates = np.asarray(self._tree.query_ball_point(query, r), dtype=np.intp)
        if len(candidates) == 0:
            return candidates, np.empty(0)
        return self._order(query, candidates)

    def nearest(self, query) -> int:
        return int(self.nearest_many(np.reshape(query, (1, 3)))[0])


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Collapse the cloud to one centroid per occupied voxel.

    Output order is lexicographic in integer voxel coordinates. Normals are
    the renormalized mean of member normals (falling back to the lowest-index
    member when the mean vanishes); curvatures and confidences average.
    """
    if voxel <= 0:
        raise ValueError(f"voxel size must be positive, got {voxel}")
    if len(cloud) == 0:
        return cloud
    coords = np.floor(cloud.points / voxel).astype(np.int64)
    # Sort by (voxel coords, original index) to get deterministic groups.
    order = np.lexsort((np.arange(len(cloud)), coords[:, 2], coords[:, 1], coords[:, 0]))
    sorted_coords = coords[order]
    boundaries = np.ones(len(cloud), dtype=bool)
    boundaries[1:] = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
    starts = np.flatnonzero(boundaries)
    counts = np.diff(np.append(starts, len(cloud)))

    points = np.empty((len(starts), 3))
    normals = np.empty((len(starts), 3)) if cloud.normals is not None else None
    curvatures = np.empty(len(starts)) if cloud.curvatures is not None else None
    confidences = np.empty(len(starts)) if cloud.confidences is not None else None
    # One bucket per member count: a (voxels, count) member matrix whose
    # rows are ascending original indices. mean(axis=1) sums each voxel in
    # the same order as a per-voxel mean (rows of points in sequence, a 1-D
    # attribute pairwise), and vecdot rounds like a 1-D norm, so the result
    # is bit-identical to a loop over voxels.
    for count in np.unique(counts):
        voxels = np.flatnonzero(counts == count)
        members = order[starts[voxels][:, np.newaxis] + np.arange(count)]
        points[voxels] = cloud.points[members].mean(axis=1)
        if normals is not None:
            mean_n = cloud.normals[members].mean(axis=1)
            norm = np.sqrt(np.vecdot(mean_n, mean_n))
            vanished = norm < 1e-12  # fall back to the lowest-index member
            mean_n[vanished] = cloud.normals[members[vanished, 0]]
            norm[vanished] = 1.0
            normals[voxels] = mean_n / norm[:, np.newaxis]
        if curvatures is not None:
            curvatures[voxels] = np.clip(cloud.curvatures[members].mean(axis=1), 0.0, 1.0)
        if confidences is not None:
            confidences[voxels] = cloud.confidences[members].mean(axis=1)
    return PointCloud(points, normals, curvatures, confidences)


def remove_statistical_outliers(cloud: PointCloud, k: int = 12, std_ratio: float = 2.0) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds mean + std_ratio * std.

    ``k`` excludes the point itself; the cloud must have at least k + 1
    points. Survivor order matches the input order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(cloud) < k + 1:
        raise ValueError(f"cloud of {len(cloud)} points is too small for k={k}")
    index = SpatialIndex(cloud)
    idx, dist = index.knn_all(k + 1)
    # Drop each row's self entry: the first column holding the row's own
    # index, or column 0 (argmax of an all-False row) when lower-index
    # duplicates pushed it out.
    n = len(cloud)
    rows = np.arange(n)
    keep = np.ones(idx.shape, dtype=bool)
    keep[rows, (idx == rows[:, np.newaxis]).argmax(axis=1)] = False
    mean_d = dist[keep].reshape(n, k).mean(axis=1)
    threshold = mean_d.mean() + std_ratio * mean_d.std()
    mask = mean_d <= threshold
    removed = int(n - mask.sum())
    if removed:
        logger.debug("outlier filter removed %d of %d points", removed, n)
    return cloud.select(rows[mask])


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the component of largest magnitude is positive."""
    dominant = int(np.argmax(np.abs(v)))
    return v if v[dominant] >= 0 else -v


def neighbor_table(cloud: PointCloud, k: int, neighbors: np.ndarray | None = None) -> np.ndarray:
    """The (n, k) k-NN index table of ``cloud``: the first k columns of
    ``neighbors`` (a ``knn_all`` table of the same points with at least k
    columns), or a freshly computed one when it is None."""
    if neighbors is None:
        return SpatialIndex(cloud).knn_all(k)[0]
    if neighbors.ndim != 2 or len(neighbors) != len(cloud) or neighbors.shape[1] < k:
        raise ValueError(f"neighbor table of shape {neighbors.shape} does not cover {len(cloud)} points x {k}")
    return neighbors[:, :k]


def estimate_normals_curvatures(cloud: PointCloud, k: int = 16, neighbors: np.ndarray | None = None) -> PointCloud:
    """PCA normals and surface-variation curvature over k-NN neighborhoods.

    The neighborhood of a point is its k nearest cloud points (the point
    itself included), taken from ``neighbors`` when given (see
    ``neighbor_table``). The normal is the eigenvector of the smallest
    covariance eigenvalue, oriented away from the cloud centroid; curvature
    is lambda_min / (sum of eigenvalues), clamped to [0, 1]. Coincident
    neighborhoods degrade to normal +Z with curvature 0 and are logged.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if len(cloud) < k:
        raise ValueError(f"cloud of {len(cloud)} points is too small for k={k}")
    nbh = cloud.points[neighbor_table(cloud, k, neighbors)]  # (n, k, 3)
    centered = nbh - nbh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    normals = eigvecs[:, :, 0].copy()
    total = eigvals.sum(axis=1)
    degenerate = total <= 0.0
    if np.any(degenerate):
        logger.warning("%d degenerate neighborhoods (coincident points)", int(degenerate.sum()))
        normals[degenerate] = (0.0, 0.0, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        curvatures = np.where(degenerate, 0.0, eigvals[:, 0] / np.where(total > 0, total, 1.0))
    curvatures = np.clip(curvatures, 0.0, 1.0)
    # Orient away from the cloud centroid; exactly tangent normals fall back
    # to the canonical largest-component-positive sign.
    outward = cloud.points - cloud.centroid()
    side = np.einsum("ni,ni->n", normals, outward)
    normals[side < 0] *= -1.0
    for i in np.flatnonzero(side == 0):
        normals[i] = _canonical_sign(normals[i])
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / norms
    return cloud.with_attrs(normals=normals, curvatures=curvatures)
