"""Point-cloud container, spatial queries, preprocessing and normal estimation.

All operations are pure: they take immutable clouds and return new clouds.
Determinism is a hard requirement throughout, so every nearest-neighbor
query breaks distance ties by ascending point index and every reduction
runs in a fixed order. One routine, ``SpatialIndex._knn_rows``, answers
them all: ``knn`` and ``nearest`` are its one-row calls. The voxel grid
sorts the points by value before it averages them, so its output, and
with it every stage of a plan after it, does not depend on the order of
the input points.

A ``PointCloud`` computes its ``index``, centroid and bounding radius once
and keeps them as long as the cloud lives (see the class). The index keeps
its latest ``knn_all`` table, the (n, k) neighbour indices and nothing else,
and ``with_attrs`` hands the index to the cloud it returns, so normal
estimation and region growth on one state of the points read one table.
The outlier filter needs distances, not tie-broken neighbours, and reads
them from a bare tree it drops on return. Planning memoizes a tree only on
the clouds it derives, so with the default config, whose voxel grid always
makes a new cloud, it leaves none on the caller's input.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .config import PlannerConfig

logger = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-6
# _knn_rows: rows per block of its first two rounds (bounds its scratch
# memory), and the extra tree neighbours per row of those two rounds
KNN_BLOCK = 1024
KNN_FIRST_SLACK = 2
KNN_SLACK = 8
# _jacobi3: cyclic sweeps; 4 leave a relative off-diagonal near 1e-16, 3 near 1e-9
JACOBI_SWEEPS = 4


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
    """Ordered 3D points with optional per-point normals and curvatures.

    Invariants enforced at construction: every array is finite, optional
    attribute arrays match the point count, normals are unit length within
    1e-6 and curvatures lie in [0, 1]. Arrays are marked read-only; treat
    instances as immutable.

    ``index``, ``centroid()`` and ``bounding_radius()`` are computed on
    first use and memoized in the instance ``__dict__`` (the fields stay
    frozen), so repeated evaluations on one cloud share one tree and one
    reduction of each kind, bit-equal to a fresh computation.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    curvatures: np.ndarray | None = None

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
        for arr in (self.points, self.normals, self.curvatures):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def index(self) -> "SpatialIndex":
        """The cloud's ``SpatialIndex``, built on first use."""
        return SpatialIndex(self)

    def centroid(self) -> np.ndarray:
        """Mean of the points, as a read-only array."""
        return self._centroid

    @cached_property
    def _centroid(self) -> np.ndarray:
        if len(self) == 0:
            raise ValueError("empty cloud has no centroid")
        centroid = self.points.mean(axis=0)
        centroid.setflags(write=False)
        return centroid

    def bounding_radius(self) -> float:
        """Radius of the bounding sphere centered at the centroid."""
        return self._bounding_radius

    @cached_property
    def _bounding_radius(self) -> float:
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
        )

    def with_attrs(self, normals=None, curvatures=None) -> "PointCloud":
        """Same points with the given attributes replaced; the memoized ``index``,
        centroid and radius depend only on the points, so they carry over."""
        out = PointCloud(
            points=self.points,
            normals=self.normals if normals is None else normals,
            curvatures=self.curvatures if curvatures is None else curvatures,
        )
        for name in ("index", "_centroid", "_bounding_radius"):
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out


class SpatialIndex:
    """k-NN queries over a fixed cloud with deterministic tie-breaks.

    Results are sorted by ascending distance; exact distance ties are broken
    by ascending point index, so queries are reproducible bit for bit. The
    index holds its points, their tree and the latest ``knn_all`` table,
    which is indices only: ``knn`` alone returns distances.
    """

    def __init__(self, cloud_or_points):
        pts = cloud_or_points.points if isinstance(cloud_or_points, PointCloud) else cloud_or_points
        self._points = _as_points(pts, "points")
        if len(self._points) == 0:
            raise ValueError("cannot index an empty cloud")
        self._tree = cKDTree(self._points)
        self._table: tuple[int, np.ndarray] | None = None  # latest knn_all (k, rows)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        """Read-only view of the indexed points."""
        view = self._points.view()
        view.setflags(write=False)
        return view

    def knn(self, query, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the k nearest points to ``query``: row 0 of
        ``_knn_rows``, with each distance the square root of its d²."""
        query = _as_points(np.reshape(query, (1, 3)), "query")
        idx = self._knn_rows(query, k)[0]
        diff = self._points[idx] - query
        return idx, np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2)

    def _knn_rows(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Exact k-NN indices, (q, k), of every row of ``queries`` (q, 3).

        Rounds of m tree candidates per row, m = k + KNN_FIRST_SLACK, then
        k + KNN_SLACK, then doubling up to n, each on the rows the last left
        unresolved. A round orders a row's candidates by (d², index) and accepts
        it when the farthest lies strictly beyond the k-th (relative 1e-8 in d²,
        well above the tree's round-off), so no point outside them can tie into
        the first k; a round of all n points accepts every row.
        """
        n = len(self._points)
        _check_k(k)
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        out, rows = self._candidate_rows(queries, k, min(k + KNN_FIRST_SLACK, n))
        m = k + KNN_SLACK
        while len(rows):
            out[rows], unresolved = self._candidate_rows(queries[rows], k, min(m, n))
            rows, m = rows[unresolved], 2 * m
        return out

    def _candidate_rows(self, queries: np.ndarray, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """One round of ``_knn_rows`` with m tree candidates per row, in blocks
        of at most KNN_BLOCK rows and, unless one row holds more, KNN_BLOCK *
        (k + KNN_SLACK) candidates: (indices, positions of the rows whose first
        k candidates are not proven exact).

        d² is computed in the tree's candidate order. A row whose d² strictly
        increases is already in (d², index) order; only the rows with a tie or
        an inversion are sorted (none on the jittered scans)."""
        n = len(self._points)
        x, y, z = self._points.T  # column views, so each gather is a contiguous (rows, m) array
        out = np.empty((len(queries), k), dtype=np.intp)
        unresolved = np.zeros(len(queries), dtype=bool)
        block = max(1, min(KNN_BLOCK, KNN_BLOCK * (k + KNN_SLACK) // m))
        for start in range(0, len(queries), block):
            query = queries[start : start + block]
            _, cand = self._tree.query(query, k=m)
            cand = cand.reshape(len(query), m)
            d2 = (
                (x[cand] - query[:, 0, np.newaxis]) ** 2
                + (y[cand] - query[:, 1, np.newaxis]) ** 2
                + (z[cand] - query[:, 2, np.newaxis]) ** 2
            )
            # the rows with a tie or an inversion, sorted by (d², index)
            tangled = np.flatnonzero((d2[:, 1:] <= d2[:, :-1]).any(axis=1))
            if len(tangled):
                order = np.lexsort((cand[tangled], d2[tangled]))
                cand[tangled] = np.take_along_axis(cand[tangled], order, axis=1)
                d2[tangled] = np.take_along_axis(d2[tangled], order, axis=1)
            out[start : start + len(query)] = cand[:, :k]
            if m < n:
                unresolved[start : start + len(query)] = d2[:, -1] <= d2[:, k - 1] * (1.0 + 1e-8)
        return out, np.flatnonzero(unresolved)

    def knn_all(self, k: int) -> np.ndarray:
        """k-NN of every indexed point against the cloud itself.

        Returns the (n, k) indices, row i equal to ``knn(points[i], k)[0]``.
        Each query point is its own nearest neighbor unless a duplicate point
        with a lower index exists. The latest table is kept read-only and
        returned again for the same k.
        """
        _check_k(k)  # before the cache, where 3.0 == 3
        if self._table is None or self._table[0] != k:
            rows = self._knn_rows(self._points, k)
            rows.setflags(write=False)
            self._table = (k, rows)
        return self._table[1]

    def nearest_many(self, queries) -> np.ndarray:
        """Index of the nearest indexed point to each row of ``queries`` (m, 3).

        Entry i equals ``knn(queries[i], 1)``'s index: the lowest index among
        exactly equidistant points.
        """
        return self._knn_rows(_as_points(queries, "queries"), 1)[:, 0]

    def nearest(self, query) -> int:
        return int(self.nearest_many(np.reshape(query, (1, 3)))[0])


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Collapse the cloud to one mean per occupied voxel of edge ``voxel``.

    A point belongs to the voxel ``floor(p / voxel)``. The points are ordered
    by value: voxel coordinates, then x, y, z, then the normal and the
    curvature where the cloud has them. Every mean is a per-column sum over
    that order, one member at a time from 0.0, divided by the member count,
    so the output depends on the points and their attributes but not on
    their order in the input. Output order is lexicographic in voxel
    coordinates. Normals are the renormalized mean normal, or, where that
    mean vanishes, the normal of the voxel's first member in the sorted
    order; curvatures average.
    """
    if not (np.isfinite(voxel) and voxel > 0):
        raise ValueError(f"voxel size must be finite and positive, got {voxel}")
    if len(cloud) == 0:
        return cloud
    if not float(np.abs(cloud.points).max()) / voxel < 2.0**62:  # bounds every |floor(p / voxel)|
        raise ValueError(f"voxel size {voxel} puts the points beyond the int64 voxel grid")
    coords = np.floor(cloud.points / voxel).astype(np.int64)
    # lexsort's last key sorts first; equal keys keep input order
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    sorted_coords = coords[order]
    starts = np.ones(len(cloud), dtype=bool)
    starts[1:] = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
    voxel_of = np.cumsum(starts) - 1
    counts = np.bincount(voxel_of)
    columns = [*cloud.points.T]
    if cloud.normals is not None:
        columns += [*cloud.normals.T]
    if cloud.curvatures is not None:
        columns.append(cloud.curvatures)
    # Only the members of voxels that hold 2 or more points need the value
    # order: sort just those, stably, by voxel id and then by value.
    shared = (counts > 1)[voxel_of].nonzero()[0]
    members = order[shared]
    order[shared] = members[np.lexsort([col[members] for col in columns[::-1]] + [voxel_of[shared]])]
    # bincount adds a voxel's weights one at a time, in the sorted order
    means = [np.bincount(voxel_of, weights=col[order]) / counts for col in columns]

    normals = curvatures = None
    if cloud.normals is not None:
        mean_n = np.column_stack(means[3:6])
        norm = np.sqrt(np.vecdot(mean_n, mean_n))
        vanished = norm < 1e-12
        mean_n[vanished] = cloud.normals[order[starts.nonzero()[0][vanished]]]
        norm[vanished] = 1.0
        normals = mean_n / norm[:, np.newaxis]
    if cloud.curvatures is not None:
        curvatures = np.clip(means[-1], 0.0, 1.0)
    return PointCloud(np.column_stack(means[:3]), normals, curvatures)


def remove_statistical_outliers(
    cloud: PointCloud, k: int = PlannerConfig.outlier_k, std_ratio: float = PlannerConfig.outlier_std_ratio
) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds mean + std_ratio * std.

    ``k`` excludes the point itself; the cloud must have at least k + 1
    points. Survivor order matches the input order. The distances come from
    one plain tree query of k + 1 neighbours: the ascending distances of a
    row are the same whichever of several tied points fill it, so they equal
    those of ``SpatialIndex.knn``, which breaks the ties by index. Beside that
    (n, k + 1) query result the filter holds only the n mean distances: it
    averages a view of the distances, without a mask or a copy of them.
    """
    _check_k(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (np.isfinite(std_ratio) and std_ratio > 0):
        raise ValueError(f"std_ratio must be finite and positive, got {std_ratio}")
    if len(cloud) < k + 1:
        raise ValueError(f"cloud of {len(cloud)} points is too small for k={k}")
    dist = cKDTree(cloud.points).query(cloud.points, k + 1)[0]
    # A point lies at distance 0 from itself, so column 0 is 0 and skipping
    # it leaves the same k distances, in the same order, as skipping the
    # row's own entry (when duplicates share distance 0, any one of them).
    mean_d = dist[:, 1:].mean(axis=1)
    mask = mean_d <= _outlier_threshold(mean_d, std_ratio)
    n = len(cloud)
    removed = int(n - mask.sum())
    if removed:
        logger.debug("outlier filter removed %d of %d points", removed, n)
    return cloud.select(np.flatnonzero(mask))


def _outlier_threshold(mean_d: np.ndarray, std_ratio: float) -> float:
    ordered = np.sort(mean_d)  # summed in value order, so no point order changes the bits
    return ordered.mean() + std_ratio * ordered.std()


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip each (..., 3) vector so its first largest-magnitude component is positive."""
    dominant = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., np.newaxis], axis=-1)
    return np.where(dominant >= 0, v, -v)


def _orient(v: np.ndarray, toward: np.ndarray) -> np.ndarray:
    """The one orientation rule: negate each of ``v`` (3,) or (m, 3) whose dot
    with ``toward`` (same shape) is negative, ``_canonical_sign`` where it is
    exactly 0. The dot is an ``einsum`` of C-ordered operands (it sums F order otherwise):
    the same bits under every BLAS kernel and layout, and for a vector alone as in a stack."""
    side = np.einsum("...i,...i->...", np.ascontiguousarray(v), np.ascontiguousarray(toward))
    if v.ndim == 1:
        if side < 0:
            return -v
        return _canonical_sign(v) if side == 0 else v
    out = np.where(side[:, np.newaxis] < 0, -v, v)
    tangent = side == 0
    if tangent.any():
        out[tangent] = _canonical_sign(out[tangent])
    return out


def _check_k(k) -> None:
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")


def _jacobi3(a00, a01, a02, a11, a12, a22):
    """Eigen-decomposition of symmetric 3×3 matrices given by their six
    entries, each an (m,) array: cyclic Jacobi (Kopp, arXiv:physics/0610206).

    JACOBI_SWEEPS sweeps over the pairs (0, 1), (0, 2), (1, 2). A rotation
    takes t = sign(θ) / (|θ| + √(θ² + 1)) with θ = (a_qq − a_pp) / (2 a_pq),
    the smaller root of t² + 2θt − 1 = 0, and t = 0 where a_pq is 0 (θ is
    then ±inf or NaN). Where a_pq is tiny beside the gap, θ or θ² overflows
    and the formula itself gives t = 0.
    Only correctly rounded ufunc arithmetic is used (+ − × ÷ √, copysign,
    abs): no BLAS or LAPACK, so the bits do not depend on the machine's
    kernels, and each row rounds as a scalar loop over Python floats does.

    Returns the diagonal (d0, d1, d2), the eigenvalues in no particular
    order, each an (m,) array, and the rows of V as nested lists of (m,)
    arrays: ``v[i][j]`` is component i of the eigenvector of dj. Where two
    eigenvalues tie, any orthonormal basis of their plane is an answer, and
    this one may differ from LAPACK's ``eigh``.
    """
    a = [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]
    zero, one = np.zeros_like(a00), np.ones_like(a00)
    v = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(JACOBI_SWEEPS):
            for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                apq = a[p][q]
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t[apq == 0.0] = 0.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                a[p][p] = a[p][p] - t * apq
                a[q][q] = a[q][q] + t * apq
                a[p][q] = a[q][p] = zero
                arp, arq = a[r][p], a[r][q]
                a[r][p] = a[p][r] = c * arp - s * arq
                a[r][q] = a[q][r] = s * arp + c * arq
                for row in v:
                    vp, vq = row[p], row[q]
                    row[p], row[q] = c * vp - s * vq, s * vp + c * vq
    return (a[0][0], a[1][1], a[2][2]), v


def estimate_normals_curvatures(cloud: PointCloud, k: int = PlannerConfig.k_neighbors) -> PointCloud:
    """PCA normals and surface-variation curvature over k-NN neighborhoods.

    The neighborhood of a point is its k nearest cloud points (the point
    itself included), from ``cloud.index.knn_all(k)``; the returned cloud
    shares that index and its table. The normal is the eigenvector of the
    smallest covariance eigenvalue (the first on ties), oriented away from
    the cloud centroid by ``_orient``; curvature is lambda_min / trace,
    clamped to [0, 1]. A neighbourhood whose trace is not positive (coincident points)
    degrades to normal +Z with curvature 0 and is logged.

    Covariances are formed per block of KNN_BLOCK rows: the block's three
    (KNN_BLOCK, k) neighbour coordinate columns, centred in place, give the
    six entries as column products summed over k, written into six (n,)
    arrays. One ``_jacobi3`` call then solves every row at once, so its
    scratch grows with n: about 40 (n,) float arrays at its peak, 4.1 MB on
    a 13 331-point scan. Each row rounds as it would alone, and no step
    calls BLAS or LAPACK, so the result is the same under every kernel.
    """
    _check_k(k)
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if len(cloud) < k:
        raise ValueError(f"cloud of {len(cloud)} points is too small for k={k}")
    hoods = cloud.index.knn_all(k)
    columns = np.ascontiguousarray(cloud.points.T)  # so each gather is a contiguous (rows, k) array
    cov = np.empty((6, len(cloud)))  # rows a00, a01, a02, a11, a12, a22
    for start in range(0, len(cloud), KNN_BLOCK):
        block = slice(start, start + KNN_BLOCK)
        x, y, z = (col[hoods[block]] for col in columns)
        for c in (x, y, z):
            c -= c.mean(axis=1, keepdims=True)
        for row, (c, d) in enumerate(((x, x), (x, y), (x, z), (y, y), (y, z), (z, z))):
            cov[row, block] = (c * d).sum(axis=1) / k
    a00, a01, a02, a11, a12, a22 = cov
    total = a00 + a11 + a22
    diag, v = _jacobi3(a00, a01, a02, a11, a12, a22)
    smallest = np.argmin(np.stack(diag, axis=1), axis=1)  # the first on ties
    lam_min = np.choose(smallest, diag)
    normals = np.column_stack([np.choose(smallest, row) for row in v])
    degenerate = total <= 0.0
    if np.any(degenerate):
        logger.warning("%d degenerate neighborhoods (coincident points)", int(degenerate.sum()))
        normals[degenerate] = (0.0, 0.0, 1.0)
    curvatures = np.clip(np.where(degenerate, 0.0, lam_min / np.where(degenerate, 1.0, total)), 0.0, 1.0)
    normals = _orient(normals, cloud.points - cloud.centroid())
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / norms
    return cloud.with_attrs(normals=normals, curvatures=curvatures)
