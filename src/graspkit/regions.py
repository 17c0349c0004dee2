"""Planar decomposition of a cloud by curvature-seeded region growing.

Growth starts at the lowest-curvature available point and admits a neighbor
when its normal stays within an angular tolerance of the seed normal: a
region is bounded by that seed-normal cone alone. Its four parameters are
fields of ``PlannerConfig``, which checks them. ``cloud._orient`` signs
every plane normal: a region's toward its members' mean normal,
``fit_plane_lsq``'s canonically.

The paper's soft region growing also bounds a region by its distance to the
region's refitted plane. That test is left out: it changes no plan of the
corpus or of its 0.3 mm and 1 mm scans, and on the large-radius shapes where
it binds it did not raise the planned grasp's held-out closure probability
(README, "Region growth").
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, _orient
from .config import PlannerConfig

logger = logging.getLogger(__name__)


class DegenerateFitError(ValueError):
    pass


# Callers, acceptance criterion 6 among them, build segment's parameters under the
# old name. A subclass would reorder to_text() and change every config_sha256.
RegionGrowingParams = PlannerConfig


@dataclass(frozen=True)
class PlanarRegion:
    """A segmented patch with its total least-squares plane fit.

    The plane is n . x = n . centroid. ``plane_normal`` is oriented to agree
    with the member points' stored normals (outward for well-oriented
    clouds), which downstream antiparallel pairing relies on.
    ``point_indices`` ascend; the tie-breaks of ``segment`` and
    ``make_candidates`` rely on it.
    """

    point_indices: np.ndarray
    plane_normal: np.ndarray
    centroid: np.ndarray

    def __len__(self) -> int:
        return len(self.point_indices)


@dataclass(frozen=True)
class Segmentation:
    """Regions sorted by descending size plus the unsegmented residue.

    Behaves as a sequence of PlanarRegion so callers that only care about
    regions can iterate it directly.
    """

    regions: tuple[PlanarRegion, ...]
    residue_indices: np.ndarray
    cloud_size: int

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def __getitem__(self, i):
        return self.regions[i]

    def region_ids(self) -> np.ndarray:
        """Per-point region id, -1 for residue points."""
        ids = np.full(self.cloud_size, -1, dtype=np.int64)
        for rid, region in enumerate(self.regions):
            ids[region.point_indices] = rid
        return ids


def fit_plane_lsq(points: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Total least-squares plane through ``points``.

    Returns (normal, offset, rms) with the plane n . x = offset. The normal
    sign is canonical: its largest-magnitude component is positive.
    Collinear or coincident inputs raise DegenerateFitError.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise DegenerateFitError("plane fit needs at least 3 points")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(pts))
    if not eigvals[1] > np.maximum(eigvals[2], 1.0) * 1e-12:  # rank below 2
        raise DegenerateFitError("points are collinear or coincident")
    normal = _orient(eigvecs[:, 0], np.zeros(3))
    return normal, float(normal @ centroid), float(np.sqrt(np.maximum(eigvals[0], 0.0)))


def _finish_region(cloud: PointCloud, members: np.ndarray) -> PlanarRegion:
    idx = np.sort(members)
    pts = cloud.points[idx]
    # This normal decides pairing and contacts. It points along the members'
    # mean stored normal, so opposite faces of an object keep opposite
    # region normals.
    normal = _orient(fit_plane_lsq(pts)[0], cloud.normals[idx].mean(axis=0))
    return PlanarRegion(point_indices=idx, plane_normal=normal, centroid=pts.mean(axis=0))


def _grow_regions(cloud: PointCloud, params: PlannerConfig, hoods: np.ndarray) -> list[np.ndarray]:
    """Raw region members in growth order (see ``segment``).

    Each region grows breadth-first, one whole frontier (the points a FIFO
    queue would pop next, in its order) per step, with the availability and
    seed-normal tests, accepting the first occurrence of each passing id in
    row order. Seeds come in ascending curvature, so once they reach the
    curvature threshold every point left is at or above it and grows
    nothing: each later region is its seed and the available, passing ids
    of the seed's own row, taken in a plain loop whose normal tests are one
    batch.
    """
    n = len(cloud)
    cos_threshold = float(np.cos(np.radians(params.angle_threshold_deg)))
    normals = cloud.normals
    expandable = cloud.curvatures < params.curvature_threshold
    order = np.argsort(cloud.curvatures, kind="stable")  # the seed order: expandable points first
    n_expandable = int(expandable.sum())

    available = np.ones(n, dtype=bool)
    first_seen = np.full(n, n, dtype=np.intp)  # n: not among the frontier's rows
    grown = np.empty(n, dtype=np.intp)
    size = 0
    starts: list[int] = []
    for seed in order[:n_expandable].tolist():
        if not available[seed]:
            continue
        seed_normal = normals[seed]
        available[seed] = False
        starts.append(size)
        grown[size] = seed
        size += 1
        front = grown[size - 1 : size]
        while len(front):
            cand = hoods[front].ravel()
            cand = cand[available[cand]]
            # An id passes or fails wherever it occurs, so the first occurrences
            # of the passing ids are the passing first occurrences.
            if len(front) > 1:  # one table row holds each id once
                rows = np.arange(len(cand))
                np.minimum.at(first_seen, cand, rows)
                cand = cand[first_seen[cand] == rows]
                first_seen[cand] = n
            # vecdot rounds exactly like a 1-D ``a @ b`` per neighbour
            cand = cand[np.vecdot(normals[cand], seed_normal) > cos_threshold]
            available[cand] = False
            grown[size : size + len(cand)] = cand
            size += len(cand)
            front = cand[expandable[cand]]

    # every expandable point has joined a region: one frontier per region from here
    tail = order[n_expandable:]
    tail = tail[available[tail]]
    tail_rows = hoods[tail]
    passing = available[tail_rows] & (np.vecdot(normals[tail_rows], normals[tail][:, np.newaxis]) > cos_threshold)
    # each seed's passing ids, in row order, as one flat list
    row_ids, row_ends = tail_rows[passing].tolist(), np.cumsum(passing.sum(axis=1)).tolist()
    left = bytearray(available)  # item access without numpy scalars
    rest: list[int] = []
    row_start = 0
    for seed, row_end in zip(tail.tolist(), row_ends):
        if left[seed]:
            left[seed] = False
            starts.append(size + len(rest))
            rest.append(seed)
            for member in row_ids[row_start:row_end]:
                if left[member]:
                    left[member] = False
                    rest.append(member)
        row_start = row_end
    grown[size:] = rest
    return [grown[a:b] for a, b in zip(starts, starts[1:] + [n])]


def segment(cloud: PointCloud, params: PlannerConfig | None = None) -> Segmentation:
    """Grow planar regions over ``cloud`` (which must carry normals and curvatures).

    Seeds are picked at the minimum-curvature available point (ties by lowest
    index). A neighbor joins when its normal deviates from the seed normal by
    less than the angle threshold; joined points below the curvature
    threshold keep growing the front. ``distance_threshold`` plays no part
    here: it is the contact snap radius of ``make_candidates``. Regions
    smaller than min_region_size end up in the residue. Output regions are
    sorted by descending size, ties by lowest member index. The neighbours of a point are its row of
    ``cloud.index.knn_all(k_neighbors)``, the table normal estimation with the
    same k left on the index.
    """
    params = params or PlannerConfig()
    if len(cloud) == 0:
        raise ValueError("cannot segment an empty cloud")
    if cloud.normals is None or cloud.curvatures is None:
        raise ValueError("segmentation requires normals and curvatures")

    n = len(cloud)
    hoods = cloud.index.knn_all(min(params.k_neighbors, n))
    raw_regions = _grow_regions(cloud, params, hoods)

    surviving: list[PlanarRegion] = []
    residue = [np.empty(0, dtype=np.intp)]
    for members in raw_regions:
        if len(members) < params.min_region_size:
            residue.append(members)
            continue
        try:
            surviving.append(_finish_region(cloud, members))
        except DegenerateFitError:
            logger.warning("degenerate plane fit for region of %d points", len(members))
            residue.append(members)
    surviving.sort(key=lambda r: (-len(r), int(r.point_indices[0])))
    return Segmentation(
        regions=tuple(surviving),
        residue_indices=np.sort(np.concatenate(residue)),
        cloud_size=n,
    )
