"""Planar decomposition of a cloud by curvature-seeded soft region growing.

Growth starts at the lowest-curvature available point and admits a neighbor
when its normal stays within an angular tolerance of the seed normal AND it
lies within a distance tolerance of the region's incrementally refitted
plane. The distance slack is what lets gently curved surfaces come out as a
small number of locally planar patches instead of fragmenting.
Its five parameters are fields of ``PlannerConfig``, which checks them.
``cloud._orient`` signs every plane normal: a refit's toward the seed normal,
a region's toward its members' mean normal, ``fit_plane_lsq``'s canonically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, _orient
from .config import PlannerConfig

logger = logging.getLogger(__name__)

REFIT_INTERVAL = 32


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
    return _plane_of_covariance(centered.T @ centered / len(pts), centroid, np.zeros(3))


def _plane_of_covariance(
    cov: np.ndarray, centroid: np.ndarray, toward: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """``fit_plane_lsq``'s result from the points' 3×3 covariance and centroid,
    with the normal oriented toward ``toward`` by ``_orient``: the canonical
    sign where ``toward`` is zero or exactly perpendicular to the normal."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    # rank < 2 means the points do not span a plane
    if eigvals[1] <= max(eigvals[2], 1.0) * 1e-12:
        raise DegenerateFitError("points are collinear or coincident")
    normal = _orient(eigvecs[:, 0], toward)
    offset = float(normal @ centroid)
    rms = float(np.sqrt(np.maximum(eigvals[0], 0.0)))
    return normal, offset, rms


def _finish_region(cloud: PointCloud, members: np.ndarray) -> PlanarRegion:
    idx = np.sort(members)
    pts = cloud.points[idx]
    # A full fit, not the growth's moments: this normal decides pairing and
    # contacts. It points along the members' mean stored normal, so opposite
    # faces of an object keep opposite region normals.
    normal = _orient(fit_plane_lsq(pts)[0], cloud.normals[idx].mean(axis=0))
    return PlanarRegion(point_indices=idx, plane_normal=normal, centroid=pts.mean(axis=0))


def _grow_regions(cloud: PointCloud, params: PlannerConfig, hoods: np.ndarray) -> list[np.ndarray]:
    """Raw region members in growth order (see ``segment``).

    Growth is breadth-first, one frontier (the points a FIFO queue would pop
    next, in its order) at a time. The frontier's neighbour rows are tested
    with array ops: availability and the seed-normal angle first, then the
    plane distance. The plane only changes at a refit, so the rows are
    accepted up to the entry that triggers one and the rest is re-tested
    against the refitted plane. The first occurrence of each passing id is
    found without a sort: an n-length stamp takes the least position of each
    id and is reset to ``n`` after each batch.

    A refit folds only the members accepted since the last one into running
    moments S1 = Σ d and S2 = Σ d dᵀ of the offsets d = x − x_seed, so each
    costs one 3×3 eigensolve whatever the region's size; the covariance
    S2/m − (S1/m)(S1/m)ᵀ goes through ``fit_plane_lsq``'s own tail, which
    orients the normal toward the seed normal. Its plane
    differs from a full refit's by round-off alone (within 1e-12 in the
    normal and 1e-14 m in the offset on the corpus and its scans).
    """
    n = len(cloud)
    cos_threshold = float(np.cos(np.radians(params.angle_threshold_deg)))
    normals = cloud.normals
    points = cloud.points
    curvatures = cloud.curvatures

    available = np.ones(n, dtype=bool)
    first_seen = np.full(n, n, dtype=np.intp)  # n: not among the passing ids
    seed_order = np.argsort(curvatures, kind="stable")
    seed_cursor = 0

    # Every point joins exactly one region, so the regions' members, in
    # growth order, are consecutive slices of one permutation.
    grown = np.empty(n, dtype=np.intp)
    size = 0
    raw_regions: list[np.ndarray] = []
    while True:
        while seed_cursor < n and not available[seed_order[seed_cursor]]:
            seed_cursor += 1
        if seed_cursor >= n:
            break
        seed = int(seed_order[seed_cursor])
        seed_normal = normals[seed]
        available[seed] = False
        start = size
        grown[size] = seed
        size += 1
        # Incremental plane: starts as the seed's tangent plane, refit from
        # the members' running moments every REFIT_INTERVAL accepted points.
        plane_n = seed_normal
        plane_d = float(plane_n @ points[seed])
        since_refit = 0
        folded = start  # members before grown[folded] are in s1 and s2
        s1, s2 = np.zeros(3), np.zeros((3, 3))
        front = grown[start:size]
        while len(front):
            # The frontier's neighbour rows in pop order. A neighbour's tests
            # do not depend on the row it is found in, so until the next refit
            # the accepted points are the first occurrences of the passing ones.
            cand = hoods[front].ravel()
            front_start = size
            cand = cand[available[cand]]
            # vecdot rounds exactly like a 1-D ``a @ b`` per neighbour
            cand = cand[np.vecdot(normals[cand], seed_normal) > cos_threshold]
            while len(cand):
                off_plane = np.abs(np.vecdot(points[cand], plane_n) - plane_d)
                near = (off_plane < params.distance_threshold).nonzero()[0]
                passing = cand[near]
                np.minimum.at(first_seen, passing, near)
                near = near[first_seen[passing] == near]
                first_seen[passing] = n
                refit = len(near) >= REFIT_INTERVAL - since_refit
                if refit:
                    near = near[: REFIT_INTERVAL - since_refit]
                accepted = cand[near]
                available[accepted] = False
                grown[size : size + len(accepted)] = accepted
                size += len(accepted)
                if not refit:
                    since_refit += len(accepted)
                    break
                offsets = points[grown[folded:size]] - points[seed]
                s1 += offsets.sum(axis=0)
                s2 += np.einsum("ni,nj->ij", offsets, offsets)
                folded = size
                mean = s1 / (size - start)
                try:
                    plane_n, plane_d, _ = _plane_of_covariance(
                        s2 / (size - start) - mean[:, np.newaxis] * mean, points[seed] + mean, seed_normal
                    )
                except DegenerateFitError:
                    pass
                since_refit = 0
                # re-test the rest of the frontier's rows against the new plane
                cand = cand[near[-1] + 1 :]
                cand = cand[available[cand]]
            # the next frontier: this one's accepted points, in acceptance order,
            # that lie below the curvature threshold
            front = grown[front_start:size]
            front = front[curvatures[front] < params.curvature_threshold]
        raw_regions.append(grown[start:size])
    return raw_regions


def segment(cloud: PointCloud, params: PlannerConfig | None = None) -> Segmentation:
    """Grow planar regions over ``cloud`` (which must carry normals and curvatures).

    Seeds are picked at the minimum-curvature available point (ties by lowest
    index). A neighbor joins when its normal deviates from the seed normal by
    less than the angle threshold and it lies within the distance threshold
    of the region's incremental plane; joined points below the curvature
    threshold keep growing the front. Regions smaller than min_region_size end
    up in the residue. Output regions are sorted by descending size, ties by
    lowest member index. The neighbours of a point are its row of
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
    residue: list[int] = []
    for members in raw_regions:
        if len(members) < params.min_region_size:
            residue.extend(members)
            continue
        try:
            surviving.append(_finish_region(cloud, members))
        except DegenerateFitError:
            logger.warning("degenerate plane fit for region of %d points", len(members))
            residue.extend(members)
    surviving.sort(key=lambda r: (-len(r), int(r.point_indices[0])))
    return Segmentation(
        regions=tuple(surviving),
        residue_indices=np.array(sorted(residue), dtype=np.intp),
        cloud_size=n,
    )
