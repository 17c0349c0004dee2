"""Scalar reference implementations of the vectorized neighbour-layer steps.

These are the straightforward per-row / per-voxel / per-neighbour loops the
library used before its array versions. Tests assert that the library's
output equals theirs bit for bit (``np.array_equal``), so every rounding
choice of the vectorized code (summation order, dot products, tie-breaks)
is pinned to these loops.
"""

from collections import deque

import numpy as np

from graspkit.cloud import PointCloud, SpatialIndex
from graspkit.regions import REFIT_INTERVAL, DegenerateFitError, RegionGrowingParams, fit_plane_lsq


def outlier_mean_distances(cloud: PointCloud, k: int) -> np.ndarray:
    """Mean distance of each point to its k nearest neighbours, self excluded."""
    idx, dist = SpatialIndex(cloud).knn_all(k + 1)
    n = len(cloud)
    mean_d = np.empty(n)
    for i in range(n):
        self_pos = np.flatnonzero(idx[i] == i)
        keep = np.ones(k + 1, dtype=bool)
        keep[self_pos[0] if len(self_pos) else 0] = False
        mean_d[i] = dist[i][keep].mean()
    return mean_d


def remove_statistical_outliers(cloud: PointCloud, k: int = 12, std_ratio: float = 2.0) -> PointCloud:
    mean_d = outlier_mean_distances(cloud, k)
    threshold = mean_d.mean() + std_ratio * mean_d.std()
    return cloud.select(np.arange(len(cloud))[mean_d <= threshold])


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """One centroid per occupied voxel, one voxel at a time."""
    coords = np.floor(cloud.points / voxel).astype(np.int64)
    order = np.lexsort((np.arange(len(cloud)), coords[:, 2], coords[:, 1], coords[:, 0]))
    sorted_coords = coords[order]
    boundaries = np.ones(len(cloud), dtype=bool)
    boundaries[1:] = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
    starts = np.flatnonzero(boundaries)
    ends = np.append(starts[1:], len(cloud))

    points = np.empty((len(starts), 3))
    normals = np.empty((len(starts), 3)) if cloud.normals is not None else None
    curvatures = np.empty(len(starts)) if cloud.curvatures is not None else None
    confidences = np.empty(len(starts)) if cloud.confidences is not None else None
    for j, (a, b) in enumerate(zip(starts, ends)):
        members = order[a:b]
        points[j] = cloud.points[members].mean(axis=0)
        if normals is not None:
            mean_n = cloud.normals[members].mean(axis=0)
            norm = np.linalg.norm(mean_n)
            if norm < 1e-12:
                normals[j] = cloud.normals[members.min()]
            else:
                normals[j] = mean_n / norm
        if curvatures is not None:
            curvatures[j] = np.clip(cloud.curvatures[members].mean(), 0.0, 1.0)
        if confidences is not None:
            confidences[j] = cloud.confidences[members].mean()
    return PointCloud(points, normals, curvatures, confidences)


def grow_regions(
    cloud: PointCloud, params: RegionGrowingParams, hoods: np.ndarray, refits: list | None = None
) -> list[list[int]]:
    """Raw region member lists, in growth order, testing one neighbour at a time.

    ``refits``, when given, receives the (column, row length) of every
    neighbour that triggered a plane refit.
    """
    n = len(cloud)
    cos_threshold = float(np.cos(np.radians(params.angle_threshold_deg)))
    normals, points, curvatures = cloud.normals, cloud.points, cloud.curvatures
    available = np.ones(n, dtype=bool)
    seed_order = np.lexsort((np.arange(n), curvatures))
    seed_cursor = 0
    raw_regions: list[list[int]] = []
    while True:
        while seed_cursor < n and not available[seed_order[seed_cursor]]:
            seed_cursor += 1
        if seed_cursor >= n:
            break
        seed = int(seed_order[seed_cursor])
        seed_normal = normals[seed]
        available[seed] = False
        members = [seed]
        plane_n = seed_normal
        plane_d = float(plane_n @ points[seed])
        queue = deque([seed])
        since_refit = 0
        while queue:
            current = queue.popleft()
            for col, nbr in enumerate(hoods[current]):
                if not available[nbr]:
                    continue
                if normals[nbr] @ seed_normal <= cos_threshold:
                    continue
                if abs(points[nbr] @ plane_n - plane_d) >= params.distance_threshold:
                    continue
                available[nbr] = False
                members.append(int(nbr))
                since_refit += 1
                if curvatures[nbr] < params.curvature_threshold:
                    queue.append(int(nbr))
                if since_refit >= REFIT_INTERVAL and len(members) >= 3:
                    if refits is not None:
                        refits.append((col, len(hoods[current])))
                    try:
                        fit_n, fit_d, _ = fit_plane_lsq(points[members])
                    except DegenerateFitError:
                        pass
                    else:
                        if fit_n @ seed_normal < 0:
                            fit_n, fit_d = -fit_n, -fit_d
                        plane_n, plane_d = fit_n, fit_d
                    since_refit = 0
        raw_regions.append(members)
    return raw_regions
