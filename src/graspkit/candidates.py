"""Antiparallel region pairing, common-plane projection and contact selection.

Contacts come in pairs: one point from each of two roughly antiparallel
planar regions, chosen where the regions' projections onto their common
plane overlap. Projection is rank-2, so the original 3D points are carried
alongside their 2D coordinates instead of ever inverting it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .regions import PlanarRegion


@dataclass(frozen=True)
class RegionPair:
    region_a: PlanarRegion
    region_b: PlanarRegion
    common_normal: np.ndarray
    antiparallel_angle_deg: float
    separation: float
    index_a: int = -1
    index_b: int = -1

    def swapped(self) -> "RegionPair":
        return RegionPair(
            region_a=self.region_b,
            region_b=self.region_a,
            common_normal=-self.common_normal,
            antiparallel_angle_deg=self.antiparallel_angle_deg,
            separation=self.separation,
            index_a=self.index_b,
            index_b=self.index_a,
        )


@dataclass(frozen=True)
class PlaneFrame:
    """Deterministic orthonormal 2D basis (u, v) of a plane with normal n."""

    u: np.ndarray
    v: np.ndarray
    normal: np.ndarray

    def to_plane(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.column_stack([pts @ self.u, pts @ self.v])


@dataclass(frozen=True)
class Box2D:
    lo: np.ndarray
    hi: np.ndarray

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def size(self) -> np.ndarray:
        return self.hi - self.lo


@dataclass(frozen=True)
class GraspCandidate:
    """An ordered antipodal contact pair with inward normals."""

    contact_a: np.ndarray
    contact_b: np.ndarray
    normal_a: np.ndarray
    normal_b: np.ndarray
    grasp_axis: np.ndarray
    width: float
    contact_index_a: int = -1
    contact_index_b: int = -1


def find_antiparallel_pairs(
    regions, max_angle_deg: float = 15.0, max_width: float = 0.085
) -> list[RegionPair]:
    """All region pairs whose normals are antiparallel within ``max_angle_deg``.

    Pair separation is the absolute gap between the two planes along the
    common normal; only pairs with separation in (0, max_width] survive.
    Output is sorted by ascending antiparallel angle, ties by region indices.
    """
    regions = list(regions)
    if len(regions) < 2:
        return []
    normals = np.array([r.plane_normal for r in regions])
    centroids = np.array([r.centroid for r in regions])
    # every (i < j) in row-major order, so a stable sort by angle breaks ties by (i, j)
    first, second = np.triu_indices(len(regions), 1)
    cos_dev = np.clip(np.vecdot(normals[first], -normals[second]), -1.0, 1.0)
    angle = np.degrees(np.arccos(cos_dev))
    near = angle <= max_angle_deg
    first, second, angle = first[near], second[near], angle[near]
    direction = normals[first] - normals[second]
    norm = np.sqrt(np.vecdot(direction, direction))
    distinct = norm >= 1e-12
    first, second, angle = first[distinct], second[distinct], angle[distinct]
    common = direction[distinct] / norm[distinct, np.newaxis]
    separation = np.abs(np.vecdot(centroids[first] - centroids[second], common))
    fits = (separation > 0.0) & (separation <= max_width)
    return [
        RegionPair(
            region_a=regions[first[t]],
            region_b=regions[second[t]],
            common_normal=common[t],
            antiparallel_angle_deg=float(angle[t]),
            separation=float(separation[t]),
            index_a=int(first[t]),
            index_b=int(second[t]),
        )
        for t in np.flatnonzero(fits)[np.argsort(angle[fits], kind="stable")]
    ]


def plane_frame(normal: np.ndarray) -> PlaneFrame:
    """In-plane basis: u tracks global +X (or +Y when the normal is near X)."""
    n = np.asarray(normal, dtype=np.float64)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(n @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    u = ref - (ref @ n) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return PlaneFrame(u=u, v=v, normal=n)


def project_to_common_plane(
    pair: RegionPair, cloud: PointCloud
) -> tuple[np.ndarray, np.ndarray, PlaneFrame]:
    """2D coordinates of both regions' members in the common-plane basis.

    Rows follow each region's member order, so ``proj_a[i]`` corresponds to
    ``cloud.points[pair.region_a.point_indices[i]]``.
    """
    frame = plane_frame(pair.common_normal)
    proj_a = frame.to_plane(cloud.points[pair.region_a.point_indices])
    proj_b = frame.to_plane(cloud.points[pair.region_b.point_indices])
    return proj_a, proj_b, frame


def overlap_region(proj_a: np.ndarray, proj_b: np.ndarray, min_points: int = 1) -> Box2D | None:
    """Intersection of the two 2D bounding boxes, or None.

    Returns None when the intersection has zero area or either side has
    fewer than ``min_points`` projected points inside it.
    """
    if len(proj_a) == 0 or len(proj_b) == 0:
        raise ValueError("projected point sets must be non-empty")
    lo = np.maximum(proj_a.min(axis=0), proj_b.min(axis=0))
    hi = np.minimum(proj_a.max(axis=0), proj_b.max(axis=0))
    if np.any(hi - lo <= 0):
        return None
    box = Box2D(lo=lo, hi=hi)
    if box.contains(proj_a).sum() < min_points or box.contains(proj_b).sum() < min_points:
        return None
    return box


def _halton(index: int, base: int) -> float:
    result, f = 0.0, 1.0
    while index > 0:
        f /= base
        result += f * (index % base)
        index //= base
    return result


@functools.cache
def _halton_table(count: int) -> np.ndarray:
    """Read-only (count, 2) table of the (2,3)-Halton points 0 .. count - 1."""
    table = np.array([[_halton(i, 2), _halton(i, 3)] for i in range(count)])
    table.setflags(write=False)
    return table


def _sample_locations(box: Box2D, count: int) -> np.ndarray:
    """Box center first, then a (2,3)-Halton sweep of the box interior."""
    locs = box.lo + box.size * _halton_table(count)
    locs[0] = box.center
    return locs


def _nearest_member(
    sample: np.ndarray,
    proj: np.ndarray,
    member_indices: np.ndarray,
    max_dist: float,
) -> int | None:
    """Cloud index of the member whose projection lies nearest ``sample``.

    Candidates must project within ``max_dist``; among those the nearest
    wins, ties by ascending cloud index.
    """
    d = np.linalg.norm(proj - sample, axis=1)
    eligible = np.flatnonzero(d <= max_dist)
    if len(eligible) == 0:
        return None
    order = np.lexsort((member_indices[eligible], d[eligible]))
    return int(member_indices[eligible[order[0]]])


def make_candidates(
    pair: RegionPair,
    cloud: PointCloud,
    n_per_pair: int = 5,
    max_width: float = 0.085,
    distance_threshold: float = 0.005,
    min_points: int = 1,
) -> list[GraspCandidate]:
    """Pick up to ``n_per_pair`` contact pairs inside the pair's overlap box.

    Sample locations start at the overlap centroid and continue along a
    deterministic low-discrepancy sweep. At each location the nearest member
    of each region (projected within ``distance_threshold``) becomes a
    contact; pairs wider than ``max_width`` are dropped.
    """
    # Evaluate in a canonical region order so that swapping the pair yields
    # the same candidates with contacts swapped.
    canonical = int(pair.region_a.point_indices[0]) <= int(pair.region_b.point_indices[0])
    work = pair if canonical else pair.swapped()

    proj_a, proj_b, _ = project_to_common_plane(work, cloud)
    box = overlap_region(proj_a, proj_b, min_points=min_points)
    if box is None:
        return []

    idx_a = work.region_a.point_indices
    idx_b = work.region_b.point_indices
    normal_a = _toward(work.region_a.plane_normal, work.region_b.centroid - work.region_a.centroid)
    normal_b = _toward(work.region_b.plane_normal, work.region_a.centroid - work.region_b.centroid)

    out: list[GraspCandidate] = []
    seen: set[tuple[int, int]] = set()
    for sample in _sample_locations(box, max(32, 4 * n_per_pair)):
        if len(out) >= n_per_pair:
            break
        ia = _nearest_member(sample, proj_a, idx_a, distance_threshold)
        ib = _nearest_member(sample, proj_b, idx_b, distance_threshold)
        if ia is None or ib is None or ia == ib or (ia, ib) in seen:
            continue
        seen.add((ia, ib))
        contact_a = cloud.points[ia]
        contact_b = cloud.points[ib]
        delta = contact_b - contact_a
        width = float(np.linalg.norm(delta))
        if width <= 0 or width > max_width:
            continue
        candidate = GraspCandidate(
            contact_a=contact_a,
            contact_b=contact_b,
            normal_a=normal_a,
            normal_b=normal_b,
            grasp_axis=delta / width,
            width=width,
            contact_index_a=ia,
            contact_index_b=ib,
        )
        out.append(candidate if canonical else _swap_candidate(candidate))
    return out


def _toward(normal: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Orient ``normal`` to point along ``direction`` (toward the other region)."""
    return normal if normal @ direction > 0 else -normal


def _swap_candidate(c: GraspCandidate) -> GraspCandidate:
    return GraspCandidate(
        contact_a=c.contact_b,
        contact_b=c.contact_a,
        normal_a=c.normal_b,
        normal_b=c.normal_a,
        grasp_axis=-c.grasp_axis,
        width=c.width,
        contact_index_a=c.contact_index_b,
        contact_index_b=c.contact_index_a,
    )
