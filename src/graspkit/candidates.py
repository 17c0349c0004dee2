"""Antiparallel region pairing, common-plane projection and contact selection.

Contacts come in pairs: one point from each of two roughly antiparallel
planar regions, chosen where the regions' projections onto their common
plane overlap. Projection is rank-2, so the original 3D points are carried
alongside their 2D coordinates instead of ever inverting it.

A pair's common normal is normalize(n_lo - n_hi), lo the region with the lower
first cloud index, set only in ``find_antiparallel_pairs``. Contacts project
onto its ``plane_frame``, so a pair and its reverse pick the same contacts with
sides swapped, the grasp axis (b - a) / width negated and the width bit-equal.
A contact's inward normal is its region's plane normal, ``cloud._orient``-ed
toward the other region's centroid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .cloud import PointCloud, _orient
from .config import PlannerConfig
from .mechanics import plane_frame
from .regions import PlanarRegion


@dataclass(frozen=True)
class RegionPair:
    """Two antiparallel regions; ``common_normal`` is normalize(n_lo - n_hi) (module docstring)."""

    region_a: PlanarRegion
    region_b: PlanarRegion
    common_normal: np.ndarray
    antiparallel_angle_deg: float
    separation: float


@dataclass(frozen=True)
class GraspCandidate:
    """An ordered antipodal contact pair with inward normals. Candidates, and
    the ``GraspReport``s that hold them, compare equal when every field holds
    equal values."""

    contact_a: np.ndarray
    contact_b: np.ndarray
    normal_a: np.ndarray
    normal_b: np.ndarray
    grasp_axis: np.ndarray
    width: float

    def __eq__(self, other):
        if not isinstance(other, GraspCandidate):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def find_antiparallel_pairs(regions, config: PlannerConfig | None = None) -> list[RegionPair]:
    """All region pairs whose normals are antiparallel within ``max_pair_angle_deg``.

    Pair separation is the absolute gap between the two planes along the
    common normal; only pairs with separation in (0, max_width] survive.
    Output is sorted by ascending antiparallel angle, ties by region indices.
    ``config`` defaults to ``PlannerConfig()``.
    """
    config = config or PlannerConfig()
    regions = list(regions)
    if len(regions) < 2:
        return []
    normals = np.array([r.plane_normal for r in regions])
    centroids = np.array([r.centroid for r in regions])
    # every (i < j) in row-major order, so a stable sort by angle breaks ties by (i, j)
    first, second = np.triu_indices(len(regions), 1)
    cos_dev = np.clip(np.vecdot(normals[first], -normals[second]), -1.0, 1.0)
    angle = np.degrees(np.arccos(cos_dev))
    direction = normals[first] - normals[second]
    norm = np.sqrt(np.vecdot(direction, direction))
    keep = (angle <= config.max_pair_angle_deg) & (norm >= 1e-12)
    first, second, angle = first[keep], second[keep], angle[keep]
    common = direction[keep] / norm[keep, np.newaxis]
    first_member = np.array([r.point_indices[0] for r in regions])
    common[first_member[first] > first_member[second]] *= -1.0  # n_lo - n_hi
    separation = np.abs(np.vecdot(centroids[first] - centroids[second], common))
    fits = (separation > 0.0) & (separation <= config.max_width)
    return [
        RegionPair(
            region_a=regions[first[t]],
            region_b=regions[second[t]],
            common_normal=common[t],
            antiparallel_angle_deg=float(angle[t]),
            separation=float(separation[t]),
        )
        for t in np.flatnonzero(fits)[np.argsort(angle[fits], kind="stable")]
    ]


def overlap_region(
    proj_a: np.ndarray, proj_b: np.ndarray, min_points: int = 1
) -> tuple[np.ndarray, np.ndarray] | None:
    """Corners ``(lo, hi)`` of the intersection of the two 2D bounding boxes, or None.

    Returns None when the intersection has zero area or either side has
    fewer than ``min_points`` projected points inside it.
    """
    if len(proj_a) == 0 or len(proj_b) == 0:
        raise ValueError("projected point sets must be non-empty")
    lo = np.maximum(proj_a.min(axis=0), proj_b.min(axis=0))
    hi = np.minimum(proj_a.max(axis=0), proj_b.max(axis=0))
    if np.any(hi - lo <= 0):
        return None
    for proj in (proj_a, proj_b):
        if np.all((proj >= lo) & (proj <= hi), axis=1).sum() < min_points:
            return None
    return lo, hi


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


def _sample_locations(lo: np.ndarray, hi: np.ndarray, count: int) -> np.ndarray:
    """Center of the box [lo, hi] first, then a (2,3)-Halton sweep of its interior."""
    locs = lo + (hi - lo) * _halton_table(count)
    locs[0] = (lo + hi) / 2.0
    return locs


def _nearest_member(
    sample: np.ndarray,
    proj: np.ndarray,
    member_indices: np.ndarray,
    max_dist: float,
) -> int | None:
    """Cloud index of the member whose projection lies nearest ``sample``, or
    None beyond ``max_dist``. ``member_indices`` ascend (``PlanarRegion``), so
    the first minimum breaks ties by ascending cloud index.
    """
    d = np.linalg.norm(proj - sample, axis=1)
    nearest = int(np.argmin(d))
    if d[nearest] > max_dist:
        return None
    return int(member_indices[nearest])


def make_candidates(pair: RegionPair, cloud: PointCloud, config: PlannerConfig | None = None) -> list[GraspCandidate]:
    """Pick up to ``candidates_per_pair`` contact pairs inside the pair's overlap
    box, which must hold ``min_region_size`` projected points of each region.

    Sample locations start at the overlap centroid and continue along a
    deterministic low-discrepancy sweep. At each location the nearest member
    of each region (projected within ``distance_threshold``) becomes a
    contact; pairs wider than ``max_width`` are dropped. ``config`` defaults
    to ``PlannerConfig()``.
    """
    config = config or PlannerConfig()
    n_per_pair = config.candidates_per_pair
    region_a, region_b = pair.region_a, pair.region_b
    u, v = plane_frame(pair.common_normal)
    points_a = cloud.points[region_a.point_indices]
    points_b = cloud.points[region_b.point_indices]
    proj_a = np.column_stack([points_a @ u, points_a @ v])
    proj_b = np.column_stack([points_b @ u, points_b @ v])
    box = overlap_region(proj_a, proj_b, min_points=config.min_region_size)
    if box is None:
        return []

    normal_a = _orient(region_a.plane_normal, region_b.centroid - region_a.centroid)
    normal_b = _orient(region_b.plane_normal, region_a.centroid - region_b.centroid)
    out: list[GraspCandidate] = []
    seen: set[tuple[int, int]] = set()
    for sample in _sample_locations(*box, max(32, 4 * n_per_pair)):
        if len(out) >= n_per_pair:
            break
        ia = _nearest_member(sample, proj_a, region_a.point_indices, config.distance_threshold)
        ib = _nearest_member(sample, proj_b, region_b.point_indices, config.distance_threshold)
        if ia is None or ib is None or ia == ib or (ia, ib) in seen:
            continue
        seen.add((ia, ib))
        contact_a = cloud.points[ia]
        contact_b = cloud.points[ib]
        delta = contact_b - contact_a
        width = float(np.linalg.norm(delta))
        if width <= 0 or width > config.max_width:
            continue
        out.append(
            GraspCandidate(
                contact_a=contact_a,
                contact_b=contact_b,
                normal_a=normal_a,
                normal_b=normal_b,
                grasp_axis=delta / width,
                width=width,
            )
        )
    return out
