"""Planar decomposition of a cloud by curvature-seeded soft region growing.

Growth starts at the lowest-curvature available point and admits a neighbor
when its normal stays within an angular tolerance of the seed normal AND it
lies within a distance tolerance of the region's incrementally refitted
plane. The distance slack is what lets gently curved surfaces come out as a
small number of locally planar patches instead of fragmenting.
Its five parameters are fields of ``PlannerConfig``, which checks them.
``cloud._orient`` signs every plane normal: a refit's toward the seed normal,
a region's toward its members' mean normal, ``fit_plane_lsq``'s canonically.

The plane test rarely rejects a neighbor the normal test admits, so
``_grow_regions`` first grows every region without it, one whole frontier
per step; once the seeds reach the curvature threshold, no point left grows
a region, and each region is its seed and the passing points of the seed's
own row. It then checks each member once against the plane the exact loop
would have tested it on: the seed's tangent plane for members 1 to 32, and
refit j for members 32j + 1 to 32j + 32, every refit of every region in one
batch. If all pass, the result is the exact loop's by construction; if one
fails, ``_grow_regions_exact``, the loop that applies the test as it goes,
runs instead. Both compute refit planes (``_fold``, ``_refit_planes``) and
plane distances (``_dot3``) through the same elementwise arithmetic, so
they agree bit for bit under every BLAS kernel.
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
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(pts))
    if not _spans_plane(eigvals):
        raise DegenerateFitError("points are collinear or coincident")
    normal = _orient(eigvecs[:, 0], np.zeros(3))
    return normal, float(normal @ centroid), float(np.sqrt(np.maximum(eigvals[0], 0.0)))


def _spans_plane(eigvals: np.ndarray) -> np.ndarray:
    """Whether each ascending covariance spectrum in ``eigvals`` (..., 3) has rank
    2 or more, that is, whether its points span a plane."""
    return eigvals[..., 1] > np.maximum(eigvals[..., 2], 1.0) * 1e-12


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products of (..., 3) arrays, broadcast, as a0 b0 + a1 b1 + a2 b2
    in elementwise arithmetic: the same bits for a row whatever array, batch
    or BLAS kernel it comes in."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _fold(blocks: np.ndarray) -> np.ndarray:
    """The moment terms of each block of ``blocks`` (r, REFIT_INTERVAL, 3), the
    offsets d = (x, y, z) = p − p_seed of consecutive members: (r, 9) rows of
    the sums over the block of x, y, z, xx, xy, xz, yy, yz and zz. Each
    block's 32 terms are summed alone, and running moments add these rows
    one at a time, from 0, so refit j's moments have the same bits whether
    folded block by block or by one ``np.cumsum``."""
    d = blocks.transpose(2, 0, 1)
    return np.concatenate([d, d[[0, 0, 0, 1, 1, 2]] * d[[0, 1, 2, 1, 2, 2]]]).sum(axis=2).T


def _refit_planes(
    moments: np.ndarray, counts: np.ndarray, seed_points: np.ndarray, seed_normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refit planes from running moments (r, 9) of S1 = Σ d and the upper
    triangle of S2 = Σ d dᵀ over the offsets d = p − p_seed of a region's
    members (see ``_fold``). ``counts`` (r,) are the members folded, seed
    included; ``seed_points`` and ``seed_normals`` are (r, 3), or (3,) for
    every row. Refit i is the plane of the covariance S2/m − (S1/m)(S1/m)ᵀ
    through p_seed + S1/m, its normal oriented toward the seed normal.

    Returns (normals (r, 3), offsets (r,), fitted (r,)); ``fitted`` is False
    where the members do not span a plane. Beside elementwise arithmetic
    there is one stacked ``eigh`` and one stacked ``_orient``, both row by
    row, so a refit has the same bits alone as in a batch.
    """
    m = np.reshape(counts, (-1, 1))
    mean = moments[:, :3] / m
    s2 = moments[:, 3:][:, [[0, 1, 2], [1, 3, 4], [2, 4, 5]]]
    cov = s2 / m[:, :, np.newaxis] - mean[:, :, np.newaxis] * mean[:, np.newaxis, :]
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = _orient(eigvecs[:, :, 0], np.broadcast_to(seed_normals, (len(moments), 3)))
    return normals, _dot3(normals, seed_points + mean), _spans_plane(eigvals)


def _finish_region(cloud: PointCloud, members: np.ndarray) -> PlanarRegion:
    idx = np.sort(members)
    pts = cloud.points[idx]
    # A full fit, not the growth's moments: this normal decides pairing and
    # contacts. It points along the members' mean stored normal, so opposite
    # faces of an object keep opposite region normals.
    normal = _orient(fit_plane_lsq(pts)[0], cloud.normals[idx].mean(axis=0))
    return PlanarRegion(point_indices=idx, plane_normal=normal, centroid=pts.mean(axis=0))


def _grow_regions(cloud: PointCloud, params: PlannerConfig, hoods: np.ndarray) -> list[np.ndarray]:
    """Raw region members in growth order (see ``segment``): those of
    ``_grow_regions_exact``, found without its plane test where that test
    rejects nothing.

    Each region grows with the availability and seed-normal tests alone, one
    whole frontier per step, accepting the first occurrence of each passing
    id in row order. Seeds come in ascending curvature, so once they reach
    the curvature threshold every point left is at or above it and grows
    nothing: each later region is its seed and the available, passing ids
    of the seed's own row, taken in a plain loop whose normal tests are one
    batch.

    Every member is then checked once, in one batch, against the plane the
    exact loop would have tested it on (see ``_member_planes``). A member's
    plane depends only on the members before it, so if every member
    passes, the exact loop accepts the same points in the same order and
    this is its result. If any member fails, the exact loop runs instead.
    """
    n = len(cloud)
    cos_threshold = float(np.cos(np.radians(params.angle_threshold_deg)))
    normals = cloud.normals
    points = cloud.points
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

    # distances through ``_dot3`` as in the exact loop; a seed's is 0
    plane_n, plane_d = _member_planes(points, normals, grown, np.array(starts, dtype=np.intp))
    if (np.abs(_dot3(points[grown], plane_n) - plane_d) < params.distance_threshold).all():
        return [grown[a:b] for a, b in zip(starts, starts[1:] + [n])]
    return _grow_regions_exact(cloud, params, hoods)


def _member_planes(
    points: np.ndarray, normals: np.ndarray, grown: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The plane n . x = d that ``_grow_regions_exact`` tests each member of
    the regions ``grown[starts[i]:starts[i + 1]]`` on, each region led by its
    seed: (n (len(grown), 3), d (len(grown),)). Members 1 to 32 are tested on
    the seed's tangent plane, which holds the seed itself, and members
    32j + 1 to 32j + 32 on refit j, which folds members 1 to 32j, or on the
    last plane before it where those do not span one.

    Every refit the exact loop makes, a region's last even when no member
    follows it, is a row of one ``_refit_planes`` batch, its moments added
    block by block from 0 as there, so the planes have the exact loop's bits.
    """
    n = len(grown)
    sizes = np.diff(starts, append=n)
    seeds = grown[starts]
    refits = (sizes - 1) // REFIT_INTERVAL
    blocks_end = np.cumsum(refits)
    blocks_start = blocks_end - refits
    # refit j of region i folds members 32(j - 1) + 1 to 32j: block j - 1
    region_of_block = np.repeat(np.arange(len(starts)), refits)
    block = np.arange(len(region_of_block)) - blocks_start[region_of_block]
    first = starts[region_of_block] + 1 + REFIT_INTERVAL * block
    block_seeds = seeds[region_of_block]
    terms = _fold(points[grown[first[:, np.newaxis] + np.arange(REFIT_INTERVAL)]] - points[block_seeds][:, np.newaxis])
    moments = np.empty_like(terms)
    for a, b in zip(blocks_start[refits > 0].tolist(), blocks_end[refits > 0].tolist()):
        # the running sums 0 + t1, (0 + t1) + t2, ... of the exact loop
        moments[a:b] = np.cumsum(np.vstack([np.zeros(9), terms[a:b]]), axis=0)[1:]
    fit_n, fit_d, fitted = _refit_planes(
        moments, 1 + REFIT_INTERVAL * (block + 1), points[block_seeds], normals[block_seeds]
    )
    # one plane table: each region's seed tangent plane, then its refits
    seed_rows = blocks_start + np.arange(len(starts))
    refit_rows = seed_rows[region_of_block] + 1 + block
    plane_n = np.empty((len(starts) + len(block), 3))
    plane_d = np.empty(len(plane_n))
    plane_n[seed_rows] = normals[seeds]
    plane_d[seed_rows] = _dot3(normals[seeds], points[seeds])
    plane_n[refit_rows] = fit_n
    plane_d[refit_rows] = fit_d
    # a refit that spans no plane keeps the last plane before it
    kept = np.ones(len(plane_n), dtype=bool)
    kept[refit_rows] = fitted
    last = np.maximum.accumulate(np.where(kept, np.arange(len(plane_n)), 0))
    region = np.repeat(np.arange(len(starts)), sizes)
    rank = np.arange(n) - starts[region]
    row = last[seed_rows[region] + np.maximum(rank - 1, 0) // REFIT_INTERVAL]
    return plane_n[row], plane_d[row]


def _grow_regions_exact(cloud: PointCloud, params: PlannerConfig, hoods: np.ndarray) -> list[np.ndarray]:
    """Raw region members in growth order, with the plane test applied as
    each neighbour is met (see ``segment``).

    Growth is breadth-first, one frontier (the points a FIFO queue would pop
    next, in its order) at a time. The frontier's neighbour rows are tested
    with array ops: availability and the seed-normal angle first, then the
    plane distance. The plane only changes at a refit, so the rows are
    accepted up to the entry that triggers one and the rest is re-tested
    against the refitted plane. The first occurrence of each passing id is
    found without a sort: an n-length stamp takes the least position of each
    id and is reset to ``n`` after each batch.

    A refit folds only the 32 members accepted since the last one into the
    running moments of ``_refit_planes``, so each costs one 3×3 eigensolve
    whatever the region's size. Its plane differs from a full refit's by
    round-off alone (within 1e-12 in the normal and 1e-14 m in the offset on
    the corpus and its scans).
    """
    n = len(cloud)
    cos_threshold = float(np.cos(np.radians(params.angle_threshold_deg)))
    normals = cloud.normals
    points = cloud.points
    curvatures = cloud.curvatures
    tangent_offsets = _dot3(normals, points)  # each point's tangent plane n . x = offset

    available = np.ones(n, dtype=bool)
    first_seen = np.full(n, n, dtype=np.intp)  # n: not among the passing ids

    # Every point joins exactly one region, so the regions' members, in
    # growth order, are consecutive slices of one permutation.
    grown = np.empty(n, dtype=np.intp)
    size = 0
    raw_regions: list[np.ndarray] = []
    for seed in np.argsort(curvatures, kind="stable").tolist():  # ties by lowest index
        if not available[seed]:
            continue
        seed_normal = normals[seed]
        available[seed] = False
        start = size
        grown[size] = seed
        size += 1
        # Incremental plane: starts as the seed's tangent plane, refit from
        # the members' running moments every REFIT_INTERVAL accepted points.
        plane_n = seed_normal
        plane_d = tangent_offsets[seed]
        since_refit = 0
        folded = start + 1  # members before grown[folded] are in the moments
        moments = np.zeros(9)
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
                off_plane = np.abs(_dot3(points[cand], plane_n) - plane_d)
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
                moments = moments + _fold((points[grown[folded:size]] - points[seed])[np.newaxis])[0]
                fit_n, fit_d, fitted = _refit_planes(moments[np.newaxis], size - start, points[seed], seed_normal)
                folded = size
                if fitted[0]:
                    plane_n, plane_d = fit_n[0], fit_d[0]
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
