"""Scalar reference implementations of the vectorized neighbour layer, of
region pairing, of the batched robustness evaluator and of the shape
samplers, and the SLSQP stability solver.

These are the straightforward per-row / per-voxel / per-neighbour / per-pair /
per-trial loops the library used before its array versions. Tests assert that
the library's output equals theirs bit for bit (``np.array_equal``), so every
rounding choice of the vectorized code (summation order, dot products,
tie-breaks) is pinned to these loops. ``knn_brute`` is the oracle of the
neighbour layer and shares no code with it: it sorts all n points by
(d², index) for one query at a time. ``voxel_downsample`` shares none
either: it groups the points' values as Python float tuples by voxel,
sorts each voxel's tuples and sums each column one member at a time.
``knn_rows`` is the single-round
k + KNN_SLACK neighbour table the library resolved every row with before it
began with k + 2 candidates, with ``knn_brute`` for the rows that round
leaves unresolved. The outlier filter's references take each row's ids
and distances from the per-point ``knn``, which breaks ties by index,
where the filter reads a plain tree query; ``outlier_mean_distances``
drops each row's own entry row by row, and ``outlier_mean_distances_full``
through one (n, k + 1) mask over the whole table, as the library did before
it skipped column 0. ``estimate_normals_curvatures`` estimates one
neighbourhood at a time, its eigen-decomposition by ``jacobi3``, the
library's Jacobi solver on Python floats. ``estimate_normals_curvatures_eigh``
is the whole-cloud LAPACK version the library ran before it had that
solver; tests compare with it within a tolerance, as its bits depend on the
BLAS kernel. ``grow_regions`` pops one neighbour at a time from a FIFO
queue, where the library takes a whole frontier per step.

``rank_candidates`` scores one candidate at a time with the scalar
mechanics below, takes each lever-arm distance from its own
``np.linalg.norm(np.cross(...))`` and sorts with the Python key
(not closure, distance, width, candidate index) that the library ran before
one stable lexsort. ``nearest_member`` picks a contact by an explicit
(distance, cloud index) lexsort, as the library did before it took the first
minimum of members that ascend.

``generate`` samples a ``ShapeSpec`` with the per-point loops the shape
generators ran before they became array expressions: one ``np.array`` per
point, ``math`` sines and cosines per angle, ``np.linalg.norm`` per
ellipsoid normal and the curvature proxy one point at a time.

``orient`` is the package's orientation rule one vector at a time in
Python floats, with its own canonical sign; it shares no code with
``cloud._orient``.

``solve_stability_slsqp`` is the iterative solver the library ran per
candidate before it computed the stability optimum in closed form. Tests
assert that the closed form is never worse than it, and check feasibility
with its ``constraint_violation``.
"""

import math
from collections import deque

import numpy as np
from scipy.optimize import minimize

from graspkit.candidates import RegionPair, _halton
from graspkit.cloud import JACOBI_SWEEPS, KNN_BLOCK, KNN_SLACK, PointCloud, SpatialIndex, _canonical_sign
from graspkit.regions import RegionGrowingParams
from graspkit.robustness import trial_rng
from graspkit.shapes import CURVATURE_PROXY_K, ShapeSpec, _grid_1d
from graspkit.stability import GraspReport, StabilityProblem, StabilityResult, stability_cost, stability_cost_grad


def knn_brute(points: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances, each (q, k), of the k nearest ``points`` to each
    row of ``queries``: all n points sorted by (d², index), one row at a time."""
    idx = np.empty((len(queries), k), dtype=np.intp)
    dist = np.empty((len(queries), k))
    for i, query in enumerate(queries):
        diff = points - query
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2
        idx[i] = np.lexsort((np.arange(len(points)), d2))[:k]
        dist[i] = np.sqrt(d2[idx[i]])
    return idx, dist


def knn_rows(index: SpatialIndex, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact k-NN indices of every row of ``queries``: k + KNN_SLACK tree
    candidates per row ordered by (d², index), ``knn_brute`` for rows whose
    farthest candidate does not lie strictly beyond the k-th."""
    n = len(index._points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    m = min(k + KNN_SLACK, n)
    out = np.empty((len(queries), k), dtype=np.intp)
    for start in range(0, len(queries), KNN_BLOCK):
        query = queries[start : start + KNN_BLOCK]
        _, cand = index._tree.query(query, k=m)
        # ascending index first, so the stable sort by d² breaks ties by index
        cand = np.sort(cand.reshape(len(query), m), axis=1)
        diff = index._points[cand] - query[:, np.newaxis, :]
        d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2
        order = np.argsort(d2, axis=1, kind="stable")
        cand = np.take_along_axis(cand, order, axis=1)
        d2 = np.take_along_axis(d2, order, axis=1)
        out[start : start + len(query)] = cand[:, :k]
        if m < n:
            for i in np.flatnonzero(d2[:, -1] <= d2[:, k - 1] * (1.0 + 1e-8)):
                out[start + i] = knn_brute(index._points, query[i : i + 1], k)[0][0]
    return out


def find_antiparallel_pairs(regions, max_angle_deg: float = 15.0, max_width: float = 0.085) -> list[RegionPair]:
    """Region pairs with antiparallel normals, one (i, j) pair at a time."""
    regions = list(regions)
    pairs = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            a, b = regions[i], regions[j]
            cos_dev = float(np.clip(a.plane_normal @ -b.plane_normal, -1.0, 1.0))
            angle = float(np.degrees(np.arccos(cos_dev)))
            if angle > max_angle_deg:
                continue
            direction = a.plane_normal - b.plane_normal
            norm = np.linalg.norm(direction)
            if norm < 1e-12:
                continue
            common = direction / norm
            if a.point_indices[0] > b.point_indices[0]:
                common = -common  # n_lo - n_hi: the region with the lower first member leads
            separation = abs(float((a.centroid - b.centroid) @ common))
            if not 0.0 < separation <= max_width:
                continue
            pair = RegionPair(
                region_a=a, region_b=b, common_normal=common, antiparallel_angle_deg=angle, separation=separation
            )
            pairs.append(((angle, i, j), pair))
    pairs.sort(key=lambda keyed: keyed[0])
    return [pair for _, pair in pairs]


def sample_locations(lo, hi, count: int) -> np.ndarray:
    """Center of the box [lo, hi] first, then a (2,3)-Halton sweep of its interior, one row at a time."""
    locs = [(lo + hi) / 2.0]
    for i in range(1, count):
        locs.append(lo + (hi - lo) * np.array([_halton(i, 2), _halton(i, 3)]))
    return np.array(locs)


def outlier_mean_distances(cloud: PointCloud, k: int) -> np.ndarray:
    """Mean distance of each point to its k nearest neighbours, self excluded,
    from the per-point ``knn`` of k + 1 neighbours."""
    index = SpatialIndex(cloud)
    n = len(cloud)
    mean_d = np.empty(n)
    for i in range(n):
        idx, dist = index.knn(cloud.points[i], k + 1)
        self_pos = np.flatnonzero(idx == i)
        keep = np.ones(k + 1, dtype=bool)
        keep[self_pos[0] if len(self_pos) else 0] = False
        mean_d[i] = dist[keep].mean()
    return mean_d


def outlier_mean_distances_full(cloud: PointCloud, k: int) -> np.ndarray:
    """``outlier_mean_distances`` through one self-entry mask over the whole
    (n, k + 1) table of per-point ``knn`` rows."""
    index = SpatialIndex(cloud)
    table = [index.knn(p, k + 1) for p in cloud.points]
    idx = np.array([i for i, _ in table])
    dist = np.array([d for _, d in table])
    n = len(cloud)
    rows = np.arange(n)
    keep = np.ones(idx.shape, dtype=bool)
    keep[rows, (idx == rows[:, np.newaxis]).argmax(axis=1)] = False
    return dist[keep].reshape(n, k).mean(axis=1)


def remove_statistical_outliers(
    cloud: PointCloud, k: int = 12, std_ratio: float = 2.0, mean_distances=outlier_mean_distances
) -> PointCloud:
    mean_d = mean_distances(cloud, k)
    threshold = mean_d.mean() + std_ratio * mean_d.std()
    return cloud.select(np.arange(len(cloud))[mean_d <= threshold])


def jacobi3(a00, a01, a02, a11, a12, a22):
    """``cloud._jacobi3`` on one matrix in Python floats, whose + − × ÷ and
    ``math.sqrt`` round as numpy's ufuncs do: the same sweeps, pairs and
    rotations, one scalar at a time. Returns the diagonal and the rows of V."""
    a = [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(JACOBI_SWEEPS):
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = a[p][q]
            t = 0.0
            if apq != 0.0:
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            a[p][p] = a[p][p] - t * apq
            a[q][q] = a[q][q] + t * apq
            a[p][q] = a[q][p] = 0.0
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            for row in v:
                vp, vq = row[p], row[q]
                row[p] = c * vp - s * vq
                row[q] = s * vp + c * vq
    return [a[0][0], a[1][1], a[2][2]], v


def estimate_normals_curvatures(cloud: PointCloud, k: int = 16) -> PointCloud:
    """PCA normals and curvatures one neighbourhood at a time: numpy's 1-D
    means and sums of its coordinate columns, then ``jacobi3``."""
    hoods = SpatialIndex(cloud).knn_all(k)
    n = len(cloud)
    normals = np.empty((n, 3))
    curvatures = np.empty(n)
    for i in range(n):
        nbh = cloud.points[hoods[i]]
        x, y, z = (nbh[:, j] - nbh[:, j].mean() for j in range(3))
        pairs = ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z))
        a00, a01, a02, a11, a12, a22 = (float((c * d).sum()) / k for c, d in pairs)
        total = a00 + a11 + a22
        diag, v = jacobi3(a00, a01, a02, a11, a12, a22)
        smallest = diag.index(min(diag))  # the first on ties
        if total <= 0.0:
            normals[i], curvatures[i] = (0.0, 0.0, 1.0), 0.0
        else:
            normals[i] = [row[smallest] for row in v]
            curvatures[i] = min(max(diag[smallest] / total, 0.0), 1.0)
    outward = cloud.points - cloud.centroid()
    side = np.einsum("ni,ni->n", normals, outward)
    normals[side < 0] *= -1.0
    for i in np.flatnonzero(side == 0):
        normals[i] = _canonical_sign(normals[i])
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points, normals, curvatures)


def estimate_normals_curvatures_eigh(cloud: PointCloud, k: int = 16) -> PointCloud:
    """PCA normals and curvatures from LAPACK's ``eigh`` of the (n, k, 3)
    neighbourhoods of the whole cloud at once, as the library ran them
    before its own solver."""
    nbh = cloud.points[SpatialIndex(cloud).knn_all(k)]
    centered = nbh - nbh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0].copy()
    total = eigvals.sum(axis=1)
    degenerate = total <= 0.0
    normals[degenerate] = (0.0, 0.0, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        curvatures = np.where(degenerate, 0.0, eigvals[:, 0] / np.where(total > 0, total, 1.0))
    curvatures = np.clip(curvatures, 0.0, 1.0)
    outward = cloud.points - cloud.centroid()
    side = np.einsum("ni,ni->n", normals, outward)
    normals[side < 0] *= -1.0
    for i in np.flatnonzero(side == 0):
        normals[i] = _canonical_sign(normals[i])
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points, normals, curvatures)


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """One mean per occupied voxel, one voxel at a time, in Python floats.

    A point's voxel is ``math.floor`` of each coordinate over ``voxel``. A
    voxel's members are sorted as tuples of their values (x, y, z, then the
    normal and the curvature where the cloud has them), and each column is
    summed one member at a time from 0.0. A mean normal shorter than 1e-12
    gives way to the first sorted member's normal."""
    columns = [cloud.points]
    if cloud.normals is not None:
        columns.append(cloud.normals)
    if cloud.curvatures is not None:
        columns.append(cloud.curvatures[:, np.newaxis])
    voxels = {}
    for values in np.hstack(columns).tolist():
        key = tuple(math.floor(x / voxel) for x in values[:3])
        voxels.setdefault(key, []).append(tuple(values))
    means, firsts = [], []
    for key in sorted(voxels):
        members = sorted(voxels[key])
        mean = []
        for column in zip(*members):
            total = 0.0
            for value in column:
                total += value
            mean.append(total / len(members))
        means.append(mean)
        firsts.append(members[0])
    means = np.array(means)
    normals = curvatures = None
    if cloud.normals is not None:
        # each norm is of a row of one (voxels, 3) array: some BLAS kernels
        # (Prescott) round a dot product by the memory alignment of its operands
        normals = means[:, 3:6].copy()
        for j, first in enumerate(firsts):
            norm = np.linalg.norm(normals[j])
            normals[j] = first[3:6] if norm < 1e-12 else normals[j] / norm
    if cloud.curvatures is not None:
        curvatures = np.array([min(max(c, 0.0), 1.0) for c in means[:, -1].tolist()])
    return PointCloud(means[:, :3], normals, curvatures)


def grow_regions(cloud: PointCloud, params: RegionGrowingParams, hoods: np.ndarray) -> list[list[int]]:
    """Raw region member lists, in growth order, testing one neighbour at a time."""
    n = len(cloud)
    cos_threshold = float(np.cos(np.radians(params.angle_threshold_deg)))
    normals, curvatures = cloud.normals, cloud.curvatures
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
        queue = deque([seed])
        while queue:
            for nbr in hoods[queue.popleft()]:
                if not available[nbr]:
                    continue
                if normals[nbr] @ seed_normal <= cos_threshold:
                    continue
                available[nbr] = False
                members.append(int(nbr))
                if curvatures[nbr] < params.curvature_threshold:
                    queue.append(int(nbr))
        raw_regions.append(members)
    return raw_regions


def orient(v, toward) -> np.ndarray:
    """``cloud._orient`` one vector at a time in Python floats. The dot sums
    the products as (v0 t0 + v2 t2) + v1 t1, the order numpy's ``einsum``
    takes over a 3-vector; where it is exactly 0 the vector is negated if its
    first largest-magnitude component is negative."""
    v = np.asarray(v, dtype=np.float64)
    out = []
    for x, t in zip(np.reshape(v, (-1, 3)).tolist(), np.reshape(toward, (-1, 3)).tolist()):
        side = (x[0] * t[0] + x[2] * t[2]) + x[1] * t[1]
        if side == 0:
            largest = max(abs(c) for c in x)
            side = next(c for c in x if abs(c) == largest)
        out.append([-c for c in x] if side < 0 else x)
    return np.reshape(out, v.shape)


def contact_rotation(inward_normal) -> np.ndarray:
    """Contact rotation of one inward normal (columns X, Y, Z = normal)."""
    n = np.asarray(inward_normal, dtype=np.float64)
    norm = np.linalg.norm(n)
    if norm < 1e-12:
        raise ValueError("inward normal must be nonzero")
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("inward normal must be unit length")
    n = n / norm
    ref = np.array([1.0, 0.0, 0.0])
    if abs(n @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    x = ref - (ref @ n) * n
    x = x / math.sqrt(sum(c * c for c in x.tolist()))  # squares summed x, y, z, as plane_frame does
    y = np.cross(n, x)
    R = np.column_stack([x, y, n])
    if not np.allclose(R.T @ R, np.eye(3), atol=1e-9) or abs(np.linalg.det(R) - 1.0) > 1e-9:
        raise ValueError("rotation must be orthonormal with determinant +1")
    return R


def grasp_map(points, rotations, object_origin) -> np.ndarray:
    """6 x 3k grasp map, one [R; skew(p - o) R] block per contact."""
    origin = np.asarray(object_origin, dtype=np.float64)
    blocks = []
    for p, R in zip(points, rotations):
        arm = np.asarray(p, dtype=np.float64) - origin
        skew = np.array([[0.0, -arm[2], arm[1]], [arm[2], 0.0, -arm[0]], [-arm[1], arm[0], 0.0]])
        blocks.append(np.vstack([R, skew @ R]))
    return np.hstack(blocks)


def force_closure(G, points, rotations, mu, threshold=0.01, torque_scale=1.0):
    """(closure, sigma_min) of one two-contact grasp map: the soft-pinch rule
    considers the five largest singular values of the torque-scaled G."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    scaled = G.copy()
    scaled[3:, :] /= torque_scale
    singular = np.linalg.svd(scaled, compute_uv=False)
    considered = singular[:5]
    sigma_min = float(considered[-1])
    axis = np.asarray(points[1], dtype=np.float64) - points[0]
    width = np.linalg.norm(axis)
    if width < 1e-12:
        return False, sigma_min
    axis = axis / width
    cos_limit = math.cos(math.atan(mu))
    admissible = (axis @ rotations[0][:, 2] >= cos_limit - 1e-12) and (
        (-axis) @ rotations[1][:, 2] >= cos_limit - 1e-12
    )
    return bool(admissible and np.all(considered > threshold)), sigma_min


def rank_candidates(candidates, cloud: PointCloud, mu=0.5, threshold=0.01) -> list[GraspReport]:
    """Reports best-first, scored one candidate at a time and sorted by a Python tuple key."""
    origin = cloud.centroid()
    scale = max(cloud.bounding_radius(), 1e-12)
    reports = []
    for i, c in enumerate(candidates):
        points = (c.contact_a, c.contact_b)
        rotations = (contact_rotation(c.normal_a), contact_rotation(c.normal_b))
        closure, sigma_min = force_closure(grasp_map(points, rotations, origin), points, rotations, mu, threshold, scale)
        distance = float(np.linalg.norm(np.cross(origin - c.contact_a, c.grasp_axis)))
        reports.append(GraspReport(c, i, closure, sigma_min, distance))
    reports.sort(key=lambda r: (not r.closure, r.axis_com_distance, r.candidate.width, r.candidate_index))
    return reports


def nearest_member(sample, proj, member_indices, max_dist):
    """Cloud index of the member projected nearest ``sample`` within ``max_dist``, ties by cloud index."""
    d = np.linalg.norm(proj - sample, axis=1)
    eligible = np.flatnonzero(d <= max_dist)
    if len(eligible) == 0:
        return None
    order = np.lexsort((member_indices[eligible], d[eligible]))
    return int(member_indices[eligible[order[0]]])


def robust_force_closure_loop(candidate, cloud: PointCloud, spec, mu=0.5) -> tuple[bool, ...]:
    """Per-trial outcomes, one trial at a time: a fresh Philox generator per
    trial, one exact nearest-point query per contact, scalar mechanics."""
    if cloud.normals is None:
        raise ValueError("robust_force_closure requires cloud normals")
    index = SpatialIndex(cloud)
    sigma = spec.effective_sigma(cloud)
    origin = cloud.centroid()
    torque_scale = max(cloud.bounding_radius(), 1e-12)
    outcomes = []
    for trial in range(spec.trials):
        rng = trial_rng(spec.seed, trial)
        ia = int(index.knn(np.asarray(candidate.contact_a, dtype=np.float64) + rng.standard_normal(3) * sigma, 1)[0][0])
        ib = int(index.knn(np.asarray(candidate.contact_b, dtype=np.float64) + rng.standard_normal(3) * sigma, 1)[0][0])
        if ia == ib:
            outcomes.append(False)
            continue
        points = (cloud.points[ia], cloud.points[ib])
        rotations = (contact_rotation(-cloud.normals[ia]), contact_rotation(-cloud.normals[ib]))
        G = grasp_map(points, rotations, origin)
        closure, _ = force_closure(G, points, rotations, mu, spec.threshold, torque_scale)
        outcomes.append(closure)
    return tuple(outcomes)


def _constraints(problem: StabilityProblem) -> list[dict]:
    """Per-contact smoothed cone, normal non-negativity and norm cap."""
    cons = []
    mu2 = problem.mu**2
    cap2 = problem.f_normal_cap**2
    for c in range(problem.n_contacts):
        base = 3 * c

        def cone(f, base=base):
            fx, fy, fz = f[base : base + 3]
            return mu2 * fz * fz - fx * fx - fy * fy

        def cone_jac(f, base=base):
            out = np.zeros_like(f)
            fx, fy, fz = f[base : base + 3]
            out[base : base + 3] = (-2.0 * fx, -2.0 * fy, 2.0 * mu2 * fz)
            return out

        def normal(f, base=base):
            return f[base + 2]

        def normal_jac(f, base=base):
            out = np.zeros_like(f)
            out[base + 2] = 1.0
            return out

        def cap(f, base=base):
            fc = f[base : base + 3]
            return cap2 - float(fc @ fc)

        def cap_jac(f, base=base):
            out = np.zeros_like(f)
            out[base : base + 3] = -2.0 * f[base : base + 3]
            return out

        cons.append({"type": "ineq", "fun": cone, "jac": cone_jac})
        cons.append({"type": "ineq", "fun": normal, "jac": normal_jac})
        cons.append({"type": "ineq", "fun": cap, "jac": cap_jac})
    return cons


def constraint_violation(f, problem: StabilityProblem) -> float:
    """Largest violation of any feasibility constraint at ``f`` (0 when feasible)."""
    worst = 0.0
    for con in _constraints(problem):
        worst = max(worst, -min(0.0, float(con["fun"](f))))
    return worst


def default_initial_forces(problem: StabilityProblem) -> np.ndarray:
    """Pure normal force per contact at the pseudo-force magnitude (cap permitting)."""
    f0 = np.zeros(problem.dim)
    f0[2::3] = min(problem.f_ex_magnitude, problem.f_normal_cap)
    return f0


def project_into_cone(f, problem: StabilityProblem) -> np.ndarray:
    """Clamp each contact force into its friction cone and under the norm cap."""
    f = np.array(f, dtype=np.float64)
    for c in range(problem.n_contacts):
        fc = f[3 * c : 3 * c + 3]
        if fc[2] < 0:
            fc[2] = 0.0
        tangential = np.hypot(fc[0], fc[1])
        limit = problem.mu * fc[2]
        if tangential > limit:
            scale = 0.0 if tangential == 0 else limit / tangential
            fc[0] *= scale
            fc[1] *= scale
        norm = np.linalg.norm(fc)
        if norm > problem.f_normal_cap:
            fc *= problem.f_normal_cap / norm
        f[3 * c : 3 * c + 3] = fc
    return f


def solve_stability_slsqp(problem: StabilityProblem, f0=None) -> StabilityResult:
    """Locally minimize the stability cost over feasible contact forces.

    Deterministic: a fixed initial point (projected into the feasible set if
    supplied), analytic gradients, SLSQP with ftol 1e-10 and at most 200
    iterations, no restarts. Non-convergence is reported on the result, not
    raised.
    """
    x0 = default_initial_forces(problem) if f0 is None else project_into_cone(f0, problem)
    res = minimize(
        stability_cost,
        x0,
        args=(problem,),
        jac=stability_cost_grad,
        method="SLSQP",
        constraints=_constraints(problem),
        options={"maxiter": 200, "ftol": 1e-10},
    )
    violation = constraint_violation(res.x, problem)
    return StabilityResult(
        optimal_f=np.asarray(res.x, dtype=np.float64),
        cost=float(res.fun),
        converged=bool(res.success) and violation <= 1e-6,
        iterations=int(res.nit),
    )


def variation_proxy(k1: float, k2: float, density: float) -> float:
    """Surface-variation curvature a PCA neighborhood would see.

    Models the k-nearest neighborhood as a uniform disc of radius
    rho = sqrt(k / (pi * density)) on a quadratic patch with principal
    curvatures k1, k2 and returns lambda_min / trace of its covariance.
    """
    rho2 = CURVATURE_PROXY_K / (math.pi * density)
    var_normal = max(rho2 * rho2 * (k1 * k1 / 64.0 + k2 * k2 / 64.0 - k1 * k2 / 96.0), 0.0)
    var_tangent = rho2 / 2.0  # two tangent directions at rho^2/4 each
    total = var_normal + var_tangent
    if total <= 0:
        return 0.0
    return min(var_normal / total, 1.0)


def box_points(spec: ShapeSpec):
    lx, ly, lz = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    points, normals, curvatures = [], [], []
    # (+/-x, +/-y, +/-z) faces, fixed order for determinism
    faces = [
        (0, lx, ly, lz),
        (1, ly, lx, lz),
        (2, lz, lx, ly),
    ]
    for axis, half_len, lu, lv in faces:
        us = _grid_1d(lu, spacing)
        vs = _grid_1d(lv, spacing)
        for sign in (1.0, -1.0):
            normal = np.zeros(3)
            normal[axis] = sign
            for u in us:
                for v in vs:
                    p = np.zeros(3)
                    p[axis] = sign * half_len / 2.0
                    other = [i for i in range(3) if i != axis]
                    p[other[0]] = u
                    p[other[1]] = v
                    points.append(p)
                    normals.append(normal.copy())
                    curvatures.append(0.0)
    return points, normals, curvatures


def cylinder_points(spec: ShapeSpec):
    radius, height = spec.dimensions
    arc_deg = float(spec.options.get("arc_deg", 360.0))
    caps = bool(spec.options.get("caps", True))
    spacing = 1.0 / math.sqrt(spec.density)
    arc = math.radians(arc_deg)
    points, normals, curvatures = [], [], []

    side_c = variation_proxy(1.0 / radius, 0.0, spec.density)
    n_theta = max(3, round(radius * arc / spacing))
    thetas = (np.arange(n_theta) + 0.5) * (arc / n_theta) - arc / 2.0
    zs = _grid_1d(height, spacing)
    for theta in thetas:
        nx, ny = math.cos(theta), math.sin(theta)
        for z in zs:
            points.append(np.array([radius * nx, radius * ny, z]))
            normals.append(np.array([nx, ny, 0.0]))
            curvatures.append(side_c)

    if caps:
        for sign in (1.0, -1.0):
            normal = np.array([0.0, 0.0, sign])
            rs = _grid_1d(2.0 * radius, spacing)
            for x in rs:
                for y in rs:
                    if x * x + y * y <= radius * radius:
                        points.append(np.array([x, y, sign * height / 2.0]))
                        normals.append(normal.copy())
                        curvatures.append(0.0)
    return points, normals, curvatures


def sphere_points(spec: ShapeSpec):
    (radius,) = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    c = variation_proxy(1.0 / radius, 1.0 / radius, spec.density)
    points, normals, curvatures = [], [], []
    n_lat = max(3, round(math.pi * radius / spacing))
    for i in range(n_lat):
        phi = (i + 0.5) * math.pi / n_lat  # polar angle
        ring_r = radius * math.sin(phi)
        n_lon = max(3, round(2.0 * math.pi * ring_r / spacing))
        for j in range(n_lon):
            theta = (j + 0.5) * 2.0 * math.pi / n_lon
            n = np.array(
                [
                    math.sin(phi) * math.cos(theta),
                    math.sin(phi) * math.sin(theta),
                    math.cos(phi),
                ]
            )
            points.append(radius * n)
            normals.append(n)
            curvatures.append(c)
    return points, normals, curvatures


def ellipsoid_points(spec: ShapeSpec):
    a, b, c = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    points, normals, curvatures = [], [], []
    mean_r = (a + b + c) / 3.0
    n_lat = max(3, round(math.pi * mean_r / spacing))
    for i in range(n_lat):
        phi = (i + 0.5) * math.pi / n_lat
        ring_r = mean_r * math.sin(phi)
        n_lon = max(3, round(2.0 * math.pi * ring_r / spacing))
        for j in range(n_lon):
            theta = (j + 0.5) * 2.0 * math.pi / n_lon
            p = np.array(
                [
                    a * math.sin(phi) * math.cos(theta),
                    b * math.sin(phi) * math.sin(theta),
                    c * math.cos(phi),
                ]
            )
            # gradient of (x/a)^2 + (y/b)^2 + (z/c)^2
            n = p / np.array([a * a, b * b, c * c])
            n = n / np.linalg.norm(n)
            points.append(p)
            normals.append(n)
            k1, k2 = ellipsoid_principal_curvatures(p, a, b, c)
            curvatures.append(variation_proxy(k1, k2, spec.density))
    return points, normals, curvatures


def ellipsoid_principal_curvatures(p: np.ndarray, a: float, b: float, c: float):
    """Principal curvatures from the Gaussian/mean curvature of the quadric."""
    x, y, z = p
    s = x * x / a**4 + y * y / b**4 + z * z / c**4
    t = x * x / a**6 + y * y / b**6 + z * z / c**6
    trace = 1.0 / a**2 + 1.0 / b**2 + 1.0 / c**2
    gauss = 1.0 / ((a * b * c) ** 2 * s * s)
    mean = abs(t - s * trace) / (2.0 * s**1.5)
    disc = max(mean * mean - gauss, 0.0)
    root = math.sqrt(disc)
    return mean + root, max(mean - root, 0.0)


def bent_prism_points(spec: ShapeSpec):
    width, thickness, center_r, arc_deg = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    arc = math.radians(arc_deg)
    points, normals, curvatures = [], [], []

    r_out = center_r + width / 2.0
    r_in = center_r - width / 2.0
    if r_in <= 0:
        raise ValueError("bent prism centerline radius must exceed half the width")

    def arc_thetas(radius_at):
        n = max(3, round(radius_at * arc / spacing))
        return (np.arange(n) + 0.5) * (arc / n) - arc / 2.0

    # top and bottom flat faces (normals +/-Z): annular band between r_in, r_out
    rs = _grid_1d(width, spacing) + center_r
    for sign in (1.0, -1.0):
        for r in rs:
            for theta in arc_thetas(r):
                points.append(np.array([r * math.cos(theta), r * math.sin(theta), sign * thickness / 2.0]))
                normals.append(np.array([0.0, 0.0, sign]))
                curvatures.append(0.0)
    # outer and inner curved walls (normals +/- radial)
    zs = _grid_1d(thickness, spacing)
    for radius, sign in ((r_out, 1.0), (r_in, -1.0)):
        c = variation_proxy(1.0 / radius, 0.0, spec.density)
        for theta in arc_thetas(radius):
            nx, ny = math.cos(theta), math.sin(theta)
            for z in zs:
                points.append(np.array([radius * nx, radius * ny, z]))
                normals.append(np.array([sign * nx, sign * ny, 0.0]))
                curvatures.append(c)
    # end caps (normals along the tangent at the arc ends)
    for end in (-arc / 2.0, arc / 2.0):
        tangent = np.array([-math.sin(end), math.cos(end), 0.0])
        if end < 0:
            tangent = -tangent
        for r in rs:
            for z in zs:
                points.append(np.array([r * math.cos(end), r * math.sin(end), z]))
                normals.append(tangent.copy())
                curvatures.append(0.0)
    return points, normals, curvatures


GENERATORS = {
    "box": box_points,
    "cylinder": cylinder_points,
    "sphere": sphere_points,
    "ellipsoid": ellipsoid_points,
    "bent_prism": bent_prism_points,
}


def generate(spec: ShapeSpec) -> PointCloud:
    """``shapes.generate`` over the per-point generators above."""
    points, normals, curvatures = GENERATORS[spec.kind](spec)
    points = np.array(points)
    normals = np.array(normals)
    curvatures = np.clip(np.array(curvatures), 0.0, 1.0)
    if spec.jitter > 0:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.seed)))
        points = points + rng.standard_normal(points.shape) * spec.jitter
    return PointCloud(points=points, normals=normals, curvatures=curvatures)
