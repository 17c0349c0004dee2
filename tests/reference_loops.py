"""Scalar reference implementations of the vectorized neighbour layer, of
region pairing and of the batched robustness evaluator, and the SLSQP
stability solver.

These are the straightforward per-row / per-voxel / per-neighbour / per-pair /
per-trial loops the library used before its array versions. Tests assert that
the library's output equals theirs bit for bit (``np.array_equal``), so every
rounding choice of the vectorized code (summation order, dot products,
tie-breaks) is pinned to these loops. ``knn_rows`` is the single-round
k + KNN_SLACK neighbour table the library resolved every row with before it
began with k + 2 candidates. The outlier filter's references take each
row's ids and distances from the per-point ``knn``, which breaks ties by
index, where the filter reads a plain tree query; ``outlier_mean_distances``
drops each row's own entry row by row, and ``outlier_mean_distances_full``
through one (n, k + 1) mask over the whole table, as the library did before
it skipped column 0. ``estimate_normals_curvatures`` is the whole-cloud
version of normal estimation, through one (n, k, 3) neighbourhood array and
its centred copy, that the library ran before it worked in blocks of
KNN_BLOCK rows.

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
from graspkit.cloud import KNN_BLOCK, KNN_SLACK, PointCloud, SpatialIndex, _canonical_sign
from graspkit.regions import REFIT_INTERVAL, DegenerateFitError, RegionGrowingParams, fit_plane_lsq
from graspkit.robustness import trial_rng
from graspkit.stability import StabilityProblem, StabilityResult, stability_cost, stability_cost_grad


def knn_rows(index: SpatialIndex, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact k-NN indices of every row of ``queries``: k + KNN_SLACK tree
    candidates per row ordered by (d², index), the per-point ``knn`` for rows
    whose farthest candidate does not lie strictly beyond the k-th."""
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
                out[start + i] = index.knn(query[i], k)[0]
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
            separation = abs(float((a.centroid - b.centroid) @ common))
            if not 0.0 < separation <= max_width:
                continue
            pairs.append(
                RegionPair(
                    region_a=a,
                    region_b=b,
                    common_normal=common,
                    antiparallel_angle_deg=angle,
                    separation=separation,
                    index_a=i,
                    index_b=j,
                )
            )
    pairs.sort(key=lambda p: (p.antiparallel_angle_deg, p.index_a, p.index_b))
    return pairs


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


def estimate_normals_curvatures(cloud: PointCloud, k: int = 16) -> PointCloud:
    """PCA normals and curvatures from the (n, k, 3) neighbourhoods of the whole cloud at once."""
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
    return PointCloud(points, normals, curvatures)


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
    x = x / np.linalg.norm(x)
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


def force_closure(G, points, rotations, mu, threshold=0.01, mode="soft-pinch", torque_scale=1.0):
    """(closure, sigma_min) of one two-contact grasp map."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if mode not in ("soft-pinch", "strict"):
        raise ValueError(f"unknown closure mode {mode!r}")
    scaled = G.copy()
    scaled[3:, :] /= torque_scale
    singular = np.linalg.svd(scaled, compute_uv=False)
    considered = singular[:5] if mode == "soft-pinch" else singular
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


def robust_force_closure_loop(candidate, cloud: PointCloud, spec, mu=0.5, mode="soft-pinch") -> tuple[bool, ...]:
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
        closure, _ = force_closure(G, points, rotations, mu, spec.threshold, mode, torque_scale)
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
