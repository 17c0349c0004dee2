"""The vectorized outlier filter, voxel grid, kNN tables, normal estimation,
region growth, region pairing, sample locations, contact picking, ranking and
robustness evaluator equal their scalar reference loops or whole-cloud array
versions (``reference_loops.py``) bit for bit, on the corpus clouds, on
3x-density jittered scans of the same shapes and on hand-made edge cases."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import reference_loops as ref
from graspkit import candidates
from graspkit.candidates import GraspCandidate, _sample_locations, find_antiparallel_pairs, overlap_region, plane_frame
from graspkit.cloud import (
    KNN_BLOCK,
    PointCloud,
    SpatialIndex,
    _canonical_sign,
    _mean_knn_distances,
    _orient,
    estimate_normals_curvatures,
    remove_statistical_outliers,
    voxel_downsample,
)
from graspkit import planner
from graspkit.planner import PlannerConfig, plan, preprocess
from graspkit.regions import (
    PlanarRegion,
    RegionGrowingParams,
    _grow_regions,
    segment,
)
from graspkit.robustness import PerturbationSpec, robust_force_closure
from graspkit.shapes import ShapeSpec, corpus_standard, generate

CONFIG = PlannerConfig()
OBJECTS = list(corpus_standard())


def assert_clouds_equal(got: PointCloud, want: PointCloud):
    for attr in ("points", "normals", "curvatures"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert (a is None) == (b is None), attr
        if a is not None:
            assert np.array_equal(a, b), attr


@pytest.fixture(scope="module")
def clouds():
    """name -> (corpus cloud with analytic normals, points-only 3x jittered scan)."""
    out = {}
    for i, (name, spec) in enumerate(corpus_standard().items()):
        scan = generate(dataclasses.replace(spec, density=spec.density * 3.0, jitter=3e-4, seed=i))
        out[name] = (generate(spec), PointCloud(scan.points))
    return out


def axis_keeping_rotations() -> list[np.ndarray]:
    """The 24 signed permutation matrices of determinant +1."""
    rotations = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if np.linalg.det(m) > 0:
                rotations.append(m)
    return rotations


def posed(cloud: PointCloud, rotation: np.ndarray, shift: np.ndarray) -> PointCloud:
    normals = cloud.normals @ rotation.T
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points @ rotation.T + shift, normals, cloud.curvatures)


def posed_corpus(seed: int) -> dict[str, PointCloud]:
    """name -> corpus cloud in the seeded rigid pose of the benchmark's corpus
    workload: one of the 24 axis-keeping rotations and a shift of whole
    voxels, drawn from Philox keyed by (seed, object index)."""
    rotations = axis_keeping_rotations()
    out = {}
    for i, (name, spec) in enumerate(corpus_standard().items()):
        rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(i))))
        rotation = rotations[rng.integers(len(rotations))]
        shift = rng.integers(-25, 26, 3) * CONFIG.voxel_size
        out[name] = posed(generate(spec), rotation, shift)
    return out


@pytest.fixture(scope="module")
def table_clouds(clouds):
    """name -> (seed-1 posed corpus cloud, points-only 3x jittered scan)."""
    return {name: (cloud, clouds[name][1]) for name, cloud in posed_corpus(1).items()}


@pytest.mark.parametrize("name", OBJECTS)
def test_knn_tables_match_single_round_loop(table_clouds, name):
    # a raw cloud's table and the post-voxel table of normals and segmentation
    for cloud in table_clouds[name]:
        for points, k in (
            (cloud, CONFIG.outlier_k + 1),
            (preprocess(cloud, CONFIG), CONFIG.k_neighbors),
        ):
            index = SpatialIndex(points)
            assert np.array_equal(index.knn_all(k), ref.knn_rows(index, index.points, k))


def assert_pairs_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.region_a is b.region_a and a.region_b is b.region_b
        assert type(a.antiparallel_angle_deg) is type(b.antiparallel_angle_deg) is float
        assert type(a.separation) is type(b.separation) is float
        assert a.antiparallel_angle_deg == b.antiparallel_angle_deg
        assert a.separation == b.separation
        assert np.array_equal(a.common_normal, b.common_normal)


@pytest.mark.parametrize("name", OBJECTS)
def test_pairs_and_sample_locations_match_loops(table_clouds, name):
    for cloud in table_clouds[name]:
        prepared = preprocess(cloud, CONFIG)
        regions = segment(prepared, CONFIG).regions
        for subset in (regions, regions[:1], regions[:0]):
            assert_pairs_equal(
                find_antiparallel_pairs(subset, CONFIG),
                ref.find_antiparallel_pairs(subset, CONFIG.max_pair_angle_deg, CONFIG.max_width),
            )
        for pair in find_antiparallel_pairs(regions, CONFIG):
            # make_candidates' projections; min_points=1 keeps every box holding
            # a point of each region, not only the boxes the plan sweeps
            u, v = plane_frame(pair.common_normal)
            members = (prepared.points[r.point_indices] for r in (pair.region_a, pair.region_b))
            box = overlap_region(*(np.column_stack([p @ u, p @ v]) for p in members), min_points=1)
            if box is not None:
                # 32 samples: make_candidates' sweep at the default candidates_per_pair
                assert np.array_equal(_sample_locations(*box, 32), ref.sample_locations(*box, 32))


def test_pairs_with_ties_and_degenerate_directions_match_loop():
    def region(normal, centroid):
        n = np.asarray(normal, dtype=np.float64)
        c = np.asarray(centroid, dtype=np.float64)
        return PlanarRegion(np.arange(3), n / np.linalg.norm(n), c)

    # a cube's six faces (three pairs at exactly 0 degrees, sorted by index),
    # a face coplanar with the +z face (separation 0), a copy of the +x face
    # (equal normals: no common normal) and a tilted face 10 cm away
    regions = [region(n, 0.02 * np.asarray(n)) for n in np.vstack([np.eye(3), -np.eye(3)])]
    regions += [region((0.0, 0.0, -1.0), (0.01, 0.0, 0.02)), regions[0], region((-1.0, 0.1, 0.0), (-0.1, 0.0, 0.0))]
    # 1 degree: below the tilted face's 5.7, so only the exact 0-degree pairs remain
    for max_angle in (1.0, 15.0, 180.0):
        for max_width in (0.04, 0.085, 1.0):
            got = find_antiparallel_pairs(regions, PlannerConfig(max_pair_angle_deg=max_angle, max_width=max_width))
            assert_pairs_equal(got, ref.find_antiparallel_pairs(regions, max_angle, max_width))
    tied = find_antiparallel_pairs(regions, PlannerConfig(max_pair_angle_deg=1.0))
    want = [(regions[i], regions[j]) for i, j in ((0, 3), (1, 4), (2, 5), (3, 7))]
    assert len(tied) == len(want)
    assert all(p.region_a is a and p.region_b is b for p, (a, b) in zip(tied, want))


def test_sample_locations_match_loop_on_random_boxes():
    rng = np.random.default_rng(8)
    for _ in range(50):
        lo = rng.normal(size=2)
        hi = lo + rng.uniform(0.0, 0.1, 2)
        for count in (1, 2, 32, 47):
            assert np.array_equal(_sample_locations(lo, hi, count), ref.sample_locations(lo, hi, count))


@pytest.mark.parametrize("name", OBJECTS)
def test_regions_list_their_members_in_ascending_index(clouds, name):
    # segment's size tie-break, and make_candidates' pair orientation and
    # nearest-member ties, read the first member
    for cloud in clouds[name]:
        for region in segment(preprocess(cloud, CONFIG), CONFIG):
            assert np.all(np.diff(region.point_indices) > 0)


def test_nearest_member_matches_lexsort_on_grid_ties():
    # a 6 x 6 unit grid, its rows shuffled, with ascending member indices:
    # edge midpoints are equidistant from 2 members and cell centres from 4
    rng = np.random.default_rng(5)
    grid = np.array([[x, y] for x in range(6) for y in range(6)], dtype=np.float64)
    proj = grid[rng.permutation(len(grid))]
    members = np.sort(rng.choice(1000, len(grid), replace=False))
    halves = np.arange(-1, 13) * 0.5
    ties = set()
    for sample in np.array([[x, y] for x in halves for y in halves]):
        d = np.linalg.norm(proj - sample, axis=1)
        ties.add(int(np.sum(d == d.min())))
        for max_dist in (0.4, 0.5, d.min(), np.sqrt(0.5), 2.0):
            got = candidates._nearest_member(sample, proj, members, max_dist)
            assert got == ref.nearest_member(sample, proj, members, max_dist)
    assert ties == {1, 2, 4}


def mirrored_candidates(rng, count: int) -> list[GraspCandidate]:
    """``count`` random grasps in their 8 mirror images through the origin's
    coordinate planes, so each image has exactly the same lever-arm distance
    and width; every grasp twice, once with inward normals that pass the
    friction cone and once with normals tilted out of it, and one image of
    each repeated."""
    out = []
    for _ in range(count):
        a = rng.uniform(-0.8, 0.8, 3)
        b = a + rng.normal(size=3) * 0.3
        axis = (b - a) / np.linalg.norm(b - a)
        tilt = np.cross(axis, rng.normal(size=3))
        tilt /= np.linalg.norm(tilt)
        for na in (axis, (axis + 2.0 * tilt) / np.linalg.norm(axis + 2.0 * tilt)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                ca, cb = a * signs, b * signs
                width = float(np.linalg.norm(cb - ca))
                out.append(GraspCandidate(ca, cb, na * signs, -axis * signs, (cb - ca) / width, width))
            out.append(out[-1])
    return out


def assert_reports_match(got, want):
    """Same order, closure and distance; sigma_min from the positions' Gram
    within 1e-13 of the oracle's SVD of the frame-built grasp map."""
    assert [(r.candidate_index, r.closure, r.axis_com_distance) for r in got] == [
        (r.candidate_index, r.closure, r.axis_com_distance) for r in want
    ]
    assert all(abs(g.sigma_min - w.sigma_min) <= 1e-13 for g, w in zip(got, want))


def test_rank_matches_tuple_key_sort_on_exact_ties():
    rng = np.random.default_rng(19)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    cloud = PointCloud(corners)  # centroid exactly 0
    batch = mirrored_candidates(rng, 6)
    batch = [batch[i] for i in rng.permutation(len(batch))]
    got = planner.rank_candidates(batch, cloud, CONFIG).reports
    assert_reports_match(got, ref.rank_candidates(batch, cloud, CONFIG.mu, CONFIG.sigma_min_threshold))
    assert all(type(r.candidate_index) is int and type(r.axis_com_distance) is float for r in got)
    assert {r.closure for r in got} == {True, False}
    # exact ties between distinct candidates, not only between repeats
    keys = {(r.closure, r.axis_com_distance, r.candidate.width) for r in got}
    assert len(keys) < len(set(map(id, batch))) < len(batch)


def test_rank_of_the_corpus_matches_tuple_key_sort(clouds, monkeypatch):
    batches = []
    rank_candidates = planner.rank_candidates

    def spy(batch, cloud, config):
        batches.append((batch, cloud, config))
        return rank_candidates(batch, cloud, config)

    monkeypatch.setattr(planner, "rank_candidates", spy)
    for cloud, _ in clouds.values():
        plan(cloud, CONFIG)
    assert len(batches) == 9
    for batch, cloud, config in batches:
        got = rank_candidates(batch, cloud, config).reports
        assert_reports_match(got, ref.rank_candidates(batch, cloud, config.mu, config.sigma_min_threshold))


@pytest.mark.parametrize("name", OBJECTS)
def test_outlier_filter_and_voxel_grid_match_loops(clouds, name):
    for cloud in clouds[name]:
        k, ratio = CONFIG.outlier_k, CONFIG.outlier_std_ratio
        filtered = remove_statistical_outliers(cloud, k=k, std_ratio=ratio)
        assert_clouds_equal(filtered, ref.remove_statistical_outliers(cloud, k=k, std_ratio=ratio))
        assert_clouds_equal(
            voxel_downsample(filtered, CONFIG.voxel_size), ref.voxel_downsample(filtered, CONFIG.voxel_size)
        )


def filter_then_grid(cloud: PointCloud) -> PointCloud:
    """``preprocess`` as it runs where voxels are shared: the outlier filter on a
    bare tree, the voxel grid, then normals where the cloud lacks them."""
    out = voxel_downsample(
        remove_statistical_outliers(cloud, k=CONFIG.outlier_k, std_ratio=CONFIG.outlier_std_ratio), CONFIG.voxel_size
    )
    return out if out.normals is not None else estimate_normals_curvatures(out, CONFIG.k_neighbors)


def assert_grid_first_equals_filter_then_grid(cloud: PointCloud) -> None:
    """``preprocess`` equals ``filter_then_grid`` bit for bit, and the table its
    index holds equals a fresh one."""
    prepared = preprocess(cloud, CONFIG)
    assert_clouds_equal(prepared, filter_then_grid(cloud))
    assert np.array_equal(
        prepared.index.knn_all(CONFIG.k_neighbors), SpatialIndex(prepared.points).knn_all(CONFIG.k_neighbors)
    )


@pytest.mark.parametrize("name", OBJECTS)
def test_grid_first_preprocess_equals_filter_then_grid(clouds, name, monkeypatch):
    # every axis-keeping pose with a shift of whole voxels, and the points-only
    # cloud; the singleton test picks the path, so count the poses that take
    # the grid-first one
    grid_first = []
    singleton_voxels = planner.singleton_voxels

    def spy(cloud, voxel):
        grid_first.append(singleton_voxels(cloud, voxel))
        return grid_first[-1]

    monkeypatch.setattr(planner, "singleton_voxels", spy)
    cloud = clouds[name][0]
    rng = np.random.default_rng(OBJECTS.index(name))
    for rotation in axis_keeping_rotations():
        assert_grid_first_equals_filter_then_grid(posed(cloud, rotation, rng.integers(-25, 26, 3) * CONFIG.voxel_size))
    assert_grid_first_equals_filter_then_grid(PointCloud(cloud.points))
    assert len(grid_first) == 25
    if name in ("cylinder_master_chef", "sphere_tennis_ball", "ellipsoid_pear"):
        assert not all(grid_first)
    else:
        assert all(grid_first)


def test_grid_first_on_a_tie_heavy_grid_removes_points_and_requeries_rows(table_rows):
    # A dyadic square lattice (spacing 2**-8 m, one point per 2 mm voxel; an
    # interior 16-NN row ends inside a shell of 8 tied points), points 2
    # spacings above some nodes and two far points 10 and 12 spacings off the
    # plane. The filter drops the far points, lifted ones and lattice corners,
    # and the kept rows that held one of them are queried again.
    spacing = 2.0**-8
    lattice = np.argwhere(np.ones((40, 40, 1))) * spacing
    lifted = lattice[[205, 211, 217, 605, 611, 617, 1005, 1011, 1017]] + (0.0, 0.0, 2 * spacing)
    far = np.array([[20, 20, 10], [5, 30, -12]]) * spacing
    points = np.vstack([lattice, lifted, far])
    n = len(points)
    assert len(preprocess(PointCloud(points), CONFIG)) < n
    # the grid cloud's table, then the kept rows that lost a neighbour
    assert table_rows[0] == n and 0 < table_rows[1] < n
    assert_grid_first_equals_filter_then_grid(PointCloud(points))
    assert_grid_first_equals_filter_then_grid(PointCloud(points[::-1].copy()))


@pytest.mark.parametrize(
    "points",
    [
        np.random.default_rng(5).uniform(-0.05, 0.05, (3000, 3)),
        np.argwhere(np.ones((14, 14, 14))) * 2.0**-8,
        np.argwhere(np.ones((14, 14, 14))) * 2.0**-8 + np.random.default_rng(6).normal(0.0, 3e-4, (14**3, 3)),
    ],
    ids=["random", "grid", "jittered-grid"],
)
def test_grid_first_table_distances_equal_the_tree_query(points):
    # the filter's mean distances read from the 16-NN table equal those of one
    # plain cKDTree query of k + 1, bit for bit, ties and all
    cloud = PointCloud(points)
    k = CONFIG.outlier_k
    want = cKDTree(points).query(points, k + 1)[0][:, 1:].mean(axis=1)
    assert _mean_knn_distances(cloud, k, CONFIG.k_neighbors).tobytes() == want.tobytes()
    assert _mean_knn_distances(cloud, k, None).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", OBJECTS)
def test_normals_of_scans_match_whole_cloud_arrays(clouds, name):
    filtered = remove_statistical_outliers(clouds[name][1], k=CONFIG.outlier_k, std_ratio=CONFIG.outlier_std_ratio)
    cloud = voxel_downsample(filtered, CONFIG.voxel_size)
    assert_clouds_equal(
        estimate_normals_curvatures(cloud, CONFIG.k_neighbors), ref.estimate_normals_curvatures(cloud, CONFIG.k_neighbors)
    )


@pytest.mark.parametrize("name", OBJECTS)
def test_normals_of_scans_agree_with_lapack(clouds, name):
    # LAPACK's eigh rounds differently, and differently per BLAS kernel; no
    # scan neighbourhood has a tied smallest eigenvalue, so the normals agree
    filtered = remove_statistical_outliers(clouds[name][1], k=CONFIG.outlier_k, std_ratio=CONFIG.outlier_std_ratio)
    cloud = voxel_downsample(filtered, CONFIG.voxel_size)
    got = estimate_normals_curvatures(cloud, CONFIG.k_neighbors)
    want = ref.estimate_normals_curvatures_eigh(cloud, CONFIG.k_neighbors)
    assert np.abs(got.normals - want.normals).max() <= 1e-14
    assert np.abs(got.curvatures - want.curvatures).max() <= 1e-14


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
def test_tangent_normals_of_a_flat_patch_match_loops(axis):
    # A dyadic grid in the plane where one coordinate is 0 has centroid exactly
    # 0, so every normal is tangent to its outward ray and takes the canonical
    # sign: the plane's axis, positive, on every point. The eigenvectors of the
    # y = 0 patch come out with mixed signs, so there the sign is flipped.
    xs = (np.arange(48) - 23.5) / 64
    cloud = PointCloud(np.insert(np.array([[u, v] for u in xs for v in xs]), axis, 0.0, axis=1))
    estimated = estimate_normals_curvatures(cloud, CONFIG.k_neighbors)
    assert not np.einsum("ni,ni->n", estimated.normals, cloud.points - cloud.centroid()).any()
    assert np.array_equal(estimated.normals, np.tile(np.eye(3)[axis], (len(cloud), 1)))
    assert_clouds_equal(estimated, ref.estimate_normals_curvatures(cloud, CONFIG.k_neighbors))


def test_tangent_normals_of_a_diagonal_patch_take_the_canonical_sign():
    # On the plane y = z, most rows' eigenvectors have |n_y| = |n_z| to the
    # last bit, so they are exactly tangent to their outward rays and the
    # canonical sign decides them; the solver gives 92 of them n_y < 0.
    xs = (np.arange(48) - 23.5) / 64
    cloud = PointCloud(np.array([[v, u, u] for u in xs for v in xs]))
    estimated = estimate_normals_curvatures(cloud, CONFIG.k_neighbors)
    tangent = np.einsum("ni,ni->n", estimated.normals, cloud.points - cloud.centroid()) == 0
    assert tangent.sum() > 2000
    assert np.array_equal(estimated.normals[tangent], _canonical_sign(estimated.normals[tangent]))
    assert_clouds_equal(estimated, ref.estimate_normals_curvatures(cloud, CONFIG.k_neighbors))


# small integers make exactly perpendicular pairs common; the floats reach
# subnormal and large magnitudes, where the dot's summation order matters
ORIENT_COORD = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e100, 1e100, allow_nan=False))
ORIENT_ROWS = st.lists(st.tuples(*[ORIENT_COORD] * 6), min_size=1, max_size=12)


@given(ORIENT_ROWS)
@example([(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)])
@example([(0.0, 0.0, 1.0, 1.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0, 1.0, 0.0), (0.0, -2.0, 2.0, 1.0, 0.0, 0.0)])
@example([(-1.0, 1e-300, 1.0, 1.0, 1.0, 1.0)])  # positive in einsum's order, 0 left to right
@example([(1e16, -1.0, -1e16, 1.0, 1.0, 1.0), (1.0, 2.0, 3.0, 1.0, 1.0, 1.0)])  # likewise, negative
@settings(max_examples=300, deadline=None)
def test_orient_matches_the_loop(rows):
    # the one tie rule: a negative dot negates, an exact 0 takes the canonical
    # sign, and a vector alone gives the bits of its row of a stack, whatever
    # the memory layout: C order, Fortran order or a strided view
    both = np.array(rows)
    v, toward = np.ascontiguousarray(both[:, :3]), np.ascontiguousarray(both[:, 3:])
    got = _orient(v, toward)
    assert got.tobytes() == ref.orient(v, toward).tobytes()
    fortran = np.asfortranarray(v), np.asfortranarray(toward)
    for layout in (fortran, (both[:, :3], both[:, 3:])):
        assert _orient(*layout).tobytes() == got.tobytes()
    for i in range(len(v)):
        assert _orient(v[i], toward[i]).tobytes() == got[i].tobytes()
        assert _orient(fortran[0][i], fortran[1][i]).tobytes() == got[i].tobytes()


def block_edge_cloud(n: int) -> PointCloud:
    """n points of a jittered sphere scan whose curvatures tag each row with
    its index (i / n). Rows n - 21 to n - 2 coincide on the surface at a
    point of few mantissa bits, so their mean is exact and their covariance
    zero (a degenerate neighbourhood, after the first block when
    n > KNN_BLOCK + 21). Rows 5 and n // 2 lie far off the surface; the last
    row is a surface point."""
    rng = np.random.default_rng(n)
    points = rng.normal(size=(n, 3))
    points *= 0.05 / np.linalg.norm(points, axis=1, keepdims=True)
    points += rng.normal(scale=3e-4, size=(n, 3))
    points[n - 21 : n - 1] = (0.03125, 0.0, 0.0390625)
    points[[5, n // 2]] *= 3.0
    return PointCloud(points, curvatures=np.arange(n) / n)


@pytest.mark.parametrize("n", [KNN_BLOCK - 1, KNN_BLOCK, KNN_BLOCK + 1, 3 * KNN_BLOCK + 1])
def test_blocks_match_whole_cloud_arrays_at_block_edges(n):
    cloud = block_edge_cloud(n)
    k, ratio = CONFIG.outlier_k, CONFIG.outlier_std_ratio
    survivors = np.rint(remove_statistical_outliers(cloud, k=k, std_ratio=ratio).curvatures * n)
    for mean_distances in (ref.outlier_mean_distances_full, ref.outlier_mean_distances):
        want = np.rint(ref.remove_statistical_outliers(cloud, k, ratio, mean_distances).curvatures * n)
        assert np.array_equal(survivors, want)
    assert 5 not in survivors and n // 2 not in survivors and n - 1 in survivors

    points_only = PointCloud(cloud.points)
    estimated = estimate_normals_curvatures(points_only, k=CONFIG.k_neighbors)
    assert_clouds_equal(estimated, ref.estimate_normals_curvatures(points_only, k=CONFIG.k_neighbors))
    coincident = slice(n - 21, n - 1)
    assert np.array_equal(np.abs(estimated.normals[coincident]), np.tile([0.0, 0.0, 1.0], (20, 1)))
    assert not estimated.curvatures[coincident].any()


@pytest.mark.parametrize("name", OBJECTS)
def test_region_growth_matches_loop(clouds, name):
    params = CONFIG
    for cloud in clouds[name]:
        prepared = preprocess(cloud, CONFIG)
        hoods = SpatialIndex(prepared).knn_all(params.k_neighbors)
        grown = [r.tolist() for r in _grow_regions(prepared, params, hoods)]
        assert grown == ref.grow_regions(prepared, params, hoods)


def scan(name: str, jitter: float) -> PointCloud:
    """The preprocessed 3x-density scan of corpus object ``name`` at ``jitter``, seed 64 + its index."""
    i = OBJECTS.index(name)
    spec = corpus_standard()[name]
    raw = generate(dataclasses.replace(spec, density=spec.density * 3.0, jitter=jitter, seed=64 + i))
    return preprocess(PointCloud(raw.points), CONFIG)


@pytest.mark.parametrize("name", OBJECTS)
def test_growth_without_the_plane_test_is_exact_on_the_corpus_and_scans(name):
    # the corpus cloud and the 0.3 mm scan of the benchmark and CI
    for cloud in (preprocess(generate(corpus_standard()[name]), CONFIG), scan(name, 3e-4)):
        hoods = cloud.index.knn_all(CONFIG.k_neighbors)
        assert [r.tolist() for r in _grow_regions(cloud, CONFIG, hoods)] == ref.grow_regions(cloud, CONFIG, hoods)


def wide_cylinder_patch() -> PointCloud:
    """A 0.5 m-radius cylinder patch spanning ±10° on a 4 mm grid, seeded at its
    middle: every member lies within 15° of the seed normal, the later ones
    up to 7.6 mm off the seed's tangent plane."""
    arc = np.radians(np.arange(-10.0, 10.0 + 1e-9, np.degrees(0.004 / 0.5)))
    theta, z = (grid.ravel() for grid in np.meshgrid(arc, np.arange(0.0, 0.0601, 0.004), indexing="ij"))
    points = np.column_stack([0.5 * np.sin(theta), z, 0.5 * (np.cos(theta) - 1.0)])
    normals = np.column_stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)])
    return PointCloud(points, normals, np.abs(theta) * 1e-3 + z * 1e-6)


@pytest.mark.parametrize(
    "build",
    [
        # clouds on which a plane-distance test once changed the raw regions
        lambda: preprocess(generate(ShapeSpec("ellipsoid", (0.03, 0.15, 0.25), density=3e4)), CONFIG),
        lambda: scan("box_cracker", 2e-3),
        lambda: scan("cylinder_soup_can", 1e-3),
        wide_cylinder_patch,
    ],
    ids=["ellipsoid", "cracker_2mm", "soup_can_1mm", "wide_cylinder"],
)
def test_growth_matches_the_loop_where_a_plane_test_bound(build):
    cloud = build()
    hoods = cloud.index.knn_all(CONFIG.k_neighbors)
    assert [r.tolist() for r in _grow_regions(cloud, CONFIG, hoods)] == ref.grow_regions(cloud, CONFIG, hoods)


@pytest.mark.parametrize("distance_threshold, beyond", [(0.005, False), (5e-4, True)])
def test_growth_from_seed_rows_past_the_first_refit(distance_threshold, beyond):
    # With curvature_threshold 0 no point grows a region, so each region is
    # its seed and the passing points of the seed's own row; with 48
    # neighbours some rows hold more than 33 of them. Some members lie
    # 1.07 mm off their seed's tangent plane, beyond 0.5 mm and within 5 mm:
    # growth does not read distance_threshold, so both give the same regions.
    params = dataclasses.replace(CONFIG, k_neighbors=48, curvature_threshold=0.0, distance_threshold=distance_threshold)
    cloud = preprocess(generate(corpus_standard()["sphere_tennis_ball"]), params)
    hoods = cloud.index.knn_all(params.k_neighbors)
    grown = [r.tolist() for r in _grow_regions(cloud, params, hoods)]
    assert grown == ref.grow_regions(cloud, params, hoods)
    assert max(map(len, grown)) > 33
    offsets = [np.abs((cloud.points[r] - cloud.points[r[0]]) @ cloud.normals[r[0]]).max() for r in grown]
    assert (max(offsets) >= distance_threshold) == beyond
    unbounded = dataclasses.replace(params, distance_threshold=1000.0)
    assert grown == [r.tolist() for r in _grow_regions(cloud, unbounded, hoods)]


def test_refit_in_the_middle_of_a_neighbour_row():
    # A flat grid whose stored normals are tilted 10 degrees. A plane test
    # on the seed's tangent plane once admitted only a band of rows until a
    # refit found z = 0 in the middle of a row; the seed-normal cone alone
    # grows the whole grid as one region.
    xs = np.arange(20) * 0.005
    points = np.array([[x, y, 0.0] for x in xs for y in xs])
    tilt = np.radians(10.0)
    normals = np.tile([0.0, np.sin(tilt), np.cos(tilt)], (len(points), 1))
    cloud = PointCloud(points, normals, np.zeros(len(points)))
    params = RegionGrowingParams(k_neighbors=16)
    hoods = SpatialIndex(cloud).knn_all(params.k_neighbors)
    want = ref.grow_regions(cloud, params, hoods)
    assert [r.tolist() for r in _grow_regions(cloud, params, hoods)] == want
    assert [sorted(r) for r in want] == [list(range(len(points)))]


@pytest.mark.parametrize("seed", [5, 148])
def test_a_point_left_by_a_refit_is_met_afresh(seed):
    # A noisy parabolic sheet whose growth once passed a point beyond a
    # refit's cut and met it again in a later frontier: its first occurrence
    # there must not depend on the frontier it was passed over in.
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 0.1, (300, 2))
    points = np.column_stack([xy, 5.0 * (xy[:, 0] - 0.05) ** 2 + rng.normal(0.0, 3e-4, 300)])
    cloud = estimate_normals_curvatures(PointCloud(points), k=16)
    params = RegionGrowingParams(angle_threshold_deg=30.0, curvature_threshold=0.2, k_neighbors=16)
    hoods = cloud.index.knn_all(params.k_neighbors)
    assert [r.tolist() for r in _grow_regions(cloud, params, hoods)] == ref.grow_regions(cloud, params, hoods)


def test_voxel_with_cancelling_normals_takes_first_member_in_value_order():
    normals = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
    points = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3], [0.4, 0.4, 0.4]])
    # all four points fall in voxel (0, 0, 0) of size 0.5, and their normals cancel
    cloud = PointCloud(points, normals, curvatures=np.full(4, 0.25))
    out = voxel_downsample(cloud, 0.5)
    assert_clouds_equal(out, ref.voxel_downsample(cloud, 0.5))
    assert np.array_equal(out.normals, [[1.0, 0.0, 0.0]])
    # reversed order: the member of least value is still the +x one
    rev = PointCloud(points[::-1], normals[::-1], np.full(4, 0.25))
    assert_clouds_equal(voxel_downsample(rev, 0.5), out)
    # one point twice with opposite normals: the -x normal sorts first
    twin = PointCloud(points[[0, 0]], normals[[0, 3]])
    for order in ([0, 1], [1, 0]):
        assert np.array_equal(voxel_downsample(twin.select(order), 0.5).normals, [[-1.0, 0.0, 0.0]])


def test_voxel_of_nine_members_sums_in_value_order():
    rng = np.random.default_rng(4)
    curvatures = rng.uniform(0.0, 1.0, 9)
    normals = rng.normal(size=(9, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    points = rng.uniform(0.0, 0.01, (9, 3))
    cloud = PointCloud(points, normals, curvatures)
    out = voxel_downsample(cloud, 0.05)
    assert len(out) == 1
    assert_clouds_equal(out, ref.voxel_downsample(cloud, 0.05))
    # the curvatures are summed left to right in the members' x order, which
    # here differs from numpy's pairwise sum in input order
    total = 0.0
    for c in curvatures[np.argsort(points[:, 0])]:
        total += c
    assert out.curvatures[0] == total / 9 != curvatures.mean()


@pytest.fixture(scope="module")
def best_grasps():
    """name -> (corpus cloud, planned best candidate) for every plannable object."""
    out = {}
    for name, spec in corpus_standard().items():
        cloud = generate(spec)
        best = plan(cloud, CONFIG).best
        if best is not None:
            out[name] = (cloud, best.candidate)
    assert len(out) == 9
    return out


def assert_robust_matches_loop(candidate, cloud, spec):
    report = robust_force_closure(candidate, cloud, spec, mu=CONFIG.mu)
    want = ref.robust_force_closure_loop(candidate, cloud, spec, mu=CONFIG.mu)
    assert report.per_trial == want
    assert report.probability == sum(want) / spec.trials
    return report


@pytest.mark.parametrize("name", [n for n in OBJECTS if n != "clamp_c_open"])
def test_robust_force_closure_matches_loop(best_grasps, name):
    cloud, candidate = best_grasps[name]
    for sigma in (0.02, 0.05, 0.1):
        for seed in (0, 1, 2):
            spec = PerturbationSpec(sigma=sigma, trials=100, seed=seed, sigma_mode="relative")
            assert_robust_matches_loop(candidate, cloud, spec)


def test_nearest_many_matches_single_round_loop(best_grasps, monkeypatch):
    # the perturbed contact points of robust_force_closure calls, captured at the index
    calls = []
    nearest_many = SpatialIndex.nearest_many

    def spy(index, queries):
        calls.append((index, np.array(queries)))
        return nearest_many(index, queries)

    monkeypatch.setattr(SpatialIndex, "nearest_many", spy)
    for cloud, candidate in best_grasps.values():
        for sigma in (0.02, 0.1):
            spec = PerturbationSpec(sigma=sigma, trials=100, seed=1, sigma_mode="relative")
            robust_force_closure(candidate, cloud, spec, mu=CONFIG.mu)
    assert len(calls) == 2 * len(best_grasps)
    for index, queries in calls:
        assert np.array_equal(nearest_many(index, queries), ref.knn_rows(index, queries, 1)[:, 0])


def test_robust_edge_cases_match_loop(best_grasps):
    cloud, candidate = best_grasps["box_foam_brick"]
    assert all(assert_robust_matches_loop(candidate, cloud, PerturbationSpec(0.0, trials=20, seed=3)).per_trial)
    assert len(assert_robust_matches_loop(candidate, cloud, PerturbationSpec(0.1, trials=1, seed=6, sigma_mode="relative")).per_trial) == 1
    # one-point cloud: every trial snaps both contacts to the same point
    single = PointCloud(np.zeros((1, 3)), normals=np.array([[0.0, 0.0, 1.0]]))
    report = assert_robust_matches_loop(candidate, single, PerturbationSpec(0.5, trials=10, seed=1))
    assert not any(report.per_trial)


@pytest.mark.parametrize("nx", [1.0, 0.9, np.nextafter(0.9, 1.0), np.nextafter(0.9, 0.0)])
def test_robust_matches_loop_at_the_reference_axis_switch(nx):
    # two 8 x 8 plates at x = -/+2 cm whose stored normals have |n_x| = nx,
    # so every snapped contact's inward normal sits on one side of the
    # |n . x| > 0.9 switch; with tilted normals the cone test passes for
    # some trials only
    ys, zs = np.meshgrid(np.arange(8) * 0.004 - 0.014, np.arange(8) * 0.004 - 0.014)
    plate = np.column_stack([np.zeros(64), ys.ravel(), zs.ravel()])
    points = np.vstack([plate - [0.02, 0.0, 0.0], plate + [0.02, 0.0, 0.0]])
    t = np.sqrt(1.0 - nx * nx)
    normals = np.vstack([np.tile([-nx, t, 0.0], (64, 1)), np.tile([nx, t, 0.0], (64, 1))])
    cloud = PointCloud(points, normals)
    axis = np.array([1.0, 0.0, 0.0])
    candidate = GraspCandidate(
        contact_a=-0.02 * axis, contact_b=0.02 * axis, normal_a=axis, normal_b=-axis, grasp_axis=axis, width=0.04
    )
    assert_robust_matches_loop(candidate, cloud, PerturbationSpec(0.1, trials=200, seed=2, sigma_mode="relative"))
