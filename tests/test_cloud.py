import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graspkit.cloud import (
    KNN_BLOCK,
    KNN_SLACK,
    PointCloud,
    SpatialIndex,
    estimate_normals_curvatures,
    remove_statistical_outliers,
    voxel_downsample,
)

from conftest import grid_cloud


def random_points(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, scale, size=(n, 3))


@st.composite
def knn_clouds(draw):
    """(points, k) with every k in [1, n]: random clouds, exact duplicates
    (so a row's self entry need not be in column 0), equidistant grid ties,
    and clouds of more than one KNN_BLOCK rows."""
    kind = draw(st.sampled_from(["random", "duplicates", "grid", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        points = rng.uniform(0.0, 1.0, size=(draw(st.integers(1, 80)), 3))
    elif kind == "duplicates":
        base = rng.uniform(0.0, 1.0, size=(draw(st.integers(1, 20)), 3))
        points = base[rng.integers(len(base), size=draw(st.integers(1, 60)))]
    elif kind == "grid":
        shape = [draw(st.integers(1, 5)) for _ in range(3)]
        points = np.argwhere(np.ones(shape)) * 0.01
        points = points[rng.permutation(len(points))]
    else:
        n = draw(st.integers(KNN_BLOCK + 1, KNN_BLOCK + 200))
        points = np.round(rng.uniform(0.0, 1.0, size=(n, 3)), 1)  # coarse lattice: ties and duplicates
    n = len(points)
    k = draw(st.one_of(st.integers(1, min(n, 24)), st.integers(1, n)))
    return points, k


@st.composite
def nearest_queries(draw):
    """(points, queries) whose queries tie exactly: midpoints of dyadic grid
    cells (equidistant from 2, 4 or 8 points), centres of 24 equidistant
    points (more ties than tree candidates), duplicate points, a 1-point
    cloud, clouds smaller than 1 + KNN_SLACK, and more than one KNN_BLOCK of
    queries."""
    kind = draw(st.sampled_from(["midpoints", "shell", "duplicates", "single", "small", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = 2.0**-6  # dyadic: grid points, midpoints and their differences are exact
    if kind == "shell":
        # the 24 integer vectors of squared length 5, plus farther points
        cube = np.argwhere(np.ones((7, 7, 7))) - 3
        points = cube[np.isin(np.einsum("ij,ij->i", cube, cube), [5, 6, 9])] * spacing
        points = points[rng.permutation(len(points))]
        queries = rng.integers(-1, 2, size=(draw(st.integers(1, 5)), 3)) * spacing
        queries[0] = 0.0
    elif kind in ("midpoints", "blocks"):
        shape = [draw(st.integers(1, 6)) for _ in range(3)]
        points = np.argwhere(np.ones(shape)) * spacing
        points = points[rng.permutation(len(points))]
        n_queries = draw(st.integers(KNN_BLOCK + 1, KNN_BLOCK + 300)) if kind == "blocks" else draw(st.integers(1, 80))
        cells = rng.integers(-1, max(shape) + 1, size=(n_queries, 3))
        queries = (cells + rng.choice([0.0, 0.5], size=(n_queries, 3))) * spacing
    else:
        n = {"duplicates": 30, "single": 1, "small": KNN_SLACK}[kind]
        base = rng.uniform(0.0, 1.0, size=(draw(st.integers(1, n)), 3))
        points = base[rng.integers(len(base), size=draw(st.integers(1, 2 * n)))] if kind == "duplicates" else base
        queries = np.vstack([points, rng.uniform(-0.5, 1.5, size=(draw(st.integers(1, 40)), 3))])
    return points, queries


class TestPointCloud:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), normals=np.tile([0.0, 0, 1], (2, 1)))

    def test_non_unit_normals_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), normals=np.array([[0.0, 0.0, 0.5]]))

    def test_curvature_range_enforced(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), curvatures=np.array([1.5]))

    @pytest.mark.parametrize("array", ["points", "normals", "curvatures", "confidences"])
    def test_non_finite_rejected_by_name(self, array):
        arrays = {
            "points": np.zeros((2, 3)),
            "normals": np.tile([0.0, 0.0, 1.0], (2, 1)),
            "curvatures": np.zeros(2),
            "confidences": np.ones(2),
        }
        for bad in (np.nan, np.inf):
            arrays[array] = arrays[array].copy()
            arrays[array].flat[-1] = bad
            with pytest.raises(ValueError, match=f"{array} contain non-finite"):
                PointCloud(**arrays)

    def test_arrays_read_only(self):
        cloud = grid_cloud(4, 4)
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 7.0


class TestSpatialIndex:
    def brute_force_knn(self, points, query, k):
        diff = points - query
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2
        order = np.lexsort((np.arange(len(points)), d2))
        return order[:k]

    def test_matches_brute_force_with_ties(self):
        # grid clouds are full of exact distance ties
        points = grid_cloud(7, 7, spacing=0.01).points
        index = SpatialIndex(points)
        for qi in range(0, len(points), 5):
            for k in (1, 4, 9):
                got, dist = index.knn(points[qi], k)
                expected = self.brute_force_knn(points, points[qi], k)
                np.testing.assert_array_equal(got, expected)
                assert np.all(np.diff(dist) >= 0)

    def test_matches_brute_force_random(self):
        points = random_points(500, seed=3)
        index = SpatialIndex(points)
        rng = np.random.default_rng(11)
        for _ in range(25):
            q = rng.uniform(0, 1, 3)
            got, _ = index.knn(q, 12)
            np.testing.assert_array_equal(got, self.brute_force_knn(points, q, 12))

    @given(knn_clouds())
    @example((np.repeat(random_points(7, seed=1), 3, axis=0)[::-1].copy(), 4))  # duplicates
    @example((grid_cloud(6, 6, spacing=0.01).points, 5))  # equidistant ties
    @example((random_points(10, seed=2), 10))  # k = n
    @example((random_points(KNN_BLOCK + 77, seed=3), 12))  # several row blocks
    @settings(max_examples=60, deadline=None)
    def test_knn_all_matches_per_point_queries(self, cloud_and_k):
        points, k = cloud_and_k
        index = SpatialIndex(points)
        all_idx, all_d = index.knn_all(k)
        assert all_idx.shape == all_d.shape == (len(points), k)
        for i in range(len(points)):
            idx, d = index.knn(points[i], k)
            np.testing.assert_array_equal(all_idx[i], idx)
            np.testing.assert_array_equal(all_d[i], d)

    @given(nearest_queries())
    @settings(max_examples=60, deadline=None)
    def test_nearest_many_matches_per_point_queries(self, points_and_queries):
        points, queries = points_and_queries
        index = SpatialIndex(points)
        got = index.nearest_many(queries)
        assert got.shape == (len(queries),)
        np.testing.assert_array_equal(got, [index.nearest(q) for q in queries])
        np.testing.assert_array_equal(got, [index.knn(q, 1)[0][0] for q in queries])

    def test_points_property_is_read_only(self):
        points = random_points(5, seed=4)
        index = SpatialIndex(points)
        np.testing.assert_array_equal(index.points, points)
        with pytest.raises(ValueError):
            index.points[0, 0] = 1.0
        assert points.flags.writeable

    def test_duplicates_push_self_out_of_column_0(self):
        # three copies of each point: the later copies see a lower-index twin first
        points = np.repeat(random_points(7, seed=1), 3, axis=0)
        idx, dist = SpatialIndex(points).knn_all(4)
        assert np.any(idx[:, 0] != np.arange(len(points)))
        assert np.all(dist[:, :3] == 0.0)

    def test_radius_sorted_and_complete(self):
        points = grid_cloud(5, 5, spacing=0.01).points
        index = SpatialIndex(points)
        idx, dist = index.radius(points[12], 0.0101)
        assert idx[0] == 12
        assert np.all(np.diff(dist) >= 0)
        assert len(idx) == 5  # self + 4 axis neighbors


class TestVoxelDownsample:
    def test_cube_corners_collapse_to_center(self):
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        out = voxel_downsample(PointCloud(corners), voxel=10.0)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], [0.5, 0.5, 0.5])

    def test_small_voxel_is_identity(self):
        cloud = grid_cloud(6, 6, spacing=0.01)
        out = voxel_downsample(cloud, voxel=0.001)
        assert len(out) == len(cloud)
        np.testing.assert_allclose(np.sort(out.points, axis=0), np.sort(cloud.points, axis=0))

    def test_matches_brute_force_binning(self):
        points = random_points(1000, seed=7)
        voxel = 0.25
        out = voxel_downsample(PointCloud(points), voxel)
        assert len(out) <= 64
        # independent binning oracle
        bins = {}
        for p in points:
            key = tuple(np.floor(p / voxel).astype(int))
            bins.setdefault(key, []).append(p)
        expected = {key: np.mean(vals, axis=0) for key, vals in bins.items()}
        assert len(out) == len(expected)
        got = {tuple(np.floor(p / voxel).astype(int)): p for p in out.points}
        assert set(got) == set(expected)
        for key, centroid in expected.items():
            np.testing.assert_allclose(got[key], centroid, atol=1e-12)

    def test_output_order_lexicographic(self):
        points = random_points(200, seed=9)
        out = voxel_downsample(PointCloud(points), 0.3)
        coords = np.floor(out.points / 0.3).astype(int)
        as_tuples = [tuple(c) for c in coords]
        assert as_tuples == sorted(as_tuples)

    def test_normals_renormalized(self):
        rng = np.random.default_rng(2)
        normals = rng.normal(size=(50, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(random_points(50, seed=2, scale=0.1), normals=normals)
        out = voxel_downsample(cloud, 0.05)
        np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0, atol=1e-9)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_point_count(self, seed):
        cloud = PointCloud(random_points(60, seed=seed))
        once = voxel_downsample(cloud, 0.2)
        twice = voxel_downsample(once, 0.2)
        assert len(twice) == len(once)

    def test_rejects_nonpositive_voxel(self):
        with pytest.raises(ValueError):
            voxel_downsample(grid_cloud(3, 3), 0.0)


class TestOutlierRemoval:
    def test_far_point_removed(self, unit_sphere_cloud):
        points = np.vstack([unit_sphere_cloud.points, [100.0, 0.0, 0.0]])
        out = remove_statistical_outliers(PointCloud(points), k=8, std_ratio=2.0)
        assert len(out) == len(unit_sphere_cloud)
        assert np.abs(np.linalg.norm(out.points, axis=1) - 1.0).max() < 1e-9

    def test_homogeneous_samplings_untouched(self):
        # grid with k=2: every point, corners included, has two neighbors at
        # exactly one spacing, so the distance statistics are constant
        cloud = grid_cloud(10, 10, spacing=0.01)
        out = remove_statistical_outliers(cloud, k=2, std_ratio=3.0)
        np.testing.assert_array_equal(out.points, cloud.points)
        # ring: rotationally symmetric, homogeneous for any k
        theta = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
        ring = PointCloud(np.column_stack([np.cos(theta), np.sin(theta), np.zeros(100)]))
        out = remove_statistical_outliers(ring, k=8, std_ratio=3.0)
        np.testing.assert_array_equal(out.points, ring.points)

    def test_mean_distances_match_brute_force(self):
        points = random_points(80, seed=13)
        k, ratio = 6, 1.5
        out = remove_statistical_outliers(PointCloud(points), k=k, std_ratio=ratio)
        # oracle: O(n^2) neighbor statistics
        mean_d = []
        for i, p in enumerate(points):
            d = np.linalg.norm(points - p, axis=1)
            d = np.delete(d, i)
            mean_d.append(np.sort(d)[:k].mean())
        mean_d = np.array(mean_d)
        keep = mean_d <= mean_d.mean() + ratio * mean_d.std()
        np.testing.assert_array_equal(out.points, points[keep])

    def test_too_small_cloud_rejected(self):
        with pytest.raises(ValueError):
            remove_statistical_outliers(PointCloud(np.zeros((5, 3))), k=5)


class TestNormalEstimation:
    def test_planar_grid_normals_and_curvature(self):
        cloud = PointCloud(grid_cloud(15, 15, spacing=0.004).points)
        out = estimate_normals_curvatures(cloud, k=8)
        assert np.all(np.abs(out.normals[:, 2]) > 1 - 1e-12)
        assert out.curvatures.max() < 1e-9

    def test_unit_sphere_normals_radial(self, unit_sphere_cloud):
        cloud = PointCloud(unit_sphere_cloud.points)
        out = estimate_normals_curvatures(cloud, k=12)
        radial = out.points / np.linalg.norm(out.points, axis=1, keepdims=True)
        cos = np.abs(np.einsum("ni,ni->n", out.normals, radial))
        assert (cos >= np.cos(np.radians(10))).mean() >= 0.95
        # orientation: away from centroid means outward here
        assert (np.einsum("ni,ni->n", out.normals, radial) > 0).all()

    def test_collinear_points_zero_curvature(self):
        pts = np.array([[float(i), 0.0, 0.0] for i in range(10)])
        out = estimate_normals_curvatures(PointCloud(pts), k=4)
        assert np.allclose(out.curvatures, 0.0)

    def test_coincident_points_degenerate_path(self):
        pts = np.zeros((5, 3))
        out = estimate_normals_curvatures(PointCloud(pts), k=3)
        np.testing.assert_allclose(out.normals, np.tile([0.0, 0.0, 1.0], (5, 1)))
        assert np.allclose(out.curvatures, 0.0)

    def test_unit_normals_always(self):
        out = estimate_normals_curvatures(PointCloud(random_points(100, seed=21)), k=6)
        np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0, atol=1e-9)
        assert out.curvatures.min() >= 0.0 and out.curvatures.max() <= 1.0

    def test_rejects_small_k_or_cloud(self):
        with pytest.raises(ValueError):
            estimate_normals_curvatures(PointCloud(np.zeros((5, 3))), k=2)
        with pytest.raises(ValueError):
            estimate_normals_curvatures(PointCloud(np.zeros((2, 3))), k=3)


def test_operations_deterministic():
    points = random_points(300, seed=42)
    cloud = PointCloud(points)
    a = estimate_normals_curvatures(voxel_downsample(cloud, 0.1), k=5)
    b = estimate_normals_curvatures(voxel_downsample(cloud, 0.1), k=5)
    assert a.points.tobytes() == b.points.tobytes()
    assert a.normals.tobytes() == b.normals.tobytes()
    assert a.curvatures.tobytes() == b.curvatures.tobytes()
