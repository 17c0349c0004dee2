import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from graspkit import cloud as cloud_module
from graspkit.cloud import (
    KNN_BLOCK,
    KNN_FIRST_SLACK,
    KNN_SLACK,
    PointCloud,
    SpatialIndex,
    _jacobi3,
    _outlier_threshold,
    estimate_normals_curvatures,
    remove_statistical_outliers,
    singleton_voxels,
    voxel_downsample,
)

import reference_loops as ref
from conftest import grid_cloud


def random_points(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, scale, size=(n, 3))


def sphere_points(n, seed, radius=0.05):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    return radius * points / np.linalg.norm(points, axis=1, keepdims=True)


def traced_peak(run) -> int:
    """Peak bytes of traced allocations above those live when ``run()`` starts
    (numpy reports its array buffers to ``tracemalloc``)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@st.composite
def tie_clouds(draw):
    """Random clouds, exact duplicates (so a row's self entry need not be in
    column 0), equidistant grid ties, and clouds of more than one KNN_BLOCK
    rows."""
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
    return points


@st.composite
def knn_clouds(draw):
    """(points, k) of a ``tie_clouds`` cloud, with every k in [1, n]."""
    points = draw(tie_clouds())
    n = len(points)
    k = draw(st.one_of(st.integers(1, min(n, 24)), st.integers(1, n)))
    return points, k


@st.composite
def outlier_clouds(draw):
    """(points, k) of a ``tie_clouds`` cloud of n > k points, with k in [1, 20]."""
    points = draw(tie_clouds().filter(lambda p: len(p) > 1))
    return points, draw(st.integers(1, min(20, len(points) - 1)))


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


@st.composite
def oracle_clouds(draw):
    """(points, queries, k) of tie-heavy clouds, n on both sides of KNN_BLOCK:
    up to 30 points each repeated 1-60 times, dyadic lattices, and shells of
    equidistant integer vectors. Queries are the points themselves and, for
    lattices and shells, dyadic cell midpoints, which tie between 2-8 points."""
    kind = draw(st.sampled_from(["duplicates", "lattice", "shell"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = 2.0**-6  # dyadic: points, midpoints and their differences are exact
    if kind == "duplicates":
        counts = draw(st.lists(st.integers(1, 60), min_size=1, max_size=30))
        points = np.repeat(rng.uniform(0.0, 1.0, size=(len(counts), 3)), counts, axis=0)
    elif kind == "lattice":
        points = np.argwhere(np.ones([draw(st.integers(1, 12)) for _ in range(3)])) * spacing
    else:
        cube = np.argwhere(np.ones((9, 9, 9))) - 4
        radii = draw(st.lists(st.sampled_from([1, 2, 3, 5, 6, 9, 14, 17, 29]), min_size=1, max_size=4))
        points = cube[np.isin(np.einsum("ij,ij->i", cube, cube), radii)] * spacing
    points = points[rng.permutation(len(points))]
    queries = points
    if kind != "duplicates":
        cells = rng.integers(-5, 13, size=(draw(st.integers(1, 60)), 3))
        queries = np.vstack([points, (cells + rng.choice([0.0, 0.5], size=cells.shape)) * spacing])
    k = draw(st.one_of(st.integers(1, min(len(points), 40)), st.integers(1, len(points))))
    return points, queries, k


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

    @pytest.mark.parametrize("array", ["points", "normals", "curvatures"])
    def test_non_finite_rejected_by_name(self, array):
        arrays = {
            "points": np.zeros((2, 3)),
            "normals": np.tile([0.0, 0.0, 1.0], (2, 1)),
            "curvatures": np.zeros(2),
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


class TestMemoizedState:
    def test_index_built_once_per_cloud(self, index_builds):
        cloud = PointCloud(random_points(200, seed=3))
        index = cloud.index
        assert all(cloud.index is index for _ in range(5))
        assert [id(p) for p in index_builds] == [id(cloud.points)]
        np.testing.assert_array_equal(index.points, cloud.points)
        assert index.nearest(cloud.points[17]) == 17

    def test_clouds_do_not_share_an_index(self):
        a = PointCloud(random_points(50, seed=4))
        twin = PointCloud(a.points)
        part = a.select(np.arange(25))
        assert len({id(a.index), id(twin.index), id(part.index)}) == 3
        assert len(part.index) == 25

    def test_knn_all_keeps_its_latest_table(self, table_builds):
        points = random_points(300, seed=7)
        fresh = SpatialIndex(points).knn_all(12)
        index = SpatialIndex(points)
        table = index.knn_all(12)
        assert index.knn_all(12) is table and table_builds == [12, 12]
        assert table.dtype == np.intp and table.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 0
        # another k replaces the kept table
        assert index.knn_all(5).shape == (300, 5)
        replaced = index.knn_all(12)
        assert replaced is not table and table_builds == [12, 12, 5, 12]
        assert replaced.tobytes() == fresh.tobytes()

    def test_with_attrs_keeps_what_was_computed(self, index_builds, table_builds):
        cloud = PointCloud(random_points(60, seed=6, scale=0.1))
        bare = cloud.with_attrs(curvatures=np.zeros(60))
        assert not {"index", "_centroid", "_bounding_radius"} & set(bare.__dict__)
        index, centroid, radius = cloud.index, cloud.centroid(), cloud.bounding_radius()
        table = index.knn_all(16)
        out = cloud.with_attrs(curvatures=np.zeros(60))
        assert out.index is index and out.centroid() is centroid and out.bounding_radius() == radius
        assert out.index.knn_all(16) is table
        assert [id(p) for p in index_builds] == [id(cloud.points)] and table_builds == [16]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_centroid_and_radius_bit_equal_to_fresh(self, seed):
        points = random_points(300, seed=seed, scale=0.1) - 0.3
        cloud = PointCloud(points)
        fresh_centroid = points.mean(axis=0)
        fresh_radius = float(np.linalg.norm(points - fresh_centroid, axis=1).max())
        for _ in range(2):  # the cold call and the memoized one
            assert cloud.centroid().tobytes() == fresh_centroid.tobytes()
            assert cloud.bounding_radius() == fresh_radius
        assert cloud.centroid() is cloud.centroid()

    def test_centroid_read_only(self):
        cloud = grid_cloud(4, 4)
        with pytest.raises(ValueError):
            cloud.centroid()[0] = 1.0

    def test_empty_cloud_raises_every_time(self):
        cloud = PointCloud(np.zeros((0, 3)))
        for _ in range(2):
            with pytest.raises(ValueError, match="no centroid"):
                cloud.centroid()
            with pytest.raises(ValueError, match="no bounding radius"):
                cloud.bounding_radius()
            with pytest.raises(ValueError, match="empty cloud"):
                cloud.index


class TestSpatialIndex:
    def test_matches_brute_force_with_ties(self):
        # grid clouds are full of exact distance ties
        points = grid_cloud(7, 7, spacing=0.01).points
        index = SpatialIndex(points)
        for qi in range(0, len(points), 5):
            for k in (1, 4, 9):
                got, dist = index.knn(points[qi], k)
                np.testing.assert_array_equal(got, ref.knn_brute(points, points[qi : qi + 1], k)[0][0])
                assert np.all(np.diff(dist) >= 0)

    def test_matches_brute_force_random(self):
        points = random_points(500, seed=3)
        index = SpatialIndex(points)
        rng = np.random.default_rng(11)
        for _ in range(25):
            q = rng.uniform(0, 1, 3)
            got, _ = index.knn(q, 12)
            np.testing.assert_array_equal(got, ref.knn_brute(points, q[np.newaxis], 12)[0][0])

    @given(knn_clouds())
    @example((np.repeat(random_points(7, seed=1), 3, axis=0)[::-1].copy(), 4))  # duplicates
    @example((grid_cloud(6, 6, spacing=0.01).points, 5))  # equidistant ties
    @example((random_points(10, seed=2), 10))  # k = n
    @example((random_points(KNN_BLOCK + 77, seed=3), 12))  # several row blocks
    @settings(max_examples=60, deadline=None)
    def test_knn_all_matches_per_point_queries(self, cloud_and_k):
        points, k = cloud_and_k
        index = SpatialIndex(points)
        table = index.knn_all(k)
        assert table.shape == (len(points), k)
        for i in range(len(points)):
            np.testing.assert_array_equal(table[i], index.knn(points[i], k)[0])

    @given(nearest_queries())
    @settings(max_examples=60, deadline=None)
    def test_nearest_many_matches_per_point_queries(self, points_and_queries):
        points, queries = points_and_queries
        index = SpatialIndex(points)
        got = index.nearest_many(queries)
        assert got.shape == (len(queries),)
        np.testing.assert_array_equal(got, [index.nearest(q) for q in queries])
        np.testing.assert_array_equal(got, [index.knn(q, 1)[0][0] for q in queries])

    @given(oracle_clouds())
    @example((np.repeat(random_points(17, seed=1), 60, axis=0), np.repeat(random_points(17, seed=1), 60, axis=0), 3))
    @example((np.zeros((KNN_BLOCK - 1, 3)), np.zeros((2, 3)), 5))  # identical points
    @example((np.argwhere(np.ones((11, 11, 11))) * 2.0**-6, np.full((3, 3), 2.0**-7), 26))
    @settings(max_examples=40, deadline=None)
    def test_every_query_equals_the_brute_force_oracle(self, cloud):
        points, queries, k = cloud
        index = SpatialIndex(points)
        want, dist = ref.knn_brute(points, points, k)
        np.testing.assert_array_equal(index.knn_all(k), want)
        nearest, _ = ref.knn_brute(points, queries, 1)
        np.testing.assert_array_equal(index.nearest_many(queries), nearest[:, 0])
        for i in range(0, len(points), max(1, len(points) // 20)):
            got_idx, got_dist = index.knn(points[i], k)
            np.testing.assert_array_equal(got_idx, want[i])
            assert got_dist.tobytes() == dist[i].tobytes()

    @pytest.mark.parametrize("n", [KNN_BLOCK - 1, KNN_BLOCK, KNN_BLOCK + 1, 2 * KNN_BLOCK + 1])
    def test_blocks_mixing_tied_and_untied_rows_equal_the_oracle(self, n):
        """Every block of rows mixes rows whose d² strictly increases in tree
        order with rows that tie: a third of the points lie on an exact dyadic
        lattice (ties at spacing, spacing·√2, ...), the rest are jittered
        beside it, and every 16th point, the rows at both block edges among
        them, duplicates an earlier one (a tie at d² = 0)."""
        rng = np.random.default_rng(n)
        spacing = 2.0**-6
        lattice = np.argwhere(np.ones((12, 12, 12))) * spacing
        points = rng.uniform(0.0, 12 * spacing, size=(n, 3)) + (1.0, 0.0, 0.0)
        points[::3] = lattice[rng.permutation(len(lattice))[: len(points[::3])]]
        duplicates = [i for i in range(1, n) if i % 16 == 15 or i % KNN_BLOCK in (0, KNN_BLOCK - 1)] + [n - 1]
        for i in duplicates:
            points[i] = points[rng.integers(i)]
        want, dist = ref.knn_brute(points, points, 16 + KNN_FIRST_SLACK)
        tied = (np.diff(dist, axis=1) == 0).any(axis=1)
        for start in range(0, n, KNN_BLOCK):  # the one row of a last block of one is tied
            block = tied[start : start + KNN_BLOCK]
            assert block.any() and (len(block) == 1 or not block.all())
        index = SpatialIndex(points)
        for k in (1, 16):
            np.testing.assert_array_equal(index.knn_all(k), want[:, :k])
        np.testing.assert_array_equal(index.nearest_many(points), want[:, 0])

    def test_a_cloud_without_ties_sorts_no_row(self, monkeypatch):
        lattice = np.argwhere(np.ones((10, 10, 10))) * 0.01
        want = ref.knn_brute(lattice, lattice, 16)[0]
        sorted_rows = []
        lexsort = np.lexsort

        def spy(keys):
            sorted_rows.append(len(keys[0]))
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", spy)
        assert SpatialIndex(random_points(3000, seed=8)).knn_all(16).shape == (3000, 16)
        assert sorted_rows == []
        np.testing.assert_array_equal(SpatialIndex(lattice).knn_all(16), want)
        assert sorted_rows

    def query_rounds(self, monkeypatch, index, run):
        """(result, tree query widths) of ``run()`` on ``index``."""
        widths = []
        tree = index._tree

        class TreeSpy:
            def query(self, x, k):
                widths.append(k)
                return tree.query(x, k=k)

        monkeypatch.setattr(index, "_tree", TreeSpy())
        out = run()
        monkeypatch.undo()
        return out, widths

    def test_jittered_cloud_resolves_in_the_first_round(self, monkeypatch):
        index = SpatialIndex(random_points(500, seed=5))
        table, widths = self.query_rounds(monkeypatch, index, lambda: index.knn_all(12))
        assert widths == [12 + KNN_FIRST_SLACK]
        np.testing.assert_array_equal(table, ref.knn_brute(index.points, index.points, 12)[0])

    def test_lattice_ties_need_the_second_round(self, monkeypatch):
        # interior points of a cubic lattice have 6 neighbours at exactly one
        # spacing, so k = 5 ties past k + 2 candidates but not past k + 8
        index = SpatialIndex(np.argwhere(np.ones((6, 6, 6))) * 0.01)
        table, widths = self.query_rounds(monkeypatch, index, lambda: index.knn_all(5))
        assert widths == [5 + KNN_FIRST_SLACK, 5 + KNN_SLACK]
        np.testing.assert_array_equal(table, ref.knn_brute(index.points, index.points, 5)[0])

    def test_equidistant_shell_widens_the_rounds(self, monkeypatch):
        # the 24 integer vectors of squared length 5 and the 24 of length 6:
        # the origin's nearest ties past k + 8 candidates and past twice that,
        # so the widths double until a round reaches beyond the first shell
        cube = np.argwhere(np.ones((7, 7, 7))) - 3
        points = cube[np.isin(np.einsum("ij,ij->i", cube, cube), [5, 6])] * 2.0**-6
        index = SpatialIndex(points)
        queries = np.array([[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])
        got, widths = self.query_rounds(monkeypatch, index, lambda: index.nearest_many(queries))
        assert widths == [1 + KNN_FIRST_SLACK, 1 + KNN_SLACK, 2 * (1 + KNN_SLACK), 4 * (1 + KNN_SLACK)]
        shell = np.flatnonzero(np.einsum("ij,ij->i", points, points) == 5 * 2.0**-12)
        assert len(shell) == 24 and got[0] == shell.min()
        np.testing.assert_array_equal(got, ref.knn_brute(points, queries, 1)[0][:, 0])

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (5, 3), (9, 7), (12, 12)])
    def test_clouds_within_the_first_round_take_one_query(self, monkeypatch, n, k):
        # n <= k + 2: every point is a candidate of every row, so no row needs
        # checking; the last point duplicates the first
        points = random_points(n, seed=n)
        points[-1] = points[0]
        index = SpatialIndex(points)
        table, widths = self.query_rounds(monkeypatch, index, lambda: index.knn_all(k))
        assert widths == [min(k + KNN_FIRST_SLACK, len(index))]
        np.testing.assert_array_equal(table, ref.knn_brute(points, points, k)[0])

    @pytest.mark.parametrize("distinct, copies", [(1, 3000), (40, 25)])
    def test_copies_of_a_point_go_to_the_tree_once_a_round(self, monkeypatch, distinct, copies):
        # every row ties with the copies of its point at d² = 0, so rounds
        # widen until they hold them all; after the first, each distinct
        # point is one tree row, not one per copy
        points = np.repeat(random_points(distinct, seed=distinct), copies, axis=0)
        index = SpatialIndex(points)
        rows = {}  # tree query width -> rows queried at that width
        tree = index._tree

        class TreeSpy:
            def query(self, x, k):
                rows[k] = rows.get(k, 0) + len(x)
                return tree.query(x, k=k)

        monkeypatch.setattr(index, "_tree", TreeSpy())
        table = index.knn_all(16)
        monkeypatch.undo()
        np.testing.assert_array_equal(table, ref.knn_brute(points, points, 16)[0])
        first, *later = rows.values()
        assert first == len(points) and later
        assert later == [distinct] * len(later)

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
        table = SpatialIndex(points).knn_all(4)
        assert np.any(table[:, 0] != np.arange(len(points)))
        assert np.all(points[table[:, :3]] == points[:, np.newaxis])

    @pytest.mark.parametrize("k", [3.0, np.float64(3.0), True, "3"], ids=["float", "float64", "bool", "str"])
    def test_rejects_k_that_is_not_an_integer(self, k):
        # also where a table for the equal integer k is already kept
        index = SpatialIndex(random_points(50, seed=2))
        for _ in range(2):
            with pytest.raises(ValueError, match="k must be an integer"):
                index.knn_all(k)
            with pytest.raises(ValueError, match="k must be an integer"):
                index.knn(index.points[0], k)
            index.knn_all(3)


@st.composite
def voxel_clouds(draw):
    """(cloud, voxel size > 0): a few dozen points, some of them on a 1 mm
    grid (ties in one coordinate), plus exact duplicates of some points
    carrying other normals and curvatures, half of them the opposite normal
    (so a voxel's mean normal can vanish); normals and curvatures each
    present or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-0.01, 0.01, size=(draw(st.integers(1, 40)), 3))
    if draw(st.booleans()):
        points = np.round(points, 3)
    normals = rng.normal(size=points.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    twins = rng.integers(len(points), size=draw(st.integers(0, len(points))))
    twin_normals = rng.normal(size=(len(twins), 3))
    twin_normals /= np.linalg.norm(twin_normals, axis=1, keepdims=True)
    opposite = rng.random(len(twins)) < 0.5
    twin_normals[opposite] = -normals[twins[opposite]]
    points = np.vstack([points, points[twins]])
    normals = np.vstack([normals, twin_normals])
    curvatures = rng.uniform(0.0, 1.0, len(points))
    cloud = PointCloud(
        points,
        normals if draw(st.booleans()) else None,
        curvatures if draw(st.booleans()) else None,
    )
    return cloud, draw(st.sampled_from([0.0005, 0.002, 0.005, 0.05]))


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

    @pytest.mark.parametrize("voxel", [np.nan, np.inf, -np.inf, -0.01], ids=["nan", "inf", "-inf", "negative"])
    def test_rejects_voxel_that_is_not_finite_and_positive(self, voxel):
        with pytest.raises(ValueError, match="finite and positive"):
            voxel_downsample(grid_cloud(3, 3), voxel)

    @pytest.mark.parametrize("voxel", [1e-25, 1e-310], ids=["int64-overflow", "inf"])
    def test_rejects_voxel_that_overflows_the_grid(self, box_cloud, voxel):
        # floor(p / voxel) beyond int64 (or inf) would collapse the cloud into a few voxels
        with pytest.raises(ValueError, match=f"voxel size {voxel} "):
            voxel_downsample(box_cloud, voxel)

    @pytest.mark.parametrize(
        "voxel", [1e-25, 1e-310, np.nan, -0.01], ids=["int64-overflow", "inf", "nan", "negative"]
    )
    def test_singleton_test_rejects_what_the_grid_rejects_before_any_cast(self, box_cloud, voxel):
        with pytest.raises(ValueError) as grid_error:
            voxel_downsample(box_cloud, voxel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as singleton_error:
                singleton_voxels(box_cloud, voxel)
        assert str(singleton_error.value) == str(grid_error.value)

    @given(voxel_clouds())
    @example((grid_cloud(6, 6, spacing=0.01), 0.005))  # one point a voxel
    @example((PointCloud(np.array([[0.0, 0.0, 0.0], [2.0**62, -(2.0**62), 1.0]]) * 0.9), 1.0))  # a key past int64
    @settings(max_examples=80, deadline=None)
    def test_singleton_test_agrees_with_the_grid(self, cloud_and_voxel):
        # True only where the grid keeps every point: then it is a reordering
        cloud, voxel = cloud_and_voxel
        out = voxel_downsample(cloud, voxel)
        if singleton_voxels(cloud, voxel):
            assert len(out) == len(cloud)
            order = np.lexsort(np.floor(cloud.points / voxel).T[::-1])
            assert out.points.tobytes() == (cloud.points[order] + 0.0).tobytes()
        else:
            assert len(out) < len(cloud) or np.abs(cloud.points).max() / voxel > 2.0**60

    @given(voxel_clouds(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_output_does_not_depend_on_point_order(self, cloud_and_voxel, seed):
        # the same bits under a permutation, equal to the per-voxel definition
        cloud, voxel = cloud_and_voxel
        out = voxel_downsample(cloud, voxel)
        shuffled = voxel_downsample(cloud.select(np.random.default_rng(seed).permutation(len(cloud))), voxel)
        for attr in ("points", "normals", "curvatures"):
            a, b, want = (getattr(c, attr) for c in (out, shuffled, ref.voxel_downsample(cloud, voxel)))
            assert (a is None) == (b is None) == (want is None)
            if a is not None:
                assert a.tobytes() == b.tobytes() == want.tobytes()

    def test_permuted_scan_with_many_shared_voxels(self, sphere_cloud):
        # a jittered 3x-density sphere with exact duplicates of a tenth of its
        # rows (other normals and curvatures): several points in most voxels
        rng = np.random.default_rng(11)
        points = np.repeat(sphere_cloud.points, 3, axis=0) + rng.normal(scale=3e-4, size=(3 * len(sphere_cloud), 3))
        twins = rng.integers(len(points), size=len(points) // 10)
        points = np.vstack([points, points[twins]])
        normals = rng.normal(size=points.shape)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(points, normals, rng.uniform(0.0, 1.0, len(points)))
        out = voxel_downsample(cloud, 0.003)
        assert len(out) < len(cloud) / 4
        shuffled = voxel_downsample(cloud.select(rng.permutation(len(cloud))), 0.003)
        want = ref.voxel_downsample(cloud, 0.003)
        for attr in ("points", "normals", "curvatures"):
            assert getattr(out, attr).tobytes() == getattr(shuffled, attr).tobytes() == getattr(want, attr).tobytes()


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

    @given(outlier_clouds())
    @example((np.repeat(random_points(7, seed=1), 3, axis=0)[::-1].copy(), 4))  # duplicates
    @example((grid_cloud(6, 6, spacing=0.01).points, 20))  # equidistant ties
    @example((np.round(random_points(KNN_BLOCK + 77, seed=3), 1), 12))  # several row blocks
    @settings(max_examples=60, deadline=None)
    def test_tree_distances_equal_exact_knn_distances(self, cloud_and_k):
        # the filter's one plain tree query: whichever tied points fill a row,
        # its distances are those of the index-tie-broken per-point knn
        points, k = cloud_and_k
        dist = cKDTree(points).query(points, k + 1)[0]
        index = SpatialIndex(points)
        want = np.array([index.knn(p, k + 1)[1] for p in points])
        assert dist.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ratio", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_rejects_std_ratio_that_is_not_finite_and_positive(self, unit_sphere_cloud, ratio):
        with pytest.raises(ValueError, match="std_ratio must be finite and positive"):
            remove_statistical_outliers(unit_sphere_cloud, k=8, std_ratio=ratio)

    @pytest.mark.parametrize("k", [12.0, np.float64(12.0), True, "12"], ids=["float", "float64", "bool", "str"])
    def test_rejects_k_that_is_not_an_integer(self, unit_sphere_cloud, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            remove_statistical_outliers(unit_sphere_cloud, k=k)

    def test_accepts_numpy_integer_k(self, unit_sphere_cloud):
        want = remove_statistical_outliers(unit_sphere_cloud, k=12)
        assert remove_statistical_outliers(unit_sphere_cloud, k=np.int64(12)).points.tobytes() == want.points.tobytes()

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

    @pytest.mark.parametrize(
        "points, k, table_k",
        [
            (np.vstack([random_points(300, seed=21), [[3.0, 0.0, 0.0], [0.0, 2.5, 2.5]]]), 6, 9),
            (np.vstack([random_points(5, seed=22, scale=0.01), [[1.0, 1.0, 1.0]]]), 2, 6),  # below table_k kept
            (np.argwhere(np.ones((8, 8, 2))) * 0.25, 12, 16),  # ties; 8 corners dropped, 40 rows queried again
            (np.argwhere(np.ones((8, 8, 2))) * 0.25, 2, 16),  # nothing dropped
        ],
        ids=["far-points", "too-few-kept", "grid", "grid-kept"],
    )
    def test_table_read_keeps_the_bare_tree_survivors_and_hands_on_an_exact_table(self, points, k, table_k):
        cloud = PointCloud(points)
        got = remove_statistical_outliers(cloud, k=k, std_ratio=1.0, table_k=table_k)
        want = remove_statistical_outliers(cloud, k=k, std_ratio=1.0)
        assert got.points.tobytes() == want.points.tobytes()
        if len(got) == len(cloud):
            assert got is cloud
        if len(got) >= table_k:
            want_rows = ref.knn_brute(got.points, got.points, table_k)[0]
            np.testing.assert_array_equal(got.index.knn_all(table_k), want_rows)
        else:
            assert "index" not in got.__dict__

    @pytest.mark.parametrize("table_k", [12, 3, 12.0], ids=["k", "below-k", "float"])
    def test_rejects_a_table_that_is_not_an_integer_past_k(self, unit_sphere_cloud, table_k):
        with pytest.raises(ValueError, match="table_k must be >= k \\+ 1|k must be an integer"):
            remove_statistical_outliers(unit_sphere_cloud, k=12, table_k=table_k)

    def test_too_small_cloud_rejected(self):
        with pytest.raises(ValueError):
            remove_statistical_outliers(PointCloud(np.zeros((5, 3))), k=5)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=300),
        st.floats(0.1, 5.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_threshold_does_not_depend_on_point_order(self, mean_d, ratio, seed):
        mean_d = np.array(mean_d)
        shuffled = np.random.default_rng(seed).permutation(mean_d)
        assert _outlier_threshold(mean_d, ratio) == _outlier_threshold(shuffled, ratio)

    def test_reduction_adds_no_table_sized_scratch(self, monkeypatch):
        # Peak from the moment the tree query returns its (n, k + 1) distances
        # and indices: the reduction may add the n mean distances, the
        # survivors and their points (six words a point with the survivor
        # mask) and a few (KNN_BLOCK, k + 1) blocks, but no (n, k + 1) mask
        # and no (n, k) copy of the distances.
        n, k = 8 * KNN_BLOCK - 100, 12
        cloud = PointCloud(sphere_points(n, seed=3))
        table_bytes = []

        class Tree(cKDTree):
            def query(self, x, k):
                dist, idx = super().query(x, k)
                table_bytes.append(idx.nbytes + dist.nbytes)
                tracemalloc.reset_peak()
                return dist, idx

        monkeypatch.setattr(cloud_module, "cKDTree", Tree)
        peak = traced_peak(lambda: remove_statistical_outliers(cloud, k=k))
        assert peak < table_bytes[0] + 6 * 8 * n + 4 * 8 * KNN_BLOCK * (k + 1)


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

    def test_scratch_is_below_one_neighbourhood_array(self):
        # with the table built, the (n, 3) outputs and one block of
        # neighbourhoods fit below a single (n, k, 3) float64 array
        n, k = 8 * KNN_BLOCK - 100, 16
        cloud = PointCloud(sphere_points(n, seed=4))
        cloud.index.knn_all(k)
        assert traced_peak(lambda: estimate_normals_curvatures(cloud, k=k)) < 8 * n * k * 3

    @pytest.mark.parametrize("k", [16.0, np.float64(16.0), True, "16"], ids=["float", "float64", "bool", "str"])
    def test_rejects_k_that_is_not_an_integer(self, unit_sphere_cloud, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            estimate_normals_curvatures(unit_sphere_cloud, k)

    def test_rejects_small_k_or_cloud(self):
        with pytest.raises(ValueError):
            estimate_normals_curvatures(PointCloud(np.zeros((5, 3))), k=2)
        with pytest.raises(ValueError):
            estimate_normals_curvatures(PointCloud(np.zeros((2, 3))), k=3)


@st.composite
def symmetric_3x3(draw):
    """A symmetric 3×3 matrix scaled by 1e-10 to 1e3, of one of seven kinds:
    random entries, a rotated spectrum that is flat (λ0 near 1e-8), nearly
    repeated or rank 1 (collinear points), all zeros, exactly diagonal, or a
    tiny off-diagonal entry beside a diagonal gap of 1, whose θ² overflows."""
    kind = draw(st.sampled_from(["random", "flat", "near-repeated", "collinear", "zero", "diagonal", "tiny"]))
    unit = st.floats(-1.0, 1.0)
    a = np.zeros((3, 3))
    if kind == "random":
        a[np.triu_indices(3)] = [draw(unit) for _ in range(6)]
        a = np.triu(a) + np.triu(a, 1).T
    elif kind == "diagonal":
        a[range(3), range(3)] = [draw(unit) for _ in range(3)]
    elif kind == "tiny":
        p, q = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
        a[q, q] = 1.0
        a[p, q] = a[q, p] = draw(st.sampled_from([5e-324, 1e-300, 1e-160, -1e-160]))
    elif kind != "zero":
        w, x, y, z = quat = np.array([draw(unit) for _ in range(4)])
        if np.linalg.norm(quat) < 0.1:
            w, x, y, z = 1.0, 0.0, 0.0, 0.0
        else:
            w, x, y, z = quat / np.linalg.norm(quat)
        rotation = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        spread = st.floats(0.1, 1.0)
        spectrum = {
            "flat": lambda: [1e-8 * draw(spread), draw(spread), draw(spread)],
            "near-repeated": lambda: [(lam := draw(spread)), lam * (1.0 + 1e-12 * draw(unit)), draw(unit)],
            "collinear": lambda: [0.0, 0.0, 1.0],
        }[kind]()
        a = (rotation * spectrum) @ rotation.T
        a = (a + a.T) / 2.0
    return a * 10.0 ** draw(st.integers(-10, 3))


@given(st.lists(symmetric_3x3(), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_jacobi3_diagonalises_every_spectrum(matrices):
    """One batch of matrices: V is orthonormal and A V = V diag(d) within
    1e-14 of the largest entry, Vᵀ A V is diagonal to the same bound, and
    every row equals the scalar loop's bits. Where two eigenvalues tie, the
    eigenvectors in their plane (so a normal) may differ from LAPACK's."""
    a = np.array(matrices)
    entries = [a[:, i, j].copy() for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
    diag, v = _jacobi3(*entries)
    d = np.stack(diag, axis=1)
    vecs = np.array(v).transpose(2, 0, 1)  # (m, 3, 3), columns the eigenvectors
    bound = 1e-14 * np.abs(a).max(axis=(1, 2))[:, np.newaxis, np.newaxis]
    assert np.abs(np.einsum("mki,mkj->mij", vecs, vecs) - np.eye(3)).max() <= 1e-14
    assert (np.abs(np.einsum("mij,mjk->mik", a, vecs) - vecs * d[:, np.newaxis, :]) <= bound).all()
    off = np.einsum("mki,mkl,mlj->mij", vecs, a, vecs) * (1.0 - np.eye(3))
    assert (np.abs(off) <= bound).all()
    for row in range(len(a)):
        want_d, want_v = ref.jacobi3(*(float(e[row]) for e in entries))
        assert [float(x[row]) for x in diag] == want_d
        assert [[float(x[row]) for x in vrow] for vrow in v] == want_v


def test_operations_deterministic():
    points = random_points(300, seed=42)
    cloud = PointCloud(points)
    a = estimate_normals_curvatures(voxel_downsample(cloud, 0.1), k=5)
    b = estimate_normals_curvatures(voxel_downsample(cloud, 0.1), k=5)
    assert a.points.tobytes() == b.points.tobytes()
    assert a.normals.tobytes() == b.normals.tobytes()
    assert a.curvatures.tobytes() == b.curvatures.tobytes()
