"""The vectorized outlier filter, voxel grid and region growth equal their
scalar reference loops (``reference_loops.py``) bit for bit, on the corpus
clouds, on 3x-density jittered scans of the same shapes and on hand-made
edge cases."""

import dataclasses

import numpy as np
import pytest

import reference_loops as ref
from graspkit.cloud import PointCloud, SpatialIndex, remove_statistical_outliers, voxel_downsample
from graspkit.planner import PlannerConfig, preprocess
from graspkit.regions import RegionGrowingParams, _grow_regions
from graspkit.shapes import corpus_standard, generate

CONFIG = PlannerConfig()
OBJECTS = list(corpus_standard())


def assert_clouds_equal(got: PointCloud, want: PointCloud):
    for attr in ("points", "normals", "curvatures", "confidences"):
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


@pytest.mark.parametrize("name", OBJECTS)
def test_outlier_filter_and_voxel_grid_match_loops(clouds, name):
    for cloud in clouds[name]:
        k, ratio = CONFIG.outlier_k, CONFIG.outlier_std_ratio
        filtered = remove_statistical_outliers(cloud, k=k, std_ratio=ratio)
        assert_clouds_equal(filtered, ref.remove_statistical_outliers(cloud, k=k, std_ratio=ratio))
        assert_clouds_equal(
            voxel_downsample(filtered, CONFIG.voxel_size), ref.voxel_downsample(filtered, CONFIG.voxel_size)
        )


@pytest.mark.parametrize("name", OBJECTS)
def test_region_growth_matches_loop(clouds, name):
    params = CONFIG.region_params()
    for cloud in clouds[name]:
        prepared = preprocess(cloud, CONFIG)
        hoods, _ = SpatialIndex(prepared).knn_all(params.k_neighbors)
        grown = [r.tolist() for r in _grow_regions(prepared, params, hoods)]
        assert grown == ref.grow_regions(prepared, params, hoods)


def test_voxel_with_cancelling_normals_takes_lowest_index_member():
    normals = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
    points = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3], [0.4, 0.4, 0.4]])
    # all four points fall in voxel (0, 0, 0) of size 0.5, and their normals cancel
    cloud = PointCloud(points, normals, curvatures=np.full(4, 0.25), confidences=np.arange(4.0))
    out = voxel_downsample(cloud, 0.5)
    assert_clouds_equal(out, ref.voxel_downsample(cloud, 0.5))
    assert np.array_equal(out.normals, [[1.0, 0.0, 0.0]])
    # reversed order: the lowest-index member is now the -x one
    rev = PointCloud(points[::-1], normals[::-1], np.full(4, 0.25), np.arange(4.0))
    assert np.array_equal(voxel_downsample(rev, 0.5).normals, [[-1.0, 0.0, 0.0]])


def test_voxel_of_nine_members_averages_pairwise():
    rng = np.random.default_rng(4)
    curvatures = rng.uniform(0.0, 1.0, 9)
    # numpy's pairwise sum of 9 values differs from a left-to-right sum here
    assert np.add.reduceat(curvatures, [0])[0] != curvatures.sum()
    normals = rng.normal(size=(9, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(rng.uniform(0.0, 0.01, (9, 3)), normals, curvatures, confidences=curvatures[::-1])
    out = voxel_downsample(cloud, 0.05)
    assert len(out) == 1
    assert_clouds_equal(out, ref.voxel_downsample(cloud, 0.05))
    assert out.curvatures[0] == curvatures.mean()


def test_refit_in_the_middle_of_a_neighbour_row():
    # A flat grid whose stored normals are tilted 10 degrees: the seed's
    # tangent plane admits only a band of rows, the first refit (after 32
    # accepted points) finds z = 0 and admits the rest of the row it fired in.
    xs = np.arange(20) * 0.005
    points = np.array([[x, y, 0.0] for x in xs for y in xs])
    tilt = np.radians(10.0)
    normals = np.tile([0.0, np.sin(tilt), np.cos(tilt)], (len(points), 1))
    cloud = PointCloud(points, normals, np.zeros(len(points)))
    params = RegionGrowingParams(k_neighbors=16)
    hoods, _ = SpatialIndex(cloud).knn_all(params.k_neighbors)
    refits = []
    want = ref.grow_regions(cloud, params, hoods, refits)
    assert any(0 < col < length - 1 for col, length in refits)
    assert [r.tolist() for r in _grow_regions(cloud, params, hoods)] == want
