import numpy as np
import pytest
from scipy.spatial import cKDTree

from graspkit import cloud as cloud_module
from graspkit.cloud import PointCloud, SpatialIndex
from graspkit.planner import PlannerConfig
from graspkit.shapes import ShapeSpec, corpus_standard, generate


def planar_grid(nx=20, ny=20, spacing=0.005, z=0.0, normal_sign=1.0):
    """Exact planar grid in z = const with +/-Z normals and zero curvature."""
    xs = (np.arange(nx) - (nx - 1) / 2.0) * spacing
    ys = (np.arange(ny) - (ny - 1) / 2.0) * spacing
    pts = np.array([[x, y, z] for x in xs for y in ys])
    normals = np.tile([0.0, 0.0, normal_sign], (len(pts), 1))
    curvatures = np.zeros(len(pts))
    return pts, normals, curvatures


def grid_cloud(nx=20, ny=20, spacing=0.005, z=0.0, normal_sign=1.0) -> PointCloud:
    pts, normals, curv = planar_grid(nx, ny, spacing, z, normal_sign)
    return PointCloud(pts, normals, curv)


@pytest.fixture(scope="session")
def default_config() -> PlannerConfig:
    return PlannerConfig()


@pytest.fixture(scope="session")
def corpus():
    return corpus_standard()


@pytest.fixture(scope="session")
def box_cloud(corpus) -> PointCloud:
    return generate(corpus["box_foam_brick"])


@pytest.fixture(scope="session")
def sphere_cloud(corpus) -> PointCloud:
    return generate(corpus["sphere_tennis_ball"])


@pytest.fixture(scope="session")
def unit_sphere_cloud() -> PointCloud:
    return generate(ShapeSpec("sphere", (1.0,), density=2000.0))


@pytest.fixture
def index_builds(monkeypatch) -> list:
    """The points of every k-d tree the package builds during the test: one
    per ``SpatialIndex`` and one per outlier filter that queries a bare tree."""
    builds = []

    def spy(points):
        builds.append(points)
        return cKDTree(points)

    monkeypatch.setattr(cloud_module, "cKDTree", spy)
    return builds


@pytest.fixture
def table_builds(monkeypatch) -> list:
    """The k of every k-NN table (``SpatialIndex._knn_rows`` call) computed during the test."""
    ks = []
    knn_rows = SpatialIndex._knn_rows

    def spy(self, queries, k):
        ks.append(k)
        return knn_rows(self, queries, k)

    monkeypatch.setattr(SpatialIndex, "_knn_rows", spy)
    return ks


@pytest.fixture
def table_rows(monkeypatch) -> list:
    """The row count of every ``SpatialIndex._knn_rows`` call during the test."""
    rows = []
    knn_rows = SpatialIndex._knn_rows

    def spy(self, queries, k):
        rows.append(len(queries))
        return knn_rows(self, queries, k)

    monkeypatch.setattr(SpatialIndex, "_knn_rows", spy)
    return rows
