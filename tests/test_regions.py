import numpy as np
import pytest

from graspkit.cloud import PointCloud
from graspkit.regions import (
    DegenerateFitError,
    RegionGrowingParams,
    fit_plane_lsq,
    segment,
)
from graspkit.shapes import ShapeSpec, generate

from conftest import grid_cloud, planar_grid


class TestFitPlane:
    def test_exact_plane(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        normal, offset, rms = fit_plane_lsq(pts)
        np.testing.assert_allclose(normal, [0, 0, 1], atol=1e-12)
        assert offset == pytest.approx(0.0, abs=1e-12)
        assert rms == pytest.approx(0.0, abs=1e-12)

    def test_jittered_plane(self):
        pts = np.array(
            [[0, 0, 0.01], [1, 0, -0.01], [0, 1, 0.01], [1, 1, -0.01]], dtype=float
        )
        normal, offset, rms = fit_plane_lsq(pts)
        # oracle via an independent decomposition of the centered coordinates
        centered = pts - pts.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        expected = vt[2] if vt[2][np.argmax(np.abs(vt[2]))] > 0 else -vt[2]
        np.testing.assert_allclose(np.abs(normal @ expected), 1.0, atol=1e-12)
        angle = np.degrees(np.arccos(min(abs(normal[2]), 1.0)))
        assert angle < 2.0
        assert rms <= 0.01 + 1e-12
        assert rms == pytest.approx(svals[2] / np.sqrt(len(pts)), abs=1e-12)

    def test_collinear_rejected(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        with pytest.raises(DegenerateFitError):
            fit_plane_lsq(pts)

    def test_sign_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(30, 3))
        pts[:, 2] *= 0.01
        normal, _, _ = fit_plane_lsq(pts)
        assert normal[np.argmax(np.abs(normal))] > 0


def two_perpendicular_grids():
    """20x20 grid in z=0 plus 20x20 grid in x=0, sharing the y-axis edge."""
    spacing = 0.005
    horiz_pts = []
    vert_pts = []
    for i in range(20):
        for j in range(20):
            horiz_pts.append([(i + 1) * spacing, j * spacing, 0.0])
            vert_pts.append([0.0, j * spacing, (i + 1) * spacing])
    pts = np.array(horiz_pts + vert_pts)
    normals = np.vstack(
        [np.tile([0.0, 0, 1], (400, 1)), np.tile([1.0, 0, 0], (400, 1))]
    )
    return PointCloud(pts, normals, np.zeros(800))


class TestSegment:
    def test_two_perpendicular_grids(self):
        cloud = two_perpendicular_grids()
        seg = segment(cloud, RegionGrowingParams(angle_threshold_deg=15.0, curvature_threshold=0.05))
        assert len(seg) == 2
        for region in seg:
            members = set(region.point_indices.tolist())
            assert members == set(range(400)) or members == set(range(400, 800))
            axis = np.abs(region.plane_normal)
            assert max(axis[0], axis[2]) > np.cos(np.radians(1.0))

    def test_single_grid(self):
        cloud = grid_cloud(20, 20)
        seg = segment(cloud)
        assert len(seg) == 1
        assert len(seg[0]) == 400
        region = seg[0]
        d = cloud.points[region.point_indices] @ region.plane_normal - region.plane_normal @ region.centroid
        assert np.sqrt(np.mean(d**2)) < 1e-9
        assert len(seg.residue_indices) == 0

    def test_cylinder_side_arc_bound(self):
        params = RegionGrowingParams(angle_threshold_deg=20.0)
        spec = ShapeSpec("cylinder", (0.04, 0.2), density=2.0e5, options={"caps": False})
        cloud = generate(spec)
        seg = segment(cloud, params)
        assert len(seg) >= 4
        for region in seg:
            pts = cloud.points[region.point_indices]
            theta = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
            # circumferential span, careful across the -180/180 seam
            theta = np.sort(theta)
            gaps = np.diff(np.concatenate([theta, [theta[0] + 360.0]]))
            span = 360.0 - gaps.max()
            assert span <= 2 * params.angle_threshold_deg + 1e-6

    def test_partition_and_coverage(self, sphere_cloud):
        seg = segment(sphere_cloud)
        seen = set()
        total = 0
        for region in seg:
            ids = region.point_indices.tolist()
            assert not (seen & set(ids))
            seen.update(ids)
            total += len(ids)
        assert total + len(seg.residue_indices) == len(sphere_cloud)
        assert not (seen & set(seg.residue_indices.tolist()))

    def test_residue_ascends(self, sphere_cloud):
        seg = segment(sphere_cloud, RegionGrowingParams(min_region_size=40))
        assert len(seg.residue_indices) > 100
        assert seg.residue_indices.dtype == np.intp
        assert (np.diff(seg.residue_indices) > 0).all()

    def test_angular_property(self, sphere_cloud):
        params = RegionGrowingParams()
        seg = segment(sphere_cloud, params)
        cos_th = np.cos(np.radians(params.angle_threshold_deg))
        for region in seg:
            normals = sphere_cloud.normals[region.point_indices]
            # the member with minimum curvature and lowest index seeded the region
            curv = sphere_cloud.curvatures[region.point_indices]
            order = np.lexsort((region.point_indices, curv))
            seed_normal = normals[order[0]]
            assert (normals @ seed_normal > cos_th - 1e-12).all()

    def test_soft_membership_distance(self, sphere_cloud):
        params = RegionGrowingParams()
        seg = segment(sphere_cloud, params)
        ok = 0
        total = 0
        for region in seg:
            pts = sphere_cloud.points[region.point_indices]
            d = np.abs(pts @ region.plane_normal - region.plane_normal @ region.centroid)
            ok += int((d < params.distance_threshold).sum())
            total += len(pts)
        assert ok / total >= 0.90

    def test_sorted_by_size_then_index(self, box_cloud):
        seg = segment(box_cloud)
        keys = [(-len(r), int(r.point_indices[0])) for r in seg]
        assert keys == sorted(keys)

    def test_deterministic(self, sphere_cloud):
        a = segment(sphere_cloud)
        b = segment(sphere_cloud)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.point_indices, rb.point_indices)
            np.testing.assert_array_equal(ra.plane_normal, rb.plane_normal)

    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            segment(PointCloud(np.zeros((10, 3))))

    def test_region_ids_roundtrip(self, box_cloud):
        seg = segment(box_cloud)
        ids = seg.region_ids()
        assert len(ids) == len(box_cloud)
        for rid, region in enumerate(seg):
            assert (ids[region.point_indices] == rid).all()
        assert (ids[seg.residue_indices] == -1).all()


class TestParams:
    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            RegionGrowingParams(angle_threshold_deg=95.0)
        with pytest.raises(ValueError):
            RegionGrowingParams(k_neighbors=2)
        with pytest.raises(ValueError):
            RegionGrowingParams(min_region_size=1)
