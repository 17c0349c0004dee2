import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspkit.candidates import (
    RegionPair,
    find_antiparallel_pairs,
    make_candidates,
    overlap_region,
    plane_frame,
)
from graspkit.cloud import PointCloud
from graspkit.planner import PlannerConfig
from graspkit.regions import PlanarRegion, segment
from graspkit.shapes import ShapeSpec, generate

from conftest import planar_grid


def parallel_grid_cloud(gap=0.05, nx=20, ny=20, spacing=0.005, offset_xy=(0.0, 0.0)):
    """Two facing grids: z=0 with +Z normals and z=gap with -Z normals."""
    lower_pts, lower_n, lower_c = planar_grid(nx, ny, spacing, z=0.0, normal_sign=1.0)
    upper_pts, upper_n, upper_c = planar_grid(nx, ny, spacing, z=gap, normal_sign=-1.0)
    upper_pts = upper_pts + np.array([offset_xy[0], offset_xy[1], 0.0])
    pts = np.vstack([lower_pts, upper_pts])
    normals = np.vstack([lower_n, upper_n])
    return PointCloud(pts, normals, np.zeros(len(pts)))


def to_plane(points, normal):
    """2D coordinates of ``points`` in the basis ``plane_frame(normal)``."""
    u, v = plane_frame(normal)
    pts = np.atleast_2d(points)
    return np.column_stack([pts @ u, pts @ v])


def inside(pts, lo, hi):
    """Which 2D points lie in the closed box [lo, hi]."""
    pts = np.atleast_2d(pts)
    return np.all((pts >= lo) & (pts <= hi), axis=1)


# facing grids 5 cm apart: pairs within 10 degrees, grasps up to 10 cm
GRID_CONFIG = PlannerConfig(max_pair_angle_deg=10.0, max_width=0.1)


def segment_pair_cloud(cloud):
    seg = segment(cloud)
    assert len(seg) == 2
    return seg, cloud


class TestFindPairs:
    def test_exact_antiparallel_pair(self):
        seg, cloud = segment_pair_cloud(parallel_grid_cloud(gap=0.05))
        pairs = find_antiparallel_pairs(seg.regions, GRID_CONFIG)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.antiparallel_angle_deg == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(np.abs(pair.common_normal), [0, 0, 1], atol=1e-12)
        assert pair.separation == pytest.approx(0.05, abs=1e-12)

    def test_width_filter(self):
        seg, cloud = segment_pair_cloud(parallel_grid_cloud(gap=0.05))
        assert find_antiparallel_pairs(seg.regions, PlannerConfig(max_pair_angle_deg=10.0, max_width=0.03)) == []

    def test_separation_is_orientation_independent(self):
        # outward-oriented variant of the same two planes pairs identically
        lower_pts, _, _ = planar_grid(10, 10, 0.005, z=0.0)
        upper_pts, _, _ = planar_grid(10, 10, 0.005, z=0.05)
        pts = np.vstack([lower_pts, upper_pts])
        normals = np.vstack(
            [np.tile([0.0, 0, -1], (100, 1)), np.tile([0.0, 0, 1], (100, 1))]
        )
        cloud = PointCloud(pts, normals, np.zeros(200))
        seg = segment(cloud)
        assert len(seg) == 2
        pairs = find_antiparallel_pairs(seg.regions, GRID_CONFIG)
        assert len(pairs) == 1
        assert pairs[0].separation == pytest.approx(0.05, abs=1e-12)

    def test_cube_faces_give_three_pairs(self, box_cloud):
        seg = segment(box_cloud)
        assert len(seg) == 6
        pairs = find_antiparallel_pairs(seg.regions, PlannerConfig(max_width=0.1))
        assert len(pairs) == 3
        # oracle: enumerate all 15 pairs with direct geometry checks
        regions = list(seg.regions)
        expected = 0
        for i in range(6):
            for j in range(i + 1, 6):
                cos_dev = regions[i].plane_normal @ -regions[j].plane_normal
                if np.degrees(np.arccos(np.clip(cos_dev, -1, 1))) > 15.0:
                    continue
                expected += 1
        assert expected == 3

    def test_sorted_by_angle(self, sphere_cloud):
        seg = segment(sphere_cloud)
        pairs = find_antiparallel_pairs(seg.regions)
        angles = [p.antiparallel_angle_deg for p in pairs]
        assert angles == sorted(angles)


class TestProjection:
    def test_axis_aligned_z(self):
        xy = to_plane(np.array([[1.0, 2.0, 3.0]]), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(xy[0], [1.0, 2.0], atol=1e-12)

    def test_axis_aligned_x_fallback(self):
        yz = to_plane(np.array([[5.0, 1.0, 1.0]]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(yz[0], [1.0, 1.0], atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_projection_properties(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p = rng.normal(size=3)
        u, v = plane_frame(n)
        xy = to_plane(p, n)[0]
        q = xy[0] * u + xy[1] * v
        # q is p with its normal component removed
        assert abs(q @ n) < 1e-9
        assert abs(np.linalg.norm(p - q) - abs(p @ n)) < 1e-9


class TestOverlap:
    def box_corners(self, lo, hi):
        return np.array([[lo, lo], [hi, lo], [lo, hi], [hi, hi]], dtype=float)

    def test_box_intersection(self):
        lo, hi = overlap_region(self.box_corners(0, 2), self.box_corners(1, 3))
        np.testing.assert_allclose(lo, [1, 1])
        np.testing.assert_allclose(hi, [2, 2])

    def test_disjoint_boxes_empty(self):
        assert overlap_region(self.box_corners(0, 1), self.box_corners(2, 3)) is None

    def test_min_points_filter(self):
        assert (
            overlap_region(self.box_corners(0, 2), self.box_corners(1, 3), min_points=2)
            is None
        )

    def test_half_overlapping_patches(self):
        # 20x20 grids offset by half their extent in both axes
        a = np.array([[i, j] for i in range(20) for j in range(20)], dtype=float)
        b = a + 10.0
        lo, hi = overlap_region(a, b)
        assert int(inside(a, lo, hi).sum()) == 100
        assert int(inside(b, lo, hi).sum()) == 100


class TestMakeCandidates:
    def test_full_overlap_centroid_candidate(self):
        cloud = parallel_grid_cloud(gap=0.05)
        seg = segment(cloud)
        config = dataclasses.replace(GRID_CONFIG, candidates_per_pair=1)
        pair = find_antiparallel_pairs(seg.regions, config)[0]
        cands = make_candidates(pair, cloud, config)
        assert len(cands) == 1
        cand = cands[0]
        axis_angle = np.degrees(
            np.arccos(np.clip(abs(cand.grasp_axis @ pair.common_normal), -1, 1))
        )
        assert axis_angle < 1.0
        assert cand.width == pytest.approx(0.05, abs=1e-9)
        # contact on one of the four points adjacent to the shared centroid,
        # deterministic by the lowest-index tie-break
        np.testing.assert_allclose(cand.contact_a[:2], [-0.0025, -0.0025], atol=1e-9)
        np.testing.assert_allclose(cand.contact_b[:2], cand.contact_a[:2], atol=1e-9)

    def test_single_pair_overlap(self):
        # two facing 3x3 grids: the box centre sample lies on a grid point of each
        cloud = parallel_grid_cloud(gap=0.03, nx=3, ny=3, spacing=0.04)
        config = dataclasses.replace(GRID_CONFIG, min_region_size=3, k_neighbors=5)
        seg = segment(cloud, config)
        pairs = find_antiparallel_pairs(seg.regions, config)
        assert len(pairs) == 1
        cands = make_candidates(pairs[0], cloud, config)
        assert cands
        # grid spacing 0.04 >> threshold: only exact-projection matches remain
        for c in cands:
            np.testing.assert_allclose(c.contact_a[:2], c.contact_b[:2], atol=1e-9)

    def test_width_filter_drops_all(self):
        cloud = parallel_grid_cloud(gap=0.05)
        seg = segment(cloud)
        pair = find_antiparallel_pairs(seg.regions, dataclasses.replace(GRID_CONFIG, max_width=0.06))[0]
        assert make_candidates(pair, cloud, PlannerConfig(candidates_per_pair=3, max_width=0.01)) == []

    def test_contacts_are_cloud_members_inside_box(self):
        cloud = parallel_grid_cloud(gap=0.05, offset_xy=(0.02, 0.02))
        seg = segment(cloud)
        pair = find_antiparallel_pairs(seg.regions, GRID_CONFIG)[0]
        cands = make_candidates(pair, cloud, GRID_CONFIG)
        assert cands
        points_a = cloud.points[pair.region_a.point_indices]
        points_b = cloud.points[pair.region_b.point_indices]
        lo, hi = overlap_region(to_plane(points_a, pair.common_normal), to_plane(points_b, pair.common_normal))
        for c in cands:
            assert (points_a == c.contact_a).all(axis=1).any()
            assert (points_b == c.contact_b).all(axis=1).any()
            pa = to_plane(c.contact_a, pair.common_normal)[0]
            pb = to_plane(c.contact_b, pair.common_normal)[0]
            assert inside(pa, lo, hi).all() or np.linalg.norm(pa - np.clip(pa, lo, hi)) <= 0.005
            assert inside(pb, lo, hi).all() or np.linalg.norm(pb - np.clip(pb, lo, hi)) <= 0.005

    def test_swap_symmetry(self):
        self.assert_swap_symmetric(parallel_grid_cloud(gap=0.05, offset_xy=(0.012, -0.007)))

    def test_swap_symmetry_keeps_signed_zeros(self):
        # facing grids without offset: every grasp axis is (0, 0, +-1) exactly
        forward, backward = self.assert_swap_symmetric(parallel_grid_cloud(gap=0.05))
        for f, b in zip(forward, backward):
            for axis in (f.grasp_axis, b.grasp_axis):
                assert not np.signbit(axis[axis == 0.0]).any()

    def assert_swap_symmetric(self, cloud):
        seg = segment(cloud)
        pair = find_antiparallel_pairs(seg.regions, GRID_CONFIG)[0]
        forward = make_candidates(pair, cloud, GRID_CONFIG)
        assert forward
        # the common normal belongs to the unordered pair, so it is kept
        reversed_pair = dataclasses.replace(
            pair,
            region_a=pair.region_b,
            region_b=pair.region_a,
        )
        backward = make_candidates(reversed_pair, cloud, GRID_CONFIG)
        assert len(forward) == len(backward)
        for f, b in zip(forward, backward):
            np.testing.assert_array_equal(f.contact_a, b.contact_b)
            np.testing.assert_array_equal(f.contact_b, b.contact_a)
            np.testing.assert_array_equal(f.normal_a, b.normal_b)
            assert f.normal_b.tobytes() == b.normal_a.tobytes()
            np.testing.assert_array_equal(-f.grasp_axis, b.grasp_axis)
            assert f.width == b.width
        return forward, backward

    def test_inward_normals_face_each_other(self):
        cloud = parallel_grid_cloud(gap=0.05)
        seg = segment(cloud)
        config = dataclasses.replace(GRID_CONFIG, candidates_per_pair=1)
        pair = find_antiparallel_pairs(seg.regions, config)[0]
        cand = make_candidates(pair, cloud, config)[0]
        assert cand.normal_a @ (cand.contact_b - cand.contact_a) > 0
        assert cand.normal_b @ (cand.contact_a - cand.contact_b) > 0

    def test_perpendicular_normal_takes_the_canonical_sign(self):
        # Two interleaved grids in the plane z = 0: region a's normal +Z is
        # exactly perpendicular to the centroid offset (1/512, 0, 0), so the
        # orientation rule's tie gives the canonical sign and keeps +Z; the
        # same tie turns region b's -Z into +Z.
        grid = np.array([[i / 256, j / 256, 0.0] for i in range(8) for j in range(8)])
        points = np.vstack([grid, grid + [1 / 512, 0.0, 0.0]])
        cloud = PointCloud(points)
        a = PlanarRegion(np.arange(64), np.array([0.0, 0.0, 1.0]), points[:64].mean(axis=0))
        b = PlanarRegion(np.arange(64, 128), np.array([0.0, 0.0, -1.0]), points[64:].mean(axis=0))
        assert (b.centroid - a.centroid) @ a.plane_normal == 0.0
        pair = RegionPair(a, b, np.array([0.0, 0.0, 1.0]), 0.0, 0.0)
        cands = make_candidates(pair, cloud)
        assert cands
        for cand in cands:
            assert np.array_equal(cand.normal_a, [0.0, 0.0, 1.0])
            assert np.array_equal(cand.normal_b, [0.0, 0.0, 1.0])

    def test_deterministic(self, sphere_cloud):
        seg = segment(sphere_cloud)
        pairs = find_antiparallel_pairs(seg.regions)
        a = sum((make_candidates(p, sphere_cloud) for p in pairs), [])
        b = sum((make_candidates(p, sphere_cloud) for p in pairs), [])
        assert len(a) == len(b) > 0
        for ca, cb in zip(a, b):
            for field in ("contact_a", "contact_b", "normal_a", "normal_b", "grasp_axis"):
                assert getattr(ca, field).tobytes() == getattr(cb, field).tobytes()
            assert ca.width == cb.width
