import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from graspkit.mechanics import (
    ContactFrame,
    build_contact_frame,
    build_grasp_map,
    force_closure,
    in_friction_cone,
    skew,
    stacked_force_closure,
)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def antipodal_sphere_map(radius=1.0, mu=0.5, origin=(0.0, 0.0, 0.0)):
    a = build_contact_frame([-radius, 0, 0], [1.0, 0, 0], mu)
    b = build_contact_frame([radius, 0, 0], [-1.0, 0, 0], mu)
    return build_grasp_map([a, b], origin)


class TestContactFrame:
    def test_canonical_z_normal(self):
        frame = build_contact_frame([0, 0, 0], [0.0, 0, 1])
        np.testing.assert_allclose(frame.rotation[:, 2], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(frame.rotation[:, 0], [1, 0, 0], atol=1e-12)

    def test_x_normal_uses_y_fallback(self):
        frame = build_contact_frame([0, 0, 0], [1.0, 0, 0])
        np.testing.assert_allclose(frame.rotation[:, 2], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(frame.rotation[:, 0], [0, 1, 0], atol=1e-12)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            build_contact_frame([0, 0, 0], [0.0, 0, 0])

    @pytest.mark.parametrize(
        "rotation",
        [np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3), np.full((3, 3), np.nan), [[1.0, 1e-6, 0], [0, 1, 0], [0, 0, 1]]],
        ids=["reflection", "scaled", "nan", "sheared"],
    )
    def test_handed_in_rotation_must_be_proper(self, rotation):
        with pytest.raises(ValueError, match="orthonormal"):
            ContactFrame(origin=np.zeros(3), rotation=np.asarray(rotation), mu=0.5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_normals_give_proper_rotations(self, seed):
        rng = np.random.default_rng(seed)
        n = random_unit(rng)
        frame = build_contact_frame(rng.normal(size=3), n)
        R = frame.rotation
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(R[:, 2], n, atol=1e-12)


class TestFrictionCone:
    def test_pure_normal_force(self):
        assert in_friction_cone([0, 0, 1], 0.5)

    def test_tangential_excess(self):
        assert not in_friction_cone([0.6, 0, 1], 0.5)

    def test_boundary_inclusive(self):
        assert in_friction_cone([0.3, 0.4, 1], 0.5)

    def test_negative_normal_rejected(self):
        assert not in_friction_cone([0, 0, -1], 0.5)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=3)
        assert in_friction_cone(f, 0.7) == in_friction_cone(alpha * f, 0.7)


class TestGraspMap:
    def test_single_contact_identity(self):
        frame = build_contact_frame([0, 0, 0], [0.0, 0, 1])
        gm = build_grasp_map([frame], [0, 0, 0])
        np.testing.assert_allclose(gm.G[:3], frame.rotation, atol=1e-12)
        np.testing.assert_allclose(gm.G[3:], np.zeros((3, 3)), atol=1e-12)

    def test_antipodal_normal_forces_cancel(self):
        gm = antipodal_sphere_map()
        squeeze = np.array([0, 0, 1.0, 0, 0, 1.0])  # pure normal at both contacts
        np.testing.assert_allclose(gm.G @ squeeze, np.zeros(6), atol=1e-12)

    def test_block_structure_matches_contacts(self):
        rng = np.random.default_rng(17)
        frames = [
            build_contact_frame(rng.normal(size=3), random_unit(rng)) for _ in range(3)
        ]
        origin = rng.normal(size=3)
        gm = build_grasp_map(frames, origin)
        assert gm.G.shape == (6, 9)
        for i, frame in enumerate(frames):
            block = gm.G[:, 3 * i : 3 * i + 3]
            np.testing.assert_allclose(block[:3], frame.rotation, atol=1e-12)
            np.testing.assert_allclose(
                block[3:], skew(frame.origin - origin) @ frame.rotation, atol=1e-12
            )

    def test_permuting_contacts_permutes_blocks(self):
        rng = np.random.default_rng(23)
        frames = [
            build_contact_frame(rng.normal(size=3), random_unit(rng)) for _ in range(2)
        ]
        origin = np.zeros(3)
        fw = build_grasp_map(frames, origin).G
        bw = build_grasp_map(frames[::-1], origin).G
        np.testing.assert_array_equal(fw[:, :3], bw[:, 3:])
        np.testing.assert_array_equal(fw[:, 3:], bw[:, :3])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        frames = [
            build_contact_frame(rng.normal(size=3), random_unit(rng)) for _ in range(2)
        ]
        gm = build_grasp_map(frames, rng.normal(size=3))
        f, g = rng.normal(size=6), rng.normal(size=6)
        alpha, beta = rng.normal(), rng.normal()
        np.testing.assert_allclose(
            gm.G @ (alpha * f + beta * g),
            alpha * (gm.G @ f) + beta * (gm.G @ g),
            atol=1e-9,
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_origin_translation_changes_only_torques(self, seed):
        rng = np.random.default_rng(seed)
        frames = [
            build_contact_frame(rng.normal(size=3), random_unit(rng)) for _ in range(2)
        ]
        origin = rng.normal(size=3)
        t = rng.normal(size=3)
        f = rng.normal(size=6)
        w0 = build_grasp_map(frames, origin).G @ f
        w1 = build_grasp_map(frames, origin + t).G @ f
        np.testing.assert_allclose(w1[:3], w0[:3], atol=1e-9)
        np.testing.assert_allclose(w1[3:], w0[3:] - np.cross(t, w0[:3]), atol=1e-9)


class TestForceClosure:
    def test_antipodal_sphere_grasp(self):
        gm = antipodal_sphere_map()
        closure, sigma_min = force_closure(gm, mu=0.5, torque_scale=1.0)
        # oracle: compute the considered singular value directly
        s = np.linalg.svd(gm.G, compute_uv=False)
        assert sigma_min == pytest.approx(float(s[4]), abs=1e-12)
        assert closure == (s[4] > 0.01)
        assert closure

    def test_perpendicular_normals_fail_admissibility(self):
        a = build_contact_frame([-1, 0, 0], [0.0, 0, 1], 0.5)
        b = build_contact_frame([1, 0, 0], [0.0, 0, -1], 0.5)
        gm = build_grasp_map([a, b], [0, 0, 0])
        closure, _ = force_closure(gm, mu=0.5)
        assert not closure

    def test_tiny_scale_fails_threshold(self):
        # contacts 1e-6 from the origin at torque scale 1: no lever arm to resist torques
        closure, sigma_min = force_closure(antipodal_sphere_map(radius=1e-6), mu=0.5)
        assert not closure and sigma_min < 0.01

    def test_scaling_up_never_breaks_closure(self):
        closure1, sigma1 = force_closure(antipodal_sphere_map(radius=0.005), mu=0.5)
        assert not closure1
        for alpha in (2.0, 10.0, 100.0):
            closure2, sigma2 = force_closure(antipodal_sphere_map(radius=0.005 * alpha), mu=0.5)
            assert closure2 >= closure1 and sigma2 >= sigma1
            closure1, sigma1 = closure2, sigma2
        assert closure1

    def test_torque_scale_normalizes_threshold(self):
        # same lever-to-scale ratio gives the same considered spectrum
        small = antipodal_sphere_map(radius=0.02)
        big = antipodal_sphere_map(radius=0.4)
        _, sigma_small = force_closure(small, mu=0.5, torque_scale=0.05)
        _, sigma_big = force_closure(big, mu=0.5, torque_scale=1.0)
        assert sigma_small == pytest.approx(sigma_big, rel=1e-9)
        _, sigma_unscaled = force_closure(small, mu=0.5, torque_scale=1.0)
        assert sigma_unscaled != pytest.approx(sigma_big, rel=1e-3)

    def test_requires_two_contacts(self):
        frame = build_contact_frame([0, 0, 0], [0.0, 0, 1])
        gm = build_grasp_map([frame], [0, 0, 0])
        with pytest.raises(ValueError):
            force_closure(gm, mu=0.5)


def test_wrench_oracle_equivalence():
    """Grasp-map wrenches match an explicit no-shared-code computation."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        pa, pb = rng.normal(size=3), rng.normal(size=3)
        na, nb = random_unit(rng), random_unit(rng)
        origin = rng.normal(size=3)
        fa, fb = rng.normal(size=3), rng.normal(size=3)
        frames = [build_contact_frame(pa, na), build_contact_frame(pb, nb)]
        gm = build_grasp_map(frames, origin)
        got = gm.G @ np.concatenate([fa, fb])
        # oracle: explicit rotation + cross products, no grasp-map code
        expected = np.zeros(6)
        for p, frame, f in ((pa, frames[0], fa), (pb, frames[1], fb)):
            Rf = frame.rotation[:, 0] * f[0] + frame.rotation[:, 1] * f[1] + frame.rotation[:, 2] * f[2]
            arm = p - origin
            torque = np.array(
                [
                    arm[1] * Rf[2] - arm[2] * Rf[1],
                    arm[2] * Rf[0] - arm[0] * Rf[2],
                    arm[0] * Rf[1] - arm[1] * Rf[0],
                ]
            )
            expected[:3] += Rf
            expected[3:] += torque
        np.testing.assert_allclose(got, expected, atol=1e-9)


def test_friction_cone_matches_direct_evaluation():
    rng = np.random.default_rng(101)
    mu = 0.5
    for _ in range(1000):
        f = rng.normal(size=3) * rng.choice([0.01, 1.0, 100.0])
        direct = f[2] >= 0 and math.sqrt(f[0] ** 2 + f[1] ** 2) <= mu * f[2]
        assert in_friction_cone(f, mu) == direct


def branch_normals() -> np.ndarray:
    """Unit normals on both sides of the +X/+Y reference switch (|n_x| > 0.9)."""
    out = [np.eye(3)[i] * sign for i in range(3) for sign in (1.0, -1.0)]
    for nx in (0.9, np.nextafter(0.9, 1.0), np.nextafter(0.9, 0.0)):
        for sign in (1.0, -1.0):
            out.append([sign * nx, np.sqrt(1.0 - nx * nx), 0.0])
            out.append([sign * nx, 0.0, -np.sqrt(1.0 - nx * nx)])
    return np.array(out)


def unit_normals():
    """Random unit normals, one draw of three coordinates normalized."""
    coords = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
    vectors = st.tuples(coords, coords, coords).map(np.array).filter(lambda v: np.linalg.norm(v) > 0.1)
    return vectors.map(lambda v: v / np.linalg.norm(v))


@st.composite
def near_switch_normals(draw):
    """Unit normals with |n_x| within 1e-9 of 0.9, the +X/+Y reference switch, on both sides."""
    nx = draw(st.sampled_from([1.0, -1.0])) * (0.9 + draw(st.floats(min_value=-1e-9, max_value=1e-9)))
    angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    r = math.sqrt(1.0 - nx * nx)
    return np.array([nx, r * math.cos(angle), r * math.sin(angle)])


def frame_rotations(normals) -> np.ndarray:
    """(..., 3, 3) ``build_contact_frame`` rotations of (..., 3) ``normals``, one call each."""
    normals = np.asarray(normals, dtype=np.float64)
    rotations = [build_contact_frame(np.zeros(3), n).rotation for n in normals.reshape(-1, 3)]
    return np.reshape(rotations, normals.shape + (3,))


class TestStackedMechanics:
    """The stacked closure equals the one-row library calls bit for bit, and
    contact frames and closure equal the scalar reference formulas (frames,
    grasp map, SVD) in everything but the last bits of sigma_min."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_scalar_calls(self, seed):
        rng = np.random.default_rng(seed)
        normals = rng.normal(size=(64, 3))
        normals = np.vstack([normals / np.linalg.norm(normals, axis=1, keepdims=True), branch_normals()])
        normals = normals[rng.permutation(len(normals))].reshape(-1, 2, 3)
        points = rng.normal(size=normals.shape) * 0.05
        # half the grasps antipodal-ish, so both closure outcomes occur
        axis = points[:, 1] - points[:, 0]
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        half = len(points) // 2
        normals[:half] = np.stack([axis[:half], -axis[:half]], axis=1) + rng.normal(size=(half, 2, 3)) * 0.2
        normals[:half] /= np.linalg.norm(normals[:half], axis=2, keepdims=True)
        origin = rng.normal(size=3) * 0.01

        R = frame_rotations(normals)
        closure, sigma_min = stacked_force_closure(points, R[..., 2], origin, 0.5, 0.01, torque_scale=0.1)
        assert closure.any() and not closure.all()
        for t in range(len(points)):
            frames = [build_contact_frame(points[t, j], normals[t, j]) for j in (0, 1)]
            ref_R = [ref.contact_rotation(n) for n in normals[t]]
            assert np.array_equal(R[t], ref_R)
            gm = build_grasp_map(frames, origin)
            G = ref.grasp_map(points[t], ref_R, origin)
            assert np.array_equal(gm.G, G)
            one = force_closure(gm, 0.5, 0.01, torque_scale=0.1)
            assert one == (closure[t], sigma_min[t])
            want = ref.force_closure(G, points[t], ref_R, 0.5, 0.01, 0.1)
            assert one[0] == want[0]
            assert abs(one[1] - want[1]) <= 1e-13

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sigma_depends_on_positions_only(self, seed):
        # G G^T = sum_i [[I, S_i^T], [S_i, S_i S_i^T]] for every choice of
        # frames, since each R R^T = I: spinning a frame about its normal
        # cannot move a singular value
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(32, 2, 3)) * 0.05
        axis = points[:, 1] - points[:, 0]
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        normals = np.stack([axis, -axis], axis=1) + rng.normal(size=(32, 2, 3)) * rng.uniform(0.0, 0.6, (32, 1, 1))
        normals /= np.linalg.norm(normals, axis=2, keepdims=True)
        origin = rng.normal(size=3) * 0.01
        scale = rng.uniform(0.02, 0.2)
        R = frame_rotations(normals)
        # Rodrigues' rotation about each normal by an arbitrary angle
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(32, 2))[..., np.newaxis, np.newaxis]
        K = skew(normals)
        spin = np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
        spun = spin @ R
        soft, sigma5 = stacked_force_closure(points, normals, origin, 0.5, 0.01, torque_scale=scale)
        assert soft.any()
        for t in range(len(points)):
            # the oracle takes np.linalg.svd of the frame-built G with its torque rows scaled
            frames = [ContactFrame(origin=points[t, j], rotation=spun[t, j], mu=0.5) for j in (0, 1)]
            G = build_grasp_map(frames, origin).G
            # the skipped sixth singular value is structurally zero, normals tilted off the
            # contact line or not: a squeeze along that line lies in G's null space
            assert np.linalg.svd(G, compute_uv=False)[5] <= 1e-12
            want = ref.force_closure(G, points[t], spun[t], 0.5, 0.01, scale)
            assert soft[t] == want[0]
            assert abs(sigma5[t] - want[1]) <= 1e-13

    def test_branch_normals_pick_reference_axis(self):
        normals = branch_normals()
        R = frame_rotations(normals)
        np.testing.assert_array_equal(R[..., 2], normals)
        switched = np.abs(normals[:, 0]) > 0.9
        assert switched.sum() == 6  # +-X and the three +-nextafter(0.9, 1) rows
        # the X axis is the rejection of the reference axis: in its plane with
        # the normal, on its positive side
        refs = np.where(switched[:, np.newaxis], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        x = R[..., 0]
        np.testing.assert_allclose(np.einsum("ij,ij->i", x, np.cross(refs, normals)), 0.0, atol=1e-12)
        assert np.all(np.einsum("ij,ij->i", x, refs) > 0.0)

    @given(
        st.lists(
            st.one_of(
                unit_normals(),
                # |n| = 1 +- 1e-6, just inside the entry check
                st.tuples(unit_normals(), st.floats(1.0 - 0.999e-6, 1.0 + 0.999e-6)).map(lambda t: t[0] * t[1]),
                near_switch_normals(),
                st.sampled_from(list(np.vstack([np.eye(3), -np.eye(3)]))),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_checked_normals_give_proper_rotations(self, normals):
        # the entry check is the only one, so what it admits must give a proper rotation
        R = frame_rotations(normals)
        assert np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max() <= 1e-12
        assert np.abs(np.linalg.det(R) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize(
        "normal, match",
        [
            ([0.0, 0.0, 0.0], "nonzero"),
            ([0.0, 0.0, 0.5], "unit length"),
            ([0.0, 0.0, 1.0 + 1e-5], "unit length"),
            ([np.nan, 0.0, 1.0], "inward normal"),
            ([0.0, np.inf, 0.0], "inward normal"),
            ([-np.inf, 0.0, np.nan], "inward normal"),
            ([1e-300, 0.0, 0.0], "inward normal"),
        ],
    )
    def test_one_bad_normal_rejects_the_stack(self, normal, match):
        normals = np.tile([0.0, 0.0, 1.0], (5, 2, 1))
        normals[3, 1] = normal
        points = np.tile([[0.0, 0.0, -0.01], [0.0, 0.0, 0.01]], (5, 1, 1))
        with pytest.raises(ValueError, match=match):
            build_contact_frame(points[3, 1], normals[3, 1])
        with pytest.raises(ValueError, match=match):
            stacked_force_closure(points, normals, np.zeros(3), 0.5)

    @pytest.mark.parametrize("mu", [0.0, -0.5])
    def test_nonpositive_mu_rejected(self, mu):
        gm = antipodal_sphere_map()
        points = np.array([[[-1.0, 0, 0], [1.0, 0, 0]]])
        with pytest.raises(ValueError, match="mu must be positive"):
            stacked_force_closure(points, [[[1.0, 0, 0], [-1.0, 0, 0]]], np.zeros(3), mu)
        with pytest.raises(ValueError, match="mu must be positive"):
            force_closure(gm, mu)
