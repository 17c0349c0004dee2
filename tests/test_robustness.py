import numpy as np
import pytest

from graspkit.candidates import GraspCandidate
from graspkit.cloud import PointCloud, SpatialIndex
from graspkit.mechanics import build_contact_frame, build_grasp_map, force_closure
from graspkit.planner import PlannerConfig, plan, preprocess
from graspkit.robustness import (
    PerturbationSpec,
    robust_force_closure,
    trial_normals,
    trial_rng,
)

from conftest import grid_cloud


def axis_candidate(cloud, contact_a, contact_b):
    contact_a, contact_b = np.asarray(contact_a, float), np.asarray(contact_b, float)
    axis = contact_b - contact_a
    width = float(np.linalg.norm(axis))
    axis /= width
    return GraspCandidate(
        contact_a=contact_a, contact_b=contact_b,
        normal_a=axis, normal_b=-axis, grasp_axis=axis, width=width,
    )


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_trial_normals_equal_per_trial_generators(seed):
    draws = trial_normals(seed, 50, 6)
    for trial in range(50):
        rng = trial_rng(seed, trial)
        # two 3-draw calls, as a per-trial perturbation of two contacts makes them
        expected = np.concatenate([rng.standard_normal(3), rng.standard_normal(3)])
        np.testing.assert_array_equal(draws[trial], expected)


class TestRobustForceClosure:
    def test_zero_sigma_probability_one(self, box_cloud, default_config):
        result = plan(box_cloud, default_config)
        prepared = preprocess(box_cloud, default_config)
        spec = PerturbationSpec(sigma=0.0, trials=20, seed=3)
        report = robust_force_closure(result.best.candidate, prepared, spec)
        assert report.probability == 1.0
        assert all(report.per_trial)

    def test_box_survives_small_relative_noise(self, box_cloud, default_config):
        result = plan(box_cloud, default_config)
        prepared = preprocess(box_cloud, default_config)
        spec = PerturbationSpec(sigma=0.02, trials=100, seed=0, sigma_mode="relative")
        report = robust_force_closure(result.best.candidate, prepared, spec)
        assert report.probability >= 0.95

    def test_seed_determinism(self, box_cloud, default_config):
        result = plan(box_cloud, default_config)
        prepared = preprocess(box_cloud, default_config)
        spec = PerturbationSpec(sigma=0.05, trials=50, seed=11, sigma_mode="relative")
        a = robust_force_closure(result.best.candidate, prepared, spec)
        b = robust_force_closure(result.best.candidate, prepared, spec)
        assert a.per_trial == b.per_trial
        assert a.probability == b.probability

    def test_seeded_replay_oracle(self, box_cloud, default_config):
        """Independent per-trial recomputation reproduces the report."""
        result = plan(box_cloud, default_config)
        prepared = preprocess(box_cloud, default_config)
        candidate = result.best.candidate
        spec = PerturbationSpec(sigma=0.1, trials=40, seed=5, sigma_mode="relative")
        report = robust_force_closure(candidate, prepared, spec, mu=0.5, mode="soft-pinch")

        index = SpatialIndex(prepared)
        sigma = spec.sigma * prepared.bounding_radius()
        origin = prepared.points.mean(axis=0)
        scale = np.linalg.norm(prepared.points - origin, axis=1).max()
        expected = []
        for trial in range(spec.trials):
            rng = trial_rng(spec.seed, trial)
            ia = index.nearest(candidate.contact_a + rng.standard_normal(3) * sigma)
            ib = index.nearest(candidate.contact_b + rng.standard_normal(3) * sigma)
            if ia == ib:
                expected.append(False)
                continue
            frames = (
                build_contact_frame(prepared.points[ia], -prepared.normals[ia], 0.5),
                build_contact_frame(prepared.points[ib], -prepared.normals[ib], 0.5),
            )
            gm = build_grasp_map(frames, origin)
            closure, _ = force_closure(gm, 0.5, spec.threshold, torque_scale=scale)
            expected.append(closure)
        assert list(report.per_trial) == expected
        assert report.probability == sum(expected) / spec.trials

    def test_probability_is_exact_fraction(self, box_cloud, default_config):
        result = plan(box_cloud, default_config)
        prepared = preprocess(box_cloud, default_config)
        spec = PerturbationSpec(sigma=0.15, trials=64, seed=2, sigma_mode="relative")
        report = robust_force_closure(result.best.candidate, prepared, spec)
        assert report.probability == sum(report.per_trial) / 64

    def test_monotone_trend_on_box(self, box_cloud, default_config):
        result = plan(box_cloud, default_config)
        prepared = preprocess(box_cloud, default_config)
        probs = {}
        for sigma in (0.02, 0.1):
            spec = PerturbationSpec(sigma=sigma, trials=1000, seed=17, sigma_mode="relative")
            probs[sigma] = robust_force_closure(result.best.candidate, prepared, spec).probability
        assert probs[0.02] >= probs[0.1] - 0.05

    def test_coincident_snaps_count_false(self):
        # one-point cloud: both contacts always snap to the same index
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]), normals=np.array([[0.0, 0.0, 1.0]]))
        candidate = axis_candidate(cloud, [-0.01, 0, 0], [0.01, 0, 0])
        report = robust_force_closure(candidate, cloud, PerturbationSpec(sigma=0.0, trials=5, seed=1))
        assert report.probability == 0.0

    def test_requires_normals(self):
        cloud = PointCloud(np.zeros((3, 3)))
        candidate = axis_candidate(cloud, [-0.01, 0, 0], [0.01, 0, 0])
        with pytest.raises(ValueError):
            robust_force_closure(candidate, cloud, PerturbationSpec(sigma=0.0))

    @pytest.mark.parametrize("kwargs", [{"mu": 0.0}, {"mu": -1.0}, {"mode": "loose"}])
    def test_invalid_mu_or_mode_rejected(self, kwargs):
        cloud = grid_cloud(5, 5, spacing=0.01)
        candidate = axis_candidate(cloud, cloud.points[0], cloud.points[-1])
        with pytest.raises(ValueError):
            robust_force_closure(candidate, cloud, PerturbationSpec(sigma=0.0, trials=3), **kwargs)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec(sigma=-0.1)
        with pytest.raises(ValueError):
            PerturbationSpec(sigma=0.1, trials=0)
        with pytest.raises(ValueError):
            PerturbationSpec(sigma=0.1, sigma_mode="scaled")
