import gc
import weakref

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
from reference_loops import robust_force_closure_loop


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


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_trial_normals_cached_table_equals_fresh_and_is_read_only(seed):
    table = trial_normals(seed, 40, 6)
    assert trial_normals(seed, 40, 6) is table
    assert table.tobytes() == trial_normals.__wrapped__(seed, 40, 6).tobytes()
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_trial_normals_keeps_only_the_latest_table():
    table = weakref.ref(trial_normals(3, 40, 6))
    assert table() is not None
    trial_normals(4, 40, 6)
    gc.collect()
    assert table() is None


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
        report = robust_force_closure(candidate, prepared, spec, mu=0.5)

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

    @pytest.mark.parametrize("mode", ["soft-pinch"])  # the one mode accepted, passed explicitly
    def test_one_non_unit_normal_rejects_the_trials(self, mode):
        cloud = grid_cloud(5, 5, spacing=0.01)
        candidate = axis_candidate(cloud, cloud.points[0], cloud.points[-1])
        # PointCloud checks normals itself, so swap one in past that check: the
        # closure test checks the snapped normals where they enter, and a bad one fails there
        normals = cloud.normals.copy()
        normals[-1] *= 0.5
        object.__setattr__(cloud, "normals", normals)
        with pytest.raises(ValueError, match="inward normal must be finite, nonzero and unit length"):
            robust_force_closure(candidate, cloud, PerturbationSpec(sigma=0.0, trials=3), mode=mode)

    @pytest.mark.parametrize("kwargs", [{"mu": 0.0}, {"mu": -1.0}, {"mode": "loose"}, {"mode": "strict"}])
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

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"sigma": float("nan")}, "sigma"),
            ({"sigma": float("inf")}, "sigma"),
            ({"sigma": 0.1, "seed": -1}, "seed"),
            ({"sigma": 0.1, "seed": 2**64}, "seed"),
            ({"sigma": 0.1, "seed": 1.5}, "seed"),
            ({"sigma": 0.1, "seed": True}, "seed"),
            ({"sigma": 0.1, "trials": 2.5}, "trials"),
            ({"sigma": 0.1, "trials": True}, "trials"),
            ({"sigma": 0.1, "threshold": float("nan")}, "threshold"),
            ({"sigma": 0.1, "threshold": float("inf")}, "threshold"),
            ({"sigma": 0.1, "threshold": float("-inf")}, "threshold"),
            ({"sigma": 0.1, "threshold": 0.0}, "threshold"),
            ({"sigma": 0.1, "threshold": -0.01}, "threshold"),
        ],
        ids=[
            "sigma-nan",
            "sigma-inf",
            "seed-negative",
            "seed-2**64",
            "seed-fraction",
            "seed-bool",
            "trials-fraction",
            "trials-bool",
            "threshold-nan",
            "threshold-inf",
            "threshold-minus-inf",
            "threshold-zero",
            "threshold-negative",
        ],
    )
    def test_out_of_range_spec_names_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            PerturbationSpec(**kwargs)

    def test_seed_range_ends_accepted(self):
        assert PerturbationSpec(sigma=0.0, seed=0).seed == 0
        assert PerturbationSpec(sigma=0.0, seed=2**64 - 1).seed == 2**64 - 1


class TestRepeatedEvaluation:
    """Calls on one cloud share its memoized index, centroid, radius and trial table."""

    SIGMAS = (0.02, 0.05, 0.1)

    @pytest.fixture(scope="class")
    def grasp(self, box_cloud, default_config):
        prepared = preprocess(box_cloud, default_config)
        return plan(box_cloud, default_config).best.candidate, prepared

    @staticmethod
    def fresh(cloud):
        return PointCloud(cloud.points, cloud.normals, cloud.curvatures)

    @staticmethod
    def reports(candidate, cloud, sigmas, seed=9, trials=60):
        return [
            robust_force_closure(candidate, cloud, PerturbationSpec(s, trials=trials, seed=seed, sigma_mode="relative"))
            for s in sigmas
        ]

    def test_one_index_for_many_calls(self, grasp, index_builds):
        candidate, prepared = grasp
        cloud = self.fresh(prepared)
        for seed in (1, 2):
            self.reports(candidate, cloud, self.SIGMAS, seed=seed)
        assert [id(p) for p in index_builds] == [id(cloud.points)]
        other = self.fresh(prepared)
        self.reports(candidate, other, self.SIGMAS[:1])
        assert [id(p) for p in index_builds] == [id(cloud.points), id(other.points)]

    def test_cold_and_warm_reports_equal(self, grasp):
        candidate, prepared = grasp
        warm = self.fresh(prepared)
        first = self.reports(candidate, warm, self.SIGMAS)
        assert self.reports(candidate, warm, self.SIGMAS) == first
        trial_normals.cache_clear()
        assert self.reports(candidate, self.fresh(prepared), self.SIGMAS) == first
        assert self.reports(candidate, warm, self.SIGMAS[::-1])[::-1] == first

    def test_warm_cloud_matches_per_trial_oracle(self, grasp):
        candidate, prepared = grasp
        warm = self.fresh(prepared)
        self.reports(candidate, warm, self.SIGMAS)
        for report in self.reports(candidate, warm, self.SIGMAS):
            spec = PerturbationSpec(report.sigma, trials=60, seed=9, sigma_mode="relative")
            assert report.per_trial == robust_force_closure_loop(candidate, self.fresh(prepared), spec)
