import json
import math
import os
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graspkit.config
from graspkit import planner
from graspkit.candidates import find_antiparallel_pairs, make_candidates
from graspkit.cloud import PointCloud
from graspkit.planner import (
    RESULT_NO_CANDIDATES,
    RESULT_OK,
    RESULT_SEGMENTATION_EMPTY,
    PlannerConfig,
    _plan,
    load_config,
    plan,
    preprocess,
)
from graspkit.regions import RegionGrowingParams, segment
from graspkit.robustness import PerturbationSpec, robust_force_closure
from graspkit.shapes import ShapeSpec, corpus_standard, generate
from graspkit.stability import rank_candidates


class TestConfig:
    def test_defaults_valid(self):
        PlannerConfig()

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(mu=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(angle_threshold_deg=120.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [f.name for f in fields(PlannerConfig) if type(f.default) is float])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PlannerConfig(**{name: value})

    def test_non_finite_env_override_rejected(self, monkeypatch):
        monkeypatch.setenv("GRASPKIT_MU", "nan")
        with pytest.raises(ValueError, match="mu must be finite"):
            load_config(None, env=True)

    def test_file_round_trip(self, tmp_path):
        config = PlannerConfig(mu=0.7, candidates_per_pair=3)
        path = tmp_path / "planner.cfg"
        path.write_text(config.to_text())
        loaded = load_config(path, env=False)
        assert loaded == config

    # removed keys, so an older config file fails loudly; k_neighbors replaced the last two
    @pytest.mark.parametrize(
        "line",
        [
            "grip_strength = 11", "trials = 100", "f_normal_cap = 2.0", "normals_k = 16", "region_k_neighbors = 16",
            "closure_mode = strict",
        ],
        ids=["unknown", "trials", "f_normal_cap", "normals_k", "region_k_neighbors", "closure_mode"],
    )
    def test_unknown_key_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text("# tuned\n" + line + "\n")
        with pytest.raises(ValueError, match=f"^config line 2: unknown key '{line.split()[0]}'$"):
            load_config(path, env=False)

    @pytest.mark.parametrize(
        "name",
        [
            "GRASPKIT_TRIALS", "GRASPKIT_F_NORMAL_CAP", "GRASPKIT_NORMALS_K", "GRASPKIT_REGION_K_NEIGHBORS",
            "GRASPKIT_CLOSURE_MODE",
        ],
    )
    def test_unknown_env_override_rejected(self, monkeypatch, name):
        monkeypatch.setenv(name, "7")
        with pytest.raises(ValueError, match=f"unknown environment override {name}"):
            load_config(None, env=True)
        assert load_config(None, env=False) == PlannerConfig()

    def test_comments_and_blanks_allowed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# tuned for tests\n\nmu = 0.8  # rubber fingertips\n")
        assert load_config(path, env=False).mu == 0.8

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRASPKIT_MU", "0.9")
        monkeypatch.setenv("GRASPKIT_CANDIDATES_PER_PAIR", "7")
        config = load_config(None, env=True)
        assert config.mu == 0.9
        assert config.candidates_per_pair == 7

    def test_hash_tracks_values(self):
        assert PlannerConfig().sha256() != PlannerConfig(mu=0.6).sha256()

    def test_one_config_type(self):
        assert RegionGrowingParams is PlannerConfig is graspkit.config.PlannerConfig
        assert not hasattr(PlannerConfig, "region_params")
        # the region checks keep their messages, after the planner's own
        with pytest.raises(ValueError, match=r"k_neighbors must be >= 3"):
            RegionGrowingParams(k_neighbors=2)
        with pytest.raises(ValueError, match="mu must be positive"):
            PlannerConfig(mu=0.0, k_neighbors=2)
        with pytest.raises(ValueError, match="distance_threshold must be finite"):
            RegionGrowingParams(distance_threshold=math.nan)

    @pytest.mark.parametrize("name", [f.name for f in fields(PlannerConfig) if type(f.default) is int])
    @pytest.mark.parametrize("value", [2.5, 16.0, True, "16", None], ids=["fraction", "whole-float", "bool", "str", "none"])
    def test_int_fields_take_only_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be of type int, got {value!r}"):
            PlannerConfig(**{name: value})

    @pytest.mark.parametrize("name", [f.name for f in fields(PlannerConfig) if type(f.default) is float])
    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "str", "none"])
    def test_float_fields_take_only_real_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be of type float, got {value!r}"):
            PlannerConfig(**{name: value})

    def test_closure_mode_is_a_constant_not_a_field(self):
        # soft-pinch is the one closure rule: readable on the type, settable nowhere
        assert PlannerConfig.closure_mode == PlannerConfig().closure_mode == "soft-pinch"
        assert len(fields(PlannerConfig)) == 13
        assert "closure_mode" not in PlannerConfig().to_text()
        with pytest.raises(TypeError, match="closure_mode"):
            PlannerConfig(closure_mode="soft-pinch")

    def test_equal_configs_hash_equal(self):
        loose = PlannerConfig(mu=1, voxel_size=np.float64(0.002), outlier_k=np.int64(12), max_width=Fraction(17, 200))
        exact = PlannerConfig(mu=1.0, voxel_size=0.002, outlier_k=12, max_width=0.085)
        assert loose == exact and loose.sha256() == exact.sha256()
        assert type(loose.mu) is type(loose.max_width) is float and type(loose.outlier_k) is int
        # the default config's hash, which every default plan carries
        default_sha = "ebd45006e46c3b81080ff9a0765bda6f8476c8ec2fecc2eadcb23628e76b3414"
        assert PlannerConfig().sha256() == default_sha
        assert PlannerConfig(voxel_size=np.float64(0.002), outlier_k=np.int64(12)).sha256() == default_sha

    def test_lines_split_only_at_line_ends(self, tmp_path):
        # a form feed is not a line end: the value "0.7\x0cvoxel_size = 0.003" is not a number
        path = tmp_path / "ff.cfg"
        path.write_text("mu = 0.7\x0cvoxel_size = 0.003\n")
        with pytest.raises(ValueError, match=r"^config line 1: bad value for mu: "):
            load_config(path, env=False)
        path.write_text("mu = 0.7\x0c\nbogus = 1\n")
        with pytest.raises(ValueError, match=r"^config line 2: unknown key 'bogus'"):
            load_config(path, env=False)
        path.write_bytes(b"mu = 0.7\r\nbogus = 1\r")
        with pytest.raises(ValueError, match=r"^config line 2: unknown key 'bogus'"):
            load_config(path, env=False)

    def test_bad_file_value_cites_line_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# tuned\nmu = 0.7\nk_neighbors = 16.0\n")
        with pytest.raises(ValueError, match=r"^config line 3: bad value for k_neighbors: invalid literal for int"):
            load_config(path, env=False)
        path.write_text("mu = abc\n")
        with pytest.raises(ValueError, match=r"^config line 1: bad value for mu: could not convert string to float: 'abc'"):
            load_config(path, env=False)

    @pytest.mark.parametrize(
        "name, value, key",
        [("GRASPKIT_K_NEIGHBORS", "16.0", "k_neighbors"), ("GRASPKIT_CANDIDATES_PER_PAIR", "2.5", "candidates_per_pair"),
         ("GRASPKIT_MU", "abc", "mu")],
    )
    def test_bad_env_value_cites_variable_and_key(self, monkeypatch, name, value, key):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"^environment override {name}: bad value for {key}: "):
            load_config(None, env=True)

    def test_file_value_out_of_range_cites_line(self, tmp_path, monkeypatch):
        path = tmp_path / "range.cfg"
        path.write_text("# tuned\nmu = -1\nvoxel_size = 0.003\n")
        with pytest.raises(ValueError, match=r"^config line 2: mu must be positive$"):
            load_config(path, env=False)
        # an override that mends the file's value wins, as before
        monkeypatch.setenv("GRASPKIT_MU", "0.7")
        assert load_config(path, env=True).mu == 0.7

    def test_env_value_out_of_range_cites_variable(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.cfg"
        path.write_text("mu = 0.7\n")
        monkeypatch.setenv("GRASPKIT_MU", "nan")
        with pytest.raises(ValueError, match=r"^environment override GRASPKIT_MU: mu must be finite, got nan$"):
            load_config(path, env=True)


def _field_values():
    """Strategies for every PlannerConfig field, within its checks. Float
    fields also draw integers, which the config stores as floats."""
    def real(lo, hi=1e6, exclude_min=False, exclude_max=False):
        floats = st.floats(lo, hi, exclude_min=exclude_min, exclude_max=exclude_max, allow_nan=False)
        return st.one_of(floats, st.integers(math.floor(lo) + 1, math.ceil(hi) - 1))

    return {
        "voxel_size": real(0.0),
        "outlier_k": st.integers(1, 2**40),
        "outlier_std_ratio": real(0.0, exclude_min=True),
        "k_neighbors": st.integers(3, 2**40),
        "angle_threshold_deg": real(0.0, 90.0, exclude_min=True, exclude_max=True),
        "curvature_threshold": real(0.0),
        "distance_threshold": real(0.0),
        "min_region_size": st.integers(3, 2**40),
        "max_pair_angle_deg": real(0.0, exclude_min=True),
        "max_width": real(0.0, exclude_min=True),
        "candidates_per_pair": st.integers(1, 2**40),
        "mu": real(0.0, exclude_min=True),
        "sigma_min_threshold": real(0.0, exclude_min=True),
    }


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(_field_values()))
def test_config_round_trips_through_file_and_environment(tmp_path_factory, values):
    assert set(values) == {f.name for f in fields(PlannerConfig)}
    config = PlannerConfig(**values)
    typed = PlannerConfig(**{f.name: type(f.default)(values[f.name]) for f in fields(PlannerConfig)})
    assert config == typed and config.sha256() == typed.sha256()
    path = tmp_path_factory.mktemp("cfg") / "planner.cfg"
    path.write_text(config.to_text())
    loaded = load_config(path, env=False)
    assert loaded == config and loaded.sha256() == config.sha256()
    env = {"GRASPKIT_" + key.upper(): f"{value}" for key, value in vars(config).items()}
    with mock.patch.dict(os.environ, env):
        from_env = load_config(None, env=True)
    assert from_env == config and from_env.sha256() == config.sha256()


class TestPlan:
    def test_box_grasp_geometry(self, default_config):
        dims = (0.05, 0.075, 0.05)
        cloud = generate(ShapeSpec("box", dims, density=1.2e5))
        result = plan(cloud, default_config)
        assert result.result_code == RESULT_OK
        best = result.best
        # the axis aligns with a face normal and the width matches that span
        axis = np.abs(best.candidate.grasp_axis)
        dominant = int(np.argmax(axis))
        angle = np.degrees(np.arccos(np.clip(axis[dominant], -1, 1)))
        assert angle < 2.0
        assert best.candidate.width == pytest.approx(
            dims[dominant], abs=default_config.voxel_size
        )
        assert best.closure

    def test_sphere_axis_through_center(self, sphere_cloud, default_config):
        result = plan(sphere_cloud, default_config)
        assert result.ok
        cand = result.best.candidate
        center = np.zeros(3)
        d = np.linalg.norm(np.cross(center - cand.contact_a, cand.grasp_axis))
        assert d <= 2 * default_config.voxel_size

    def test_scattered_points_segmentation_empty(self, default_config):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(0, 1, (5, 3)))
        result = plan(cloud, default_config)
        assert result.result_code == RESULT_SEGMENTATION_EMPTY
        assert result.best is None

    def test_open_shell_no_candidates(self, corpus, default_config):
        cloud = generate(corpus["clamp_c_open"])
        result = plan(cloud, default_config)
        assert result.result_code == RESULT_NO_CANDIDATES
        assert result.n_regions > 0
        assert result.best is None

    def test_large_ellipsoid_plans_as_well_without_a_plane_test(self, default_config):
        # Growth bounds a region by the seed-normal cone alone. A plane-distance
        # test bound on this ellipsoid's large-radius faces: it gave 48 regions
        # and a best grasp of held-out p 0.640. If one comes back and costs
        # quality, this shows it.
        cloud = generate(ShapeSpec("ellipsoid", (0.03, 0.15, 0.25), density=3e4))
        result = plan(cloud, default_config)
        assert result.result_code == RESULT_OK
        assert result.n_regions == 36
        p = [
            robust_force_closure(
                result.best.candidate, cloud, PerturbationSpec(0.05, trials=100, seed=seed, sigma_mode="relative")
            ).probability
            for seed in (11, 12)
        ]
        assert sum(p) / 2 >= 0.64

    def test_outlier_filter_keeps_far_points_out_of_the_plan(self, corpus, default_config):
        # Two stray points 0.5 m and 0.36 m from the banana's centroid, beside
        # its 3x scan. Without the filter they stretch the prepared bounding
        # radius from 0.066 to 0.500 m, which rescales the torque rows of the
        # closure test, and the best grasp's held-out p falls from 0.915 to 0.46.
        spec = corpus["bent_prism_banana"]
        analytic = generate(spec)
        scan = generate(replace(spec, density=spec.density * 3, jitter=3e-4, seed=72))
        centroid = analytic.centroid()
        points = np.vstack([scan.points, centroid + (0.5, 0.0, 0.0), centroid + (0.0, 0.3, 0.2)])
        result, prepared = _plan(PointCloud(points), default_config)
        assert result.result_code == RESULT_OK
        assert prepared.bounding_radius() < 0.07
        p = [
            robust_force_closure(
                result.best.candidate, analytic, PerturbationSpec(0.05, trials=100, seed=seed, sigma_mode="relative")
            ).probability
            for seed in (11, 12)
        ]
        assert sum(p) / 2 >= 0.85

    def test_repeat_runs_byte_identical(self, box_cloud, default_config):
        a = plan(box_cloud, default_config).to_json()
        b = plan(box_cloud, default_config).to_json()
        assert a == b

    def test_timings_recorded_but_not_serialized(self, box_cloud, default_config):
        result = plan(box_cloud, default_config)
        assert set(result.timings_ms) >= {"preprocess", "segment", "candidates", "rank"}
        assert "timings" not in result.to_json()

    def test_metadata_hashes(self, box_cloud, default_config):
        result = plan(box_cloud, default_config)
        data = result.to_json_dict()
        meta = data["pipeline_metadata"]
        assert meta["config_sha256"] == default_config.sha256()
        assert len(meta["input_sha256"]) == 64
        assert data["schema_version"] == 3

    def test_report_keys(self, box_cloud, default_config):
        data = plan(box_cloud, default_config).to_json_dict()
        assert set(data) == {"schema_version", "result_code", "best", "reports", "pipeline_metadata"}
        keys = {"contact_a", "contact_b", "grasp_axis", "width", "closure", "sigma_min", "axis_com_distance"}
        assert set(data["best"]) == keys
        assert all(set(r) == keys for r in data["reports"])

    @pytest.mark.parametrize("normals", [True, False], ids=["analytic-normals", "points-only"])
    def test_leaves_no_index_on_the_input(self, corpus, default_config, normals):
        cloud = generate(corpus["box_foam_brick"])
        if not normals:
            cloud = PointCloud(cloud.points)
        assert plan(cloud, default_config).ok
        assert "index" not in cloud.__dict__

    def test_points_only_cloud_builds_two_trees_and_one_table(
        self, sphere_cloud, default_config, index_builds, table_builds
    ):
        # the outlier filter's bare tree, then the prepared cloud's tree and
        # table, which normal estimation and segmentation share
        assert plan(PointCloud(sphere_cloud.points), default_config).ok
        assert len(index_builds) == 2
        assert table_builds == [default_config.k_neighbors]

    def test_points_only_cloud_of_singleton_voxels_builds_one_tree_and_one_table(
        self, corpus, default_config, index_builds, table_builds, table_rows
    ):
        # no two points share a voxel: the grid cloud's tree and 16-NN table
        # serve the outlier filter, normal estimation and segmentation
        brick = PointCloud(generate(corpus["box_foam_brick"]).points)
        assert plan(brick, default_config).ok
        assert [len(p) for p in index_builds] == [2346]
        assert table_builds == [default_config.k_neighbors]
        # the clamp's filter drops 290 of 2432 points: the kept cloud gets its
        # own tree, and only its 556 rows that held a dropped point are queried again
        index_builds.clear()
        table_rows.clear()
        result = plan(PointCloud(generate(corpus["clamp_c_open"]).points), default_config)
        assert result.result_code == RESULT_NO_CANDIDATES and result.n_points == 2142
        assert [len(p) for p in index_builds] == [2432, 2142]
        assert table_rows == [2432, 556]

    def test_prepared_index_keeps_only_its_neighbour_rows(self, sphere_cloud, default_config):
        # one read-only (n, k) index table: no distance table, no copy of the points
        _, prepared = _plan(PointCloud(sphere_cloud.points), default_config)
        arrays = [
            a
            for value in vars(prepared.index).values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray) and a is not prepared.points
        ]
        assert len(arrays) == 1
        table = arrays[0]
        assert table.dtype == np.intp and table.shape == (len(prepared), default_config.k_neighbors)
        assert not table.flags.writeable

    def test_best_is_head_of_reports(self, box_cloud, default_config):
        result = plan(box_cloud, default_config)
        assert result.best is result.all_reports[0]

    def test_empty_cloud_rejected(self, default_config):
        with pytest.raises(ValueError):
            plan(PointCloud(np.empty((0, 3))), default_config)


@pytest.mark.parametrize("name", list(corpus_standard()))
def test_best_grasp_invariant_under_point_permutation(corpus, default_config, name):
    """Reordering the points (normals and curvatures with them) keeps the best
    grasp's contacts bit for bit. The whole plan JSON is not promised to stay
    the same: on the tennis ball some later reports' contacts move in the
    last bits (up to 7e-18 m) and their order changes."""
    cloud = generate(corpus[name])
    want = plan(cloud, default_config)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(cloud))
        got = plan(cloud.select(order), default_config)
        assert got.result_code == want.result_code
        if want.best is None:
            assert got.best is None
            continue
        assert np.array_equal(got.best.candidate.contact_a, want.best.candidate.contact_a)
        assert np.array_equal(got.best.candidate.contact_b, want.best.candidate.contact_b)


def _plan_json_without_input_hash(result) -> str:
    data = result.to_json_dict()
    del data["pipeline_metadata"]["input_sha256"]
    return json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("index, name", list(enumerate(corpus_standard())))
def test_plan_json_invariant_under_point_permutation(default_config, index, name):
    """The corpus cloud and its points-only 3x-density jittered scan (seed
    64 + index) plan to the same JSON, the input hash aside, under 3 seeded
    permutations of their points."""
    spec = corpus_standard()[name]
    scan = generate(replace(spec, density=spec.density * 3, jitter=3e-4, seed=64 + index))
    for cloud in (generate(spec), PointCloud(scan.points)):
        want = _plan_json_without_input_hash(plan(cloud, default_config))
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(cloud))
            assert _plan_json_without_input_hash(plan(cloud.select(order), default_config)) == want


def _negative_zeros(value) -> int:
    """How many floats of a parsed JSON value are -0.0."""
    if isinstance(value, dict):
        return sum(_negative_zeros(v) for v in value.values())
    if isinstance(value, list):
        return sum(_negative_zeros(v) for v in value)
    return int(isinstance(value, float) and value == 0.0 and math.copysign(1.0, value) < 0.0)


@pytest.mark.parametrize("index, name", list(enumerate(corpus_standard())))
def test_plan_json_holds_no_negative_zero(default_config, index, name):
    """The corpus cloud and its points-only 3x-density jittered scan (seed
    64 + index) plan to JSON in which every zero is written 0.0."""
    spec = corpus_standard()[name]
    scan = generate(replace(spec, density=spec.density * 3, jitter=3e-4, seed=64 + index))
    for cloud in (generate(spec), PointCloud(scan.points)):
        assert _negative_zeros(json.loads(plan(cloud, default_config).to_json())) == 0


def _candidate_bytes(candidates) -> list:
    return [
        (c.contact_a.tobytes(), c.contact_b.tobytes(), c.normal_a.tobytes(), c.normal_b.tobytes(),
         c.grasp_axis.tobytes(), c.width)
        for c in candidates
    ]


@pytest.mark.parametrize("name", ["sphere_tennis_ball", "bent_prism_banana"])
def test_contacts_without_a_config_are_the_plans(corpus, monkeypatch, name):
    """``make_candidates`` given no config picks plan()'s contacts on every
    pair of the two corpus objects whose overlap boxes can hold fewer than
    ``min_region_size`` points of a region, where a looser box picks others."""
    calls = []

    def spy(pair, cloud, *args, **kwargs):
        out = make_candidates(pair, cloud, *args, **kwargs)
        calls.append((pair, cloud, out))
        return out

    monkeypatch.setattr(planner, "make_candidates", spy)
    assert plan(generate(corpus[name])).ok
    assert calls
    for pair, prepared, want in calls:
        assert _candidate_bytes(make_candidates(pair, prepared)) == _candidate_bytes(want)


@pytest.mark.parametrize("name", list(corpus_standard()))
def test_stage_chain_under_one_config_is_plan(corpus, name):
    """preprocess, segment, pairs, contacts and rank, each given the same
    non-default config, report what plan() reports under it."""
    config = PlannerConfig(candidates_per_pair=3, max_width=0.07, sigma_min_threshold=0.9)
    cloud = generate(corpus[name])
    result = plan(cloud, config)
    prepared = preprocess(cloud, config)
    pairs = find_antiparallel_pairs(segment(prepared, config).regions, config)
    candidates = [c for pair in pairs for c in make_candidates(pair, prepared, config)]
    reports = rank_candidates(candidates, prepared, config).reports if candidates else ()
    assert len(pairs) == result.n_pairs
    assert [(r.candidate_index, r.to_json_dict()) for r in reports] == [
        (r.candidate_index, r.to_json_dict()) for r in result.all_reports
    ]
