"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py``; each criterion reports its
own pass/fail line. Shared planning results are computed once per session.
"""

import json
import statistics
import time

import numpy as np
import pytest

from graspkit.cloud import PointCloud
from graspkit.mechanics import build_contact_frame, build_grasp_map, in_friction_cone
from graspkit.planner import RESULT_NO_CANDIDATES, PlannerConfig, plan, preprocess
from graspkit.regions import RegionGrowingParams, segment
from graspkit.robustness import PerturbationSpec, robust_force_closure
from graspkit.shapes import ShapeSpec, corpus_standard, generate
from graspkit.stability import (
    StabilityProblem,
    solve_stability,
    stability_cost,
    stability_cost_grad,
)

TABLE_OBJECTS = (
    "box_foam_brick",
    "cylinder_chips_can",
    "sphere_tennis_ball",
    "ellipsoid_pear",
    "cylinder_master_chef",
)


@pytest.fixture(scope="module")
def config():
    return PlannerConfig()


@pytest.fixture(scope="module")
def corpus_runs(config):
    """Plan every corpus object once; keep clouds, results and wall times."""
    runs = {}
    for name, spec in corpus_standard().items():
        cloud = generate(spec)
        t0 = time.perf_counter()
        result = plan(cloud, config)
        elapsed = time.perf_counter() - t0
        runs[name] = {
            "cloud": cloud,
            "prepared": preprocess(cloud, config),
            "result": result,
            "seconds": elapsed,
        }
    return runs


def test_criterion_1_closure_probability_grid(corpus_runs, config):
    """Planner grasps keep closure under small contact noise on the benchmark set."""
    t0 = time.perf_counter()
    probabilities = {}
    for name in TABLE_OBJECTS:
        run = corpus_runs[name]
        assert run["result"].ok, f"{name} failed to plan"
        spec = PerturbationSpec(sigma=0.02, trials=100, seed=0, sigma_mode="relative")
        report = robust_force_closure(
            run["result"].best.candidate, run["prepared"], spec,
            mu=config.mu, mode=config.closure_mode,
        )
        probabilities[name] = report.probability
    grid_seconds = time.perf_counter() - t0 + sum(
        corpus_runs[name]["seconds"] for name in TABLE_OBJECTS
    )
    print(f"criterion 1: probabilities={probabilities} grid_time={grid_seconds:.1f}s")
    for name, prob in probabilities.items():
        assert prob >= 0.95, f"{name}: probability {prob} < 0.95"
    assert grid_seconds <= 120.0


def test_criterion_2_planning_latency(corpus_runs):
    """Median planning time across the corpus stays under 1 second."""
    times = [run["seconds"] for run in corpus_runs.values()]
    median = statistics.median(times)
    print(f"criterion 2: median={median:.2f}s max={max(times):.2f}s")
    assert median <= 1.0


def test_criterion_3_determinism(corpus_runs, config):
    """10 repeated plan and eval runs are byte-identical on every object."""
    for name, run in corpus_runs.items():
        plans = {plan(run["cloud"], config).to_json() for _ in range(10)}
        assert len(plans) == 1, f"{name}: plan output varies"
        if not run["result"].ok:
            continue
        spec = PerturbationSpec(sigma=0.05, trials=100, seed=7, sigma_mode="relative")
        evals = {
            json.dumps(
                robust_force_closure(
                    run["result"].best.candidate, run["prepared"], spec,
                    mu=config.mu, mode=config.closure_mode,
                ).to_json_dict(),
                sort_keys=True,
            )
            for _ in range(10)
        }
        assert len(evals) == 1, f"{name}: eval output varies"
    print(f"criterion 3: {len(corpus_runs)} objects x 10 runs byte-identical")


def test_criterion_4_mechanics_oracle():
    """Wrenches match explicit cross-product computation; cone test matches Eq. 3."""
    rng = np.random.default_rng(2024)
    max_err = 0.0
    for _ in range(1000):
        origin = rng.normal(size=3)
        forces = []
        frames = []
        for _ in range(2):
            p = rng.normal(size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            frames.append(build_contact_frame(p, n, 0.5))
            forces.append(rng.normal(size=3))
        gm = build_grasp_map(frames, origin)
        got = gm.G @ np.concatenate(forces)
        expected = np.zeros(6)
        for frame, f in zip(frames, forces):
            R = frame.rotation
            world = np.array(
                [
                    R[0, 0] * f[0] + R[0, 1] * f[1] + R[0, 2] * f[2],
                    R[1, 0] * f[0] + R[1, 1] * f[1] + R[1, 2] * f[2],
                    R[2, 0] * f[0] + R[2, 1] * f[1] + R[2, 2] * f[2],
                ]
            )
            arm = frame.origin - origin
            expected[:3] += world
            expected[3] += arm[1] * world[2] - arm[2] * world[1]
            expected[4] += arm[2] * world[0] - arm[0] * world[2]
            expected[5] += arm[0] * world[1] - arm[1] * world[0]
        max_err = max(max_err, float(np.abs(got - expected).max()))
        f = rng.normal(size=3)
        direct = bool(f[2] >= 0.0 and np.sqrt(f[0] ** 2 + f[1] ** 2) <= 0.5 * f[2])
        assert in_friction_cone(f, 0.5) == direct
    print(f"criterion 4: max wrench deviation {max_err:.2e}")
    assert max_err < 1e-9


def _random_antipodal_problem(seed):
    rng = np.random.default_rng(seed)
    pa = rng.normal(size=3) * 0.03
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    pb = pa + axis * rng.uniform(0.03, 0.08)

    def tilted(direction):
        n = direction + rng.normal(size=3) * 0.2
        return n / np.linalg.norm(n)

    frames = [
        build_contact_frame(pa, tilted(axis), 0.5),
        build_contact_frame(pb, tilted(-axis), 0.5),
    ]
    gm = build_grasp_map(frames, rng.normal(size=3) * 0.01)
    return StabilityProblem(grasp_map=gm, mu=0.5)


def _sample_feasible(problem, rng, count):
    fz = rng.uniform(0.0, problem.f_normal_cap, size=(count, problem.n_contacts))
    rho = rng.uniform(0.0, 1.0, size=fz.shape) * problem.mu * fz
    phi = rng.uniform(0.0, 2 * np.pi, size=fz.shape)
    f = np.empty((count, problem.dim))
    f[:, 0::3] = rho * np.cos(phi)
    f[:, 1::3] = rho * np.sin(phi)
    f[:, 2::3] = fz
    norms = np.linalg.norm(f.reshape(count, -1, 3), axis=2)
    over = norms > problem.f_normal_cap
    scale = np.where(over, problem.f_normal_cap / np.maximum(norms, 1e-300), 1.0)
    f = (f.reshape(count, -1, 3) * scale[:, :, None]).reshape(count, problem.dim)
    return f


def test_criterion_5_stability_solver():
    """Solver beats 1e4-sample random search; gradients match central differences."""
    rng = np.random.default_rng(77)
    worst_gap = -np.inf
    for seed in range(50):
        problem = _random_antipodal_problem(seed)
        result = solve_stability(problem)
        assert result.converged, f"problem {seed} did not converge"
        samples = _sample_feasible(problem, rng, 10_000)
        w = samples @ problem.grasp_map.G.T
        q = np.einsum("ij,ij->i", w, w)
        m = problem.f_ex_magnitude**2
        costs = np.zeros(len(q))
        for _ in range(8):  # eight octants, three equal-magnitude bases each
            costs += (q - m) ** 3
        best = float(costs.min())
        worst_gap = max(worst_gap, result.cost - best)
        assert result.cost <= best + 1e-6, f"problem {seed}: {result.cost} > {best}"

    checked = 0
    grad_rng = np.random.default_rng(88)
    for seed in range(10):
        problem = _random_antipodal_problem(100 + seed)
        for f in _sample_feasible(problem, grad_rng, 10):
            grad = stability_cost_grad(f, problem)
            fd = np.empty_like(grad)
            h = 1e-6
            for i in range(len(f)):
                e = np.zeros_like(f)
                e[i] = h
                fd[i] = (
                    stability_cost(f + e, problem) - stability_cost(f - e, problem)
                ) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0)
            assert rel < 1e-5
            checked += 1
    assert checked == 100
    print(f"criterion 5: worst solver-vs-search gap {worst_gap:.2e}, 100 gradient checks")


def test_criterion_6_segmentation_correctness():
    """Cube splits into its 6 faces; cylinder regions stay within the arc bound."""
    cube_spec = ShapeSpec("box", (0.06, 0.06, 0.06), density=1.5e5)
    cube = generate(cube_spec)
    seg = segment(cube, RegionGrowingParams())
    assert len(seg) == 6, f"expected 6 regions, got {len(seg)}"
    # oracle: face labels from analytic normals (axis index plus sign)
    axis = np.argmax(np.abs(cube.normals), axis=1)
    face_label = axis + 3 * (cube.normals[np.arange(len(cube)), axis] < 0)
    correct = 0
    interior_total = 0
    region_of = seg.region_ids()
    for face in np.unique(face_label):
        members = np.flatnonzero(face_label == face)
        regions, counts = np.unique(region_of[members], return_counts=True)
        dominant = regions[np.argmax(counts)]
        correct += int((region_of[members] == dominant).sum())
        interior_total += len(members)
    fraction = correct / interior_total
    print(f"criterion 6: cube face assignment {fraction:.3f}")
    assert fraction >= 0.95

    params = RegionGrowingParams(angle_threshold_deg=20.0)
    side = generate(ShapeSpec("cylinder", (0.04, 0.2), density=2e5, options={"caps": False}))
    cylinder_seg = segment(side, params)
    assert len(cylinder_seg) >= 4
    for region in cylinder_seg:
        pts = side.points[region.point_indices]
        theta = np.sort(np.degrees(np.arctan2(pts[:, 1], pts[:, 0])))
        gaps = np.diff(np.concatenate([theta, [theta[0] + 360.0]]))
        span = 360.0 - gaps.max()
        assert span <= 2 * params.angle_threshold_deg + 1e-6


def test_criterion_7_antipodality_of_best_grasps(corpus_runs, config):
    """Every planned best grasp is antipodal within the pairing tolerance."""
    checked = 0
    for name, run in corpus_runs.items():
        result = run["result"]
        if not result.ok:
            continue
        best = result.best
        c = best.candidate
        angle_a = np.degrees(np.arccos(np.clip(c.grasp_axis @ c.normal_a, -1.0, 1.0)))
        angle_b = np.degrees(np.arccos(np.clip(-c.grasp_axis @ c.normal_b, -1.0, 1.0)))
        assert angle_a <= config.max_pair_angle_deg + 1e-9, f"{name}: {angle_a}"
        assert angle_b <= config.max_pair_angle_deg + 1e-9, f"{name}: {angle_b}"
        assert best.closure and best.mode == "soft-pinch"
        assert np.isfinite(best.sigma_min) and best.sigma_min > config.sigma_min_threshold
        checked += 1
    print(f"criterion 7: {checked} best grasps antipodal with closure")
    assert checked >= 8


def test_criterion_8_pathological_object_structured_failure(corpus_runs):
    """The thin open shell yields the structured no-candidates result."""
    result = corpus_runs["clamp_c_open"]["result"]
    print(f"criterion 8: clamp_c_open -> {result.result_code}")
    assert result.result_code == RESULT_NO_CANDIDATES
    assert result.n_regions > 0
    assert result.best is None and result.all_reports == ()
