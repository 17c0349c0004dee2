"""Inputs, operations and output checks of the three benchmark workloads.

corpus  plan() on the 10 corpus_standard() clouds, each in a rigid pose the
        seed picks (see ``pose``; seed 0 is the identity pose the acceptance
        suite uses).
        Analytic normals and curvatures, so normal estimation is skipped.
scan    load_cloud() + plan() on the same 10 shapes re-sampled as raw scans:
        3x the corpus density, points only, seeded 0.3 mm Gaussian jitter,
        written as ASCII PLY (even objects) or XYZ (odd objects).
robust  robust_force_closure() on the planned best grasp of each of the 9
        plannable identity-pose corpus objects at sigma 0.02, 0.05 and 0.1
        (relative); the Philox seed is the workload seed.

Every op is looked up through its module attribute at call time, so the
tracer's wrappers apply when they are installed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from graspkit import io, planner, robustness, shapes
from graspkit.cloud import PointCloud
from graspkit.planner import RESULT_NO_CANDIDATES, RESULT_OK, PlannerConfig

WORKLOADS = ("corpus", "scan", "robust")
CONFIG = PlannerConfig()
EXPECTED_CODES = {"clamp_c_open": RESULT_NO_CANDIDATES}  # every other object: RESULT_OK
SCAN_DENSITY_FACTOR = 3.0
SCAN_JITTER = 3e-4
POSE_MAX_VOXELS = 25  # shifts up to 5 cm
ROBUST_SIGMAS = (0.02, 0.05, 0.1)
TRIALS = 100
# closure_prob_mean on the plan workloads: fixed sigma, trial count and seed.
QUALITY_SIGMA = 0.02
QUALITY_SEED = 0


@dataclass(frozen=True)
class Op:
    """One input of a workload and the call that processes it.

    ``run`` returns (serialized output, failure reason or None, raw result).
    """

    key: str
    run: Callable[[], tuple[str, str | None, object]]


@dataclass(frozen=True)
class Inputs:
    ops: tuple[Op, ...]
    # plan workloads: key -> cloud with analytic normals that closure_prob_mean is evaluated on
    eval_clouds: dict[str, PointCloud]
    fingerprint: str  # digest of the generated inputs, to check set-up is repeatable


def spec_for(sigma: float, seed: int, trials: int = TRIALS) -> robustness.PerturbationSpec:
    return robustness.PerturbationSpec(
        sigma=sigma, trials=trials, seed=seed,
        threshold=CONFIG.sigma_min_threshold, sigma_mode="relative",
    )


def _cube_rotations() -> np.ndarray:
    """The 24 proper rotations that map the coordinate axes onto themselves."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if np.linalg.det(m) > 0:
                mats.append(m)
    return np.array(mats)


CUBE_ROTATIONS = _cube_rotations()


def pose(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Rigid pose of corpus object ``index``; seed 0 is the identity.

    The rotation is one of the 24 that keep the coordinate axes and the shift
    is a whole number of voxels, so the voxel grid maps onto itself and a pose
    changes the bytes of the input but not the amount of work. An arbitrary
    rotation changes the work per object by up to 2.3x (tennis ball), which
    would make runs with different seeds incomparable.
    """
    if seed == 0:
        return np.eye(3), np.zeros(3)
    rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(index))))
    rotation = CUBE_ROTATIONS[rng.integers(len(CUBE_ROTATIONS))]
    return rotation, rng.integers(-POSE_MAX_VOXELS, POSE_MAX_VOXELS + 1, 3) * CONFIG.voxel_size


def posed(cloud: PointCloud, rotation: np.ndarray, shift: np.ndarray) -> PointCloud:
    normals = cloud.normals @ rotation.T
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points @ rotation.T + shift, normals, cloud.curvatures)


def plan_failure(result, expected: str) -> str | None:
    """Why a plan result is wrong, or None: result code and criterion-7 invariants."""
    if result.result_code != expected:
        return f"result code {result.result_code!r}, expected {expected!r}"
    if expected != RESULT_OK:
        return None if result.best is None else "best grasp on a failed plan"
    best = result.best
    c = best.candidate
    if not best.closure:
        return "best grasp has no force closure"
    for label, cos in (("a", c.grasp_axis @ c.normal_a), ("b", -c.grasp_axis @ c.normal_b)):
        angle = math.degrees(math.acos(min(1.0, max(-1.0, float(cos)))))
        if angle > CONFIG.max_pair_angle_deg + 1e-9:
            return f"contact {label} normal {angle:.3f} deg off the grasp axis"
    if not 0.0 < c.width <= CONFIG.max_width:
        return f"width {c.width} outside (0, {CONFIG.max_width}]"
    return None


def _plan_op(key: str, load: Callable[[], PointCloud], expected: str) -> Op:
    def run():
        result = planner.plan(load(), CONFIG)
        return result.to_json(), plan_failure(result, expected), result
    return Op(key, run)


def _robust_op(key: str, candidate, cloud: PointCloud, spec) -> Op:
    def run():
        report = robustness.robust_force_closure(
            candidate, cloud, spec, mu=CONFIG.mu, mode=CONFIG.closure_mode)
        reason = None
        if len(report.per_trial) != spec.trials or report.probability != sum(report.per_trial) / spec.trials:
            reason = "probability does not match the per-trial outcomes"
        return json.dumps(report.to_json_dict(), sort_keys=True), reason, report
    return Op(key, run)


def _fingerprint(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def build(workload: str, seed: int, workdir: Path, objects: tuple[str, ...] | None = None,
          expected: dict[str, str] | None = None, trials: int = TRIALS) -> Inputs:
    """Generate the inputs of ``workload`` from ``seed`` (scan files go to ``workdir``).

    ``objects`` restricts the corpus to those names, ``expected`` overrides
    expected result codes and ``trials`` sets the robust trial count; the
    defaults are the benchmark, the rest exists for the self-test.
    """
    codes = {**EXPECTED_CODES, **(expected or {})}
    # (index in the full corpus, name, spec): an object keeps its pose and file format when filtered
    corpus = [(i, n, s) for i, (n, s) in enumerate(shapes.corpus_standard().items())
              if objects is None or n in objects]
    ops, eval_clouds, arrays = [], {}, []
    if workload == "corpus":
        for i, name, spec in corpus:
            cloud = posed(shapes.generate(spec), *pose(seed, i))
            ops.append(_plan_op(name, lambda c=cloud: c, codes.get(name, RESULT_OK)))
            eval_clouds[name] = cloud
            arrays += [cloud.points, cloud.normals]
    elif workload == "scan":
        for i, name, spec in corpus:
            raw = shapes.generate(dataclasses.replace(
                spec, density=spec.density * SCAN_DENSITY_FACTOR, jitter=SCAN_JITTER,
                seed=seed * 64 + i))
            path = workdir / f"{name}.{'ply' if i % 2 == 0 else 'xyz'}"
            if path.suffix == ".ply":
                io.save_cloud_ply(PointCloud(raw.points), path)
            else:
                path.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in raw.points.tolist()))
            ops.append(_plan_op(name, lambda p=path: io.load_cloud(p), codes.get(name, RESULT_OK)))
            eval_clouds[name] = shapes.generate(spec)
            arrays.append(raw.points)
    elif workload == "robust":
        for _, name, spec in corpus:
            cloud = shapes.generate(spec)
            result = planner.plan(cloud, CONFIG)
            if result.best is None:
                continue
            for sigma in ROBUST_SIGMAS:
                ops.append(_robust_op(f"{name}@{sigma:g}", result.best.candidate, cloud, spec_for(sigma, seed, trials)))
            arrays += [result.best.candidate.contact_a, result.best.candidate.contact_b]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if not ops:
        raise ValueError(f"workload {workload!r} has no ops for objects {objects}")
    return Inputs(tuple(ops), eval_clouds, _fingerprint(arrays))
