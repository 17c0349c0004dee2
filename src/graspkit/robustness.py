"""Empirical force-closure probability under contact perturbation.

Each trial jitters both contact points with isotropic Gaussian noise, snaps
them back to the nearest cloud point, rebuilds the grasp map with the
stored normals at the snapped points and re-runs the closure check. The
RNG is Philox (counter-based) keyed by (seed, trial), so the per-trial
outcome vector is reproducible and independent of execution order.

All trials are evaluated as arrays: the offsets of every trial are drawn
up front, the 2 x trials perturbed points are snapped with one
``SpatialIndex.nearest_many`` call, and the frames, grasp maps and closure
tests of the trials whose contacts stay apart are built as stacks with one
SVD call. Each step rounds row by row exactly as a one-trial computation
does (same draws, same (distance, index) tie-break, same per-row products
and LAPACK call), so the per-trial outcomes are bit-identical to evaluating
the trials one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import GraspCandidate
from .cloud import PointCloud, SpatialIndex
from .mechanics import stacked_force_closure, stacked_grasp_maps, stacked_rotations

# Not called here since trials are batched; the names stay in this module
# because perfbench/tracing.py wraps them as module attributes.
from .mechanics import build_grasp_map, force_closure  # noqa: F401

RNG_ALGORITHM = "philox"


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise level, trial count, seed and closure threshold for the metric.

    ``sigma_mode`` "absolute" reads sigma in cloud length units;
    "relative" scales it by the cloud's bounding-sphere radius.
    """

    sigma: float
    trials: int = 100
    seed: int = 0
    threshold: float = 0.01
    sigma_mode: str = "absolute"

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.sigma_mode not in ("absolute", "relative"):
            raise ValueError(f"unknown sigma_mode {self.sigma_mode!r}")

    def effective_sigma(self, cloud: PointCloud) -> float:
        if self.sigma_mode == "relative":
            return self.sigma * cloud.bounding_radius()
        return self.sigma


@dataclass(frozen=True)
class RobustnessReport:
    probability: float
    per_trial: tuple[bool, ...]
    sigma: float
    effective_sigma: float
    sigma_mode: str
    trials: int
    seed: int
    threshold: float
    mode: str
    rng: str = RNG_ALGORITHM

    def to_json_dict(self) -> dict:
        return {
            "probability": self.probability,
            "per_trial": [bool(v) for v in self.per_trial],
            "sigma": self.sigma,
            "effective_sigma": self.effective_sigma,
            "sigma_mode": self.sigma_mode,
            "trials": self.trials,
            "seed": self.seed,
            "threshold": self.threshold,
            "mode": self.mode,
            "rng": self.rng,
        }


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent Philox stream for one trial, derived from (seed, trial)."""
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(trial))))


def trial_normals(seed: int, trials: int, count: int) -> np.ndarray:
    """(trials, count) standard normals, row t equal to
    ``trial_rng(seed, t).standard_normal(count)``.

    One Philox generator is re-keyed per trial through its ``state`` setter:
    a fresh generator's state (counter 0, empty buffer) with the key
    replaced by (seed, t).
    """
    bit_generator = np.random.Philox(key=(np.uint64(seed), np.uint64(0)))
    generator = np.random.Generator(bit_generator)
    fresh = bit_generator.state  # a snapshot: later draws do not change it
    out = np.empty((trials, count))
    for trial in range(trials):
        fresh["state"]["key"] = np.array([seed, trial], dtype=np.uint64)
        bit_generator.state = fresh
        generator.standard_normal(out=out[trial])
    return out


def perturb_and_snap(contact, cloud, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Nearest cloud point to contact + per-axis N(0, sigma^2) offsets.

    ``cloud`` may be a PointCloud or a prebuilt SpatialIndex; the RNG state
    advances deterministically (three draws) even when sigma is 0.
    """
    index = cloud if isinstance(cloud, SpatialIndex) else SpatialIndex(cloud)
    offset = rng.standard_normal(3) * sigma
    return index.points[index.nearest(np.asarray(contact, dtype=np.float64) + offset)]


def robust_force_closure(
    candidate: GraspCandidate,
    cloud: PointCloud,
    spec: PerturbationSpec,
    mu: float = 0.5,
    mode: str = "soft-pinch",
) -> RobustnessReport:
    """Fraction of perturbation trials in which the grasp keeps force closure.

    Requires a cloud with stored normals: the inward normal at a snapped
    contact is the negated stored (outward) normal there. Trials where both
    contacts snap to the same point count as failures.
    """
    if cloud.normals is None:
        raise ValueError("robust_force_closure requires cloud normals")
    index = SpatialIndex(cloud)
    sigma = spec.effective_sigma(cloud)
    origin = cloud.centroid()
    torque_scale = max(cloud.bounding_radius(), 1e-12)

    # trial t perturbs contact a with draws 0-2 of its stream and b with 3-5
    contacts = np.array([candidate.contact_a, candidate.contact_b], dtype=np.float64)
    offsets = trial_normals(spec.seed, spec.trials, 6).reshape(spec.trials, 2, 3) * sigma
    snapped = index.nearest_many((contacts + offsets).reshape(-1, 3)).reshape(spec.trials, 2)
    apart = snapped[:, 0] != snapped[:, 1]  # coincident snaps are failures
    points = cloud.points[snapped[apart]]
    rotations = stacked_rotations(-cloud.normals[snapped[apart]])
    G = stacked_grasp_maps(points, rotations, origin)
    closure, _ = stacked_force_closure(
        G, points, rotations[..., 2], mu, spec.threshold, mode=mode, torque_scale=torque_scale
    )
    outcomes = np.zeros(spec.trials, dtype=bool)
    outcomes[apart] = closure
    return RobustnessReport(
        probability=int(outcomes.sum()) / spec.trials,
        per_trial=tuple(outcomes.tolist()),
        sigma=spec.sigma,
        effective_sigma=sigma,
        sigma_mode=spec.sigma_mode,
        trials=spec.trials,
        seed=spec.seed,
        threshold=spec.threshold,
        mode=mode,
    )
