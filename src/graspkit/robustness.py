"""Empirical force-closure probability under contact perturbation.

Each trial jitters both contact points with isotropic Gaussian noise, snaps
them back to the nearest cloud point, and re-runs the closure check on the
snapped points with the stored normals there. The RNG is Philox
(counter-based) keyed by (seed, trial), so the per-trial outcome vector is
reproducible and independent of execution order.

All trials are evaluated as arrays: the offsets of every trial are drawn
up front, the 2 x trials perturbed points are snapped with one
``SpatialIndex.nearest_many`` call, and the trials whose contacts stay
apart are classified by one ``stacked_force_closure`` call, from the
snapped positions and normals alone (no frame, grasp map or SVD). Each
step rounds row by row exactly as a one-trial computation does, so the
per-trial outcomes are bit-identical to evaluating the trials one at a time.

What depends only on the cloud or the spec is not recomputed per call: the
cloud's ``index``, centroid and bounding radius are memoized on the
``PointCloud`` (and live as long as it does), and ``trial_normals`` keeps
only its most recent (seed, trials, count) table, read-only, until a call
with other arguments replaces it. A second call on the same cloud, at any
sigma, does only the per-trial work; a call on a new cloud builds its tree
as before.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .candidates import GraspCandidate
from .cloud import PointCloud
from .config import PlannerConfig
from .mechanics import _closure_on_cloud

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
    threshold: float = PlannerConfig.sigma_min_threshold
    sigma_mode: str = "absolute"

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64) and an integer, got {self.seed!r}")
        if isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ValueError(f"trials must be >= 1 and an integer, got {self.trials!r}")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be finite and positive, got {self.threshold}")
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
            "rng": self.rng,
        }


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent Philox stream for one trial, derived from (seed, trial)."""
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(trial))))


# One table: every caller evaluates a single (seed, trials) at a time, and a
# table's size follows the caller's trial count (48 MB at 10**6 trials).
@lru_cache(maxsize=1)
def trial_normals(seed: int, trials: int, count: int) -> np.ndarray:
    """(trials, count) standard normals, row t equal to
    ``trial_rng(seed, t).standard_normal(count)``, as a read-only array
    shared by consecutive calls with the same arguments."""
    out = np.stack([trial_rng(seed, t).standard_normal(count) for t in range(trials)])
    out.setflags(write=False)
    return out


def robust_force_closure(
    candidate: GraspCandidate,
    cloud: PointCloud,
    spec: PerturbationSpec,
    mu: float = PlannerConfig.mu,
    mode: str = PlannerConfig.closure_mode,
) -> RobustnessReport:
    """Fraction of perturbation trials in which the grasp keeps force closure.

    Requires a cloud with stored normals: the inward normal at a snapped
    contact is the negated stored (outward) normal there. Trials where both
    contacts snap to the same point count as failures. ``mode`` names the
    closure rule; "soft-pinch" is the only one.
    """
    if mode != PlannerConfig.closure_mode:
        raise ValueError(f"unknown closure mode {mode!r}")
    if cloud.normals is None:
        raise ValueError("robust_force_closure requires cloud normals")
    sigma = spec.effective_sigma(cloud)

    # trial t perturbs contact a with draws 0-2 of its stream and b with 3-5
    contacts = np.array([candidate.contact_a, candidate.contact_b], dtype=np.float64)
    offsets = trial_normals(spec.seed, spec.trials, 6).reshape(spec.trials, 2, 3) * sigma
    snapped = cloud.index.nearest_many((contacts + offsets).reshape(-1, 3)).reshape(spec.trials, 2)
    apart = snapped[:, 0] != snapped[:, 1]  # coincident snaps are failures
    kept = snapped[apart]
    closure, _ = _closure_on_cloud(cloud.points[kept], -cloud.normals[kept], cloud, mu, spec.threshold)
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
    )
