"""Grasp ranking by force closure and geometry, and the stability cost kept as a reference.

The paper's stability cost compares the squared object-wrench magnitude
q = f^T G^T G f against the squared magnitudes of 24 pseudo disturbance
forces (three signed axis vectors per spatial octant) and sums the
per-octant products of differences. All 24 have the squared magnitude
f_ex^2, so every octant contributes (q - f_ex^2)^3 and the cost is
8 (q - f_ex^2)^3, with gradient 48 (q - f_ex^2)^2 G^T G f; this module
computes both in that closed form. The cost rises with q >= 0. The zero
force has q = 0 and lies inside every friction cone and under the norm cap,
so it is the feasible minimiser of least norm and the optimum is -8 f_ex^6
on every grasp, whatever its geometry. It therefore cannot order grasps, and
planning does not compute it. ``StabilityProblem``, ``stability_cost``, its
gradient and the closed-form ``solve_stability`` stay here as the reference
the acceptance suite's criterion 5 checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .candidates import GraspCandidate
from .cloud import PointCloud
from .config import PlannerConfig
from .mechanics import GraspMap, _closure_on_cloud

# Not called here since candidates are scored as stacks; the names stay in
# this module because perfbench/tracing.py wraps them as module attributes.
from .mechanics import build_grasp_map, force_closure  # noqa: F401


@dataclass(frozen=True)
class StabilityProblem:
    grasp_map: GraspMap
    mu: float = PlannerConfig.mu
    f_ex_magnitude: float = 1.0
    f_normal_cap: float | None = None  # defaults to 2 * f_ex_magnitude

    def __post_init__(self):
        if self.f_ex_magnitude <= 0:
            raise ValueError("f_ex_magnitude must be positive")
        cap = self.f_normal_cap if self.f_normal_cap is not None else 2.0 * self.f_ex_magnitude
        if cap <= 0:
            raise ValueError("f_normal_cap must be positive")
        object.__setattr__(self, "f_normal_cap", float(cap))

    @property
    def n_contacts(self) -> int:
        return len(self.grasp_map.contacts)

    @property
    def dim(self) -> int:
        return 3 * self.n_contacts


@dataclass(frozen=True)
class StabilityResult:
    optimal_f: np.ndarray
    cost: float
    converged: bool
    iterations: int


def _wrench_excess(f, problem: StabilityProblem) -> tuple[float, np.ndarray]:
    """(q - f_ex^2, G f) for the stacked contact forces ``f``."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (problem.dim,):
        raise ValueError(f"force vector must have length {problem.dim}, got {f.shape}")
    w = problem.grasp_map.G @ f
    return float(w @ w) - problem.f_ex_magnitude * problem.f_ex_magnitude, w


def stability_cost(f, problem: StabilityProblem) -> float:
    """8 (q - f_ex^2)^3: the sum over octants of the product over basis forces of (q - |F_ex|^2)."""
    excess, _ = _wrench_excess(f, problem)
    return 8.0 * excess**3


def stability_cost_grad(f, problem: StabilityProblem) -> np.ndarray:
    """48 (q - f_ex^2)^2 G^T G f, the gradient of stability_cost with respect to the stacked forces."""
    excess, w = _wrench_excess(f, problem)
    return 48.0 * excess**2 * (problem.grasp_map.G.T @ w)


def solve_stability(problem: StabilityProblem) -> StabilityResult:
    """The stability optimum in closed form: f = 0, the feasible minimiser of least norm.

    No feasible force beats q = 0 (module docstring), and f = 0 reaches it
    on every grasp map, degenerate ones included. No optimiser runs;
    ``iterations`` is 0.
    """
    f = np.zeros(problem.dim)
    return StabilityResult(optimal_f=f, cost=stability_cost(f, problem), converged=True, iterations=0)


@dataclass(frozen=True)
class GraspReport:
    """A scored candidate: its closure classification and its ranking distance."""

    candidate: GraspCandidate
    candidate_index: int
    closure: bool
    sigma_min: float
    axis_com_distance: float
    mode: ClassVar[str] = PlannerConfig.closure_mode  # the one closure rule, not serialized

    def to_json_dict(self) -> dict:
        return {
            "contact_a": [float(v) for v in self.candidate.contact_a],
            "contact_b": [float(v) for v in self.candidate.contact_b],
            "grasp_axis": [float(v) for v in self.candidate.grasp_axis],
            "width": float(self.candidate.width),
            "closure": self.closure,
            "sigma_min": self.sigma_min,
            "axis_com_distance": self.axis_com_distance,
        }


@dataclass(frozen=True)
class RankedCandidates:
    """Reports sorted best-first."""

    reports: tuple[GraspReport, ...]

    @property
    def best(self) -> GraspReport | None:
        return self.reports[0] if self.reports else None


def rank_candidates(candidates, cloud: PointCloud, config: PlannerConfig | None = None) -> RankedCandidates:
    """Score every candidate under ``config``'s ``mu`` and
    ``sigma_min_threshold`` (default ``PlannerConfig()``) and sort best-first.

    Sort key: closure winners first, then ascending distance between the
    grasp axis and the object centroid (the near-center preference that
    separates otherwise-tied grasps on curved objects), then width; exact
    ties keep candidate order. An all-failing batch is still returned; its
    best report then has ``closure`` False.
    """
    config = config or PlannerConfig()
    candidates = list(candidates)
    if not candidates:
        raise ValueError("rank_candidates needs at least one candidate")
    contacts = np.array([(c.contact_a, c.contact_b) for c in candidates], dtype=np.float64)
    normals = [(c.normal_a, c.normal_b) for c in candidates]
    closure, sigma_min = _closure_on_cloud(contacts, normals, cloud, config.mu, config.sigma_min_threshold)
    lever = np.cross(cloud.centroid() - contacts[:, 0], [c.grasp_axis for c in candidates])
    distance = np.sqrt(np.vecdot(lever, lever))
    reports = [
        GraspReport(
            candidate=candidates[i],
            candidate_index=int(i),
            closure=bool(closure[i]),
            sigma_min=float(sigma_min[i]),
            axis_com_distance=float(distance[i]),
        )
        for i in np.lexsort(([c.width for c in candidates], distance, ~closure))
    ]
    return RankedCandidates(reports=tuple(reports))
