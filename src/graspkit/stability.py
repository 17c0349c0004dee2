"""Grasp ranking by force closure and geometry, and the stability cost kept as a reference.

The paper's stability cost compares the squared object-wrench magnitude
q = f^T G^T G f against the squared magnitudes of 24 pseudo disturbance
forces (three signed axis vectors per spatial octant) and sums the
per-octant products of differences. All 24 have the squared magnitude
f_ex^2, so the cost is 8 (q - f_ex^2)^3, which rises with q >= 0. The zero
force has q = 0 and lies inside every friction cone and under the norm cap,
so it is the feasible minimiser of least norm and the optimum is -8 f_ex^6
on every grasp, whatever its geometry. It therefore cannot order grasps, and
planning does not compute it. ``StabilityProblem``, ``stability_cost``, its
gradient, ``constraint_violation`` and the closed-form ``solve_stability``
stay here as the reference the acceptance suite's criterion 5 checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import GraspCandidate
from .cloud import PointCloud
from .mechanics import GraspMap, stacked_force_closure, stacked_grasp_maps, stacked_rotations

# Not called here since candidates are scored as stacks; the names stay in
# this module because perfbench/tracing.py wraps them as module attributes.
from .mechanics import build_grasp_map, force_closure  # noqa: F401


def octant_axis_bases() -> np.ndarray:
    """(8, 3, 3) signed unit axis vectors: octant 0 is {+X,+Y,+Z}, 7 is {-X,-Y,-Z}."""
    bases = np.empty((8, 3, 3))
    for i in range(8):
        signs = np.array([-1.0 if (i >> bit) & 1 else 1.0 for bit in range(3)])
        bases[i] = np.diag(signs)
    return bases


@dataclass(frozen=True)
class StabilityProblem:
    grasp_map: GraspMap
    mu: float = 0.5
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
    def octant_bases(self) -> np.ndarray:
        """(8, 3, 3) octant axis bases; fixed, because the closed-form optimum
        relies on all 24 pseudo forces having the same magnitude."""
        return octant_axis_bases()

    @property
    def n_contacts(self) -> int:
        return len(self.grasp_map.contacts)

    @property
    def dim(self) -> int:
        return 3 * self.n_contacts

    def pseudo_force_sq_magnitudes(self) -> np.ndarray:
        """(8, 3) squared magnitudes of the scaled octant basis forces."""
        scaled = self.f_ex_magnitude * self.octant_bases
        return np.einsum("ijk,ijk->ij", scaled, scaled)


@dataclass(frozen=True)
class StabilityResult:
    optimal_f: np.ndarray
    cost: float
    converged: bool
    iterations: int


def stability_cost(f, problem: StabilityProblem) -> float:
    """Sum over octants of the product over basis forces of (q - |F_ex|^2)."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (problem.dim,):
        raise ValueError(f"force vector must have length {problem.dim}, got {f.shape}")
    G = problem.grasp_map.G
    w = G @ f
    q = float(w @ w)
    m = problem.pseudo_force_sq_magnitudes()
    total = 0.0
    for i in range(m.shape[0]):
        product = 1.0
        for j in range(m.shape[1]):
            product *= q - m[i, j]
        total += product
    return total


def stability_cost_grad(f, problem: StabilityProblem) -> np.ndarray:
    """Analytic gradient of stability_cost with respect to the stacked forces."""
    f = np.asarray(f, dtype=np.float64)
    G = problem.grasp_map.G
    w = G @ f
    q = float(w @ w)
    m = problem.pseudo_force_sq_magnitudes()
    dcost_dq = 0.0
    for i in range(m.shape[0]):
        factors = q - m[i]
        for j in range(m.shape[1]):
            others = 1.0
            for l in range(m.shape[1]):
                if l != j:
                    others *= factors[l]
            dcost_dq += others
    return dcost_dq * 2.0 * (G.T @ w)


def constraint_violation(f, problem: StabilityProblem) -> float:
    """Largest violation at ``f`` of any contact's friction cone (mu^2 fz^2 >= fx^2 + fy^2),
    normal non-negativity or norm cap (0 when feasible)."""
    fc = np.asarray(f, dtype=np.float64).reshape(-1, 3)
    fx, fy, fz = fc.T
    cone = problem.mu**2 * fz * fz - fx * fx - fy * fy
    cap = problem.f_normal_cap**2 - np.vecdot(fc, fc)
    return float(max(0.0, -np.concatenate([cone, fz, cap]).min()))


def solve_stability(problem: StabilityProblem) -> StabilityResult:
    """The stability optimum in closed form: f = 0, the feasible minimiser of least norm.

    The cost is 8 (q - f_ex^2)^3 with q = |G f|^2 >= 0 (module docstring), so
    no feasible force beats q = 0, and f = 0 reaches it on every grasp map,
    degenerate ones included. No optimiser runs; ``iterations`` is 0.
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
    mode: str
    axis_com_distance: float

    def to_json_dict(self) -> dict:
        return {
            "contact_a": [float(v) for v in self.candidate.contact_a],
            "contact_b": [float(v) for v in self.candidate.contact_b],
            "grasp_axis": [float(v) for v in self.candidate.grasp_axis],
            "width": float(self.candidate.width),
            "closure": self.closure,
            "sigma_min": self.sigma_min,
            "mode": self.mode,
            "axis_com_distance": self.axis_com_distance,
        }


@dataclass(frozen=True)
class RankedCandidates:
    """Reports sorted best-first."""

    reports: tuple[GraspReport, ...]

    @property
    def best(self) -> GraspReport | None:
        return self.reports[0] if self.reports else None


def rank_candidates(
    candidates,
    cloud: PointCloud,
    mu: float = 0.5,
    sigma_min_threshold: float = 0.01,
    closure_mode: str = "soft-pinch",
) -> RankedCandidates:
    """Score every candidate and sort best-first.

    Sort key: closure winners first, then ascending distance between the
    grasp axis and the object centroid (the near-center preference that
    separates otherwise-tied grasps on curved objects), then width, then
    candidate index. An all-failing batch is still returned; its best
    report then has ``closure`` False.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("rank_candidates needs at least one candidate")
    origin = cloud.centroid()
    scale = max(cloud.bounding_radius(), 1e-12)
    contacts = np.array([(c.contact_a, c.contact_b) for c in candidates], dtype=np.float64)
    rotations = stacked_rotations([(c.normal_a, c.normal_b) for c in candidates])
    G = stacked_grasp_maps(contacts, rotations, origin)
    closure, sigma_min = stacked_force_closure(
        G, contacts, rotations[..., 2], mu, sigma_min_threshold, mode=closure_mode, torque_scale=scale
    )
    reports = [
        GraspReport(
            candidate=c,
            candidate_index=i,
            closure=bool(closure[i]),
            sigma_min=float(sigma_min[i]),
            mode=closure_mode,
            axis_com_distance=float(np.linalg.norm(np.cross(origin - c.contact_a, c.grasp_axis))),
        )
        for i, c in enumerate(candidates)
    ]
    reports.sort(key=lambda r: (not r.closure, r.axis_com_distance, r.candidate.width, r.candidate_index))
    return RankedCandidates(reports=tuple(reports))
