"""Grasp scoring by constrained minimization of the octant pseudo-force cost.

The cost compares the squared object-wrench magnitude q = f^T G^T G f
against the squared magnitudes of 24 pseudo disturbance forces (three
signed axis vectors per spatial octant) and sums the per-octant products
of differences. Minimizing over friction-cone-feasible, norm-capped
contact forces gives a scalar stability score per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .candidates import GraspCandidate
from .cloud import PointCloud
from .mechanics import ContactFrame, GraspMap, stacked_force_closure, stacked_grasp_maps, stacked_rotations

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
    octant_bases: np.ndarray = field(default_factory=octant_axis_bases)
    objective: str = "scalar"  # "wrench" is an experimental cancellation form

    def __post_init__(self):
        if self.f_ex_magnitude <= 0:
            raise ValueError("f_ex_magnitude must be positive")
        cap = self.f_normal_cap if self.f_normal_cap is not None else 2.0 * self.f_ex_magnitude
        if cap <= 0:
            raise ValueError("f_normal_cap must be positive")
        object.__setattr__(self, "f_normal_cap", float(cap))
        if self.objective not in ("scalar", "wrench"):
            raise ValueError(f"unknown objective {self.objective!r}")

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
    constraint_violation: float


def stability_cost(f, problem: StabilityProblem) -> float:
    """Sum over octants of the product over basis forces of (q - |F_ex|^2)."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (problem.dim,):
        raise ValueError(f"force vector must have length {problem.dim}, got {f.shape}")
    G = problem.grasp_map.G
    if problem.objective == "wrench":
        return _wrench_cost(f, problem)
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
    if problem.objective == "wrench":
        return _wrench_cost_grad(f, problem)
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


def _external_wrenches(problem: StabilityProblem) -> np.ndarray:
    """(8, 3, 6) pseudo wrenches: forces at the object origin, zero torque."""
    scaled = problem.f_ex_magnitude * problem.octant_bases
    wrenches = np.zeros((8, 3, 6))
    wrenches[:, :, :3] = scaled
    return wrenches


def _wrench_cost(f: np.ndarray, problem: StabilityProblem) -> float:
    # Experimental reading: drive the contact wrench to cancel each pseudo
    # disturbance wrench, product-of-residuals per octant.
    w = problem.grasp_map.G @ f
    total = 0.0
    for octant in _external_wrenches(problem):
        product = 1.0
        for ex in octant:
            r = w + ex
            product *= float(r @ r)
        total += product
    return total


def _wrench_cost_grad(f: np.ndarray, problem: StabilityProblem) -> np.ndarray:
    G = problem.grasp_map.G
    w = G @ f
    grad_w = np.zeros(6)
    for octant in _external_wrenches(problem):
        residuals = [w + ex for ex in octant]
        sq = [float(r @ r) for r in residuals]
        for j in range(len(octant)):
            others = 1.0
            for l in range(len(octant)):
                if l != j:
                    others *= sq[l]
            grad_w += others * 2.0 * residuals[j]
    return G.T @ grad_w


def _constraints(problem: StabilityProblem) -> list[dict]:
    """Per-contact smoothed cone, normal non-negativity and norm cap."""
    cons = []
    mu2 = problem.mu**2
    cap2 = problem.f_normal_cap**2
    for c in range(problem.n_contacts):
        base = 3 * c

        def cone(f, base=base):
            fx, fy, fz = f[base : base + 3]
            return mu2 * fz * fz - fx * fx - fy * fy

        def cone_jac(f, base=base):
            out = np.zeros_like(f)
            fx, fy, fz = f[base : base + 3]
            out[base : base + 3] = (-2.0 * fx, -2.0 * fy, 2.0 * mu2 * fz)
            return out

        def normal(f, base=base):
            return f[base + 2]

        def normal_jac(f, base=base):
            out = np.zeros_like(f)
            out[base + 2] = 1.0
            return out

        def cap(f, base=base):
            fc = f[base : base + 3]
            return cap2 - float(fc @ fc)

        def cap_jac(f, base=base):
            out = np.zeros_like(f)
            out[base : base + 3] = -2.0 * f[base : base + 3]
            return out

        cons.append({"type": "ineq", "fun": cone, "jac": cone_jac})
        cons.append({"type": "ineq", "fun": normal, "jac": normal_jac})
        cons.append({"type": "ineq", "fun": cap, "jac": cap_jac})
    return cons


def constraint_violation(f, problem: StabilityProblem) -> float:
    """Largest violation of any feasibility constraint at ``f`` (0 when feasible)."""
    worst = 0.0
    for con in _constraints(problem):
        worst = max(worst, -min(0.0, float(con["fun"](f))))
    return worst


def default_initial_forces(problem: StabilityProblem) -> np.ndarray:
    """Pure normal force per contact at the pseudo-force magnitude (cap permitting)."""
    f0 = np.zeros(problem.dim)
    f0[2::3] = min(problem.f_ex_magnitude, problem.f_normal_cap)
    return f0


def project_into_cone(f, problem: StabilityProblem) -> np.ndarray:
    """Clamp each contact force into its friction cone and under the norm cap."""
    f = np.array(f, dtype=np.float64)
    for c in range(problem.n_contacts):
        fc = f[3 * c : 3 * c + 3]
        if fc[2] < 0:
            fc[2] = 0.0
        tangential = np.hypot(fc[0], fc[1])
        limit = problem.mu * fc[2]
        if tangential > limit:
            scale = 0.0 if tangential == 0 else limit / tangential
            fc[0] *= scale
            fc[1] *= scale
        norm = np.linalg.norm(fc)
        if norm > problem.f_normal_cap:
            fc *= problem.f_normal_cap / norm
        f[3 * c : 3 * c + 3] = fc
    return f


def solve_stability(problem: StabilityProblem, f0=None) -> StabilityResult:
    """Locally minimize the stability cost over feasible contact forces.

    Deterministic: a fixed initial point (projected into the feasible set if
    supplied), analytic gradients, SLSQP with ftol 1e-10 and at most 200
    iterations, no restarts. Non-convergence is reported on the result, not
    raised.
    """
    x0 = default_initial_forces(problem) if f0 is None else project_into_cone(f0, problem)
    res = minimize(
        stability_cost,
        x0,
        args=(problem,),
        jac=stability_cost_grad,
        method="SLSQP",
        constraints=_constraints(problem),
        options={"maxiter": 200, "ftol": 1e-10},
    )
    violation = constraint_violation(res.x, problem)
    return StabilityResult(
        optimal_f=np.asarray(res.x, dtype=np.float64),
        cost=float(res.fun),
        converged=bool(res.success) and violation <= 1e-6,
        iterations=int(res.nit),
        constraint_violation=violation,
    )


@dataclass(frozen=True)
class GraspReport:
    """A scored candidate: closure classification plus stability optimum."""

    candidate: GraspCandidate
    candidate_index: int
    closure: bool
    sigma_min: float
    stability_cost: float
    converged: bool
    forces: np.ndarray
    mode: str
    axis_com_distance: float = 0.0
    robustness_probability: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "contact_a": [float(v) for v in self.candidate.contact_a],
            "contact_b": [float(v) for v in self.candidate.contact_b],
            "grasp_axis": [float(v) for v in self.candidate.grasp_axis],
            "width": float(self.candidate.width),
            "closure": self.closure,
            "sigma_min": self.sigma_min,
            "stability_cost": self.stability_cost,
            "converged": self.converged,
            "forces": [float(v) for v in self.forces],
            "mode": self.mode,
            "axis_com_distance": self.axis_com_distance,
            "robustness_probability": self.robustness_probability,
        }


@dataclass(frozen=True)
class RankedCandidates:
    """Reports sorted best-first; ``no_closure`` flags an all-failing batch."""

    reports: tuple[GraspReport, ...]
    no_closure: bool

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def __getitem__(self, i):
        return self.reports[i]

    @property
    def best(self) -> GraspReport | None:
        return self.reports[0] if self.reports else None


def rank_candidates(
    candidates,
    cloud: PointCloud,
    mu: float = 0.5,
    sigma_min_threshold: float = 0.01,
    closure_mode: str = "soft-pinch",
    f_ex_magnitude: float = 1.0,
    f_normal_cap: float | None = None,
) -> RankedCandidates:
    """Score every candidate and sort best-first.

    Sort key: closure winners first, then ascending stability cost, then
    ascending distance between the grasp axis and the object centroid (the
    near-center preference that separates otherwise-tied grasps on curved
    objects), then width, then candidate index. An all-failing batch is
    still returned, flagged with ``no_closure``.
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
    reports = []
    for i, c in enumerate(candidates):
        frames = tuple(ContactFrame(contacts[i, j], rotations[i, j], mu) for j in (0, 1))
        problem = StabilityProblem(
            grasp_map=GraspMap(G=G[i], contacts=frames, object_origin=origin),
            mu=mu,
            f_ex_magnitude=f_ex_magnitude,
            f_normal_cap=f_normal_cap,
        )
        result = solve_stability(problem)
        reports.append(
            GraspReport(
                candidate=c,
                candidate_index=i,
                closure=bool(closure[i]),
                sigma_min=float(sigma_min[i]),
                stability_cost=result.cost,
                converged=result.converged,
                forces=result.optimal_f,
                mode=closure_mode,
                axis_com_distance=float(np.linalg.norm(np.cross(origin - c.contact_a, c.grasp_axis))),
            )
        )
    reports.sort(
        key=lambda r: (
            not r.closure,
            r.stability_cost,
            r.axis_com_distance,
            r.candidate.width,
            r.candidate_index,
        )
    )
    return RankedCandidates(
        reports=tuple(reports), no_closure=not any(r.closure for r in reports)
    )
