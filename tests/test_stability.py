import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from graspkit.candidates import GraspCandidate
from graspkit.mechanics import GraspMap, build_contact_frame, build_grasp_map
from graspkit.planner import PlannerConfig, plan, preprocess
from graspkit.shapes import ShapeSpec, corpus_standard, generate
from graspkit.stability import (
    StabilityProblem,
    rank_candidates,
    solve_stability,
    stability_cost,
    stability_cost_grad,
)


def antipodal_problem(radius=0.03, mu=0.5, m=1.0, cap=None):
    a = build_contact_frame([-radius, 0, 0], [1.0, 0, 0], mu)
    b = build_contact_frame([radius, 0, 0], [-1.0, 0, 0], mu)
    gm = build_grasp_map([a, b], [0, 0, 0])
    return StabilityProblem(grasp_map=gm, mu=mu, f_ex_magnitude=m, f_normal_cap=cap)


def random_problem(seed, mu=0.5):
    """Two near-antipodal contacts with tilted normals."""
    rng = np.random.default_rng(seed)
    pa = rng.normal(size=3) * 0.03
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    pb = pa + axis * rng.uniform(0.03, 0.08)

    def tilted(direction):
        tilt = rng.normal(size=3) * 0.15
        n = direction + tilt
        return n / np.linalg.norm(n)

    a = build_contact_frame(pa, tilted(axis), mu)
    b = build_contact_frame(pb, tilted(-axis), mu)
    gm = build_grasp_map([a, b], rng.normal(size=3) * 0.01)
    return StabilityProblem(grasp_map=gm, mu=mu)


def sample_feasible(problem, rng):
    """One random force vector inside both friction cones and the norm cap."""
    f = np.empty(problem.dim)
    for c in range(problem.n_contacts):
        fz = rng.uniform(0.0, problem.f_normal_cap)
        rho = rng.uniform(0.0, problem.mu * fz)
        phi = rng.uniform(0.0, 2 * np.pi)
        fc = np.array([rho * np.cos(phi), rho * np.sin(phi), fz])
        norm = np.linalg.norm(fc)
        if norm > problem.f_normal_cap:
            fc *= problem.f_normal_cap / norm
        f[3 * c : 3 * c + 3] = fc
    return f


class TestStabilityCost:
    def test_zero_force_unit_magnitude(self):
        problem = antipodal_problem(m=1.0)
        assert stability_cost(np.zeros(6), problem) == pytest.approx(-8.0, abs=1e-12)

    def test_root_when_q_equals_m(self):
        problem = antipodal_problem(m=1.0)
        # scale a force with q > 0 so that q == m exactly
        f = np.array([0.1, 0.0, 1.0, 0.0, 0.0, 0.3])
        q = f @ (problem.grasp_map.G.T @ problem.grasp_map.G) @ f
        assert q > 0
        f_scaled = f * np.sqrt(1.0 / q)
        assert stability_cost(f_scaled, problem) == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force_double_loop(self):
        # octant i holds the three axis vectors, axis j negated when bit j of i
        # is set: octant 0 is {+X, +Y, +Z}, octant 7 is {-X, -Y, -Z}
        bases = np.array([np.diag([-1.0 if (i >> j) & 1 else 1.0 for j in range(3)]) for i in range(8)])
        rng = np.random.default_rng(31)
        for seed in range(20):
            problem = random_problem(seed)
            f = rng.normal(size=6)
            G = problem.grasp_map.G
            w = G @ f
            q = float(w @ w)
            expected = 0.0
            for i in range(8):
                prod = 1.0
                for j in range(3):
                    basis_force = problem.f_ex_magnitude * bases[i, j]
                    prod *= q - float(basis_force @ basis_force)
                expected += prod
            assert stability_cost(f, problem) == pytest.approx(expected, rel=1e-12)

    def test_reduction_identity(self):
        rng = np.random.default_rng(37)
        for seed in range(10):
            problem = random_problem(seed, mu=0.6)
            f = rng.normal(size=6)
            G = problem.grasp_map.G
            q = float(f @ (G.T @ G) @ f)
            m = problem.f_ex_magnitude**2
            closed_form = 8.0 * (q - m) ** 3
            got = stability_cost(f, problem)
            assert got == pytest.approx(closed_form, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stability_cost(np.zeros(5), antipodal_problem())


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(41)
        checked = 0
        for seed in range(10):
            problem = random_problem(seed)
            for _ in range(10):
                f = sample_feasible(problem, rng)
                grad = stability_cost_grad(f, problem)
                fd = np.empty_like(grad)
                h = 1e-6
                for i in range(len(f)):
                    e = np.zeros_like(f)
                    e[i] = h
                    fd[i] = (
                        stability_cost(f + e, problem) - stability_cost(f - e, problem)
                    ) / (2 * h)
                scale = max(np.linalg.norm(fd), 1.0)
                assert np.linalg.norm(grad - fd) / scale < 1e-5
                checked += 1
        assert checked == 100


class TestSolve:
    def test_exactly_antipodal_stays_pure_normal(self):
        problem = antipodal_problem(m=1.0)
        result = solve_stability(problem)
        assert result.converged
        # tangential components vanish
        f = result.optimal_f
        assert np.abs(f[[0, 1, 3, 4]]).max() < 1e-6
        assert result.cost == pytest.approx(-8.0, abs=1e-9)
        # 1D oracle: sweep the shared normal magnitude over the feasible range
        sweep_costs = []
        for t in np.linspace(0.0, problem.f_normal_cap, 201):
            ft = np.array([0, 0, t, 0, 0, t])
            sweep_costs.append(stability_cost(ft, problem))
        assert result.cost <= min(sweep_costs) + 1e-6

    def test_cap_to_zero_limit(self):
        problem = antipodal_problem(m=1.0, cap=1e-9)
        result = solve_stability(problem)
        assert np.abs(result.optimal_f).max() <= 1e-9 + 1e-12
        assert result.cost == pytest.approx(-8.0, abs=1e-6)

    def test_degenerate_zero_map_returns_initial_point(self):
        """On a zero grasp map every force is optimal; the result is still a
        feasible minimiser with G f = 0 and cost -8."""
        frames = (
            build_contact_frame([0, 0, 0], [0.0, 0, 1]),
            build_contact_frame([1, 0, 0], [0.0, 0, -1]),
        )
        gm = GraspMap(G=np.zeros((6, 6)), contacts=frames, object_origin=np.zeros(3))
        problem = StabilityProblem(grasp_map=gm)
        result = solve_stability(problem)
        assert result.converged
        np.testing.assert_array_equal(gm.G @ result.optimal_f, np.zeros(6))
        assert ref.constraint_violation(result.optimal_f, problem) == 0.0
        assert result.cost == -8.0

    def test_feasibility_of_converged_solutions(self):
        for seed in range(25):
            problem = random_problem(seed)
            result = solve_stability(problem)
            if result.converged:
                assert ref.constraint_violation(result.optimal_f, problem) <= 1e-6

    def test_cap_monotonicity(self):
        for seed in range(10):
            gm = random_problem(seed).grasp_map
            costs = []
            for cap in (0.5, 1.0, 2.0, 4.0):
                problem = StabilityProblem(grasp_map=gm, mu=0.5, f_normal_cap=cap)
                costs.append(solve_stability(problem).cost)
            for lo, hi in zip(costs, costs[1:]):
                assert hi <= lo + 1e-9

    def test_deterministic(self):
        problem = random_problem(7)
        a = solve_stability(problem)
        b = solve_stability(problem)
        assert a.optimal_f.tobytes() == b.optimal_f.tobytes()
        assert a.cost == b.cost
        assert a.iterations == b.iterations

    def test_beats_random_search(self):
        rng = np.random.default_rng(53)
        for seed in range(10):
            problem = random_problem(seed)
            result = solve_stability(problem)
            assert result.converged
            best = min(
                stability_cost(sample_feasible(problem, rng), problem) for _ in range(2000)
            )
            assert result.cost <= best + 1e-6


def make_candidate(pa, pb):
    pa, pb = np.asarray(pa, dtype=float), np.asarray(pb, dtype=float)
    axis = pb - pa
    width = float(np.linalg.norm(axis))
    axis = axis / width
    return GraspCandidate(
        contact_a=pa, contact_b=pb, normal_a=axis, normal_b=-axis,
        grasp_axis=axis, width=width,
    )


class TestRankCandidates:
    def test_closure_outranks_cost(self, box_cloud):
        good = make_candidate([-0.025, 0.0025, 0.0025], [0.025, 0.0025, 0.0025])
        # normals perpendicular to the axis: admissibility fails
        bad = GraspCandidate(
            contact_a=np.array([-0.025, 0.0, 0.0]),
            contact_b=np.array([0.025, 0.0, 0.0]),
            normal_a=np.array([0.0, 0.0, 1.0]),
            normal_b=np.array([0.0, 0.0, -1.0]),
            grasp_axis=np.array([1.0, 0.0, 0.0]),
            width=0.05,
        )
        ranked = rank_candidates([bad, good], box_cloud)
        assert ranked.best.candidate is good
        assert ranked.best.closure

    def test_identical_candidates_ordered_by_index(self, box_cloud):
        c = make_candidate([-0.025, 0, 0], [0.025, 0, 0])
        ranked = rank_candidates([c, c], box_cloud)
        assert [r.candidate_index for r in ranked.reports] == [0, 1]

    def test_no_closure_flag(self, box_cloud):
        bad = GraspCandidate(
            contact_a=np.array([-0.025, 0.0, 0.0]),
            contact_b=np.array([0.025, 0.0, 0.0]),
            normal_a=np.array([0.0, 0.0, 1.0]),
            normal_b=np.array([0.0, 0.0, -1.0]),
            grasp_axis=np.array([1.0, 0.0, 0.0]),
            width=0.05,
        )
        ranked = rank_candidates([bad], box_cloud)
        assert not ranked.best.closure
        assert len(ranked.reports) == 1

    def test_reports_compare_by_value(self, box_cloud):
        first, second = plan(box_cloud).all_reports, plan(box_cloud).all_reports
        assert first[0].candidate is not second[0].candidate
        assert first == second
        assert first[0] != first[1] and first[0].candidate != first[1].candidate
        moved = dataclasses.replace(first[0].candidate, contact_a=first[0].candidate.contact_a + 1e-9)
        assert dataclasses.replace(first[0], candidate=moved) != first[0]
        assert first[0].candidate != "a candidate"

    def test_box_best_axis_near_centroid(self):
        """Exhaustively rescoring all reports reproduces the module's ranking."""
        cloud = generate(ShapeSpec("box", (0.05, 0.075, 0.05), density=1.2e5))
        result = plan(cloud, PlannerConfig())
        assert result.ok
        keys = [
            (not r.closure, r.axis_com_distance, r.candidate.width, r.candidate_index)
            for r in result.all_reports
        ]
        assert keys == sorted(keys)
        best = result.best
        centroid = cloud.points.mean(axis=0)
        # distance from the centroid to the grasp axis line
        d = np.linalg.norm(
            np.cross(centroid - best.candidate.contact_a, best.candidate.grasp_axis)
        )
        assert d < 0.004


class TestClosedFormOracle:
    """The closed-form optimum is never worse than the SLSQP solver it
    replaced (``reference_loops.solve_stability_slsqp``) and is feasible
    by that solver's own constraints (``reference_loops.constraint_violation``)."""

    def test_no_worse_than_slsqp_on_random_problems(self):
        for seed in range(50):
            problem = random_problem(seed)
            assert solve_stability(problem).cost <= ref.solve_stability_slsqp(problem).cost + 1e-12

    def test_no_worse_than_slsqp_on_corpus_candidates(self):
        config = PlannerConfig()
        planned = 0
        for spec in corpus_standard().values():
            cloud = generate(spec)
            origin = preprocess(cloud, config).centroid()
            reports = plan(cloud, config).all_reports
            planned += bool(reports)
            for r in reports:
                c = r.candidate
                frames = [
                    build_contact_frame(c.contact_a, c.normal_a, config.mu),
                    build_contact_frame(c.contact_b, c.normal_b, config.mu),
                ]
                problem = StabilityProblem(grasp_map=build_grasp_map(frames, origin), mu=config.mu)
                closed = solve_stability(problem)
                assert closed.cost == -8.0  # the same optimum on every grasp, so planning skips it
                assert closed.cost <= ref.solve_stability_slsqp(problem).cost + 1e-12
        assert planned == 9

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.floats(0.01, 100.0),
        cap=st.one_of(st.none(), st.floats(1e-9, 100.0)),
        mu=st.floats(0.05, 2.0),
    )
    def test_feasible_and_no_worse_than_sampled_forces(self, seed, m, cap, mu):
        gm = random_problem(seed, mu=mu).grasp_map
        problem = StabilityProblem(grasp_map=gm, mu=mu, f_ex_magnitude=m, f_normal_cap=cap)
        result = solve_stability(problem)
        assert result.converged
        assert ref.constraint_violation(result.optimal_f, problem) == 0.0
        assert result.cost == stability_cost(result.optimal_f, problem)
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            assert result.cost <= stability_cost(sample_feasible(problem, rng), problem)
