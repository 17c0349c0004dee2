"""Command-line front end: plan, segment, eval, benchmark, synth."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import planner as planner_mod
from .candidates import GraspCandidate
from .cloud import PointCloud, estimate_normals_curvatures
from .io import load_cloud, save_cloud_ply, save_segmentation_ply
from .planner import PlannerConfig, load_config, plan
from .regions import segment
from .robustness import PerturbationSpec, robust_force_closure
from .shapes import corpus_standard, generate, lookup

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CANDIDATES = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="graspkit", description="Antipodal grasp planning for point clouds")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("plan", help="plan grasps for a cloud file")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--output", default=None, help="JSON report path (default stdout)")

    p = sub.add_parser("segment", help="export region-labelled PLY for debugging")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--output", required=True)

    p = sub.add_parser("eval", help="robust force-closure metric for a stored grasp")
    p.add_argument("--input", required=True)
    p.add_argument("--grasp", required=True, help="JSON object with contact_a/contact_b, or a `plan` report")
    p.add_argument("--config", default=None)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-mode", choices=["absolute", "relative"], default="absolute")
    p.add_argument("--output", default=None)

    p = sub.add_parser("benchmark", help="closure-probability grid over the synthetic corpus")
    p.add_argument("--sigmas", default="0.02,0.05,0.1")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-mode", choices=["absolute", "relative"], default="relative")
    p.add_argument("--config", default=None)
    p.add_argument("--output", required=True, help="CSV path")

    p = sub.add_parser("synth", help="write a corpus object as ASCII PLY")
    p.add_argument("--name", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--list", action="store_true", help="list corpus object names")
    return parser


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        print(text)


def _cmd_plan(args) -> int:
    config = load_config(args.config)
    cloud = load_cloud(args.input)
    result = plan(cloud, config)
    _write_or_print(result.to_json(), args.output)
    logger.info("plan timings (ms): %s", result.timings_ms)
    return EXIT_OK if result.ok else EXIT_NO_CANDIDATES


def _cmd_segment(args) -> int:
    config = load_config(args.config)
    cloud = planner_mod.preprocess(load_cloud(args.input), config)
    if cloud.normals is None or cloud.curvatures is None:
        print("error: cloud too small to segment", file=sys.stderr)
        return EXIT_NO_CANDIDATES
    segmentation = segment(cloud, config)
    save_segmentation_ply(cloud, segmentation.region_ids(), args.output)
    return EXIT_OK if len(segmentation) else EXIT_NO_CANDIDATES


def _grasp_vector(data: dict, field: str) -> np.ndarray:
    """``data[field]`` as 3 finite numbers; a ValueError naming the field otherwise."""
    value = data.get(field)
    numbers = isinstance(value, list) and len(value) == 3 and all(type(v) in (int, float) for v in value)
    if not numbers or not np.isfinite(value).all():
        raise ValueError(f"grasp field {field!r} must be a list of 3 finite numbers, got {value!r}")
    return np.array(value, dtype=np.float64)


def _candidate_from_json(data) -> GraspCandidate:
    """The grasp of a ``--grasp`` JSON object: ``contact_a`` and ``contact_b``,
    and optionally ``normal_a`` and ``normal_b``, checked but unused. Its inward
    normals are ``axis`` and ``-axis``; the evaluator ignores them."""
    if not isinstance(data, dict):
        raise ValueError(f"grasp must be a JSON object with 'contact_a' and 'contact_b', got {data!r}")
    contact_a = _grasp_vector(data, "contact_a")
    contact_b = _grasp_vector(data, "contact_b")
    delta = contact_b - contact_a
    width = float(np.linalg.norm(delta))
    if width <= 0:
        raise ValueError("grasp contacts coincide")
    if "normal_a" in data or "normal_b" in data:
        _grasp_vector(data, "normal_a")
        _grasp_vector(data, "normal_b")
    axis = delta / width
    return GraspCandidate(
        contact_a=contact_a,
        contact_b=contact_b,
        normal_a=axis,
        normal_b=-axis,
        grasp_axis=axis,
        width=width,
    )


def _with_normals(cloud: PointCloud, config: PlannerConfig) -> PointCloud:
    if cloud.normals is not None:
        return cloud
    return estimate_normals_curvatures(cloud, k=config.k_neighbors)


def _cmd_eval(args) -> int:
    config = load_config(args.config)
    grasp_data = json.loads(Path(args.grasp).read_text())
    if isinstance(grasp_data, dict) and "best" in grasp_data:  # a `plan` report: evaluate its best grasp
        if grasp_data["best"] is None:
            print(f"error: the plan has no best grasp (result {grasp_data.get('result_code')})", file=sys.stderr)
            return EXIT_NO_CANDIDATES
        grasp_data = grasp_data["best"]
    spec = PerturbationSpec(
        sigma=args.sigma,
        trials=args.trials,
        seed=args.seed,
        threshold=config.sigma_min_threshold,
        sigma_mode=args.sigma_mode,
    )
    candidate = _candidate_from_json(grasp_data)  # before the cloud: a bad grasp costs no load
    cloud = _with_normals(load_cloud(args.input), config)
    report = robust_force_closure(candidate, cloud, spec, mu=config.mu)
    _write_or_print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True), args.output)
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    config = load_config(args.config)
    sigmas = tuple(float(s) for s in args.sigmas.split(",") if s.strip())
    if not sigmas:
        print("error: no sigmas given", file=sys.stderr)
        return EXIT_USAGE
    pspecs = [
        PerturbationSpec(
            sigma=sigma,
            trials=args.trials,
            seed=args.seed,
            threshold=config.sigma_min_threshold,
            sigma_mode=args.sigma_mode,
        )
        for sigma in sigmas
    ]
    rows = []
    for name, spec in corpus_standard().items():
        # every sigma evaluates on the cloud the plan was made on, so they share its index
        result, prepared = planner_mod._plan(generate(spec), config)
        if not result.ok or result.best is None:
            rows.append([name] + ["-"] * len(sigmas))
            logger.info("%s: %s", name, result.result_code)
            continue
        probs = []
        for pspec in pspecs:
            report = robust_force_closure(result.best.candidate, prepared, pspec, mu=config.mu)
            probs.append(f"{report.probability:.3f}")
        rows.append([name] + probs)
    header = ["object"] + [f"sigma_{s:g}" for s in sigmas]
    lines = [",".join(header)] + [",".join(r) for r in rows]
    Path(args.output).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.list:
        for name in corpus_standard():
            print(name)
        return EXIT_OK
    if not args.name or not args.output:
        print("error: --name and --output are required (or use --list)", file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = lookup(args.name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    save_cloud_ply(generate(spec), args.output)
    return EXIT_OK


_COMMANDS = {
    "plan": _cmd_plan,
    "segment": _cmd_segment,
    "eval": _cmd_eval,
    "benchmark": _cmd_benchmark,
    "synth": _cmd_synth,
}


def cli_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
