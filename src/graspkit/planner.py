"""End-to-end planning pipeline: preprocess, segment, pair, score, rank.

The pipeline is deterministic end to end; two runs on the same input and
configuration produce identical results. Serialized plan output therefore
carries no timestamps, and stage timings live only on the in-memory result
(they are logged, never serialized).
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass

from .candidates import GraspCandidate, find_antiparallel_pairs, make_candidates
from .cloud import PointCloud, estimate_normals_curvatures, remove_statistical_outliers, voxel_downsample
from .config import PlannerConfig, load_config  # noqa: F401  callers import load_config from here
from .regions import Segmentation, segment
from .stability import GraspReport, RankedCandidates, rank_candidates

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 3
VERSION = "0.1.0"

RESULT_OK = "ok"
RESULT_SEGMENTATION_EMPTY = "segmentation-empty"
RESULT_NO_CANDIDATES = "no-candidates"


@dataclass(frozen=True)
class PlanResult:
    result_code: str
    best: GraspReport | None
    all_reports: tuple[GraspReport, ...]
    timings_ms: dict[str, float]
    config_sha256: str
    input_sha256: str
    n_points: int
    n_regions: int
    n_pairs: int

    @property
    def ok(self) -> bool:
        return self.result_code == RESULT_OK

    def to_json_dict(self) -> dict:
        # Timings are intentionally omitted: serialized results must be
        # byte-identical across repeated runs.
        return {
            "schema_version": SCHEMA_VERSION,
            "result_code": self.result_code,
            "best": self.best.to_json_dict() if self.best else None,
            "reports": [r.to_json_dict() for r in self.all_reports],
            "pipeline_metadata": {
                "version": VERSION,
                "config_sha256": self.config_sha256,
                "input_sha256": self.input_sha256,
                "n_points": self.n_points,
                "n_regions": self.n_regions,
                "n_pairs": self.n_pairs,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _hash_cloud(cloud: PointCloud) -> str:
    h = hashlib.sha256(cloud.points.tobytes())
    if cloud.normals is not None:
        h.update(cloud.normals.tobytes())
    if cloud.curvatures is not None:
        h.update(cloud.curvatures.tobytes())
    return h.hexdigest()


def preprocess(cloud: PointCloud, config: PlannerConfig) -> PointCloud:
    """Outlier filter, voxel downsample, then PCA normals and curvatures over
    ``k_neighbors`` neighbours unless the cloud carries both (a PLY with normals
    but no ``curvature`` column gets both re-estimated). The estimated cloud's
    index keeps that k-NN table, so ``segment`` reads it without a second one."""
    out = cloud
    if len(out) >= config.outlier_k + 1:
        out = remove_statistical_outliers(out, k=config.outlier_k, std_ratio=config.outlier_std_ratio)
    if config.voxel_size > 0:
        out = voxel_downsample(out, config.voxel_size)
    if (out.normals is None or out.curvatures is None) and len(out) >= config.k_neighbors:
        out = estimate_normals_curvatures(out, k=config.k_neighbors)
    return out


def plan(cloud: PointCloud, config: PlannerConfig | None = None) -> PlanResult:
    """Run the full pipeline and return ranked grasp reports.

    Structured failure codes instead of exceptions: "segmentation-empty"
    when no region survives, "no-candidates" when no antiparallel pair
    yields a feasible contact pair.
    """
    return _plan(cloud, config)[0]


def _plan(cloud: PointCloud, config: PlannerConfig | None = None) -> tuple[PlanResult, PointCloud]:
    """``plan``'s result and the preprocessed cloud it planned on, for a
    caller that goes on to evaluate grasps on that cloud."""
    config = config or PlannerConfig()
    if len(cloud) == 0:
        raise ValueError("cannot plan on an empty cloud")
    input_hash = _hash_cloud(cloud)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    prepared = preprocess(cloud, config)
    timings["preprocess"] = (time.perf_counter() - t0) * 1e3

    def finish(code: str, reports=(), n_regions=0, n_pairs=0) -> tuple[PlanResult, PointCloud]:
        ranked = tuple(reports)
        return PlanResult(
            result_code=code,
            best=ranked[0] if ranked else None,
            all_reports=ranked,
            timings_ms=timings,
            config_sha256=config.sha256(),
            input_sha256=input_hash,
            n_points=len(prepared),
            n_regions=n_regions,
            n_pairs=n_pairs,
        ), prepared

    if prepared.normals is None or prepared.curvatures is None:
        logger.warning("cloud too small to estimate attributes; nothing to segment")
        return finish(RESULT_SEGMENTATION_EMPTY)

    t0 = time.perf_counter()
    segmentation: Segmentation = segment(prepared, config)
    timings["segment"] = (time.perf_counter() - t0) * 1e3
    if len(segmentation) == 0:
        return finish(RESULT_SEGMENTATION_EMPTY)

    t0 = time.perf_counter()
    pairs = find_antiparallel_pairs(segmentation.regions, config)
    candidates: list[GraspCandidate] = []
    for pair in pairs:
        candidates.extend(make_candidates(pair, prepared, config))
    timings["candidates"] = (time.perf_counter() - t0) * 1e3
    if not candidates:
        return finish(RESULT_NO_CANDIDATES, n_regions=len(segmentation), n_pairs=len(pairs))

    t0 = time.perf_counter()
    ranked: RankedCandidates = rank_candidates(candidates, prepared, config)
    timings["rank"] = (time.perf_counter() - t0) * 1e3
    logger.debug("plan timings (ms): %s", timings)
    return finish(
        RESULT_OK,
        reports=ranked.reports,
        n_regions=len(segmentation),
        n_pairs=len(pairs),
    )
