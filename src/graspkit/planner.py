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
import math
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .candidates import GraspCandidate, find_antiparallel_pairs, make_candidates
from .cloud import PointCloud, estimate_normals_curvatures, remove_statistical_outliers, voxel_downsample
from .regions import RegionGrowingParams, Segmentation, segment
from .stability import GraspReport, RankedCandidates, rank_candidates

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 2
VERSION = "0.1.0"
ENV_PREFIX = "GRASPKIT_"

RESULT_OK = "ok"
RESULT_SEGMENTATION_EMPTY = "segmentation-empty"
RESULT_NO_CANDIDATES = "no-candidates"


@dataclass(frozen=True)
class PlannerConfig:
    """Every pipeline tunable, loadable from a flat key=value file.

    Unknown keys are rejected at load time and each value is validated
    against its stage's invariants. ``k_neighbors`` sizes the one k-NN table
    that normal estimation and region growth share.
    """

    voxel_size: float = 0.002
    outlier_k: int = 12
    outlier_std_ratio: float = 2.0
    k_neighbors: int = 16
    angle_threshold_deg: float = 15.0
    curvature_threshold: float = 0.05
    distance_threshold: float = 0.005
    min_region_size: int = 20
    max_pair_angle_deg: float = 15.0
    max_width: float = 0.085
    candidates_per_pair: int = 5
    mu: float = 0.5
    sigma_min_threshold: float = 0.01
    closure_mode: str = "soft-pinch"

    def __post_init__(self):
        for f in fields(self):
            if type(f.default) is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.voxel_size < 0:
            raise ValueError("voxel_size must be >= 0 (0 disables downsampling)")
        if self.outlier_k < 1:
            raise ValueError("outlier_k must be >= 1")
        if self.outlier_std_ratio <= 0:
            raise ValueError("outlier_std_ratio must be positive")
        if self.max_pair_angle_deg <= 0:
            raise ValueError("max_pair_angle_deg must be positive")
        if self.max_width <= 0:
            raise ValueError("max_width must be positive")
        if self.candidates_per_pair < 1:
            raise ValueError("candidates_per_pair must be >= 1")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.sigma_min_threshold <= 0:
            raise ValueError("sigma_min_threshold must be positive")
        if self.closure_mode not in ("soft-pinch", "strict"):
            raise ValueError(f"unknown closure_mode {self.closure_mode!r}")
        # delegate the region-growing invariants, k_neighbors >= 3 among them
        self.region_params()

    def region_params(self) -> RegionGrowingParams:
        """The region-growing fields, which share their names with the config's."""
        return RegionGrowingParams(**{f.name: getattr(self, f.name) for f in fields(RegionGrowingParams)})

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def _coerce(name: str, raw: str, target_type):
    if target_type is float:
        return float(raw)
    if target_type is int:
        return int(raw)
    if target_type is str:
        return raw
    raise ValueError(f"cannot parse config key {name!r}")


def load_config(path=None, env: bool = True) -> PlannerConfig:
    """Config from a flat key=value file, with GRASPKIT_* environment overrides.

    Lines are ``key = value``; '#' starts a comment. Unknown keys raise, and
    so does a GRASPKIT_* variable that names no key.
    """
    known = {f.name: type(f.default) for f in fields(PlannerConfig)}
    values: dict = {}
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            values[key] = _coerce(key, value.strip(), known[key])
    if env:
        by_name = {ENV_PREFIX + key.upper(): key for key in known}
        for name in sorted(n for n in os.environ if n.startswith(ENV_PREFIX)):
            if name not in by_name:
                raise ValueError(f"unknown environment override {name}")
            key = by_name[name]
            values[key] = _coerce(key, os.environ[name], known[key])
    return PlannerConfig(**values)


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
    segmentation: Segmentation = segment(prepared, config.region_params())
    timings["segment"] = (time.perf_counter() - t0) * 1e3
    if len(segmentation) == 0:
        return finish(RESULT_SEGMENTATION_EMPTY)

    t0 = time.perf_counter()
    pairs = find_antiparallel_pairs(
        segmentation.regions, config.max_pair_angle_deg, config.max_width
    )
    candidates: list[GraspCandidate] = []
    for pair in pairs:
        candidates.extend(
            make_candidates(
                pair,
                prepared,
                n_per_pair=config.candidates_per_pair,
                max_width=config.max_width,
                distance_threshold=config.distance_threshold,
                min_points=config.min_region_size,
            )
        )
    timings["candidates"] = (time.perf_counter() - t0) * 1e3
    if not candidates:
        return finish(RESULT_NO_CANDIDATES, n_regions=len(segmentation), n_pairs=len(pairs))

    t0 = time.perf_counter()
    ranked: RankedCandidates = rank_candidates(
        candidates,
        prepared,
        mu=config.mu,
        sigma_min_threshold=config.sigma_min_threshold,
        closure_mode=config.closure_mode,
    )
    timings["rank"] = (time.perf_counter() - t0) * 1e3
    logger.debug("plan timings (ms): %s", timings)
    return finish(
        RESULT_OK,
        reports=ranked.reports,
        n_regions=len(segmentation),
        n_pairs=len(pairs),
    )
