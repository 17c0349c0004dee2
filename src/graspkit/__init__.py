"""Deterministic antipodal grasp planning for 3D point clouds."""

from .candidates import (
    GraspCandidate,
    RegionPair,
    find_antiparallel_pairs,
    make_candidates,
    overlap_region,
)
from .cloud import (
    PointCloud,
    SpatialIndex,
    estimate_normals_curvatures,
    remove_statistical_outliers,
    voxel_downsample,
)
from .io import CloudParseError, EmptyCloudError, load_cloud, save_cloud_ply
from .mechanics import (
    ContactFrame,
    GraspMap,
    build_contact_frame,
    build_grasp_map,
    force_closure,
    in_friction_cone,
)
from .planner import VERSION as __version__
from .planner import PlannerConfig, PlanResult, load_config, plan
from .regions import PlanarRegion, RegionGrowingParams, Segmentation, fit_plane_lsq, segment
from .robustness import PerturbationSpec, RobustnessReport, robust_force_closure
from .shapes import ShapeSpec, corpus_standard, generate
from .stability import GraspReport, rank_candidates
