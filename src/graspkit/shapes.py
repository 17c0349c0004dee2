"""Deterministic surface samplers for benchmark objects.

Each generator lays a stratified grid over the shape's parameter space and
attaches exact outward normals plus a surface-variation curvature proxy, so
segmentation and grasp tests can run against analytic ground truth without
any external dataset. The corpus mirrors common tabletop object classes at
desk scale (meters); every object except the pathological open shell fits a
parallel-jaw opening of 0.085 m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud

# Neighborhood size assumed when translating principal curvatures into the
# surface-variation proxy; matches the default PlannerConfig.k_neighbors.
CURVATURE_PROXY_K = 16


@dataclass(frozen=True)
class ShapeSpec:
    """Recipe for one synthetic object.

    ``dimensions`` is kind-specific:
      box:        (lx, ly, lz)
      cylinder:   (radius, height) with optional keys via ``options``:
                  arc_deg (default 360) and caps (default True)
      sphere:     (radius,)
      ellipsoid:  (a, b, c) semi-axes
      bent_prism: (width, thickness, centerline_radius, arc_deg)
    ``jitter`` adds per-axis Gaussian position noise (seeded, 0 = exact).
    """

    kind: str
    dimensions: tuple[float, ...]
    density: float = 1.5e5
    seed: int = 0
    jitter: float = 0.0
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _GENERATORS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if any(d <= 0 for d in self.dimensions):
            raise ValueError("all dimensions must be positive")
        if self.density <= 0:
            raise ValueError("density must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


def _grid_1d(length: float, spacing: float) -> np.ndarray:
    """Cell-centered samples covering [-length/2, length/2]."""
    n = max(2, round(length / spacing))
    return (np.arange(n) + 0.5) * (length / n) - length / 2.0


def _variation_proxy(k1: float, k2: float, density: float) -> float:
    """Surface-variation curvature a PCA neighborhood would see.

    Models the k-nearest neighborhood as a uniform disc of radius
    rho = sqrt(k / (pi * density)) on a quadratic patch with principal
    curvatures k1, k2 and returns lambda_min / trace of its covariance.
    """
    rho2 = CURVATURE_PROXY_K / (math.pi * density)
    var_normal = max(rho2 * rho2 * (k1 * k1 / 64.0 + k2 * k2 / 64.0 - k1 * k2 / 96.0), 0.0)
    var_tangent = rho2 / 2.0  # two tangent directions at rho^2/4 each
    total = var_normal + var_tangent
    if total <= 0:
        return 0.0
    return min(var_normal / total, 1.0)


def _box(spec: ShapeSpec):
    lx, ly, lz = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    points, normals, curvatures = [], [], []
    # (+/-x, +/-y, +/-z) faces, fixed order for determinism
    faces = [
        (0, lx, ly, lz),
        (1, ly, lx, lz),
        (2, lz, lx, ly),
    ]
    for axis, half_len, lu, lv in faces:
        us = _grid_1d(lu, spacing)
        vs = _grid_1d(lv, spacing)
        for sign in (1.0, -1.0):
            normal = np.zeros(3)
            normal[axis] = sign
            for u in us:
                for v in vs:
                    p = np.zeros(3)
                    p[axis] = sign * half_len / 2.0
                    other = [i for i in range(3) if i != axis]
                    p[other[0]] = u
                    p[other[1]] = v
                    points.append(p)
                    normals.append(normal.copy())
                    curvatures.append(0.0)
    return points, normals, curvatures


def _cylinder(spec: ShapeSpec):
    radius, height = spec.dimensions
    arc_deg = float(spec.options.get("arc_deg", 360.0))
    caps = bool(spec.options.get("caps", True))
    spacing = 1.0 / math.sqrt(spec.density)
    arc = math.radians(arc_deg)
    points, normals, curvatures = [], [], []

    side_c = _variation_proxy(1.0 / radius, 0.0, spec.density)
    n_theta = max(3, round(radius * arc / spacing))
    thetas = (np.arange(n_theta) + 0.5) * (arc / n_theta) - arc / 2.0
    zs = _grid_1d(height, spacing)
    for theta in thetas:
        nx, ny = math.cos(theta), math.sin(theta)
        for z in zs:
            points.append(np.array([radius * nx, radius * ny, z]))
            normals.append(np.array([nx, ny, 0.0]))
            curvatures.append(side_c)

    if caps:
        for sign in (1.0, -1.0):
            normal = np.array([0.0, 0.0, sign])
            rs = _grid_1d(2.0 * radius, spacing)
            for x in rs:
                for y in rs:
                    if x * x + y * y <= radius * radius:
                        points.append(np.array([x, y, sign * height / 2.0]))
                        normals.append(normal.copy())
                        curvatures.append(0.0)
    return points, normals, curvatures


def _sphere(spec: ShapeSpec):
    (radius,) = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    c = _variation_proxy(1.0 / radius, 1.0 / radius, spec.density)
    points, normals, curvatures = [], [], []
    n_lat = max(3, round(math.pi * radius / spacing))
    for i in range(n_lat):
        phi = (i + 0.5) * math.pi / n_lat  # polar angle
        ring_r = radius * math.sin(phi)
        n_lon = max(3, round(2.0 * math.pi * ring_r / spacing))
        for j in range(n_lon):
            theta = (j + 0.5) * 2.0 * math.pi / n_lon
            n = np.array(
                [
                    math.sin(phi) * math.cos(theta),
                    math.sin(phi) * math.sin(theta),
                    math.cos(phi),
                ]
            )
            points.append(radius * n)
            normals.append(n)
            curvatures.append(c)
    return points, normals, curvatures


def _ellipsoid(spec: ShapeSpec):
    a, b, c = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    points, normals, curvatures = [], [], []
    mean_r = (a + b + c) / 3.0
    n_lat = max(3, round(math.pi * mean_r / spacing))
    for i in range(n_lat):
        phi = (i + 0.5) * math.pi / n_lat
        ring_r = mean_r * math.sin(phi)
        n_lon = max(3, round(2.0 * math.pi * ring_r / spacing))
        for j in range(n_lon):
            theta = (j + 0.5) * 2.0 * math.pi / n_lon
            p = np.array(
                [
                    a * math.sin(phi) * math.cos(theta),
                    b * math.sin(phi) * math.sin(theta),
                    c * math.cos(phi),
                ]
            )
            # gradient of (x/a)^2 + (y/b)^2 + (z/c)^2
            n = p / np.array([a * a, b * b, c * c])
            n = n / np.linalg.norm(n)
            points.append(p)
            normals.append(n)
            k1, k2 = _ellipsoid_principal_curvatures(p, a, b, c)
            curvatures.append(_variation_proxy(k1, k2, spec.density))
    return points, normals, curvatures


def _ellipsoid_principal_curvatures(p: np.ndarray, a: float, b: float, c: float):
    """Principal curvatures from the Gaussian/mean curvature of the quadric."""
    x, y, z = p
    s = x * x / a**4 + y * y / b**4 + z * z / c**4
    t = x * x / a**6 + y * y / b**6 + z * z / c**6
    trace = 1.0 / a**2 + 1.0 / b**2 + 1.0 / c**2
    gauss = 1.0 / ((a * b * c) ** 2 * s * s)
    mean = abs(t - s * trace) / (2.0 * s**1.5)
    disc = max(mean * mean - gauss, 0.0)
    root = math.sqrt(disc)
    return mean + root, max(mean - root, 0.0)


def _bent_prism(spec: ShapeSpec):
    width, thickness, center_r, arc_deg = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    arc = math.radians(arc_deg)
    points, normals, curvatures = [], [], []

    r_out = center_r + width / 2.0
    r_in = center_r - width / 2.0
    if r_in <= 0:
        raise ValueError("bent prism centerline radius must exceed half the width")

    def arc_thetas(radius_at):
        n = max(3, round(radius_at * arc / spacing))
        return (np.arange(n) + 0.5) * (arc / n) - arc / 2.0

    # top and bottom flat faces (normals +/-Z): annular band between r_in, r_out
    rs = _grid_1d(width, spacing) + center_r
    for sign in (1.0, -1.0):
        for r in rs:
            for theta in arc_thetas(r):
                points.append(np.array([r * math.cos(theta), r * math.sin(theta), sign * thickness / 2.0]))
                normals.append(np.array([0.0, 0.0, sign]))
                curvatures.append(0.0)
    # outer and inner curved walls (normals +/- radial)
    zs = _grid_1d(thickness, spacing)
    for radius, sign in ((r_out, 1.0), (r_in, -1.0)):
        c = _variation_proxy(1.0 / radius, 0.0, spec.density)
        for theta in arc_thetas(radius):
            nx, ny = math.cos(theta), math.sin(theta)
            for z in zs:
                points.append(np.array([radius * nx, radius * ny, z]))
                normals.append(np.array([sign * nx, sign * ny, 0.0]))
                curvatures.append(c)
    # end caps (normals along the tangent at the arc ends)
    for end in (-arc / 2.0, arc / 2.0):
        tangent = np.array([-math.sin(end), math.cos(end), 0.0])
        if end < 0:
            tangent = -tangent
        for r in rs:
            for z in zs:
                points.append(np.array([r * math.cos(end), r * math.sin(end), z]))
                normals.append(tangent.copy())
                curvatures.append(0.0)
    return points, normals, curvatures


_GENERATORS = {
    "box": _box,
    "cylinder": _cylinder,
    "sphere": _sphere,
    "ellipsoid": _ellipsoid,
    "bent_prism": _bent_prism,
}


def generate(spec: ShapeSpec) -> PointCloud:
    """Sampled surface of ``spec`` with analytic normals and curvature proxy."""
    points, normals, curvatures = _GENERATORS[spec.kind](spec)
    points = np.array(points)
    normals = np.array(normals)
    curvatures = np.clip(np.array(curvatures), 0.0, 1.0)
    if spec.jitter > 0:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.seed)))
        points = points + rng.standard_normal(points.shape) * spec.jitter
    return PointCloud(points=points, normals=normals, curvatures=curvatures)


def corpus_standard() -> dict[str, ShapeSpec]:
    """Named benchmark objects mirroring common tabletop grasping classes.

    Dimensions are desk-scale meters. ``cylinder_master_chef`` is scaled so
    its diameter fits the default 0.085 m gripper opening. ``clamp_c_open``
    is the pathological case: a thin open shell whose opposed patches are
    all wider apart than the gripper opening, so planning finds no
    candidates on it.
    """
    return {
        "box_foam_brick": ShapeSpec("box", (0.05, 0.075, 0.05), density=1.2e5),
        "box_cracker": ShapeSpec("box", (0.06, 0.158, 0.21), density=4.0e4),
        "box_gelatin": ShapeSpec("box", (0.073, 0.085, 0.028), density=1.2e5),
        "cylinder_chips_can": ShapeSpec("cylinder", (0.0375, 0.23), density=6.0e4),
        "cylinder_soup_can": ShapeSpec("cylinder", (0.033, 0.101), density=1.2e5),
        "cylinder_master_chef": ShapeSpec("cylinder", (0.040, 0.14), density=9.0e4),
        "sphere_tennis_ball": ShapeSpec("sphere", (0.0335,), density=3.5e5),
        "ellipsoid_pear": ShapeSpec("ellipsoid", (0.033, 0.033, 0.05), density=1.5e5),
        "bent_prism_banana": ShapeSpec(
            "bent_prism", (0.025, 0.03, 0.06, 120.0), density=1.5e5
        ),
        "clamp_c_open": ShapeSpec(
            "cylinder", (0.07, 0.05), density=1.5e5, options={"arc_deg": 270.0, "caps": False}
        ),
    }


def lookup(name: str) -> ShapeSpec:
    registry = corpus_standard()
    if name not in registry:
        raise KeyError(f"unknown corpus object {name!r}; known: {sorted(registry)}")
    return registry[name]
