"""Deterministic surface samplers for benchmark objects.

Each generator lays a stratified grid over the shape's parameter space and
attaches exact outward normals plus a surface-variation curvature proxy, so
segmentation and grasp tests can run against analytic ground truth without
any external dataset. The corpus mirrors common tabletop object classes at
desk scale (meters); every object except the pathological open shell fits a
parallel-jaw opening of 0.085 m.

The samplers are array expressions over their parameter grids, one helper
per parametrisation: cell-centred lines (``_grid_1d``), arc angles
(``_arc_angles``) and latitude rings (``_latitude_rings``, shared by the
sphere and the ellipsoid). ``np.meshgrid(..., indexing="ij")`` keeps the
point order of nested loops over those grids, and every array operation
rounds as its scalar form does, so clouds are bit-identical to per-point
sampling. The one exception is ``s ** 1.5`` in the ellipsoid curvatures:
numpy's float64 ``power`` is SIMD-dispatched and not bit-equal to libm
``pow``, so that step raises Python floats one at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .config import PlannerConfig

# Neighborhood size assumed when translating principal curvatures into the
# surface-variation proxy: the k of the planner's default normal estimation.
CURVATURE_PROXY_K = PlannerConfig.k_neighbors

# names of each kind's ``ShapeSpec.dimensions``, in order
_DIMENSIONS = {
    "box": ("lx", "ly", "lz"),
    "cylinder": ("radius", "height"),
    "sphere": ("radius",),
    "ellipsoid": ("a", "b", "c"),
    "bent_prism": ("width", "thickness", "centerline_radius", "arc_deg"),
}


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
    Lengths, density and jitter must be finite, arcs lie in (0, 360] degrees
    and a bent prism's centerline radius exceeds half its width. ``seed`` is
    an integer in [0, 2**64) and ``caps`` a bool.
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
        names = _DIMENSIONS[self.kind]
        if len(self.dimensions) != len(names):
            raise ValueError(
                f"{self.kind} dimensions are ({', '.join(names)}), got {len(self.dimensions)} values"
            )
        if not all(0 < d < math.inf for d in self.dimensions):
            raise ValueError("all dimensions must be positive and finite")
        if not 0 < self.density < math.inf:
            raise ValueError("density must be positive and finite")
        if not 0 <= self.jitter < math.inf:
            raise ValueError("jitter must be finite and >= 0")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64) and an integer, got {self.seed!r}")
        unknown = set(self.options) - ({"arc_deg", "caps"} if self.kind == "cylinder" else set())
        if unknown:
            raise ValueError(f"unknown {self.kind} options {sorted(unknown)}")
        if not isinstance(self.options.get("caps", True), bool):
            raise ValueError(f"caps must be True or False, got {self.options['caps']!r}")
        arc_deg = self.dimensions[3] if self.kind == "bent_prism" else self.options.get("arc_deg", 360.0)
        if not 0 < arc_deg <= 360:
            raise ValueError(f"arc_deg must be in (0, 360], got {arc_deg}")
        if self.kind == "bent_prism" and self.dimensions[2] - self.dimensions[0] / 2.0 <= 0:
            raise ValueError("bent prism centerline_radius must exceed half the width")


def _grid_1d(length: float, spacing: float) -> np.ndarray:
    """Cell-centered samples covering [-length/2, length/2]."""
    n = max(2, round(length / spacing))
    return (np.arange(n) + 0.5) * (length / n) - length / 2.0


def _arc_angles(radius: float, arc: float, spacing: float) -> np.ndarray:
    """Cell-centered angles covering [-arc/2, arc/2] (radians) at ``spacing``
    along a circle of ``radius``."""
    n = max(3, round(radius * arc / spacing))
    return (np.arange(n) + 0.5) * (arc / n) - arc / 2.0


def _latitude_rings(radius: float, spacing: float):
    """sin and cos of the polar angle and cos and sin of the azimuth of every
    point of the latitude-ring grid on a sphere of ``radius``: cell-centered
    rings, each with as many cell-centered azimuths as its circumference
    holds at ``spacing``."""
    n_lat = max(3, round(math.pi * radius / spacing))
    rings = []
    for i in range(n_lat):
        phi = (i + 0.5) * math.pi / n_lat  # polar angle
        ring_r = radius * math.sin(phi)
        n_lon = max(3, round(2.0 * math.pi * ring_r / spacing))
        theta = (np.arange(n_lon) + 0.5) * 2.0 * math.pi / n_lon
        rings.append((np.full(n_lon, math.sin(phi)), np.full(n_lon, math.cos(phi)), theta))
    sin_phi, cos_phi, theta = map(np.concatenate, zip(*rings))
    return sin_phi, cos_phi, np.cos(theta), np.sin(theta)


def _patch(x, y, z, normal, curvature=0.0):
    """(points, normals, curvatures) of one sampled patch; ``x``, ``y``, ``z``,
    the three ``normal`` components and ``curvature`` are grids of one shape
    or constants, flattened in C order."""
    columns = [np.ravel(a) for a in np.broadcast_arrays(x, y, z, *normal, curvature)]
    return np.stack(columns[:3], axis=1), np.stack(columns[3:6], axis=1), columns[6]


def _variation_proxy(k1, k2, density: float):
    """Surface-variation curvature a PCA neighborhood would see.

    Models the k-nearest neighborhood as a uniform disc of radius
    rho = sqrt(k / (pi * density)) on a quadratic patch with principal
    curvatures k1, k2 and returns lambda_min / trace of its covariance, a
    ratio in [0, 1) because the tangent variance is positive.
    """
    rho2 = CURVATURE_PROXY_K / (math.pi * density)
    var_normal = np.maximum(rho2 * rho2 * (k1 * k1 / 64.0 + k2 * k2 / 64.0 - k1 * k2 / 96.0), 0.0)
    var_tangent = rho2 / 2.0  # two tangent directions at rho^2/4 each
    return var_normal / (var_normal + var_tangent)


def _box(spec: ShapeSpec):
    lx, ly, lz = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    patches = []
    # (+/-x, +/-y, +/-z) faces, fixed order for determinism
    for axis, length, lu, lv in ((0, lx, ly, lz), (1, ly, lx, lz), (2, lz, lx, ly)):
        u, v = np.meshgrid(_grid_1d(lu, spacing), _grid_1d(lv, spacing), indexing="ij")
        for sign in (1.0, -1.0):
            coords, normal = [u, v], [0.0, 0.0]
            coords.insert(axis, sign * length / 2.0)
            normal.insert(axis, sign)
            patches.append(_patch(*coords, normal))
    return patches


def _cylinder(spec: ShapeSpec):
    radius, height = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    arc = math.radians(spec.options.get("arc_deg", 360.0))
    theta, z = np.meshgrid(_arc_angles(radius, arc, spacing), _grid_1d(height, spacing), indexing="ij")
    nx, ny = np.cos(theta), np.sin(theta)
    side_c = _variation_proxy(1.0 / radius, 0.0, spec.density)
    patches = [_patch(radius * nx, radius * ny, z, (nx, ny, 0.0), side_c)]
    if spec.options.get("caps", True):
        rs = _grid_1d(2.0 * radius, spacing)
        x, y = np.meshgrid(rs, rs, indexing="ij")
        disc = x * x + y * y <= radius * radius
        for sign in (1.0, -1.0):
            patches.append(_patch(x[disc], y[disc], sign * height / 2.0, (0.0, 0.0, sign)))
    return patches


def _sphere(spec: ShapeSpec):
    (radius,) = spec.dimensions
    sin_phi, cos_phi, cos_theta, sin_theta = _latitude_rings(radius, 1.0 / math.sqrt(spec.density))
    n = (sin_phi * cos_theta, sin_phi * sin_theta, cos_phi)
    c = _variation_proxy(1.0 / radius, 1.0 / radius, spec.density)
    return [_patch(radius * n[0], radius * n[1], radius * n[2], n, c)]


def _ellipsoid(spec: ShapeSpec):
    a, b, c = spec.dimensions
    sin_phi, cos_phi, cos_theta, sin_theta = _latitude_rings((a + b + c) / 3.0, 1.0 / math.sqrt(spec.density))
    p = np.stack([a * sin_phi * cos_theta, b * sin_phi * sin_theta, c * cos_phi], axis=1)
    # gradient of (x/a)^2 + (y/b)^2 + (z/c)^2; vecdot rounds as the per-row norm did
    n = p / np.array([a * a, b * b, c * c])
    n = n / np.sqrt(np.vecdot(n, n))[:, np.newaxis]
    k1, k2 = _ellipsoid_principal_curvatures(p, a, b, c)
    return [(p, n, _variation_proxy(k1, k2, spec.density))]


def _ellipsoid_principal_curvatures(p: np.ndarray, a: float, b: float, c: float):
    """Principal curvatures from the Gaussian/mean curvature of the quadric."""
    x, y, z = p.T
    s = x * x / a**4 + y * y / b**4 + z * z / c**4
    t = x * x / a**6 + y * y / b**6 + z * z / c**6
    trace = 1.0 / a**2 + 1.0 / b**2 + 1.0 / c**2
    gauss = 1.0 / ((a * b * c) ** 2 * s * s)
    # libm pow per element: numpy's SIMD float64 power rounds differently
    s_15 = (s.astype(object) ** 1.5).astype(np.float64)
    mean = np.abs(t - s * trace) / (2.0 * s_15)
    root = np.sqrt(np.maximum(mean * mean - gauss, 0.0))
    return mean + root, np.maximum(mean - root, 0.0)


def _bent_prism(spec: ShapeSpec):
    width, thickness, center_r, arc_deg = spec.dimensions
    spacing = 1.0 / math.sqrt(spec.density)
    arc = math.radians(arc_deg)

    # top and bottom flat faces (normals +/-Z): one arc per radius of the
    # annular band between the walls
    rs = _grid_1d(width, spacing) + center_r
    thetas = [_arc_angles(r, arc, spacing) for r in rs]
    r = np.repeat(rs, [len(t) for t in thetas])
    theta = np.concatenate(thetas)
    x, y = r * np.cos(theta), r * np.sin(theta)
    patches = [_patch(x, y, sign * thickness / 2.0, (0.0, 0.0, sign)) for sign in (1.0, -1.0)]
    # outer and inner curved walls (normals +/- radial)
    zs = _grid_1d(thickness, spacing)
    for radius, sign in ((center_r + width / 2.0, 1.0), (center_r - width / 2.0, -1.0)):
        theta, z = np.meshgrid(_arc_angles(radius, arc, spacing), zs, indexing="ij")
        nx, ny = np.cos(theta), np.sin(theta)
        c = _variation_proxy(1.0 / radius, 0.0, spec.density)
        patches.append(_patch(radius * nx, radius * ny, z, (sign * nx, sign * ny, 0.0), c))
    # end caps (normals along the outward tangent at the arc ends)
    r, z = np.meshgrid(rs, zs, indexing="ij")
    for end in (-arc / 2.0, arc / 2.0):
        tangent = np.sign(end) * np.array([-math.sin(end), math.cos(end), 0.0])
        patches.append(_patch(r * math.cos(end), r * math.sin(end), z, tangent))
    return patches


_GENERATORS = {
    "box": _box,
    "cylinder": _cylinder,
    "sphere": _sphere,
    "ellipsoid": _ellipsoid,
    "bent_prism": _bent_prism,
}


def generate(spec: ShapeSpec) -> PointCloud:
    """Sampled surface of ``spec`` with analytic normals and curvature proxy."""
    points, normals, curvatures = map(np.concatenate, zip(*_GENERATORS[spec.kind](spec)))
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
