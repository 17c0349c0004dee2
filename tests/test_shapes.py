import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from graspkit.cli import cli_main
from graspkit.cloud import PointCloud, estimate_normals_curvatures
from graspkit.shapes import _DIMENSIONS, ShapeSpec, corpus_standard, generate, lookup

GOLDEN = Path(__file__).parent / "golden" / "shapes_sha256.json"


def scan_specs() -> dict[str, ShapeSpec]:
    """The benchmark's raw scans at workload seed 1: each corpus object at 3x
    density with 0.3 mm jitter and seed 64 + its corpus index."""
    return {
        f"scan_{name}": dataclasses.replace(spec, density=spec.density * 3.0, jitter=3e-4, seed=64 + i)
        for i, (name, spec) in enumerate(corpus_standard().items())
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def shape_digests(workdir: Path) -> dict[str, dict[str, str]]:
    """sha256 of the points, normals and curvatures bytes of every corpus
    object and scan spec, and of each corpus object's ``graspkit synth`` PLY."""
    digests = {}
    for name, spec in {**corpus_standard(), **scan_specs()}.items():
        cloud = generate(spec)
        digests[name] = {a: _sha256(getattr(cloud, a).tobytes()) for a in ("points", "normals", "curvatures")}
        if not name.startswith("scan_"):
            path = workdir / f"{name}.ply"
            assert cli_main(["synth", "--name", name, "--output", str(path)]) == 0
            digests[name]["ply"] = _sha256(path.read_bytes())
    return digests


def _area(kind: str, dims: tuple[float, ...], options: dict) -> float:
    """Surface area of a shape, near enough to set the density of a drawn point count."""
    if kind == "box":
        lx, ly, lz = dims
        return 2.0 * (lx * ly + ly * lz + lx * lz)
    if kind == "cylinder":
        radius, height = dims
        caps = 2.0 * math.pi * radius * radius * options.get("caps", True)
        return math.radians(options.get("arc_deg", 360.0)) * radius * height + caps
    if kind in ("sphere", "ellipsoid"):
        return 4.0 * math.pi * (sum(dims) / len(dims)) ** 2
    width, thickness, center_r, arc_deg = dims
    arc = math.radians(arc_deg)
    return 2.0 * (width + thickness) * center_r * arc + 2.0 * width * thickness


LENGTHS = st.floats(0.002, 0.2)
ARCS = st.floats(0.01, 360.0)


@st.composite
def shape_specs(draw, max_points: int = 20_000) -> ShapeSpec:
    """A valid spec of any kind whose cloud holds at most about ``max_points`` points."""
    kind = draw(st.sampled_from(sorted(_DIMENSIONS)))
    options = {}
    if kind == "bent_prism":
        width = draw(LENGTHS)
        dims = (width, draw(LENGTHS), width / 2.0 + draw(LENGTHS), draw(ARCS))
    else:
        dims = tuple(draw(LENGTHS) for _ in _DIMENSIONS[kind])
    if kind == "cylinder":
        options = draw(st.fixed_dictionaries({}, optional={"arc_deg": ARCS, "caps": st.booleans()}))
    density = draw(st.integers(50, max_points)) / _area(kind, dims, options)
    jitter = draw(st.just(0.0) | st.floats(1e-5, 1e-3))
    seed = draw(st.integers(0, 2**32 - 1))
    return ShapeSpec(kind, dims, density=density, seed=seed, jitter=jitter, options=options)


class TestGenerate:
    def test_unit_box_100_points_per_face(self):
        cloud = generate(ShapeSpec("box", (1.0, 1.0, 1.0), density=100.0))
        assert len(cloud) == 600
        axis_hits = np.abs(cloud.normals).max(axis=1)
        np.testing.assert_allclose(axis_hits, 1.0)
        assert np.allclose(cloud.curvatures, 0.0)

    def test_sphere_radius_and_normals(self):
        r = 0.0335
        cloud = generate(ShapeSpec("sphere", (r,), density=2e5))
        np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), r, atol=1e-9)
        radial = cloud.points / r
        np.testing.assert_allclose(cloud.normals, radial, atol=1e-9)

    def test_jitter_deterministic(self):
        spec = ShapeSpec("box", (0.05, 0.05, 0.05), density=1e5, seed=13, jitter=0.002)
        a, b = generate(spec), generate(spec)
        assert a.points.tobytes() == b.points.tobytes()
        # jitter actually moved points off the exact surface
        exact = generate(ShapeSpec("box", (0.05, 0.05, 0.05), density=1e5))
        assert not np.allclose(a.points, exact.points)

    def test_ellipsoid_on_surface_with_outward_normals(self):
        a, b, c = 0.033, 0.04, 0.05
        cloud = generate(ShapeSpec("ellipsoid", (a, b, c), density=2e5))
        quad = (cloud.points[:, 0] / a) ** 2 + (cloud.points[:, 1] / b) ** 2 + (
            cloud.points[:, 2] / c
        ) ** 2
        np.testing.assert_allclose(quad, 1.0, atol=1e-9)
        outward = np.einsum("ni,ni->n", cloud.normals, cloud.points)
        assert (outward > 0).all()

    def test_bent_prism_flat_faces_antiparallel(self):
        cloud = generate(ShapeSpec("bent_prism", (0.025, 0.03, 0.06, 120.0), density=2e5))
        top = cloud.points[:, 2].max()
        bottom = cloud.points[:, 2].min()
        assert top == pytest.approx(0.015, abs=1e-12)
        assert bottom == pytest.approx(-0.015, abs=1e-12)
        flat = np.abs(cloud.normals[:, 2]) > 0.999
        assert flat.sum() > 100

    def test_cylinder_open_arc_has_gap(self):
        cloud = generate(
            ShapeSpec("cylinder", (0.07, 0.05), density=1.5e5, options={"arc_deg": 270.0, "caps": False})
        )
        theta = np.degrees(np.arctan2(cloud.points[:, 1], cloud.points[:, 0]))
        assert theta.min() > -136.0 and theta.max() < 136.0
        radii = np.linalg.norm(cloud.points[:, :2], axis=1)
        np.testing.assert_allclose(radii, 0.07, atol=1e-9)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ShapeSpec("torus", (0.1,))
        with pytest.raises(ValueError):
            ShapeSpec("sphere", (-1.0,))
        with pytest.raises(ValueError):
            ShapeSpec("sphere", (1.0,), density=0.0)

    @pytest.mark.parametrize(
        ("kind", "dimensions", "kwargs", "field"),
        [
            ("sphere", (math.nan,), {}, "dimensions"),
            ("sphere", (math.inf,), {}, "dimensions"),
            ("box", (0.05, 0.05), {}, "dimensions"),
            ("bent_prism", (0.025, 0.03, 0.06), {}, "dimensions"),
            ("sphere", (0.03,), {"density": math.inf}, "density"),
            ("sphere", (0.03,), {"density": math.nan}, "density"),
            ("sphere", (0.03,), {"jitter": math.nan}, "jitter"),
            ("sphere", (0.03,), {"jitter": math.inf}, "jitter"),
            ("cylinder", (0.07, 0.05), {"options": {"arc": 270.0}}, "options"),
            ("sphere", (0.03,), {"options": {"caps": False}}, "options"),
            ("cylinder", (0.07, 0.05), {"options": {"arc_deg": 0.0}}, "arc_deg"),
            ("cylinder", (0.07, 0.05), {"options": {"arc_deg": 400.0}}, "arc_deg"),
            ("cylinder", (0.07, 0.05), {"options": {"arc_deg": math.nan}}, "arc_deg"),
            ("bent_prism", (0.025, 0.03, 0.06, 400.0), {}, "arc_deg"),
            ("bent_prism", (0.025, 0.03, 0.01, 120.0), {}, "centerline_radius"),
            ("bent_prism", (0.025, 0.03, 0.0125, 120.0), {}, "centerline_radius"),
            ("sphere", (0.03,), {"seed": -1}, "seed"),
            ("sphere", (0.03,), {"seed": 2**64}, "seed"),
            ("sphere", (0.03,), {"seed": 1.5}, "seed"),
            ("sphere", (0.03,), {"seed": True}, "seed"),
            ("cylinder", (0.07, 0.05), {"options": {"caps": "false"}}, "caps"),
            ("cylinder", (0.07, 0.05), {"options": {"caps": 0}}, "caps"),
        ],
        ids=[
            "nan-dimension",
            "inf-dimension",
            "box-two-dimensions",
            "bent-prism-three-dimensions",
            "inf-density",
            "nan-density",
            "nan-jitter",
            "inf-jitter",
            "unknown-option",
            "option-on-sphere",
            "zero-arc",
            "arc-over-360",
            "nan-arc",
            "bent-prism-arc-over-360",
            "centerline-inside-half-width",
            "centerline-at-half-width",
            "seed-negative",
            "seed-2**64",
            "seed-fraction",
            "seed-bool",
            "caps-string",
            "caps-int",
        ],
    )
    def test_malformed_spec_rejected_naming_the_field(self, kind, dimensions, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ShapeSpec(kind, dimensions, **kwargs)

    @settings(max_examples=40, deadline=None)
    @given(spec=shape_specs())
    def test_generate_equals_the_per_point_loops(self, spec):
        cloud, reference = generate(spec), ref.generate(spec)
        for attr in ("points", "normals", "curvatures"):
            # tobytes: bit for bit, signed zeros included
            assert getattr(cloud, attr).tobytes() == getattr(reference, attr).tobytes(), attr


class TestCorpus:
    def test_clouds_and_synth_plys_match_the_golden_digests(self, tmp_path):
        assert shape_digests(tmp_path) == json.loads(GOLDEN.read_text())

    def test_foam_brick_entry(self, corpus):
        spec = corpus["box_foam_brick"]
        assert spec.kind == "box"
        assert spec.dimensions == (0.05, 0.075, 0.05)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            lookup("box_of_chocolates")

    def test_at_least_eight_objects(self, corpus):
        assert len(corpus) >= 8

    def test_all_registry_clouds_valid(self, corpus):
        for name, spec in corpus.items():
            cloud = generate(spec)  # PointCloud validates invariants on build
            assert len(cloud) > 100, name
            assert cloud.normals is not None and cloud.curvatures is not None
            np.testing.assert_allclose(
                np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-9
            )

    def test_graspable_objects_fit_gripper(self, corpus):
        # every non-pathological object must present some span <= 0.085
        for name, spec in corpus.items():
            if name == "clamp_c_open":
                continue
            cloud = generate(spec)
            extents = cloud.points.max(axis=0) - cloud.points.min(axis=0)
            assert extents.min() <= 0.085, name


class TestEstimatorAgreement:
    """PCA estimates agree with stored analytic normals.

    Smooth shapes are checked globally; shapes with sharp creases are
    checked away from the creases, where neighborhoods are single-surface.
    """

    def agreement(self, cloud, mask=None, k=16):
        est = estimate_normals_curvatures(PointCloud(cloud.points), k=k)
        cos = np.abs(np.einsum("ni,ni->n", est.normals, cloud.normals))
        if mask is not None:
            cos = cos[mask]
        return (cos >= np.cos(np.radians(10.0))).mean()

    def test_smooth_shapes_global(self, corpus):
        for name in ("sphere_tennis_ball", "ellipsoid_pear", "clamp_c_open"):
            cloud = generate(corpus[name])
            assert self.agreement(cloud) >= 0.95, name

    def test_box_away_from_edges(self, corpus):
        spec = corpus["box_foam_brick"]
        cloud = generate(spec)
        lx, ly, lz = spec.dimensions
        margin = 0.008  # ~ neighborhood radius at this density
        inside = np.ones(len(cloud), dtype=bool)
        for axis, half in ((0, lx / 2), (1, ly / 2), (2, lz / 2)):
            coord = np.abs(cloud.points[:, axis])
            on_face = np.abs(coord - half) < 1e-9
            near_edge = coord > half - margin
            inside &= on_face | ~near_edge
        assert inside.sum() > 500
        assert self.agreement(cloud, mask=inside) >= 0.95

    def test_cylinder_side_away_from_caps(self, corpus):
        spec = corpus["cylinder_chips_can"]
        cloud = generate(spec)
        height = spec.dimensions[1]
        radius = np.linalg.norm(cloud.points[:, :2], axis=1)
        on_side = np.abs(radius - spec.dimensions[0]) < 1e-9
        away = np.abs(cloud.points[:, 2]) < height / 2 - 0.012
        mask = on_side & away
        assert mask.sum() > 500
        assert self.agreement(cloud, mask=mask) >= 0.95
