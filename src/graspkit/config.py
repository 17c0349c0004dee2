"""The one config type, whose values are checked where they enter, and its
loader. Only the standard library is imported, so every stage can read it."""

import hashlib
import math
import numbers
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

ENV_PREFIX = "GRASPKIT_"
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}  # by field type; bools never


@dataclass(frozen=True)
class PlannerConfig:
    """Every pipeline tunable, loadable from a flat key=value file.

    Unknown keys are rejected at load time and each value is validated
    against its stage's invariants; numbers are stored as their field's type,
    so equal configs hash alike. ``k_neighbors`` sizes the one k-NN table
    that normal estimation and region growth share. ``distance_threshold``
    is the contact snap radius alone: region growth has no plane-distance
    test.
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
    # the one closure rule (mechanics.stacked_force_closure); readable, not a field
    closure_mode: ClassVar[str] = "soft-pinch"

    def __post_init__(self):
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
                raise ValueError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
            value = kind(value)
            object.__setattr__(self, f.name, value)
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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
        # region growing's checks come last, as when a class of their own held them
        if not 0.0 < self.angle_threshold_deg < 90.0:
            raise ValueError("angle_threshold_deg must be in (0, 90)")
        if self.curvature_threshold < 0:
            raise ValueError("curvature_threshold must be >= 0")
        if self.distance_threshold < 0:
            raise ValueError("distance_threshold must be >= 0")
        if self.k_neighbors < 3:
            raise ValueError("k_neighbors must be >= 3")
        if self.min_region_size < 3:
            raise ValueError("min_region_size must be >= 3")

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def load_config(path=None, env: bool = True) -> PlannerConfig:
    """Config from a flat key=value file, with GRASPKIT_* environment overrides.

    Lines are ``key = value``; '#' starts a comment. Unknown keys raise, and
    so does a GRASPKIT_* variable that names no key. A value that does not
    parse raises with its file line or variable name, and its key; so does
    one that parses but fails its field's check.
    """
    kinds = {f.name: type(f.default) for f in fields(PlannerConfig)}
    values: dict = {}
    sources: dict = {}  # key -> where its value came from

    def parse(key: str, raw: str, source: str):
        try:
            return kinds[key](raw)
        except ValueError as exc:
            raise ValueError(f"{source}: bad value for {key}: {exc}") from None

    if path is not None:
        # read_text turns \r\n and \r into \n; str.splitlines would also split at \x0c
        for lineno, raw in enumerate(Path(path).read_text().split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in kinds:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            sources[key] = f"config line {lineno}"
            values[key] = parse(key, value.strip(), sources[key])
    if env:
        by_name = {ENV_PREFIX + key.upper(): key for key in kinds}
        for name in sorted(n for n in os.environ if n.startswith(ENV_PREFIX)):
            if name not in by_name:
                raise ValueError(f"unknown environment override {name}")
            key = by_name[name]
            sources[key] = f"environment override {name}"
            values[key] = parse(key, os.environ[name], sources[key])
    try:
        return PlannerConfig(**values)
    except ValueError:
        # every check reads one field, so the value that fails alone is at fault
        for key, value in values.items():
            try:
                PlannerConfig(**{key: value})
            except ValueError as exc:
                raise ValueError(f"{sources[key]}: {exc}") from None
        raise
