"""ASCII PLY and XYZ point-cloud readers plus PLY writers.

Only ASCII formats are handled; binary PLY is rejected up front. PLY vertices
are read as x, y, z and, when present, nx, ny, nz and curvature; other vertex
properties are ignored, and non-vertex elements are skipped.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cloud import PointCloud


class CloudParseError(ValueError):
    """Raised for malformed cloud files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class EmptyCloudError(CloudParseError):
    pass


def load_cloud(path, format: str | None = None) -> PointCloud:
    """Read a point cloud from ``path``.

    ``format`` is ``"ply-ascii"`` or ``"xyz"``; when omitted it is inferred
    from the file suffix. Point order equals file order.
    """
    path = Path(path)
    if format is None:
        format = "ply-ascii" if path.suffix.lower() == ".ply" else "xyz"
    if format == "ply-ascii":
        return _load_ply(path)
    if format == "xyz":
        return _load_xyz(path)
    raise ValueError(f"unknown cloud format {format!r}")


def _check_rows(values: np.ndarray, linenos, checks=()) -> None:
    """Raise on the first bad record; ``linenos[i]`` is row i's line.

    A record is bad when it holds NaN or inf or when it is set in the row
    mask of one of the ``(message, mask)`` pairs in ``checks``; the error
    carries the first message that applies to it.
    """
    checks = [("non-finite record", ~np.isfinite(values).all(axis=1)), *checks]
    bad = np.array([mask for _, mask in checks])
    rows = np.flatnonzero(bad.any(axis=0))
    if len(rows):
        message = checks[int(np.argmax(bad[:, rows[0]]))][0]
        raise CloudParseError(f"{message} {values[rows[0]].tolist()}", int(linenos[rows[0]]))


def _load_xyz(path: Path) -> PointCloud:
    points = []
    linenos = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise CloudParseError(f"expected 3 fields, got {len(fields)}", lineno)
            try:
                points.append([float(f) for f in fields])
            except ValueError:
                raise CloudParseError(f"non-numeric record {line!r}", lineno) from None
            linenos.append(lineno)
    if not points:
        raise EmptyCloudError(f"no points in {path}")
    points = np.array(points)
    _check_rows(points, linenos)
    return PointCloud(points)


def _load_ply(path: Path) -> PointCloud:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EmptyCloudError(f"empty file {path}")
    if lines[0].strip() != "ply":
        raise CloudParseError("missing 'ply' magic", 1)

    elements: list[tuple[str, int, list[str]]] = []  # (name, count, property names)
    lineno = 1
    seen_format = False
    while lineno < len(lines):
        line = lines[lineno].strip()
        lineno += 1
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        if line.startswith("format"):
            if "ascii" not in line:
                raise CloudParseError("only ascii PLY is supported", lineno)
            seen_format = True
        elif line.startswith("element"):
            fields = line.split()
            if len(fields) != 3:
                raise CloudParseError(f"malformed element line {line!r}", lineno)
            try:
                count = int(fields[2])
            except ValueError:
                raise CloudParseError(f"bad element count in {line!r}", lineno) from None
            elements.append((fields[1], count, []))
        elif line.startswith("property"):
            if not elements:
                raise CloudParseError("property before any element", lineno)
            fields = line.split()
            # list properties (e.g. face indices) are self-describing per row
            elements[-1][2].append(fields[-1] if fields[0:2] != ["property", "list"] else "<list>")
        elif line == "end_header":
            break
        else:
            raise CloudParseError(f"unexpected header line {line!r}", lineno)
    else:
        raise CloudParseError("missing end_header", lineno)
    if not seen_format:
        raise CloudParseError("missing format line", lineno)

    vertex_spec = next((e for e in elements if e[0] == "vertex"), None)
    if vertex_spec is None or vertex_spec[1] == 0:
        raise EmptyCloudError(f"no vertex data in {path}")
    props = vertex_spec[2]
    for axis in ("x", "y", "z"):
        if axis not in props:
            raise CloudParseError(f"vertex element lacks property {axis!r}", lineno)
    has_normals = all(p in props for p in ("nx", "ny", "nz"))
    # "curvature" is PCL's name for the surface variation lambda_min / sum(lambda)
    has_curvature = "curvature" in props
    columns = ["x", "y", "z"] + ["nx", "ny", "nz"] * has_normals + ["curvature"] * has_curvature

    values = np.empty((vertex_spec[1], len(columns)))
    cursor = lineno
    for name, count, elem_props in elements:
        if name != "vertex":
            cursor += count
            continue
        vertex_linenos = np.arange(cursor + 1, cursor + count + 1)
        col = {p: i for i, p in enumerate(elem_props)}
        for row in range(count):
            if cursor + row >= len(lines):
                raise CloudParseError("unexpected end of file in vertex data", cursor + row + 1)
            fields = lines[cursor + row].split()
            if len(fields) < len(elem_props):
                raise CloudParseError(
                    f"expected {len(elem_props)} fields, got {len(fields)}", cursor + row + 1
                )
            try:
                values[row] = [float(fields[col[a]]) for a in columns]
            except ValueError:
                raise CloudParseError(
                    f"non-numeric record {lines[cursor + row]!r}", cursor + row + 1
                ) from None
        cursor += count
    points = values[:, :3]
    normals = values[:, 3:6] if has_normals else None
    curvatures = values[:, -1] if has_curvature else None
    checks = []
    if has_normals:
        peak = np.abs(normals).max(axis=1)
        checks.append(("zero-length normal in record", peak == 0))
    if has_curvature:
        checks.append(("curvature outside [0, 1] in record", (curvatures < 0) | (curvatures > 1)))
    _check_rows(values, vertex_linenos, checks)
    if has_normals:
        # renormalize only what needs it, so unit normals round-trip bit-exact;
        # an off-unit row is first divided by its largest |component|, so its
        # squares can neither overflow nor underflow
        with np.errstate(over="ignore"):
            off = np.abs(np.linalg.norm(normals, axis=1) - 1.0) > 1e-9
        scaled = normals[off] / peak[off, np.newaxis]
        normals[off] = scaled / np.linalg.norm(scaled, axis=1)[:, np.newaxis]
    return PointCloud(points, normals, curvatures)


def save_cloud_ply(cloud: PointCloud, path, extra_int_property: tuple[str, np.ndarray] | None = None) -> None:
    """Write ``cloud`` as ASCII PLY (doubles, optional integer per-vertex property);
    normals and curvatures are written when the cloud has them."""
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    header += [f"property double {a}" for a in ("x", "y", "z")]
    if cloud.normals is not None:
        header += [f"property double {a}" for a in ("nx", "ny", "nz")]
    if cloud.curvatures is not None:
        header.append("property double curvature")
    if extra_int_property is not None:
        name, values = extra_int_property
        if len(values) != len(cloud):
            raise ValueError(f"{name} length does not match cloud")
        header.append(f"property int {name}")
    header.append("end_header")

    columns = [cloud.points]
    if cloud.normals is not None:
        columns.append(cloud.normals)
    if cloud.curvatures is not None:
        columns.append(cloud.curvatures[:, np.newaxis])
    # repr of a Python float is the shortest string that reads back bit-exact
    rows = [" ".join(map(repr, row)) for row in np.hstack(columns).tolist()]
    if extra_int_property is not None:
        rows = [f"{row} {int(v)}" for row, v in zip(rows, np.asarray(values).tolist())]
    Path(path).write_text("\n".join(header + rows) + "\n")


def save_segmentation_ply(cloud: PointCloud, region_ids: np.ndarray, path) -> None:
    """Debug export: per-vertex integer ``region`` id (-1 for residue points)."""
    save_cloud_ply(cloud, path, extra_int_property=("region", np.asarray(region_ids)))
