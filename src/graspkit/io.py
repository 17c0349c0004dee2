"""ASCII PLY and XYZ point-cloud readers plus PLY writers.

Only ASCII formats are handled; binary PLY is rejected up front. PLY vertices
are read as x, y, z and, when present, nx, ny, nz and curvature; other vertex
properties are ignored, a list one only after those and with as many values
as its count says, and non-vertex elements are skipped. The XYZ lines, or the
PLY vertex rows when no vertex property is a list, are parsed in one
``np.loadtxt`` call. Whatever that call cannot vouch for goes through one
record loop, and an error cites the line of the first bad record, whatever
its fault.
"""

from __future__ import annotations

from array import array
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


def _first_fault(values: np.ndarray, columns) -> tuple[int, str] | None:
    """(row, fault) of the first row of ``values``, its columns named by
    ``columns``, that holds NaN or inf, a normal of length zero or a curvature
    outside [0, 1], with the first fault of that row; None if every row passes."""
    checks = [("non-finite record", ~np.isfinite(values).all(axis=1))]
    if "nx" in columns:
        checks.append(("zero-length normal in record", np.abs(values[:, 3:6]).max(axis=1) == 0))
    if "curvature" in columns:
        checks.append(("curvature outside [0, 1] in record", (values[:, -1] < 0) | (values[:, -1] > 1)))
    bad = np.array([mask for _, mask in checks])
    rows = np.flatnonzero(bad.any(axis=0))
    if not len(rows):
        return None
    return int(rows[0]), checks[int(np.argmax(bad[:, rows[0]]))][0]


def _shape_fault(fields: list[str], props) -> str | None:
    """Why ``fields`` is not a record of ``props``, or None. A record holds one
    field per property, and a list property (``"<list>"``) as many more as the
    count in its first field says."""
    width = len(props)
    for i, name in enumerate(props):
        position = i + width - len(props)  # shifted by the values of the lists before
        if name == "<list>" and position < len(fields):
            if not fields[position].isdecimal():
                return f"bad list count {fields[position]!r}"
            width += int(fields[position])
    if len(fields) != width:
        return f"expected {width} fields, got {len(fields)}"
    return None


def _read_records(texts: list[str], records, props, columns) -> np.ndarray:
    """The ``columns`` of the records ``texts``, parsed as floats, from one
    field per name in ``props`` (more where a list property, ``"<list>"``,
    spans several, as its count says). ``records()`` gives the same records
    as (line number, text) pairs.

    Without a list property, one ``np.loadtxt`` parses every field of every
    record. Whatever that parse cannot vouch for (it raises, it skips a blank
    record, a record has the wrong field count, or a row fails the checks of
    ``_first_fault``) goes to a loop over the records, which is the reader's
    only source of errors: a record that breaks the format is cited only after
    the records before it pass those checks, so whatever its fault, the first
    bad record is the one cited. ``loadtxt`` accepts a subset of what
    ``float()`` does (not ``1_0`` or non-ASCII digits), and those records load
    through the loop, as they always did.
    """
    positions = [props.index(name) for name in columns]
    # (a blank first record goes to the loop: loadtxt warns when it finds no row at all)
    if "<list>" not in props and texts and texts[0].strip():
        try:
            table = np.loadtxt(texts, comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is not None and table.shape == (len(texts), len(props)):
            values = table[:, positions]
            if _first_fault(values, columns) is None:
                return values
    values, linenos, fault = array("d"), array("q"), None  # 8 bytes a value
    for lineno, text in records():
        fields = text.split()
        message = _shape_fault(fields, props)
        if message is None:
            try:
                values.extend([float(fields[i]) for i in positions])
            except ValueError:
                message = f"non-numeric record {text.strip()!r}"
        if message is not None:
            fault = CloudParseError(message, lineno)
            break
        linenos.append(lineno)
    values = np.array(values).reshape(-1, len(columns))
    first = _first_fault(values, columns)
    if first is not None:
        row, message = first
        raise CloudParseError(f"{message} {values[row].tolist()}", linenos[row])
    if fault is not None:
        raise fault
    return values


def _load_xyz(path: Path) -> PointCloud:
    def records():  # (line number, text) of each line that is neither blank nor a # comment
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                if (line := raw.strip()) and not line.startswith("#"):
                    yield lineno, line

    with open(path) as fh:  # the same lines, unnumbered: only the loop cites line numbers
        texts = [line for raw in fh if (line := raw.strip()) and not line.startswith("#")]
    points = _read_records(texts, records, ["x", "y", "z"], ["x", "y", "z"])
    if not len(points):
        raise EmptyCloudError(f"no points in {path}")
    return PointCloud(points)


def _load_ply(path: Path) -> PointCloud:
    text = path.read_text()  # \r\n and \r read as \n; split there only, as _load_xyz does, not at \x0c
    lines = text.removesuffix("\n").split("\n") if text else []
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
            if not fields[2].isdecimal():
                raise CloudParseError(f"bad element count in {line!r}", lineno)
            if fields[1] == "vertex" and any(e[0] == "vertex" for e in elements):
                raise CloudParseError("second vertex element", lineno)
            elements.append((fields[1], int(fields[2]), []))
        elif line.startswith("property"):
            if not elements:
                raise CloudParseError("property before any element", lineno)
            fields = line.split()
            # a list's rows (e.g. face indices) give their own length, shifting the fields after it
            name = fields[-1] if fields[0:2] != ["property", "list"] else "<list>"
            if name == "<list>":
                list_line = lineno
            elif name in elements[-1][2]:
                raise CloudParseError(f"repeated property {name!r}", lineno)
            elif elements[-1][0] == "vertex" and "<list>" in elements[-1][2]:
                if name in ("x", "y", "z", "nx", "ny", "nz", "curvature"):
                    raise CloudParseError(f"list property before vertex column {name!r}", list_line)
            elements[-1][2].append(name)
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
    _, count, props = vertex_spec
    for axis in ("x", "y", "z"):
        if axis not in props:
            raise CloudParseError(f"vertex element lacks property {axis!r}", lineno)
    has_normals = all(p in props for p in ("nx", "ny", "nz"))
    # "curvature" is PCL's name for the surface variation lambda_min / sum(lambda)
    has_curvature = "curvature" in props
    columns = ["x", "y", "z"] + ["nx", "ny", "nz"] * has_normals + ["curvature"] * has_curvature

    start = lineno + sum(c for _, c, _ in elements[: elements.index(vertex_spec)])
    rows = lines[start : start + count]
    values = _read_records(rows, lambda: enumerate(rows, start=start + 1), props, columns)
    if len(values) < count:
        raise CloudParseError("unexpected end of file in vertex data", len(lines) + 1)
    points = values[:, :3]
    normals = values[:, 3:6] if has_normals else None
    curvatures = values[:, -1] if has_curvature else None
    if has_normals:
        # renormalize only what needs it, so unit normals round-trip bit-exact;
        # an off-unit row is first divided by its largest |component|, so its
        # squares can neither overflow nor underflow
        with np.errstate(over="ignore"):
            off = np.abs(np.linalg.norm(normals, axis=1) - 1.0) > 1e-9
        scaled = normals[off] / np.abs(normals[off]).max(axis=1)[:, np.newaxis]
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
