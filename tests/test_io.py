import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspkit import io
from graspkit.cloud import PointCloud
from graspkit.io import CloudParseError, EmptyCloudError, load_cloud, save_cloud_ply, save_segmentation_ply


def load_outcome(path):
    """(points bytes, or (message, line) of the CloudParseError, of
    ``load_cloud(path)``; records that went through the line loop)."""
    looped = []
    shape_fault = io._shape_fault

    def spy(fields, props):
        looped.append(fields)
        return shape_fault(fields, props)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_shape_fault", spy)
        try:
            outcome = load_cloud(path).points.tobytes()
        except CloudParseError as exc:
            outcome = (str(exc), exc.line)
    return outcome, len(looped)


def loop_outcome(path):
    """``load_outcome(path)[0]`` with the one parse refused, so every record
    takes the line loop."""

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", refuse)
        return load_outcome(path)[0]


class TestXYZ:
    def test_reads_points_in_file_order(self, tmp_path):
        path = tmp_path / "tri.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        cloud = load_cloud(path, format="xyz")
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert cloud.normals is None

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n\n1 2 3\n")
        assert len(load_cloud(path)) == 1

    def test_malformed_record_cites_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 0 0\na b c\n")
        with pytest.raises(CloudParseError) as err:
            load_cloud(path, format="xyz")
        assert "line 3" in str(err.value)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "four.xyz"
        path.write_text("1 2 3 4\n")
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert "line 1" in str(err.value)

    def test_non_finite_record_cites_line(self, tmp_path):
        path = tmp_path / "nan.xyz"
        path.write_text("# scan\n0 0 0\n\nnan 0 0\n1 inf 0\n")
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == 4
        assert "non-finite" in str(err.value)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("nan 0 0\n1 1 1\na b c\n", 1, "non-finite"),
            ("0 0 0\n# scan\n1 inf 1\n1 1\n", 3, "non-finite"),
            ("0 0 0\n1 1 1\na b c\nnan 0 0\n", 3, "non-numeric"),
        ],
        ids=["nan-before-non-numeric", "inf-before-short", "non-numeric-before-nan"],
    )
    def test_first_bad_record_is_cited_whatever_its_fault(self, tmp_path, text, line, message):
        path = tmp_path / "bad.xyz"
        path.write_text(text)
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == line
        assert message in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# nothing\n")
        with pytest.raises(EmptyCloudError):
            load_cloud(path)


PLY_WITH_NORMALS = """ply
format ascii 1.0
comment generated for tests
element vertex 2
property float x
property float y
property float z
property float nx
property float ny
property float nz
end_header
0 0 0 0 0 1
1 0 0 1 0 0
"""

XYZ_PROPS = "property float x\nproperty float y\nproperty float z\n"
# two vertices of x, y and z: the rows are lines 8 and 9
PLY_XYZ_HEADER = "ply\nformat ascii 1.0\nelement vertex 2\n" + XYZ_PROPS + "end_header\n"


class TestPLY:
    def test_reads_normals(self, tmp_path):
        path = tmp_path / "n.ply"
        path.write_text(PLY_WITH_NORMALS)
        cloud = load_cloud(path)
        assert len(cloud) == 2
        np.testing.assert_array_equal(cloud.normals, [[0, 0, 1], [1, 0, 0]])

    def test_unknown_properties_ignored(self, tmp_path):
        text = PLY_WITH_NORMALS.replace(
            "property float nz\n", "property float nz\nproperty uchar red\n"
        ).replace("0 0 0 0 0 1", "0 0 0 0 0 1 255").replace("1 0 0 1 0 0", "1 0 0 1 0 0 0")
        path = tmp_path / "extra.ply"
        path.write_text(text)
        cloud = load_cloud(path)
        assert len(cloud) == 2

    def test_faces_skipped(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        )
        path = tmp_path / "mesh.ply"
        path.write_text(text)
        assert len(load_cloud(path)) == 3

    def test_vertex_list_property_spans_several_fields(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
            "property float z\nproperty list uchar float texcoord\nend_header\n"
            "0 0 0 2 0.5 0.5\n1 0 0 0\n"
        )
        path = tmp_path / "texcoord.ply"
        path.write_text(text)
        np.testing.assert_array_equal(load_cloud(path).points, [[0, 0, 0], [1, 0, 0]])

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "b.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(CloudParseError):
            load_cloud(path)

    def test_bad_record_cites_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\na b c\n"
        )
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert "line 8" in str(err.value)

    def test_non_finite_record_cites_line(self, tmp_path):
        # header is 11 lines, so vertex rows start at line 12
        path = tmp_path / "inf.ply"
        path.write_text(PLY_WITH_NORMALS.replace("1 0 0 1 0 0", "1 0 0 nan 0 0"))
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == 13
        assert "non-finite" in str(err.value)

    def test_non_finite_curvature_cites_line(self, tmp_path):
        text = (
            PLY_WITH_NORMALS.replace("property float nz\n", "property float nz\nproperty float curvature\n")
            .replace("0 0 0 0 0 1", "0 0 0 0 0 1 0.25")
            .replace("1 0 0 1 0 0", "1 0 0 1 0 0 inf")
        )
        path = tmp_path / "curv.ply"
        path.write_text(text)
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == 14
        assert "non-finite" in str(err.value)

    def test_out_of_range_curvature_cites_line(self, tmp_path):
        text = (
            PLY_WITH_NORMALS.replace("property float nz\n", "property float nz\nproperty float curvature\n")
            .replace("0 0 0 0 0 1", "0 0 0 0 0 1 0.25")
            .replace("1 0 0 1 0 0", "1 0 0 1 0 0 1.5")
        )
        path = tmp_path / "curv.ply"
        path.write_text(text)
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == 14
        assert "curvature outside [0, 1]" in str(err.value)

    def test_zero_length_normal_cites_line(self, tmp_path):
        path = tmp_path / "zero.ply"
        path.write_text(PLY_WITH_NORMALS.replace("1 0 0 1 0 0", "1 0 0 0 0 0"))
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == 13
        assert "zero-length normal" in str(err.value)

    @pytest.mark.parametrize(
        "normal, axis", [("1e200 0 0", [1.0, 0.0, 0.0]), ("0 1e-200 0", [0.0, 1.0, 0.0])],
        ids=["overflow", "underflow"],
    )
    def test_normal_whose_squares_leave_the_float_range_loads_as_unit(self, tmp_path, normal, axis):
        path = tmp_path / "extreme.ply"
        path.write_text(PLY_WITH_NORMALS.replace("1 0 0 1 0 0", f"1 0 0 {normal}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = load_cloud(path)
        np.testing.assert_array_equal(cloud.normals, [[0.0, 0.0, 1.0], axis])

    @pytest.mark.parametrize(
        "first, second, line, message",
        [
            ("0 0 0 0 0 0", "1 0 0 nan 0 0", 12, "zero-length normal"),
            ("nan 0 0 0 0 1", "a b c d e f", 12, "non-finite"),
            ("0 0 0 0 0 0", "1 0 0 1 0", 12, "zero-length normal"),
            ("0 0 0 0 0 1", "1 0 0 1 0", 13, "expected 6 fields, got 5"),
        ],
        ids=["zero-normal-before-nan", "nan-before-non-numeric", "zero-normal-before-short", "short"],
    )
    def test_first_bad_record_is_cited_whatever_its_fault(self, tmp_path, first, second, line, message):
        # the header is 11 lines, so the vertex rows are lines 12 and 13
        path = tmp_path / "two.ply"
        path.write_text(PLY_WITH_NORMALS.replace("0 0 0 0 0 1", first).replace("1 0 0 1 0 0", second))
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == line
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "header, rows, line, message",
        [
            ("element vertex -2\n" + XYZ_PROPS, "0 0 0\n", 3, "bad element count"),
            ("element face -2\nproperty list uchar int vertex_indices\nelement vertex 1\n" + XYZ_PROPS, "0 0 0\n", 3, "bad element count"),
            ("element vertex 1000000000000\n" + XYZ_PROPS, "0 0 0\n1 0 0\n", 10, "unexpected end of file"),
            ("element vertex 2\n" + XYZ_PROPS, "0 0 0\nnan 0 0\n", 9, "non-finite"),
            ("element vertex 1\n" + XYZ_PROPS + "element vertex 1\n" + XYZ_PROPS, "0 0 0\n1 1 1\n", 7, "second vertex element"),
            ("element vertex 1\n" + XYZ_PROPS + "property float x\n", "0 0 0 5\n", 7, "repeated property 'x'"),
            # both rows mean [1, 2, 3]; read with one field per list they would shift x, y, z
            ("element vertex 1\nproperty list uchar float tc\n" + XYZ_PROPS, "2 0.5 0.5 1 2 3\n", 4, "list property before vertex column 'x'"),
            ("element vertex 1\nproperty float x\nproperty list uchar float tc\nproperty float y\nproperty float z\n", "1 2 0.5 0.5 2 3\n", 5, "list property before vertex column 'y'"),
        ],
        ids=["negative-vertex-count", "negative-face-count", "count-beyond-the-file", "bad-row-before-the-end", "second-vertex-element", "repeated-property", "list-before-x", "list-before-y"],
    )
    def test_malformed_header_cites_its_line(self, tmp_path, header, rows, line, message):
        path = tmp_path / "header.ply"
        path.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n{rows}")
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == line
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            ("0 0 0 5 0.5\n1 0 0 0\n", 9, "expected 9 fields, got 5"),
            ("0 0 0 2 0.5 0.5\n1 0 0 0 7 7 7\n", 10, "expected 4 fields, got 7"),
            ("0 0 0 x 0.5\n1 0 0 0\n", 9, "bad list count 'x'"),
            ("0 0 0 1.0 0.5\n1 0 0 0\n", 9, "bad list count '1.0'"),
            ("0 0 0 -1\n1 0 0 0\n", 9, "bad list count '-1'"),
            ("0 0 0\n1 0 0 0\n", 9, "expected 4 fields, got 3"),
        ],
        ids=["count-above-values", "count-below-values", "count-not-a-number", "count-not-an-integer",
             "count-negative", "count-missing"],
    )
    def test_list_count_must_match_its_values(self, tmp_path, rows, line, message):
        # the header is 8 lines, so the vertex rows are lines 9 and 10
        path = tmp_path / "list.ply"
        header = "element vertex 2\n" + XYZ_PROPS + "property list uchar float tc\n"
        path.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n{rows}")
        with pytest.raises(CloudParseError) as err:
            load_cloud(path)
        assert err.value.line == line
        assert message in str(err.value)

    def test_zero_vertices_rejected(self, tmp_path):
        path = tmp_path / "z.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(EmptyCloudError):
            load_cloud(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ply"
        path.write_text("")
        with pytest.raises(EmptyCloudError):
            load_cloud(path)


def fields_of(values, data) -> list[str]:
    """Each value as ``%.17g`` or ``repr``, both of which read back bit-exact."""
    return [("%.17g" % v) if data.draw(st.booleans()) else repr(v) for v in values]


def joined(fields, data) -> str:
    """``fields`` joined by runs of spaces and tabs, with some before and after."""
    gaps = [data.draw(st.text(" \t", min_size=1, max_size=3)) for _ in fields[1:]] + [""]
    lead, trail = data.draw(st.text(" \t", max_size=2)), data.draw(st.text(" \t", max_size=2))
    return lead + "".join(f + gap for f, gap in zip(fields, gaps)) + trail


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestOneParse:
    """The XYZ lines, or the PLY vertex rows, are parsed in one ``np.loadtxt``
    call; whatever it cannot vouch for goes through the line loop, so each
    file loads, or fails, exactly as through the loop alone."""

    @given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=25), st.data())
    @settings(max_examples=150, deadline=None)
    def test_xyz_loads_float_of_each_field(self, tmp_path_factory, rows, data):
        lines = []
        for row in rows:
            while data.draw(st.integers(0, 3)) == 3:  # blank and comment lines between records
                lines.append(data.draw(st.sampled_from(["", " ", "\t \t", "#", "# x y z", " \t# 1 2 3"])))
            lines.append(joined(fields_of(row, data), data))
        eols = [data.draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
        path = tmp_path_factory.mktemp("xyz") / "p.xyz"
        path.write_bytes("".join(line + eol for line, eol in zip(lines, eols)).encode())
        records = [line for line in lines if line.strip() and not line.strip().startswith("#")]
        want = np.array([[float(f) for f in line.split()] for line in records])
        outcome, looped = load_outcome(path)
        assert outcome == want.tobytes() == loop_outcome(path)
        assert looped == 0

    @given(st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=25), st.integers(0, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_ply_loads_float_of_each_field(self, tmp_path_factory, rows, extra, data):
        # x, y and z, and, unless ``extra`` is 4, a property read and ignored at position ``extra``
        props = ["x", "y", "z"]
        if extra < 4:
            props.insert(extra, "intensity")
        header = ["ply", "format ascii 1.0", "comment written by a test", f"element vertex {len(rows)}"]
        header += [f"property double {name}" for name in props] + ["end_header"]
        body = [joined(fields_of(row[: len(props)], data), data) for row in rows]
        lines = header + body
        eols = [data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        path = tmp_path_factory.mktemp("ply") / "p.ply"
        path.write_bytes("".join(line + eol for line, eol in zip(lines, eols)).encode())
        read = [props.index(axis) for axis in ("x", "y", "z")]
        want = np.array([[float(line.split()[i]) for i in read] for line in body])
        outcome, looped = load_outcome(path)
        assert outcome == want.tobytes() == loop_outcome(path)
        assert looped == 0

    @pytest.mark.parametrize(
        "name, text, want",
        [
            ("p.xyz", "1_0 2 3\n", [[10.0, 2.0, 3.0]]),
            ("p.xyz", "\u0663.\u0665 0 0\n", [[3.5, 0.0, 0.0]]),
            ("p.xyz", "1 2 3\ninfinity 0 0\n", ("line 2: non-finite record [inf, 0.0, 0.0]", 2)),
            ("p.xyz", "+.5 -.25 1e-3\n", [[0.5, -0.25, 0.001]]),
            ("p.xyz", "0 0 0\n1 2 3 # scan\n", ("line 2: expected 3 fields, got 5", 2)),
            ("p.ply", PLY_XYZ_HEADER + "0 0 0\n\n1 1 1\n", ("line 9: expected 3 fields, got 0", 9)),
            ("p.ply", PLY_XYZ_HEADER + "\n \t\n", ("line 8: expected 3 fields, got 0", 8)),
            ("p.ply", PLY_XYZ_HEADER + "0 0 0\n1 1\n", ("line 9: expected 3 fields, got 2", 9)),
            ("p.ply", PLY_XYZ_HEADER + "0 0 0\n1 1 1 1\n", ("line 9: expected 3 fields, got 4", 9)),
            ("p.ply", PLY_XYZ_HEADER + "1_0 0 0\n\u0663 1 1\n", [[10.0, 0.0, 0.0], [3.0, 1.0, 1.0]]),
            # a form feed inside a row breaks no line: str.splitlines() would load the PLY's first
            # row as two and drop "2 2 2", silently
            ("p.xyz", "0 0 0\x0c1 1 1\n2 2 2\n", ("line 1: expected 3 fields, got 6", 1)),
            ("p.ply", PLY_XYZ_HEADER + "0 0 0\x0c1 1 1\n2 2 2\n", ("line 8: expected 3 fields, got 6", 8)),
        ],
        ids=["underscore", "arabic-indic-digits", "infinity", "signed-leading-dot", "inline-hash",
             "ply-blank-row", "ply-blank-rows-only", "ply-short-row", "ply-long-row", "ply-underscore-and-digits",
             "form-feed-in-row", "ply-form-feed-in-row"],
    )
    def test_edge_cases_load_as_through_the_loop(self, tmp_path, name, text, want):
        path = tmp_path / name
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome, _ = load_outcome(path)
        assert outcome == loop_outcome(path)
        assert outcome == (np.array(want).tobytes() if isinstance(want, list) else want)

    def test_clean_file_takes_one_parse_and_no_loop(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(2).normal(size=(500, 3)))
        ply, xyz = tmp_path / "c.ply", tmp_path / "c.xyz"
        save_cloud_ply(cloud, ply)
        np.savetxt(xyz, cloud.points, fmt="%.17g")
        for path in (ply, xyz):
            assert load_outcome(path) == (cloud.points.tobytes(), 0)


class TestWriter:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        normals = rng.normal(size=(40, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(rng.uniform(-1, 1, (40, 3)), normals=normals, curvatures=rng.uniform(0, 1, 40))
        path = tmp_path / "rt.ply"
        save_cloud_ply(cloud, path)
        back = load_cloud(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.normals, cloud.normals)
        np.testing.assert_array_equal(back.curvatures, cloud.curvatures)

    def test_segmentation_export_parses(self, tmp_path):
        cloud = PointCloud(np.eye(3))
        path = tmp_path / "seg.ply"
        save_segmentation_ply(cloud, np.array([0, 0, -1]), path)
        text = path.read_text()
        assert "property int region" in text
        assert len(load_cloud(path)) == 3
