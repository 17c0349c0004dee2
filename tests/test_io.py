import warnings

import numpy as np
import pytest

from graspkit.cloud import PointCloud
from graspkit.io import CloudParseError, EmptyCloudError, load_cloud, save_cloud_ply, save_segmentation_ply


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

    def test_zero_vertices_rejected(self, tmp_path):
        path = tmp_path / "z.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(EmptyCloudError):
            load_cloud(path)


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
