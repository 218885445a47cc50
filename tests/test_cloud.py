import argparse
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcbitalloc.cli import build_parser, main
from pcbitalloc.cloud import (
    LUMA_SCALE,
    LUMA_WEIGHTS,
    PointCloud,
    load_ply,
    luma_scaled,
    min_bit_depth,
    save_ply,
)
from pcbitalloc.errors import (
    PlyBodyError,
    PlyHeaderError,
    PlyPropertyError,
    ValidationError,
)

from conftest import make_cloud


ASCII_3PT = """ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
0 0 0 255 0 0
1 2 3 0 255 0
4 4 4 0 0 255
"""


def write(tmp_path, text, name="cloud.ply"):
    p = tmp_path / name
    p.write_bytes(text.encode() if isinstance(text, str) else text)
    return p


_CODES = {"float": "<f4", "double": "<f8", "int": "<i4", "uint": "<u4",
          "short": "<i2", "uchar": "<u1"}


def ply(rows, ctype="float", coltype="uchar", binary=True) -> bytes:
    """A PLY file of (x, y, z, r, g, b) rows with the given property types."""
    fmt = "binary_little_endian" if binary else "ascii"
    header = (f"ply\nformat {fmt} 1.0\nelement vertex {len(rows)}\n"
              + "".join(f"property {ctype} {n}\n" for n in "xyz")
              + "".join(f"property {coltype} {n}\n" for n in ("red", "green", "blue"))
              + "end_header\n").encode()
    if not binary:
        return header + "".join(" ".join(map(repr, row)) + "\n" for row in rows).encode()
    dtype = [(n, _CODES[ctype]) for n in "xyz"] + [(n, _CODES[coltype]) for n in "rgb"]
    return header + np.array([tuple(row) for row in rows], dtype=dtype).tobytes()


class TestPointCloud:
    def test_basic_invariants(self):
        c = PointCloud([[0, 0, 0], [1, 2, 3]], [[10, 20, 30], [0, 0, 0]], 2)
        assert len(c) == 2
        assert c.positions.dtype == np.int64
        assert c.colors.dtype == np.uint8

    def test_immutable(self):
        c = PointCloud([[0, 0, 0]], [[1, 2, 3]], 1)
        with pytest.raises(ValueError):
            c.positions[0, 0] = 5

    def test_caller_array_stays_writable_and_aliased(self):
        pos = np.array([[0, 0, 0], [1, 2, 3]], dtype=np.int64)
        col = np.array([[9, 9, 9], [0, 0, 0]], dtype=np.uint8)
        c = PointCloud(pos, col, 2)
        assert np.shares_memory(pos, c.positions) and np.shares_memory(col, c.colors)
        pos[0, 0] = 1
        col[0, 0] = 7
        assert c.positions[0].tolist() == [1, 0, 0] and c.colors[0].tolist() == [7, 9, 9]
        with pytest.raises(ValueError):
            c.positions[0, 0] = 2
        with pytest.raises(ValueError):
            c.colors[0, 0] = 2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((0, 3)), np.zeros((0, 3)), 1)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            PointCloud([[0, 0, 0], [1, 1, 1]], [[0, 0, 0]], 1)

    def test_coordinate_range_enforced(self):
        with pytest.raises(ValidationError):
            PointCloud([[0, 0, 4]], [[0, 0, 0]], 2)
        with pytest.raises(ValidationError):
            PointCloud([[-1, 0, 0]], [[0, 0, 0]], 2)

    @pytest.mark.parametrize("positions, colors, message", [
        ([[1.6, 0, 0]], [[0, 0, 0]], "positions must be finite integers"),
        ([[np.nan, 0, 0]], [[0, 0, 0]], "positions must be finite integers"),
        ([[np.inf, 0, 0]], [[0, 0, 0]], "positions must be finite integers"),
        ([[2.0**70, 0, 0]], [[0, 0, 0]], "positions must lie in"),
        ([[1, 0, 0]], [[300.0, 0, 0]], "colors must lie in \\[0, 255\\]"),
        ([[1, 0, 0]], [[-1.0, 0, 0]], "colors must lie in \\[0, 255\\]"),
        ([[1, 0, 0]], [[300, 0, 0]], "colors must lie in \\[0, 255\\]"),
        ([[1, 0, 0]], [[0.5, 0, 0]], "colors must be finite integers"),
        ([[1, 0, 0]], [[np.nan, 0, 0]], "colors must be finite integers"),
    ], ids=["fractional", "nan", "inf", "beyond-int64", "color-300.0", "color--1.0",
            "int-color-300", "fractional-color", "nan-color"])
    def test_non_integer_values_refused_not_cast(self, positions, colors, message):
        # the cast used to truncate 1.6 to 1 and wrap 300 to 44 and -1 to 255
        with pytest.raises(ValidationError, match=message):
            PointCloud(positions, colors, 2)

    def test_integral_values_of_any_dtype_accepted(self):
        c = PointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([[255.0, 0.0, 7.0]]), 2)
        assert c.positions.tolist() == [[1, 2, 3]] and c.colors.tolist() == [[255, 0, 7]]
        big = 2**60 + 1  # not a float64: the integer path keeps it exact
        c = PointCloud(np.array([[big, 0, 0]], dtype=np.uint64), [[0, 0, 0]], 61)
        assert c.positions[0, 0] == big

    def test_duplicates_allowed(self):
        c = PointCloud([[1, 1, 1], [1, 1, 1]], [[0, 0, 0], [9, 9, 9]], 1)
        assert len(c) == 2

    def test_min_bit_depth(self):
        assert min_bit_depth([[0, 0, 0]]) == 1
        assert min_bit_depth([[0, 1, 0]]) == 1
        assert min_bit_depth([[2, 0, 0]]) == 2
        assert min_bit_depth([[0, 0, 1023]]) == 10
        assert min_bit_depth([[0, 0, 1024]]) == 11


class TestLuminance:
    """``luma_scaled``: luma in units of 1/LUMA_SCALE, as exact integers."""

    def test_white(self):
        assert luma_scaled([[255, 255, 255]]).tolist() == [255 * LUMA_SCALE]

    def test_black(self):
        assert luma_scaled([[0, 0, 0]]).tolist() == [0]

    def test_pure_red(self):
        assert luma_scaled([[255, 0, 0]]).tolist() == [542130]  # 54.213

    def test_bt601(self):
        assert luma_scaled([[255, 0, 0]], weights="bt601").tolist() == [762450]  # 76.245

    def test_out_of_range(self):
        for bad in ([[256, 0, 0]], [[0, -1, 0]], [[0, 0, 0.5]]):
            with pytest.raises(ValidationError, match="colors"):
                luma_scaled(bad)

    @pytest.mark.parametrize("weights", ["foo", "BT709", None, ["bt709"]])
    def test_unknown_weights_named(self, weights):
        with pytest.raises(ValidationError, match="bt709, bt601"):
            luma_scaled([[1, 2, 3]], weights)

    def test_cli_choices_are_the_weight_names(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        option = subparsers.choices["metric"]._option_string_actions["--luma-weights"]
        assert list(option.choices) == list(LUMA_WEIGHTS)

    @given(st.tuples(*[st.integers(0, 255)] * 3))
    def test_bounded(self, c):
        assert 0 <= luma_scaled([c])[0] <= 255 * LUMA_SCALE

    @given(st.tuples(*[st.integers(0, 254)] * 3), st.integers(0, 2))
    def test_monotone_in_each_channel(self, c, ch):
        bumped = list(c)
        bumped[ch] += 1
        assert luma_scaled([bumped])[0] > luma_scaled([c])[0]


class TestPlyParsing:
    def test_ascii_three_points(self, tmp_path):
        c = load_ply(write(tmp_path, ASCII_3PT))
        assert len(c) == 3
        assert c.positions.tolist() == [[0, 0, 0], [1, 2, 3], [4, 4, 4]]
        assert c.colors.tolist() == [[255, 0, 0], [0, 255, 0], [0, 0, 255]]
        assert c.bit_depth == 3

    def test_binary_equals_ascii(self, tmp_path):
        ref = load_ply(write(tmp_path, ASCII_3PT))
        save_ply(ref, tmp_path / "bin.ply", binary=True)
        again = load_ply(tmp_path / "bin.ply")
        assert (again.positions == ref.positions).all()
        assert (again.colors == ref.colors).all()
        assert again.bit_depth == ref.bit_depth

    def test_float_coords_round_half_even(self, tmp_path):
        text = ASCII_3PT.replace("1 2 3 0 255 0", "0.5 1.5 2.49 0 255 0")
        c = load_ply(write(tmp_path, text))
        assert c.positions[1].tolist() == [0, 2, 2]

    def test_unknown_property_skipped_with_warning(self, tmp_path):
        text = ASCII_3PT.replace(
            "property uchar blue\n", "property uchar blue\nproperty float nx\n"
        ).replace("0 0 0 255 0 0", "0 0 0 255 0 0 0.5"
        ).replace("1 2 3 0 255 0", "1 2 3 0 255 0 0.5"
        ).replace("4 4 4 0 0 255", "4 4 4 0 0 255 0.5")
        with pytest.warns(UserWarning, match="nx"):
            c = load_ply(write(tmp_path, text))
        assert len(c) == 3

    def test_binary_unknown_properties_skipped_with_warning(self, tmp_path):
        # extra double and uchar properties shift every later field's offset
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                  "property float x\nproperty double nx\nproperty float y\n"
                  "property float z\nproperty uchar alpha\nproperty uchar red\n"
                  "property uchar green\nproperty uchar blue\nend_header\n")
        pos = [(0, 0, 0), (1, 2, 3), (4, 4, 4)]
        col = [(255, 0, 0), (0, 255, 0), (0, 0, 255)]
        body = b"".join(struct.pack("<fdffBBBB", p[0], 0.5, p[1], p[2], 7, *c)
                        for p, c in zip(pos, col))
        with pytest.warns(UserWarning, match="nx, alpha"):
            c = load_ply(write(tmp_path, header.encode() + body))
        assert c.positions.tolist() == [list(p) for p in pos]
        assert c.colors.tolist() == [list(x) for x in col]

    def test_extra_fields_and_trailing_elements_ignored(self, tmp_path):
        text = (ASCII_3PT.replace("end_header", "element face 1\n"
                                  "property list uchar int vertex_indices\n"
                                  "end_header")
                .replace("4 4 4 0 0 255", "4 4 4 0 0 255 9 9")
                + "3 0 1 2\n")
        c = load_ply(write(tmp_path, text))
        assert c.positions.tolist() == [[0, 0, 0], [1, 2, 3], [4, 4, 4]]

    @pytest.mark.parametrize("old, new, error, match", [
        ("1 2 3 0 255 0", "1 2 3 3.7 255 0", PlyBodyError, "row 1.*not integers"),
        ("1 2 3 0 255 0", "1 2 3 nan 255 0", PlyBodyError, "row 1.*not integers"),
        ("1 2 3 0 255 0", "1 nan 3 0 255 0", PlyBodyError, "row 1.*not finite"),
        ("4 4 4 0 0 255", "4 inf 4 0 0 255", PlyBodyError, "row 2.*not finite"),
        ("4 4 4 0 0 255", "4 4 1e30 0 0 255", PlyBodyError, "row 2.*2\\^31"),
        ("4 4 4 0 0 255", "4 4 -1e30 0 0 255", PlyBodyError, "row 2.*2\\^31"),
        ("4 4 4 0 0 255", "2147483647.6 4 4 0 0 255", PlyBodyError,
         "row 2: coordinates \\[2147483648.0, 4.0, 4.0\\] .*2\\^31"),
        ("4 4 4 0 0 255", "4 4 4 0 0 256", PlyBodyError,
         "row 2: color values \\[0.0, 0.0, 256.0\\] are not integers in \\[0, 255\\]"),
        ("4 4 4 0 0 255", "4 4 4 0 0", PlyBodyError, None),
        ("4 4 4 0 0 255", "4 4 x 0 0 255", PlyBodyError, None),
        ("element vertex", "comment bit_depth 2\nelement vertex",
         PlyHeaderError, "bit_depth 2 is smaller"),
    ], ids=["fractional-color", "nan-color", "nan-coord", "inf-coord",
            "huge-coord", "huge-negative-coord", "rounds-to-2^31", "uchar-color-over-255",
            "too-few-fields", "not-a-number", "bit-depth-too-small"])
    def test_invalid_vertex_data_rejected(self, tmp_path, old, new, error, match):
        with pytest.raises(error, match=match):
            load_ply(write(tmp_path, ASCII_3PT.replace(old, new)))

    @pytest.mark.parametrize("ctype", ["float", "double", "int", "short"])
    @pytest.mark.parametrize("coltype", ["uchar", "float"])
    def test_binary_property_types_round_trip(self, tmp_path, rng, ctype, coltype):
        pos = rng.integers(0, 1000, (50, 3))
        col = rng.integers(0, 256, (50, 3))
        c = load_ply(write(tmp_path, ply(np.hstack([pos, col]), ctype, coltype)))
        assert c.positions.dtype == np.int64 and c.colors.dtype == np.uint8
        assert (c.positions == pos).all() and (c.colors == col).all()
        assert c.bit_depth == min_bit_depth(pos)

    @pytest.mark.parametrize("ctype", ["float", "double"])
    def test_binary_float_coords_round_half_even(self, tmp_path, ctype):
        rows = [(0.5, 1.5, 2.5, 0, 0, 0), (3.5, 4.5, 2.49, 0, 0, 0), (-0.5, 0.51, 7, 0, 0, 0)]
        c = load_ply(write(tmp_path, ply(rows, ctype)))
        assert c.positions.tolist() == [[0, 2, 2], [4, 4, 2], [0, 1, 7]]

    @pytest.mark.parametrize("i, row, ctype, match", [
        (1, (1, np.nan, 3, 0, 255, 0), "double", "row 1.*not finite"),
        (2, (4, np.inf, 4, 0, 0, 255), "double", "row 2.*not finite"),
        (2, (4, 4, 1e30, 0, 0, 255), "double", "row 2.*2\\^31"),
        (2, (4, 4, -1e30, 0, 0, 255), "double", "row 2.*2\\^31"),
        (2, (3000000000, 4, 4, 0, 0, 255), "uint", "row 2.*2\\^31"),
        (2, (2147483647.6, 4, 4, 0, 0, 255), "double",
         "row 2: coordinates \\[2147483648.0, 4.0, 4.0\\] .*2\\^31"),
        (1, (1, 2, 3, 3.5, 255, 0), "int", "row 1.*not integers"),
        (1, (1, 2, 3, np.nan, 255, 0), "int", "row 1.*not integers"),
        (2, (4, 4, 4, 0, 0, 256), "int",
         "row 2: color values \\[0.0, 0.0, 256.0\\] are not integers in \\[0, 255\\]"),
        (0, (0, 0, 0, -1, 0, 0), "int", "row 0: color values \\[-1.0, 0.0, 0.0\\]"),
    ], ids=["nan-coord", "inf-coord", "huge-coord", "huge-negative-coord",
            "uint-over-2^31", "rounds-to-2^31", "fractional-color", "nan-color",
            "color-over-255", "negative-color"])
    def test_binary_invalid_vertex_data_rejected_as_ascii(self, tmp_path, i, row, ctype,
                                                          match):
        # the binary reader refuses what the ascii reader does, with its message;
        # the colors are float properties
        rows = [(0, 0, 0, 255, 0, 0), (1, 2, 3, 0, 255, 0), (4, 4, 4, 0, 0, 255)]
        rows[i] = row
        errors = []
        for binary in (True, False):
            with pytest.raises(PlyBodyError, match=match) as exc:
                load_ply(write(tmp_path, ply(rows, ctype, "float", binary)))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_malformed_header(self, tmp_path):
        with pytest.raises(PlyHeaderError):
            load_ply(write(tmp_path, "not a ply\n"))
        with pytest.raises(PlyHeaderError):
            load_ply(write(tmp_path, ASCII_3PT.replace("format ascii 1.0",
                                                       "format big_endian 1.0")))

    def test_truncated_body(self, tmp_path):
        text = "\n".join(ASCII_3PT.splitlines()[:-1]) + "\n"
        with pytest.raises(PlyBodyError):
            load_ply(write(tmp_path, text))

    def test_truncated_binary_body(self, tmp_path):
        ref = load_ply(write(tmp_path, ASCII_3PT))
        save_ply(ref, tmp_path / "bin.ply", binary=True)
        blob = (tmp_path / "bin.ply").read_bytes()
        (tmp_path / "cut.ply").write_bytes(blob[:-4])
        with pytest.raises(PlyBodyError):
            load_ply(tmp_path / "cut.ply")

    def test_binary_vertex_count_beyond_file(self, tmp_path):
        ref = load_ply(write(tmp_path, ASCII_3PT))
        save_ply(ref, tmp_path / "bin.ply", binary=True)
        blob = (tmp_path / "bin.ply").read_bytes()
        (tmp_path / "huge.ply").write_bytes(
            blob.replace(b"element vertex 3", b"element vertex 99999999999999"))
        with pytest.raises(PlyBodyError, match="truncated: expected .* bytes, got 45$"):
            load_ply(tmp_path / "huge.ply")

    @pytest.mark.parametrize("old, new, positions, colors", [
        ("4 4 4 0 0 255", "4 4 4.5 0 0 255.0", [[0, 0, 0], [1, 2, 3], [4, 4, 4]],
         [[255, 0, 0], [0, 255, 0], [0, 0, 255]]),
        ("1 2 3 0 255 0", "+1 -0 3 +0 255 -0", [[0, 0, 0], [1, 0, 3], [4, 4, 4]],
         [[255, 0, 0], [0, 255, 0], [0, 0, 255]]),
    ], ids=["float-in-last-row", "signed-integers"])
    def test_ascii_tokens_read_as_numbers(self, tmp_path, old, new, positions, colors):
        c = load_ply(write(tmp_path, ASCII_3PT.replace(old, new)))
        assert c.positions.tolist() == positions
        assert c.colors.tolist() == colors

    @pytest.mark.parametrize("token, message", [
        ("99999999999999999999", "coordinates [1e+20, 4.0, 4.0] are not finite"),
        ("-9223372036854775808", "coordinates [-9.223372036854776e+18, 4.0, 4.0]"),
        ("3000000000", "coordinates [3000000000.0, 4.0, 4.0] are not finite"),
    ], ids=["over-int64", "int64-min", "over-2^31"])
    def test_ascii_out_of_range_integer_reported_as_float(self, tmp_path, token, message):
        with pytest.raises(PlyBodyError, match=f"^vertex row 2: {re.escape(message)}"):
            load_ply(write(tmp_path, ASCII_3PT.replace("4 4 4 0 0 255",
                                                       f"{token} 4 4 0 0 255")))

    def test_missing_color_property(self, tmp_path):
        text = ASCII_3PT.replace("property uchar blue\n", "")
        with pytest.raises(PlyPropertyError):
            load_ply(write(tmp_path, text))

    def test_negative_coordinate_rejected(self, tmp_path):
        text = ASCII_3PT.replace("1 2 3", "-1 2 3")
        with pytest.raises(PlyBodyError, match=r"row 1: coordinates \[-1.0, 2.0, 3.0\] "
                                               r"are not finite integers in \[0, 2\^31\)"):
            load_ply(write(tmp_path, text))

    @pytest.mark.parametrize("x, outcome", [
        (-0.5, [0, 4, 4]),  # rounds half to even, to 0
        (-0.4, [0, 4, 4]),
        (-0.6, "vertex row 2: coordinates [-1.0, 4.0, 4.0] are not finite integers "
               "in [0, 2^31) once rounded"),
    ])
    def test_negative_float_coordinate_refused_once_rounded(self, tmp_path, x, outcome):
        # the ascii and binary float readers load the same cloud or give the same error
        rows = [(0, 0, 0, 255, 0, 0), (1, 2, 3, 0, 255, 0), (x, 4, 4, 0, 0, 255)]
        for binary in (False, True):
            try:
                cloud = load_ply(write(tmp_path, ply(rows, "float", binary=binary)))
            except PlyBodyError as exc:
                assert str(exc) == outcome
            else:
                assert cloud.positions[2].tolist() == outcome

    def test_bit_depth_comment_honored(self, tmp_path):
        text = ASCII_3PT.replace("element vertex",
                                 "comment bit_depth 9\nelement vertex")
        assert load_ply(write(tmp_path, text)).bit_depth == 9


class TestRoundTrip:
    @pytest.mark.parametrize("binary", [False, True])
    def test_round_trip_10k(self, tmp_path, rng, binary):
        cloud = make_cloud(rng, 10_000, bit_depth=12)
        path = tmp_path / "c.ply"
        save_ply(cloud, path, binary=binary)
        again = load_ply(path)
        assert (again.positions == cloud.positions).all()
        assert (again.colors == cloud.colors).all()
        assert again.bit_depth == cloud.bit_depth

    def test_round_trip_int32_coords(self, tmp_path, rng):
        # above 24 bits float32 cannot hold every coordinate, so they are written as int
        cloud = make_cloud(rng, 200, bit_depth=25)
        save_ply(cloud, tmp_path / "i.ply", binary=True)
        assert b"property int x\n" in (tmp_path / "i.ply").read_bytes()
        again = load_ply(tmp_path / "i.ply")
        assert (again.positions == cloud.positions).all()
        assert again.bit_depth == 25

    def test_round_trip_bit_depth_21_ascii(self, tmp_path):
        # six significant digits would turn 1234567 into 1234570
        cloud = PointCloud([[1234567, 3, 5], [2**21 - 1, 0, 999_999]],
                           [[1, 2, 3], [4, 5, 6]], 21)
        save_ply(cloud, tmp_path / "c.ply")
        again = load_ply(tmp_path / "c.ply")
        assert (again.positions == cloud.positions).all()
        assert again.bit_depth == 21

    @pytest.mark.parametrize("bit_depth", [19, 25], ids=["float32", "int32"])
    def test_ascii_body_matches_per_point_writer(self, tmp_path, rng, bit_depth):
        cloud = make_cloud(rng, 500, bit_depth=bit_depth)
        save_ply(cloud, tmp_path / "c.ply")
        lines = []
        for p, c in zip(cloud.positions, cloud.colors):
            if bit_depth <= 24:
                coords = f"{float(p[0]):g} {float(p[1]):g} {float(p[2]):g}"
            else:
                coords = f"{int(p[0])} {int(p[1])} {int(p[2])}"
            lines.append(f"{coords} {int(c[0])} {int(c[1])} {int(c[2])}\n")
        text = (tmp_path / "c.ply").read_text()
        assert text.split("end_header\n", 1)[1] == "".join(lines)

    @pytest.mark.parametrize("bit_depth", range(1, 31))
    def test_ascii_body_matches_percent_d(self, tmp_path, rng, bit_depth):
        top = (1 << bit_depth) - 1
        clouds = [make_cloud(rng, 50, bit_depth),
                  PointCloud(np.zeros((4, 3)), np.zeros((4, 3)), bit_depth),
                  PointCloud([[top, 0, top // 2]], [[0, 9, 255]], bit_depth)]
        for cloud in clouds:
            save_ply(cloud, tmp_path / "c.ply")
            rows = np.concatenate([cloud.positions, cloud.colors], axis=1).tolist()
            want = "".join("%d %d %d %d %d %d\n" % tuple(row) for row in rows)
            body = (tmp_path / "c.ply").read_bytes().split(b"end_header\n", 1)[1]
            assert body == want.encode()

    @pytest.mark.parametrize("bit_depth, code", [(16, "<fffBBB"), (25, "<iiiBBB")],
                             ids=["float32-<fffBBB", "int32-<iiiBBB"])
    def test_binary_body_matches_struct_layout(self, tmp_path, rng, bit_depth, code):
        cloud = make_cloud(rng, 300, bit_depth=bit_depth)
        save_ply(cloud, tmp_path / "c.ply", binary=True)
        want = b"".join(struct.pack(code, *map(int, p), *map(int, c))
                        for p, c in zip(cloud.positions, cloud.colors))
        blob = (tmp_path / "c.ply").read_bytes()
        assert blob.split(b"end_header\n", 1)[1] == want


class TestBitDepthLimit:
    """Coordinates are written as PLY ``int`` above 24 bits, so bit depths
    above 31 are neither read nor written."""

    @pytest.mark.parametrize("depth", [32, 40, 1100, 10**6])
    def test_metric_refuses_a_comment_above_31(self, tmp_path, capsys, depth):
        text = ASCII_3PT.replace("element vertex",
                                 f"comment bit_depth {depth}\nelement vertex")
        path = write(tmp_path, text)
        assert main(["metric", str(path), str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error [io]: comment bit_depth {depth} is above 31")

    def test_metric_takes_a_comment_of_31(self, tmp_path, capsys):
        text = ASCII_3PT.replace("element vertex", "comment bit_depth 31\nelement vertex")
        path = write(tmp_path, text)
        assert main(["metric", str(path), str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["geometry_peak"] == 2**31 - 1

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_double_rounding_below_2_31_loads_at_depth_31(self, tmp_path, binary):
        cloud = load_ply(write(tmp_path, ply([(2147483647.4, 0, 5, 1, 2, 3)], "double",
                                             binary=binary)))
        assert cloud.positions.tolist() == [[2**31 - 1, 0, 5]]
        assert cloud.bit_depth == 31

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_metric_refuses_a_double_rounding_to_2_31(self, tmp_path, capsys, binary):
        # a body error, whatever the bit_depth comment says
        blob = ply([(2147483647.6, 0, 5, 1, 2, 3)], "double", binary=binary)
        path = write(tmp_path, blob.replace(b"element vertex",
                                            b"comment bit_depth 31\nelement vertex"))
        assert main(["metric", str(path), str(path)]) == 4
        assert capsys.readouterr().err == (
            "error [io]: vertex row 0: coordinates [2147483648.0, 0.0, 5.0] "
            "are not finite integers in [0, 2^31) once rounded\n")

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_save_refuses_depth_above_31_before_opening(self, tmp_path, binary):
        cloud = PointCloud([[2**33 + 5, 0, 0]], [[1, 2, 3]], 40)
        path = tmp_path / "c.ply"
        with pytest.raises(ValidationError, match="bit depth 40"):
            save_ply(cloud, path, binary=binary)
        assert not path.exists()

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_depth_31_round_trips_its_top_coordinate(self, tmp_path, binary):
        cloud = PointCloud([[2**31 - 1, 0, 5]], [[1, 2, 3]], 31)
        save_ply(cloud, tmp_path / "c.ply", binary=binary)
        again = load_ply(tmp_path / "c.ply")
        assert again.positions.tolist() == cloud.positions.tolist()
        assert again.bit_depth == 31
