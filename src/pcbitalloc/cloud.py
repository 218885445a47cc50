"""Voxelized point clouds with per-point color, plus PLY ingestion.

A cloud is a pair of parallel arrays: integer voxel positions and 8-bit
RGB colors, together with the voxel-grid bit depth. Both PLY variants in
common use are supported: ``format ascii 1.0`` and
``format binary_little_endian 1.0``, with vertex properties x,y,z
(float32 or int32) and red,green,blue (uint8). Unknown scalar vertex
properties are skipped with a warning. The writer records the bit depth
in a ``comment bit_depth N`` line so a save/load round trip restores it;
absent that, the smallest depth containing all coordinates is used, and a
comment smaller than that depth or above 31 is rejected; the writer
refuses a cloud whose depth is above 31. Each coordinate, once
rounded, must be an integer in [0, 2^31), and each color an integer in
[0, 255]; every body error names the first bad row and prints its
values as floats. Both bodies are parsed and written as whole arrays,
and the x,y,z and red,green,blue columns reach the checks in the type
they were parsed to. Binary fields go straight to int64 positions and
uint8 colors: only float coordinates are rounded, and colors are checked
only when their type is not uchar. An ascii body is parsed as int64
first, the common case for voxelized clouds, and parsed again as float64
only when a token is not an integer that fits. The
ascii writer builds one matrix of digit characters with
whole-array ``// 10`` steps, masks the leading zeros and writes the rest
as one byte string, the same bytes ``"%d"`` gives. The body is read to
the end of the file once, so a binary vertex count is checked against
the bytes there before any buffer is sized by it.

``PointCloud`` itself refuses positions and colors that are not finite
integers in range rather than truncating or wrapping them; an integer
array that casts safely, such as the reader's, skips that extra pass.

The color metric compares luma, which ``luma_scaled`` gives as exact
integers: the BT.709 or BT.601 weights of ``LUMA_WEIGHTS`` in units of
1/10000, so white is 255 * ``LUMA_SCALE``.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PlyBodyError, PlyHeaderError, PlyPropertyError, ValidationError

# Integer per-10000 luma weights; both rows sum to exactly 10000 so white maps to 255.
LUMA_WEIGHTS = {
    "bt709": (2126, 7152, 722),
    "bt601": (2990, 5870, 1140),
}
LUMA_SCALE = 10000

# PLY scalar type -> little-endian numpy dtype code.
_PLY_DTYPES = {
    "char": "<i1", "int8": "<i1", "uchar": "<u1", "uint8": "<u1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4",
    "double": "<f8", "float64": "<f8",
}
# Coordinates must lie below 2^31, the range of the PLY ``int`` the writer
# uses, so a bit depth above 31 is neither read nor written.
_MAX_BIT_DEPTH = 31
_COORD_LIMIT = 1 << _MAX_BIT_DEPTH


def as_integers(values, dtype, what: str) -> np.ndarray:
    """values as a C-contiguous array of the integer dtype, never rounded or wrapped.

    Input whose dtype casts safely to ``dtype`` is taken as it is. Any
    other input (floats, wider integers, objects) must hold finite
    integers within the range of ``dtype``, or ``ValidationError`` is
    raised.
    """
    arr = np.asarray(values)
    if not np.can_cast(arr.dtype, dtype):
        try:
            real = arr.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{what} must be numbers") from exc
        if not (np.isfinite(real) & (real == np.floor(real))).all():
            raise ValidationError(f"{what} must be finite integers")
        info = np.iinfo(dtype)
        if real.size and (real.min() < info.min or real.max() >= info.max + 1.0):
            raise ValidationError(f"{what} must lie in [{info.min}, {info.max}]")
    return np.ascontiguousarray(arr, dtype=dtype)


@dataclass(frozen=True)
class PointCloud:
    """Immutable voxelized cloud: positions (n,3) int64, colors (n,3) uint8.

    Positions and colors must be integers; fractional, non-finite and
    out-of-range values are refused rather than truncated or wrapped.
    An array that is already C-contiguous int64 (uint8 for colors) is not
    copied: the cloud holds a read-only view of it, so the caller's array
    stays writable and a later write to it shows in the cloud.
    """

    positions: np.ndarray
    colors: np.ndarray
    bit_depth: int

    def __post_init__(self):
        pos = as_integers(self.positions, np.int64, "positions")
        col = as_integers(self.colors, np.uint8, "colors")
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValidationError("positions must have shape (n, 3)")
        if col.shape != pos.shape:
            raise ValidationError("colors must match positions in shape")
        if len(pos) < 1:
            raise ValidationError("cloud must contain at least one point")
        if not isinstance(self.bit_depth, int) or self.bit_depth < 1:
            raise ValidationError("bit_depth must be a positive integer")
        hi = 1 << self.bit_depth
        if pos.min() < 0 or pos.max() >= hi:
            raise ValidationError(
                f"coordinates must lie in [0, 2^{self.bit_depth})"
            )
        # read-only views, so an array the caller passed in stays writable
        pos, col = pos.view(), col.view()
        pos.setflags(write=False)
        col.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col)

    def __len__(self) -> int:
        return len(self.positions)


def min_bit_depth(positions) -> int:
    """Smallest depth d with every coordinate in [0, 2^d)."""
    m = int(np.max(positions))
    d = 1
    while (1 << d) <= m:
        d += 1
    return d


def luma_scaled(colors, weights: str = "bt709") -> np.ndarray:
    """Per-point luma times LUMA_SCALE as exact int64 (for integer metric sums).

    ``colors`` holds (n, 3) RGB values in [0, 255]; ``weights`` names a row
    of ``LUMA_WEIGHTS``. Anything else raises ``ValidationError``.
    """
    if not isinstance(weights, str) or weights not in LUMA_WEIGHTS:
        raise ValidationError(f"unknown luma weights {weights!r}; "
                              f"expected one of {', '.join(LUMA_WEIGHTS)}")
    wr, wg, wb = LUMA_WEIGHTS[weights]
    c = as_integers(colors, np.uint8, "colors").astype(np.int64)
    return wr * c[:, 0] + wg * c[:, 1] + wb * c[:, 2]


def _parse_header(fh):
    """Read the PLY header; returns (fmt, n_vertex, properties, bit_depth_hint)."""
    magic = fh.readline()
    if magic.strip() != b"ply":
        raise PlyHeaderError("not a PLY file (missing 'ply' magic)")
    fmt = None
    n_vertex = None
    props = []
    bit_depth_hint = None
    in_vertex = False
    seen_other_element = False
    while True:
        raw = fh.readline()
        if not raw:
            raise PlyHeaderError("header ended before end_header")
        line = raw.decode("ascii", errors="replace").strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "format":
            if len(tok) < 2 or tok[1] not in ("ascii", "binary_little_endian"):
                raise PlyHeaderError(f"unsupported format line: {line!r}")
            fmt = tok[1]
        elif tok[0] == "comment":
            if len(tok) >= 3 and tok[1] == "bit_depth":
                try:
                    bit_depth_hint = int(tok[2])
                except ValueError:
                    pass
                else:
                    if bit_depth_hint > _MAX_BIT_DEPTH:
                        raise PlyHeaderError(f"comment bit_depth {bit_depth_hint} is "
                                             f"above {_MAX_BIT_DEPTH}")
        elif tok[0] == "element":
            if len(tok) != 3:
                raise PlyHeaderError(f"malformed element line: {line!r}")
            if tok[1] == "vertex":
                if seen_other_element:
                    raise PlyHeaderError("vertex element must come first")
                try:
                    n_vertex = int(tok[2])
                except ValueError:
                    raise PlyHeaderError(f"bad vertex count: {tok[2]!r}")
                in_vertex = True
            else:
                in_vertex = False
                seen_other_element = True
        elif tok[0] == "property":
            if in_vertex:
                if tok[1] == "list":
                    raise PlyHeaderError("list properties on vertices are not supported")
                if len(tok) != 3:
                    raise PlyHeaderError(f"malformed property line: {line!r}")
                ptype, pname = tok[1], tok[2]
                if ptype not in _PLY_DTYPES:
                    raise PlyHeaderError(f"unknown property type {ptype!r}")
                props.append((pname, ptype))
        elif tok[0] == "end_header":
            break
        else:
            raise PlyHeaderError(f"unrecognized header line: {line!r}")
    if fmt is None:
        raise PlyHeaderError("header has no format line")
    if n_vertex is None:
        raise PlyHeaderError("header declares no vertex element")
    return fmt, n_vertex, props, bit_depth_hint


def _locate_columns(props):
    names = [p[0] for p in props]
    for want in ("x", "y", "z"):
        if want not in names:
            raise PlyPropertyError(f"vertex property {want!r} is missing")
    for want in ("red", "green", "blue"):
        if want not in names:
            raise PlyPropertyError(f"color property {want!r} is missing")
    known = {"x", "y", "z", "red", "green", "blue"}
    extra = [n for n in names if n not in known]
    if extra:
        warnings.warn(f"skipping unknown vertex properties: {', '.join(extra)}")
    return {n: names.index(n) for n in known}


def _load_ascii(body: bytes, n_vertex: int, props, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # loadtxt warns about blank lines, which it skips, and about an
        # empty body, which the row count in _read_body rejects
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(io.BytesIO(body), dtype=dtype, comments=None, ndmin=2,
                          usecols=range(len(props)), max_rows=n_vertex)


def _read_body(fh, fmt: str, n_vertex: int, props, cols) -> tuple[np.ndarray, np.ndarray]:
    """The vertex rows' (xyz, rgb) columns, each (n_vertex, 3) in its parsed type.

    A binary column keeps its property's type; an ascii body is int64, or
    float64 when a token is not an integer that fits.
    """
    # The rest of the file, so that a vertex count beyond it sizes no
    # buffer and the ascii body can be parsed twice without seeking a pipe.
    body = fh.read()
    if fmt == "ascii":
        try:
            data = _load_ascii(body, n_vertex, props, np.int64)
        except (ValueError, OverflowError):
            # a float token, an integer beyond int64 or a malformed body
            try:
                data = _load_ascii(body, n_vertex, props, np.float64)
            except ValueError as exc:
                raise PlyBodyError(f"vertex data: {exc}") from None
        if len(data) < n_vertex:
            raise PlyBodyError(f"vertex data truncated at row {len(data)}")
        fields = data.T
    else:
        dtype = np.dtype([(f"p{i}", _PLY_DTYPES[t]) for i, (_, t) in enumerate(props)])
        expected = dtype.itemsize * n_vertex
        if len(body) < expected:
            raise PlyBodyError(
                f"binary body truncated: expected {expected} bytes, got {len(body)}")
        rows = np.frombuffer(body, dtype=dtype, count=n_vertex)
        fields = [rows[name] for name in dtype.names]
    return tuple(np.stack([fields[cols[n]] for n in names], axis=1)
                 for names in (("x", "y", "z"), ("red", "green", "blue")))


def _check_rows(ok: np.ndarray, values: np.ndarray, what: str, rule: str) -> None:
    """Raise PlyBodyError naming the first row with a false entry in ok."""
    if not ok.all():
        row = int(np.flatnonzero(~ok.all(axis=1))[0])
        raise PlyBodyError(f"vertex row {row}: {what} "
                           f"{values[row].astype(np.float64).tolist()} {rule}")


def load_ply(path) -> PointCloud:
    """Parse a PLY file (ascii or binary little-endian) into a PointCloud."""
    path = Path(path)
    with open(path, "rb") as fh:
        fmt, n_vertex, props, bit_depth_hint = _parse_header(fh)
        if n_vertex < 1:
            raise PlyHeaderError("vertex count must be >= 1")
        xyz, rgb = _read_body(fh, fmt, n_vertex, props, _locate_columns(props))

    if xyz.dtype.kind == "f":
        # np.rint rounds halves to even, matching the documented convention,
        # and keeps NaN and inf; xyz is the parser's own copy, so in place
        np.rint(xyz, out=xyz)
    with np.errstate(invalid="ignore"):
        ok = (xyz >= 0) & (xyz < _COORD_LIMIT)  # false for NaN
    _check_rows(ok, xyz, "coordinates", "are not finite integers in [0, 2^31) once rounded")
    if rgb.dtype != np.uint8:
        with np.errstate(invalid="ignore"):
            ok = (rgb >= 0) & (rgb <= 255)
            if rgb.dtype.kind == "f":
                ok &= rgb == np.rint(rgb)
        _check_rows(ok, rgb, "color values", "are not integers in [0, 255]")
    positions = xyz.astype(np.int64, copy=False)
    needed = min_bit_depth(positions)
    if bit_depth_hint is None:
        bit_depth_hint = needed
    elif bit_depth_hint < needed:
        raise PlyHeaderError(
            f"comment bit_depth {bit_depth_hint} is smaller than the data, "
            f"which needs {needed} bits"
        )
    return PointCloud(positions, rgb.astype(np.uint8, copy=False), bit_depth_hint)


def _ascii_rows(body: np.ndarray) -> bytes:
    """Non-negative int64 rows as the bytes ``"%d %d ... %d\\n" % row`` gives.

    One row of digit characters per value, filled from the last digit with
    whole-array ``// 10`` steps; a digit is kept while the value has digits
    left of it, and the last digit always, so 0 prints as ``0``.
    """
    width = len(str(int(body.max())))
    chars = np.empty((body.size, width + 1), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    value = body.ravel()
    for j in range(width - 1, -1, -1):
        quotient = value // 10
        digit = value - 10 * quotient
        digit += ord("0")
        chars[:, j] = digit
        if j:
            keep[:, j - 1] = quotient > 0
        value = quotient
    columns = body.shape[1]
    chars[:, width] = ord(" ")
    chars[columns - 1::columns, width] = ord("\n")
    return chars[keep].tobytes()


def save_ply(cloud: PointCloud, path, binary: bool = False) -> None:
    """Write a cloud as PLY; the bit depth is preserved in a header comment.

    Coordinates are ``float`` up to 24 bits, which float32 holds exactly,
    and ``int`` above. Ascii coordinates are written as integers either
    way; an integer literal is a valid value of a PLY ``float`` property.
    A cloud whose bit depth is above 31 is refused before the file is
    opened: its coordinates need not fit a PLY ``int``.
    """
    if cloud.bit_depth > _MAX_BIT_DEPTH:
        raise ValidationError(f"cannot write bit depth {cloud.bit_depth}; "
                              f"PLY coordinates take at most {_MAX_BIT_DEPTH} bits")
    fmt = "binary_little_endian" if binary else "ascii"
    ctype = "float" if cloud.bit_depth <= 24 else "int"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"comment bit_depth {cloud.bit_depth}\n"
        f"element vertex {len(cloud)}\n"
        f"property {ctype} x\n"
        f"property {ctype} y\n"
        f"property {ctype} z\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        "end_header\n"
    )
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            rows = np.rec.fromarrays(
                [*cloud.positions.T, *cloud.colors.T],
                dtype=[(n, _PLY_DTYPES[ctype]) for n in ("x", "y", "z")]
                + [(n, "<u1") for n in ("red", "green", "blue")])
            rows.tofile(fh)
        else:
            fh.write(_ascii_rows(np.concatenate([cloud.positions, cloud.colors], axis=1)))
