"""Point clouds, PLY round trips, and the point-to-point metric suite.

Builds a small voxelized cloud, perturbs it like a lossy codec would,
and walks through the distortion numbers the rest of the library is
built on.
"""

import tempfile
from pathlib import Path

import numpy as np

from pcbitalloc import (
    NnIndex,
    PointCloud,
    build_index,
    load_ply,
    psnr,
    save_ply,
    symmetric_distortion,
)
from pcbitalloc.cloud import LUMA_SCALE, luma_scaled
from pcbitalloc.models import weighted

rng = np.random.default_rng(2024)

# A 10-bit voxel grid with 5,000 colored points.
n = 5000
reference = PointCloud(
    positions=rng.integers(0, 1024, (n, 3)),
    colors=rng.integers(0, 256, (n, 3)),
    bit_depth=10,
)
print(f"reference cloud: {len(reference)} points, {reference.bit_depth}-bit grid")
luma = luma_scaled(reference.colors[:1])[0] / LUMA_SCALE
print(f"luma of first point {reference.colors[0]} -> {luma:.3f}")

# PLY round trip in both flavors.
with tempfile.TemporaryDirectory() as tmp:
    ascii_path = Path(tmp) / "ref_ascii.ply"
    binary_path = Path(tmp) / "ref_binary.ply"
    save_ply(reference, ascii_path)
    save_ply(reference, binary_path, binary=True)
    again = load_ply(binary_path)
    assert (again.positions == reference.positions).all()
    assert (again.colors == reference.colors).all()
    print(f"PLY round trip ok (ascii {ascii_path.stat().st_size} B, "
          f"binary {binary_path.stat().st_size} B)")

# Simulate a reconstruction: jitter positions by +-1 voxel, darken colors a bit.
jitter = rng.integers(-1, 2, (n, 3))
reconstructed = PointCloud(
    positions=np.clip(reference.positions + jitter, 0, 1023),
    colors=np.clip(reference.colors.astype(int) - rng.integers(0, 6, (n, 3)), 0, 255),
    bit_depth=10,
)

# Directed errors are asymmetric; the symmetric metric takes the max.
def directed_geometry_mse(b, a):
    """Mean squared distance from each point of b to its nearest point of a."""
    _, d2 = NnIndex(a).query(b.positions)
    return int(d2.sum()) / len(b)


e_ba = directed_geometry_mse(reconstructed, reference)
e_ab = directed_geometry_mse(reference, reconstructed)
pair = symmetric_distortion(reference, reconstructed)
print(f"directed geometry MSE: B->A {e_ba:.4f}, A->B {e_ab:.4f}")
print(f"symmetric distortion:  d_g {pair.d_g:.4f}, d_c {pair.d_c:.4f}")

for omega in (0.25, 0.5):
    d = weighted(omega, pair.d_g, pair.d_c)
    q = psnr(pair.d_g, pair.d_c, omega, geometry_peak=1023.0, color_peak=255.0)
    print(f"omega={omega}: combined MSE {d:.4f}, PSNR {q:.2f} dB")

# The nearest-neighbor index is exact: compare a few queries to a linear scan.
index = build_index(reference)
queries = rng.integers(0, 1024, (5, 3))
idx, d2 = index.query(queries)
for q, i, d in zip(queries, idx, d2):
    brute = np.argmin(((reference.positions - q) ** 2).sum(axis=1))
    assert i == brute
    print(f"query {q} -> point {i}, squared distance {d}")
