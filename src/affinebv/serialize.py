"""Field I/O: the AFG1 binary format.

AFG1 layout (little endian): 8-byte magic ``AFGRID1\\0``, u32 dim,
u32 per-axis cell counts, f64 spacing, f64 origin per axis, then the cell
values as f64 in row-major order.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import GridError
from .grid import GridFunction, GridSpec

MAGIC = b"AFGRID1\x00"


def write_afg(path, u):
    spec = u.spec
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", spec.dim))
        f.write(struct.pack(f"<{spec.dim}I", *spec.shape))
        f.write(struct.pack("<d", spec.spacing))
        f.write(struct.pack(f"<{spec.dim}d", *spec.origin))
        f.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def read_afg(path):
    with open(path, "rb") as f:
        if f.read(8) != MAGIC:
            raise GridError(f"{path}: not an AFG1 file")
        (dim,) = struct.unpack("<I", f.read(4))
        if dim not in (2, 3):
            raise GridError(f"{path}: unsupported dim {dim}")
        shape = struct.unpack(f"<{dim}I", f.read(4 * dim))
        (spacing,) = struct.unpack("<d", f.read(8))
        origin = struct.unpack(f"<{dim}d", f.read(8 * dim))
        n = int(np.prod(shape))
        vals = np.frombuffer(f.read(8 * n), dtype="<f8", count=n).reshape(shape)
    spec = GridSpec(dim=dim, shape=shape, spacing=spacing, origin=origin)
    return GridFunction(spec, vals.copy())

