"""Field I/O: the AFG1 binary format.

AFG1 layout (little endian): 8-byte magic ``AFGRID1\\0``, u32 dim,
u32 per-axis cell counts, f64 spacing, f64 origin per axis, then the cell
values as f64 in row-major order.
"""

from __future__ import annotations

import math
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
    """The field in an AFG1 file; :class:`GridError` if the file cannot be
    read, its header is short or invalid, or its payload is not exactly the
    cell values."""
    try:
        with open(path, "rb") as f:
            if f.read(8) != MAGIC:
                raise GridError(f"{path}: not an AFG1 file")
            (dim,) = _unpack(f, "<I", path)
            if dim not in (2, 3):
                raise GridError(f"{path}: unsupported dim {dim}")
            shape = _unpack(f, f"<{dim}I", path)
            (spacing,) = _unpack(f, "<d", path)
            origin = _unpack(f, f"<{dim}d", path)
            payload = f.read()
    except OSError as e:
        raise GridError(f"cannot read {path}: {e}") from e
    spec = GridSpec(dim=dim, shape=shape, spacing=spacing, origin=origin)
    if len(payload) != 8 * math.prod(shape):
        raise GridError(f"{path}: {len(payload)} payload bytes for "
                        f"{math.prod(shape)} cells")
    vals = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return GridFunction(spec, vals.copy())


def _unpack(f, fmt, path):
    """The values of one ``fmt`` record read from ``f``."""
    size = struct.calcsize(fmt)
    data = f.read(size)
    if len(data) != size:
        raise GridError(f"{path}: truncated AFG1 header")
    return struct.unpack(fmt, data)

