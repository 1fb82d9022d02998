"""Uniform cell-centered grids, domain masks, traces, and field operations.

A scalar field lives on a uniform isotropic grid (spacing ``h``) in dimension
2 or 3.  A :class:`DomainMask` selects the cells inside a bounded domain and
enumerates its boundary faces; traces, zero extension, and boundary measures
are all face-based.

Each boundary face is measured against the domain's outward normal.  Faces
of analytic shapes (ball, ellipsoid) carry the analytic outward normal at
the face center and the reduced area ``h**(n-1) * |nu . e_axis|``, which
removes the O(1) staircase bias of face counting on curved boundaries (a
rasterized disk would otherwise measure 8R instead of 2*pi*R).  Faces of
boxes and polygons carry their axis-aligned normal and the full area
``h**(n-1)``, exact for axis-aligned boxes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import GridError, ShapeError


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform cell-centered grid."""

    dim: int
    shape: tuple
    spacing: float
    origin: tuple

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GridError(f"dim must be 2 or 3, got {self.dim}")
        if len(self.shape) != self.dim or len(self.origin) != self.dim:
            raise GridError("shape/origin length must equal dim")
        if any(int(s) < 4 for s in self.shape):
            raise GridError(f"all shape entries must be >= 4, got {self.shape}")
        if not (self.spacing > 0):
            raise GridError(f"spacing must be > 0, got {self.spacing}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def cell_volume(self):
        return self.spacing ** self.dim

    @property
    def face_area(self):
        return self.spacing ** (self.dim - 1)

    def axis_centers(self, d):
        return self.origin[d] + (np.arange(self.shape[d]) + 0.5) * self.spacing

    def axes(self):
        """Cell-center coordinates one axis at a time, each broadcastable to
        the grid shape (a sparse ``meshgrid``)."""
        return np.meshgrid(*(self.axis_centers(d) for d in range(self.dim)),
                           indexing="ij", sparse=True)

    def cell_centers(self):
        """Cell-center coordinates, shape ``(*grid_shape, dim)``."""
        return np.stack(np.broadcast_arrays(*self.axes()), axis=-1)

    def bounds(self):
        lo = np.asarray(self.origin)
        hi = lo + np.asarray(self.shape) * self.spacing
        return lo, hi


@dataclass(frozen=True)
class GridFunction:
    """Scalar field with one finite value per cell."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.spec.shape:
            raise GridError(f"values shape {v.shape} != grid shape {self.spec.shape}")
        object.__setattr__(self, "values", check_finite(v))

    @staticmethod
    def zeros(spec):
        return GridFunction(spec, np.zeros(spec.shape))

    def with_values(self, values):
        return GridFunction(self.spec, values)


@dataclass(frozen=True)
class DomainMask:
    """Inside indicator plus the deterministic boundary-face enumeration.
    No inside cell lies in the two outermost cell layers of the grid.

    Each boundary face has one record: the C-order flat index of its inside
    cell, its axis, its side and its unit outward normal.  Faces are ordered
    by flat cell index, then axis, then side (-, +).  The normal is the
    analytic one at the face center for balls and ellipsoids, the axis
    normal otherwise.  Frozen, so the atom stencils it caches
    (:meth:`stencil`) always describe it.
    """

    spec: GridSpec
    inside: np.ndarray
    face_cells: np.ndarray        # (K,) flat index of the adjacent inside cell
    face_axes: np.ndarray         # (K,)
    face_signs: np.ndarray        # (K,) +1 or -1, outward along the axis
    normals: np.ndarray           # (K, dim) unit outward normals
    descriptor: dict = field(default_factory=dict)

    @property
    def n_inside(self):
        return int(np.count_nonzero(self.inside))

    @property
    def n_faces(self):
        return len(self.face_axes)

    def face_areas(self):
        """Per-face area ``h**(n-1) * |nu . e_axis|``: the full face area
        for an axis normal."""
        w = np.abs(self.normals[np.arange(self.n_faces), self.face_axes])
        return self.spec.face_area * w

    def face_centers(self):
        return _face_centers(self.spec, self.face_cells, self.face_axes,
                             self.face_signs)

    @functools.cached_property
    def _stencils(self):
        return {}

    def stencil(self, backend):
        """The :class:`~affinebv.variation.AtomStencil` of this mask for
        ``backend``, boundary rows included, built on first use and shared by
        every field on the mask."""
        if backend not in self._stencils:
            from .variation import AtomStencil   # variation imports this module
            self._stencils[backend] = AtomStencil(self, backend)
        return self._stencils[backend]


@dataclass(frozen=True)
class TraceData:
    """Boundary trace: one value per boundary face with normal and area."""

    values: np.ndarray
    normals: np.ndarray
    areas: np.ndarray

    def l1_norm(self):
        return float(np.sum(np.abs(self.values) * self.areas))


def row_norms(a):
    """Euclidean norm of each row of ``a`` (N, n).  The squares are summed
    one component at a time in component order, which is bit-identical to
    ``np.linalg.norm(a, axis=1)`` without its length-n inner loop per row."""
    s = a[:, 0] * a[:, 0]
    for d in range(1, a.shape[1]):
        s += a[:, d] * a[:, d]
    return np.sqrt(s)


# required keys of each shape kind, with the rank of their values
SHAPE_KEYS = {"box": {"extents": 2}, "ball": {"center": 1, "radius": 0},
              "ellipsoid": {"center": 1, "matrix": 2}, "polygon": {"vertices": 2}}


def parse_shape(desc):
    """Validate a shape descriptor (kind, keys, finite numbers, dimension 2
    or 3, positive size) or raise :class:`ShapeError`.  Returns the
    ``(dim, 2)`` bounding box, the inside test and the analytic outward
    normal (None for polygons and boxes).  The inside test takes per-axis
    coordinates that broadcast against each other (:meth:`GridSpec.axes`)
    and builds its sums one component at a time; the normal takes ``(K,
    dim)`` points."""
    kind = desc.get("shape")
    if not isinstance(kind, str) or kind not in SHAPE_KEYS:
        raise ShapeError(f"shape must be one of {sorted(SHAPE_KEYS)}, "
                         f"got {kind!r}")
    v = {}
    for key, rank in SHAPE_KEYS[kind].items():
        if key not in desc:
            raise ShapeError(f"{kind} descriptor needs key {key!r}")
        try:
            v[key] = np.asarray(desc[key], dtype=float)
        except (TypeError, ValueError):
            v[key] = None
        if v[key] is None or v[key].ndim != rank or not np.isfinite(v[key]).all():
            raise ShapeError(f"{key!r} must be a finite rank-{rank} number "
                             f"array, got {desc[key]!r}")
    normal = None
    if kind == "box":
        bbox = ext = v["extents"]
        if ext.shape[1] != 2 or np.any(ext[:, 1] <= ext[:, 0]):
            raise ShapeError(f"bad box extents {ext.tolist()}")

        def pred(xs):
            out = True
            for x, (lo, hi) in zip(xs, ext):
                out = out & (x > lo) & (x < hi)
            return out

    elif kind == "ball":
        c = v["center"]
        r = float(v["radius"])
        if r <= 0:
            raise ShapeError(f"ball radius must be > 0, got {r}")
        bbox = np.stack([c - r, c + r], axis=1)

        def pred(xs):
            return sum((x - ck) ** 2 for x, ck in zip(xs, c)) < r * r

        def normal(pts):
            d = pts - c
            return d / row_norms(d)[:, None]

    elif kind == "ellipsoid":
        c, A = v["center"], v["matrix"]
        if A.shape != (len(c), len(c)) or abs(np.linalg.det(A)) < 1e-300:
            raise ShapeError("ellipsoid matrix must be invertible and dim x dim")
        M = np.linalg.inv(A @ A.T)
        # bounding half-widths: sqrt(diag(A A^T))
        hw = np.sqrt(np.diag(A @ A.T))
        bbox = np.stack([c - hw, c + hw], axis=1)

        def pred(xs):
            d = [x - ck for x, ck in zip(xs, c)]
            return sum(d[i] * M[i, j] * d[j] for i in range(len(d))
                       for j in range(len(d))) < 1.0

        def normal(pts):
            g = (pts - c) @ M.T
            return g / row_norms(g)[:, None]

    else:
        verts = v["vertices"]
        if verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ShapeError("polygon needs >= 3 vertices in 2D")
        bbox = np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1)

        def pred(xs):
            x, y = xs
            inside = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=bool)
            n = len(verts)
            for i in range(n):
                x1, y1 = verts[i]
                x2, y2 = verts[(i + 1) % n]
                crosses = (y1 > y) != (y2 > y)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xin = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
                inside ^= crosses & (x < xin)
            return inside

    if len(bbox) not in (2, 3):
        raise ShapeError(f"{kind} must be 2D or 3D, got {len(bbox)}D")
    return bbox, pred, normal


def make_mask(spec, shape_spec):
    """Rasterize a shape descriptor into a :class:`DomainMask`.

    The shape must fit strictly inside the grid with >= 2 cells of margin.
    """
    bbox, pred, normal_fn = parse_shape(shape_spec)
    if len(bbox) != spec.dim:
        raise ShapeError(f"{shape_spec['shape']} is {len(bbox)}D but the grid "
                         f"is {spec.dim}D")
    lo, hi = spec.bounds()
    margin = 2 * spec.spacing
    if np.any(bbox[:, 0] < lo + margin) or np.any(bbox[:, 1] > hi - margin):
        raise ShapeError(
            f"shape bounding box {bbox.tolist()} exceeds grid "
            f"[{(lo + margin).tolist()}, {(hi - margin).tolist()}] "
            "(needs 2 cells of margin)"
        )
    inside = pred(spec.axes())
    if not inside.any():
        raise ShapeError("shape rasterizes to an empty interior")

    n = spec.dim
    # is_face[cell, axis, side]: the margin keeps inside cells off the grid
    # edge, so the wrap-around of roll never pairs two inside cells
    is_face = np.empty(inside.shape + (n, 2), dtype=bool)
    for d in range(n):
        for k, s in enumerate((-1, 1)):
            is_face[..., d, k] = inside & ~np.roll(inside, -s, axis=d)
    # C order of is_face is the face order: flat cell, then axis, then side
    face_cells, rest = divmod(np.flatnonzero(is_face), 2 * n)
    face_axes, side = divmod(rest, 2)
    face_signs = 2 * side - 1
    if normal_fn is None:
        normals = np.zeros((len(face_axes), n))
        normals[np.arange(len(face_axes)), face_axes] = face_signs
    else:
        normals = normal_fn(_face_centers(spec, face_cells, face_axes, face_signs))
    return DomainMask(spec=spec, inside=inside, face_cells=face_cells,
                      face_axes=face_axes, face_signs=face_signs,
                      normals=normals, descriptor=dict(shape_spec))


def _face_centers(spec, cells, axes, signs):
    """Centers (K, dim) of the faces on side ``signs`` along ``axes`` of the
    flat cells ``cells``."""
    idx = np.stack(np.unravel_index(cells, spec.shape), axis=1)
    centers = np.asarray(spec.origin) + (idx + 0.5) * spec.spacing
    centers[np.arange(len(axes)), axes] += signs * 0.5 * spec.spacing
    return centers


def _check_same_grid(u, mask):
    if u.spec != mask.spec:
        raise GridError("field and mask live on different grids")


def zero_extend(u, mask):
    """Zero the field outside the mask (the discrete u-bar). Idempotent."""
    _check_same_grid(u, mask)
    return u.with_values(np.where(mask.inside, u.values, 0.0))


def extract_trace(u, mask):
    """Boundary trace: the adjacent inside-cell value per boundary face."""
    _check_same_grid(u, mask)
    return TraceData(values=np.take(u.values, mask.face_cells),
                     normals=mask.normals, areas=mask.face_areas())


def mollify(u, sigma):
    """Gaussian mollification with kernel truncated at 4*sigma (length units)."""
    if sigma < 0:
        raise GridError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return u
    # nearest-edge padding keeps constants exactly constant
    out = ndimage.gaussian_filter(
        u.values, sigma=sigma / u.spec.spacing, truncate=4.0, mode="nearest"
    )
    return u.with_values(out)


def resample_affine(u, T):
    """Sample ``(u o T)(x) = u(Tx)`` by multilinear interpolation on the
    grid of ``u``.

    ``T`` must have unit determinant.  The grid must cover
    ``T^{-1}(support of u)``.
    """
    T = np.asarray(T, dtype=float)
    n = u.spec.dim
    if T.shape != (n, n):
        raise GridError(f"map must be {n}x{n}")
    if abs(np.linalg.det(T) - 1.0) > 1e-10:
        raise GridError(f"map determinant {np.linalg.det(T)} != 1")

    nz = np.argwhere(u.values != 0.0)
    if len(nz):
        h = u.spec.spacing
        lo = np.asarray(u.spec.origin) + nz.min(axis=0) * h
        hi = np.asarray(u.spec.origin) + (nz.max(axis=0) + 1) * h
        corners = np.array(
            [[lo[d] if (k >> d) & 1 == 0 else hi[d] for d in range(n)]
             for k in range(2 ** n)]
        )
        pre = corners @ np.linalg.inv(T).T
        need_lo, need_hi = pre.min(axis=0), pre.max(axis=0)
        glo, ghi = u.spec.bounds()
        if np.any(need_lo < glo) or np.any(need_hi > ghi):
            raise GridError(
                "support escapes target grid; required bounding box "
                f"[{need_lo.tolist()}, {need_hi.tolist()}]"
            )

    pts = u.spec.cell_centers().reshape(-1, n) @ T.T
    frac = (pts - np.asarray(u.spec.origin)) / u.spec.spacing - 0.5
    out = ndimage.map_coordinates(
        u.values, frac.T, order=1, mode="constant", cval=0.0
    )
    return u.with_values(out.reshape(u.spec.shape))


def check_finite(v):
    """``v``, or :class:`GridError` if a value is non-finite."""
    if not np.isfinite(v).all():
        raise GridError("field contains non-finite values")
    return v


def lq_vector(x, q, cell_volume):
    """L^q norm of cell values ``x``: (sum |x|^q h^n)^(1/q)."""
    return float(np.sum(np.abs(x) ** q) * cell_volume) ** (1.0 / q)


def lq_norm(u, mask, q):
    """L^q norm over inside cells: :func:`lq_vector` of their values."""
    _check_same_grid(u, mask)
    if q < 1:
        raise GridError(f"q must be >= 1, got {q}")
    return lq_vector(u.values[mask.inside], q, u.spec.cell_volume)
