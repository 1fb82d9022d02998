"""Grid, mask, trace, mollification, and resampling behavior."""

import dataclasses

import numpy as np
import pytest

from affinebv import (
    GridFunction,
    GridSpec,
    ShapeError,
    extract_trace,
    lq_norm,
    make_mask,
    mollify,
    resample_affine,
    zero_extend,
)
from affinebv.errors import GridError

from conftest import indicator, random_field


class TestGridSpec:
    def test_rejects_bad_dim(self):
        with pytest.raises(GridError):
            GridSpec(dim=4, shape=(8, 8, 8, 8), spacing=0.1, origin=(0,) * 4)

    def test_rejects_small_shape(self):
        with pytest.raises(GridError):
            GridSpec(dim=2, shape=(3, 8), spacing=0.1, origin=(0.0, 0.0))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(GridError):
            GridSpec(dim=2, shape=(8, 8), spacing=0.0, origin=(0.0, 0.0))

    def test_cell_centers_shape(self):
        spec = GridSpec(dim=2, shape=(8, 6), spacing=0.5, origin=(0.0, 0.0))
        c = spec.cell_centers()
        assert c.shape == (8, 6, 2)
        assert c[0, 0, 0] == pytest.approx(0.25)


class TestMakeMask:
    def test_centered_box_counts(self):
        # 4x4 cell block: 16 inside cells, 16 boundary faces
        spec = GridSpec(dim=2, shape=(8, 8), spacing=0.25, origin=(-1.0, -1.0))
        mask = make_mask(spec, {"shape": "box",
                                "extents": [[-0.5, 0.5], [-0.5, 0.5]]})
        assert mask.n_inside == 16
        assert mask.n_faces == 16

    def test_empty_ball_rejected(self):
        spec = GridSpec(dim=2, shape=(16, 16), spacing=0.1, origin=(0.0, 0.0))
        with pytest.raises(ShapeError):
            make_mask(spec, {"shape": "ball", "center": [0.8, 0.8],
                             "radius": 0.0})

    def test_shape_must_fit_with_margin(self):
        spec = GridSpec(dim=2, shape=(16, 16), spacing=0.1, origin=(0.0, 0.0))
        with pytest.raises(ShapeError):
            make_mask(spec, {"shape": "ball", "center": [0.8, 0.8],
                             "radius": 0.79})

    def test_disk_area(self):
        spec = GridSpec(dim=2, shape=(256, 256), spacing=2.6 / 256,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        assert mask.n_inside * spec.cell_volume == pytest.approx(np.pi, rel=0.02)

    def test_mask_is_frozen(self, disk64):
        # a mask keeps its atom stencils, which must never go stale
        _, mask = disk64
        with pytest.raises(dataclasses.FrozenInstanceError):
            mask.inside = ~mask.inside
        with pytest.raises(dataclasses.FrozenInstanceError):
            mask.normals = None
        assert mask.normals.shape == (mask.n_faces, 2)   # set at construction

    def test_one_stencil_per_backend(self, square64):
        _, mask = square64
        face, cell = mask.stencil("face-atoms"), mask.stencil("cell-gradient")
        assert face is not cell
        assert mask.stencil("face-atoms") is face
        assert mask.stencil("cell-gradient") is cell
        # a copy is a new mask with its own stencils
        assert dataclasses.replace(mask).stencil("face-atoms") is not face
        with pytest.raises(GridError, match="unknown backend"):
            mask.stencil("bogus")

    def test_faces_sorted_deterministically(self, square64):
        _, mask = square64
        order = np.lexsort((mask.face_signs, mask.face_axes, mask.face_cells))
        assert np.array_equal(order, np.arange(mask.n_faces))

    def test_every_face_separates_inside_from_outside(self, disk64):
        _, mask = disk64
        inside = mask.inside
        for flat, ax, sg in zip(mask.face_cells, mask.face_axes,
                                mask.face_signs):
            cell = np.array(np.unravel_index(flat, mask.spec.shape))
            assert inside[tuple(cell)]
            nb = cell.copy()
            nb[ax] += sg
            ok = np.all((nb >= 0) & (nb < np.array(mask.spec.shape)))
            assert not ok or not inside[tuple(nb)]


def random_descriptor(kind, dim, rng):
    """A random shape that fits [-1, 1]^dim."""
    c = rng.uniform(-0.2, 0.2, dim)
    if kind == "ball":
        return {"shape": "ball", "center": c.tolist(),
                "radius": float(rng.uniform(0.3, 0.8))}
    if kind == "box":
        half = rng.uniform(0.2, 0.8, dim)
        return {"shape": "box", "extents": np.stack([c - half, c + half], 1).tolist()}
    if kind == "ellipsoid":
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        return {"shape": "ellipsoid", "center": c.tolist(),
                "matrix": (q @ np.diag(rng.uniform(0.3, 0.8, dim))).tolist()}
    t = np.sort(rng.uniform(0, 2 * np.pi, 7))
    r = rng.uniform(0.3, 0.8, 7)
    return {"shape": "polygon",
            "vertices": (c + np.stack([r * np.cos(t), r * np.sin(t)], 1)).tolist()}


def reference_mask(spec, desc):
    """Rasterization on the full cell-center array: the inside test reduces
    over the coordinate axis, faces come from a loop over inside cells in C
    order, then axis, then side (-, +).  Returns (inside, face_cells as
    (K, dim) indices, face_axes, face_signs, face_centers, normals), with
    axis normals for boxes and polygons."""
    pts = spec.cell_centers()
    normal = None
    if desc["shape"] == "ball":
        c = np.asarray(desc["center"], dtype=float)
        inside = np.sum((pts - c) ** 2, axis=-1) < float(desc["radius"]) ** 2

        def normal(p):
            return (p - c) / np.linalg.norm(p - c, axis=-1, keepdims=True)
    elif desc["shape"] == "box":
        ext = np.asarray(desc["extents"], dtype=float)
        inside = np.all((pts > ext[:, 0]) & (pts < ext[:, 1]), axis=-1)
    elif desc["shape"] == "ellipsoid":
        c = np.asarray(desc["center"], dtype=float)
        A = np.asarray(desc["matrix"], dtype=float)
        M = np.linalg.inv(A @ A.T)
        inside = np.einsum("...i,ij,...j->...", pts - c, M, pts - c) < 1.0

        def normal(p):
            g = (p - c) @ M.T
            return g / np.linalg.norm(g, axis=-1, keepdims=True)
    else:
        verts = np.asarray(desc["vertices"], dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        inside = np.zeros(spec.shape, dtype=bool)
        for (x1, y1), (x2, y2) in zip(verts, np.roll(verts, -1, axis=0)):
            with np.errstate(divide="ignore", invalid="ignore"):
                xin = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
            inside ^= ((y1 > y) != (y2 > y)) & (x < xin)
    cells, axes, signs, centers = [], [], [], []
    for cell in np.argwhere(inside):
        for d in range(spec.dim):
            for s in (-1, 1):
                nb = cell.copy()
                nb[d] += s
                if not inside[tuple(nb)]:
                    cells.append(cell)
                    axes.append(d)
                    signs.append(s)
                    off = np.zeros(spec.dim)
                    off[d] = s * 0.5 * spec.spacing
                    centers.append(pts[tuple(cell)] + off)
    centers = np.array(centers)
    if normal is None:
        normals = np.zeros((len(axes), spec.dim))
        for k, (d, s) in enumerate(zip(axes, signs)):
            normals[k, d] = s
    else:
        normals = normal(centers)
    return (inside, np.array(cells), np.array(axes), np.array(signs), centers,
            normals)


class TestRasterReference:
    """make_mask builds its inside test and face centers one axis at a time;
    every array must equal the full-array rasterization exactly."""

    @pytest.mark.parametrize("dim,kind", [
        (2, "ball"), (2, "box"), (2, "ellipsoid"), (2, "polygon"),
        (3, "ball"), (3, "box"), (3, "ellipsoid")])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_array_rasterization(self, dim, kind, seed):
        n = 64 if dim == 2 else 20
        spec = GridSpec(dim=dim, shape=(n,) * dim, spacing=2.6 / n,
                        origin=(-1.3,) * dim)
        desc = random_descriptor(kind, dim, np.random.default_rng([seed, dim]))
        mask = make_mask(spec, desc)
        inside, cells, axes, signs, centers, normals = reference_mask(spec, desc)
        assert np.array_equal(mask.inside, inside)
        assert np.array_equal(mask.face_cells,
                              np.ravel_multi_index(tuple(cells.T), spec.shape))
        assert np.array_equal(mask.face_axes, axes)
        assert np.array_equal(mask.face_signs, signs)
        assert np.array_equal(mask.face_centers(), centers)
        assert np.array_equal(mask.normals, normals)
        full = spec.spacing ** (dim - 1)
        areas = full * np.abs(normals[np.arange(len(axes)), axes])
        assert np.array_equal(mask.face_areas(), areas)
        if kind in ("box", "polygon"):
            assert np.all(mask.face_areas() == full)


class TestZeroExtend:
    def test_indicator(self, square64):
        spec, mask = square64
        u = GridFunction(spec, np.ones(spec.shape))
        v = zero_extend(u, mask)
        assert np.array_equal(v.values, mask.inside.astype(float))

    def test_idempotent(self, square64):
        spec, mask = square64
        u = random_field(spec, mask, seed=3)
        once = zero_extend(u, mask)
        twice = zero_extend(once, mask)
        assert np.array_equal(once.values, twice.values)

    def test_l1_preserved_on_inside(self, disk64):
        spec, mask = disk64
        u = random_field(spec, mask, seed=4)
        v = zero_extend(u, mask)
        assert np.abs(v.values).sum() == pytest.approx(
            np.abs(u.values[mask.inside]).sum())


class TestTrace:
    def test_square_perimeter(self):
        from conftest import aligned_square

        spec, mask = aligned_square(256)
        u = indicator(spec, mask)
        tr = extract_trace(u, mask)
        assert tr.l1_norm() == pytest.approx(4.0, rel=1e-10)

    def test_zero_field_zero_trace(self, square64):
        spec, mask = square64
        tr = extract_trace(GridFunction.zeros(spec), mask)
        assert tr.l1_norm() == 0.0
        assert np.all(tr.values == 0.0)

    def test_disk_perimeter_normal_corrected(self):
        spec = GridSpec(dim=2, shape=(256, 256), spacing=2.6 / 256,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        c = 1.7
        u = GridFunction(spec, np.where(mask.inside, c, 0.0))
        tr = extract_trace(u, mask)  # ball: analytic normals, reduced areas
        assert tr.l1_norm() == pytest.approx(2 * np.pi * c, rel=0.03)

    def test_disk_perimeter_face_sum_overestimates(self, disk64):
        spec, mask = disk64
        u = indicator(spec, mask)
        # staircase measurement: every boundary face at full area
        staircase = (np.sum(np.abs(np.take(u.values, mask.face_cells)))
                     * spec.face_area)
        # converges to 8R, not 2 pi R
        assert staircase == pytest.approx(8.0, rel=0.05)


class TestMollify:
    def test_sigma_zero_identity(self, square64):
        spec, mask = square64
        u = random_field(spec, mask, seed=5)
        assert np.array_equal(mollify(u, 0.0).values, u.values)

    def test_constant_unchanged(self, square64):
        spec, _ = square64
        u = GridFunction(spec, np.full(spec.shape, 2.5))
        v = mollify(u, 3 * spec.spacing)
        assert np.allclose(v.values, 2.5, atol=1e-12)

    def test_mass_preserved(self, square64):
        spec, mask = square64
        u = indicator(spec, mask)
        v = mollify(u, 2 * spec.spacing)
        # support stays far from the grid edge, so nothing leaks out
        assert v.values.sum() == pytest.approx(u.values.sum(), rel=1e-12)


class TestResampleAffine:
    def test_identity_exact(self, disk64):
        spec, mask = disk64
        u = random_field(spec, mask, seed=6, smooth=2)
        v = resample_affine(u, np.eye(2))
        assert np.allclose(v.values, u.values, atol=1e-12)

    def test_rotation_of_radial_bump(self, disk64):
        spec, mask = disk64
        r2 = (spec.cell_centers() ** 2).sum(axis=-1)
        u = GridFunction(spec, np.where(mask.inside, np.exp(-4 * r2), 0.0))
        u = mollify(u, spec.spacing)
        th = np.pi / 2
        T = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        v = resample_affine(u, T)
        assert np.max(np.abs(v.values - u.values)) < 1e-3

    def test_det_one_required(self, disk64):
        spec, mask = disk64
        u = random_field(spec, mask, seed=7, smooth=2)
        with pytest.raises(GridError):
            resample_affine(u, np.diag([2.0, 1.0]))

    def test_squeeze_preserves_area(self):
        spec = GridSpec(dim=2, shape=(256, 256), spacing=5.0 / 256,
                        origin=(-2.5, -2.5))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        u = indicator(spec, mask)
        v = resample_affine(u, np.diag([2.0, 0.5]))
        area_u = u.values.sum() * spec.cell_volume
        area_v = v.values.sum() * spec.cell_volume
        assert area_v == pytest.approx(area_u, rel=0.02)
        # support is now the ellipse with semi-axes (1/2, 2)
        c = spec.cell_centers()
        occupied = v.values > 0.5
        assert np.max(np.abs(c[occupied][:, 0])) == pytest.approx(0.5, abs=0.1)
        assert np.max(np.abs(c[occupied][:, 1])) == pytest.approx(2.0, abs=0.1)

    def test_support_escape_reports_required_box(self, disk64):
        spec, mask = disk64
        u = random_field(spec, mask, seed=8, smooth=2)
        th = 0.2
        big = np.diag([40.0, 1 / 40.0])
        with pytest.raises(GridError, match="bounding box"):
            resample_affine(u, big)
        del th


class TestLqNorm:
    def test_unit_square_l2(self, square64):
        spec, mask = square64
        assert lq_norm(indicator(spec, mask), mask, 2) == pytest.approx(
            1.0, rel=1e-10)

    def test_disk_l2(self):
        spec = GridSpec(dim=2, shape=(256, 256), spacing=2.6 / 256,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        u = indicator(spec, mask)
        assert lq_norm(u, mask, 2) == pytest.approx(np.sqrt(np.pi), rel=0.01)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_homogeneity(self, square64, q):
        spec, mask = square64
        u = random_field(spec, mask, seed=9)
        scaled = u.with_values(3.0 * u.values)
        assert lq_norm(scaled, mask, q) == pytest.approx(
            3.0 * lq_norm(u, mask, q), rel=1e-12)
