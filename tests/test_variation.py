"""Variation atoms: total and directional variation, covariance, backends."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinebv import (
    GridFunction,
    GridSpec,
    compute_atoms,
    covariance,
    make_mask,
    make_quadrature,
    total_variation,
    zero_extend,
)
from affinebv import variation
from affinebv.errors import GridError
from affinebv.variation import (
    ATOM_ELISION,
    CELL_GRADIENT,
    FACE_ATOMS,
    VariationAtoms,
    covariance_eigen_ratio,
    psi_samples,
)

from conftest import indicator, random_field


def unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def directional_variation(atoms, xi):
    """Psi_xi for one unit direction xi: a one-sample :func:`psi_samples`."""
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
        raise GridError(f"direction must be unit, |xi| = {np.linalg.norm(xi)}")
    return float(psi_samples(atoms, xi[None])[0])


class TestComputeAtoms:
    def test_zero_field_empty(self, square64):
        spec, mask = square64
        atoms = compute_atoms(GridFunction.zeros(spec), mask,
                              backend=FACE_ATOMS, include_boundary=True)
        assert len(atoms) == 0

    def test_square_indicator_perimeter_exact(self, square64):
        spec, mask = square64
        atoms = compute_atoms(indicator(spec, mask), mask,
                              backend=FACE_ATOMS, include_boundary=True)
        assert total_variation(atoms) == pytest.approx(4.0, rel=1e-12)

    def test_linear_ramp_interior_tv(self, square64):
        spec, mask = square64
        x = spec.cell_centers()[..., 0]
        u = GridFunction(spec, np.where(mask.inside, x, 0.0))
        atoms = compute_atoms(u, mask, backend=FACE_ATOMS,
                              include_boundary=False)
        # |grad u| = 1 over (almost) unit area; one column of interior
        # faces is missing at the rim, hence the (n-1)/n factor bound
        n = 64 // 2
        expected = (n - 1) / n
        assert total_variation(atoms) == pytest.approx(expected, rel=1e-12)

    def test_cell_gradient_ramp(self, square64):
        spec, mask = square64
        x = spec.cell_centers()[..., 0]
        u = GridFunction(spec, np.where(mask.inside, x, 0.0))
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT,
                              include_boundary=False)
        assert total_variation(atoms) == pytest.approx(1.0, rel=1e-10)

    def test_unknown_backend_rejected(self, square64):
        spec, mask = square64
        with pytest.raises(GridError):
            compute_atoms(GridFunction.zeros(spec), mask, backend="bogus")


class TestZeroExtensionIdentity:
    def test_tv_identity_exact(self, square64):
        spec, mask = square64
        u = random_field(spec, mask, seed=11)
        both = compute_atoms(u, mask, backend=FACE_ATOMS,
                             include_boundary=True)
        # interior atoms of the zero-extended field on the full grid
        full = make_mask(spec, {"shape": "box", "extents": [
            [spec.origin[0] + 2.1 * spec.spacing,
             spec.origin[0] + (spec.shape[0] - 2.1) * spec.spacing],
            [spec.origin[1] + 2.1 * spec.spacing,
             spec.origin[1] + (spec.shape[1] - 2.1) * spec.spacing]]})
        ext = zero_extend(u, mask)
        ext_atoms = compute_atoms(ext, full, backend=FACE_ATOMS,
                                  include_boundary=False)
        # summed in sorted order, independent of the atom enumeration
        tv1 = float(np.sum(np.sort(both.masses())))
        tv2 = float(np.sum(np.sort(ext_atoms.masses())))
        assert tv1 == tv2  # bit-equal under sorted summation


class TestDirectionalVariation:
    def test_square_axis_direction(self, square64):
        spec, mask = square64
        atoms = compute_atoms(indicator(spec, mask), mask,
                              backend=FACE_ATOMS, include_boundary=True)
        assert directional_variation(atoms, unit(0.0)) == pytest.approx(
            2.0, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.2, 2.9])
    def test_square_matches_closed_form(self, square64, theta):
        spec, mask = square64
        atoms = compute_atoms(indicator(spec, mask), mask,
                              backend=FACE_ATOMS, include_boundary=True)
        expected = 2 * (abs(np.cos(theta)) + abs(np.sin(theta)))
        assert directional_variation(atoms, unit(theta)) == pytest.approx(
            expected, rel=1e-12)

    def test_even_in_xi(self, disk64):
        spec, mask = disk64
        atoms = compute_atoms(random_field(spec, mask, seed=12), mask,
                              backend=FACE_ATOMS, include_boundary=True)
        xi = unit(0.7)
        assert directional_variation(atoms, xi) == directional_variation(
            atoms, -xi)

    def test_non_unit_direction_rejected(self, disk64):
        spec, mask = disk64
        atoms = compute_atoms(random_field(spec, mask, seed=13), mask,
                              backend=FACE_ATOMS)
        with pytest.raises(GridError):
            directional_variation(atoms, np.array([1.0, 1.0]))

    @given(theta=st.floats(0, 2 * np.pi), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_bounded_by_total_variation(self, theta, seed):
        spec = GridSpec(dim=2, shape=(16, 16), spacing=0.125,
                        origin=(-1.0, -1.0))
        mask = make_mask(spec, {"shape": "box",
                                "extents": [[-0.5, 0.5], [-0.5, 0.5]]})
        u = random_field(spec, mask, seed=seed)
        atoms = compute_atoms(u, mask, backend=FACE_ATOMS,
                              include_boundary=True)
        psi = directional_variation(atoms, unit(theta))
        assert 0.0 <= psi <= total_variation(atoms) * (1 + 1e-12)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_seminorm_triangle_inequality(self, seed):
        spec = GridSpec(dim=2, shape=(16, 16), spacing=0.125,
                        origin=(-1.0, -1.0))
        mask = make_mask(spec, {"shape": "box",
                                "extents": [[-0.5, 0.5], [-0.5, 0.5]]})
        u = random_field(spec, mask, seed=seed)
        v = random_field(spec, mask, seed=seed + 1000)
        s = u.with_values(u.values + v.values)
        xi = unit(1.1)
        pu = directional_variation(
            compute_atoms(u, mask, backend=FACE_ATOMS), xi)
        pv = directional_variation(
            compute_atoms(v, mask, backend=FACE_ATOMS), xi)
        ps = directional_variation(
            compute_atoms(s, mask, backend=FACE_ATOMS), xi)
        assert ps <= pu + pv + 1e-12 * (pu + pv)

    def test_homogeneity(self, disk64):
        spec, mask = disk64
        u = random_field(spec, mask, seed=14)
        atoms1 = compute_atoms(u, mask, backend=FACE_ATOMS)
        atoms2 = compute_atoms(u.with_values(2 * u.values), mask,
                               backend=FACE_ATOMS)
        assert total_variation(atoms2) == pytest.approx(
            2 * total_variation(atoms1), rel=1e-12)

    def test_psi_samples_matches_single_calls(self, disk64):
        spec, mask = disk64
        atoms = compute_atoms(random_field(spec, mask, seed=15), mask,
                              backend=FACE_ATOMS, include_boundary=True)
        thetas = np.linspace(0, 2 * np.pi, 9)[:-1]
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        batch = psi_samples(atoms, dirs)
        singles = [directional_variation(atoms, d) for d in dirs]
        assert np.allclose(batch, singles, rtol=1e-12)


# -- Psi against the dense product ----------------------------------------------

def dense_psi(atoms, dirs):
    """Reference sum_i |v_i . xi_j| over the full atoms x directions product,
    summed pairwise over the atoms."""
    return np.abs(np.asarray(dirs) @ atoms.atoms.T).sum(axis=1)


def assert_psi_agrees(atoms, dirs, rtol=1e-12):
    psi = psi_samples(atoms, dirs)
    ref = dense_psi(atoms, dirs)
    assert psi.shape == ref.shape
    err = np.abs(psi - ref)
    worst = np.max(err / np.maximum(ref, np.finfo(float).tiny), initial=0.0)
    assert np.all(err <= rtol * ref), f"worst rel {worst:.2e}"


def make_atoms(v, dim=2):
    return VariationAtoms(dim=dim, atoms=np.asarray(v, dtype=float),
                          backend=FACE_ATOMS)


def sphere_dirs(dim, rng, n_random=32, M=64):
    """Half-sphere quadrature directions plus random unit directions."""
    r = rng.normal(size=(n_random, dim))
    return np.concatenate([make_quadrature(dim, M).half.directions,
                           r / np.linalg.norm(r, axis=1, keepdims=True)])


class TestPsiSamples:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
           dim=st.sampled_from([2, 3]), axis_frac=st.floats(0, 1),
           antipodal=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_sets(self, seed, n, dim, axis_frac, antipodal):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, dim)) * rng.lognormal(0, 2, size=(n, 1))
        # a fraction of the atoms keeps one component only
        axis = rng.random(n) < axis_frac
        v[axis] *= np.eye(dim)[rng.integers(0, dim, axis.sum())]
        if antipodal:
            v = np.concatenate([v, -v[::2], v[1::3]])
        atoms = make_atoms(v, dim)
        dirs = sphere_dirs(dim, rng)
        # the float dot product has condition sum |v_d xi_d| / |v . xi|;
        # agreement at 1e-12 is only meaningful where Psi is well conditioned
        ref = dense_psi(atoms, dirs)
        assume(np.all(np.abs(dirs) @ np.abs(atoms.atoms).sum(axis=0) <= 1e3 * ref))
        assert_psi_agrees(atoms, dirs)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_axis_aligned_sets(self, dim):
        rng = np.random.default_rng(21)
        v = rng.normal(size=(500, dim)) * np.eye(dim)[rng.integers(0, dim, 500)]
        assert_psi_agrees(make_atoms(v, dim), sphere_dirs(dim, rng))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_antipodal_duplicates(self, dim):
        rng = np.random.default_rng(22)
        v = rng.normal(size=(200, dim))
        dup = make_atoms(np.concatenate([v, -v, v]), dim)
        dirs = sphere_dirs(dim, rng)
        assert_psi_agrees(dup, dirs)
        np.testing.assert_allclose(psi_samples(dup, dirs),
                                   3 * psi_samples(make_atoms(v, dim), dirs),
                                   rtol=1e-12)

    @pytest.mark.parametrize("v", [[0.6, -0.8], [-3.0, 0.0], [0.0, 2.5],
                                   [0.3, -0.5, 0.8], [0.0, 0.0, -1.5]])
    def test_single_atom(self, v):
        dim = len(v)
        assert_psi_agrees(make_atoms([v], dim),
                          make_quadrature(dim, 64).half.directions)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_empty_set_is_zero(self, dim):
        atoms = make_atoms(np.zeros((5, dim)), dim)
        assert len(atoms) == 0
        psi = psi_samples(atoms, make_quadrature(dim, 64).directions)
        assert psi.shape == (64,)
        assert np.all(psi == 0.0)

    def test_angles_zero_and_pi(self):
        rng = np.random.default_rng(23)
        edge = [[1.0, 0.0], [-1.0, 0.0], [-2.0, -0.0], [0.5, -0.0],
                [0.0, -1.0], [-0.0, 3.0], [0.0, -0.0]]
        v = np.concatenate([edge, rng.normal(size=(40, 2))])
        dirs = np.concatenate([sphere_dirs(2, rng),
                               [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [-0.0, -1.0]]])
        assert_psi_agrees(make_atoms(v), dirs)
        assert_psi_agrees(make_atoms(edge), dirs)

    def test_atoms_on_the_split(self):
        # atoms exactly orthogonal to quadrature directions: their dot
        # product is 0, so they sit where the two sign runs meet
        rng = np.random.default_rng(24)
        dirs = make_quadrature(2, 128).half.directions
        ortho = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
        scale = rng.uniform(0.5, 2.0, size=(len(dirs), 1))
        v = np.concatenate([ortho * scale, -ortho[::3], rng.normal(size=(50, 2))])
        assert_psi_agrees(make_atoms(v), dirs)

    @pytest.mark.parametrize("backend", [FACE_ATOMS, CELL_GRADIENT])
    @pytest.mark.parametrize("stretch", [1e5, 1e-5])
    def test_stretched_grid_atoms(self, disk64, backend, stretch):
        spec, mask = disk64
        u = random_field(spec, mask, seed=25, smooth=2)
        atoms = compute_atoms(u, mask, backend=backend, include_boundary=True)
        stretched = atoms.transformed(np.diag([stretch, 1 / stretch]))
        dirs = make_quadrature(2, 512).half.directions
        ref = dense_psi(stretched, dirs)
        assert ref.min() < 1e-9 * total_variation(stretched)
        assert_psi_agrees(stretched, dirs)

    # face atoms on a ball: axis interior, oblique boundary; cell gradients
    # on a box: the reverse
    @pytest.mark.parametrize("backend, shape", [
        (FACE_ATOMS, {"shape": "ball", "center": [0.0, 0.05, 0.0],
                      "radius": 0.9}),
        (CELL_GRADIENT, {"shape": "box",
                         "extents": [[-0.9, 0.8], [-0.85, 0.9], [-0.7, 0.9]]}),
    ], ids=["face-atoms-ball", "cell-gradient-box"])
    def test_3d_mixed_sets(self, backend, shape, monkeypatch):
        # blocks of 1,000 atoms: the dense product runs in several blocks
        monkeypatch.setattr(variation, "PSI_BLOCK", 160 * 1000)
        spec = GridSpec(dim=3, shape=(24, 24, 24), spacing=2.6 / 24,
                        origin=(-1.3,) * 3)
        mask = make_mask(spec, shape)
        u = random_field(spec, mask, seed=26, smooth=1)
        atoms = compute_atoms(u, mask, backend=backend, include_boundary=True)
        axis = np.count_nonzero(atoms.atoms, axis=1) == 1
        assert 0 < axis.sum() < len(atoms)
        assert_psi_agrees(atoms, sphere_dirs(3, np.random.default_rng(26), M=256))


class TestAtomMasses:
    """VariationAtoms computes masses one component at a time; they must be
    bit-identical to the row norms, with elision and validation unchanged."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_masses_and_elision_match_row_norms(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(5000, dim)) * 10.0 ** rng.uniform(-40, 40, (5000, 1))
        a[::7] = 0.0
        a[1::7, 1:] = 0.0          # axis atoms
        a[2::7] *= 1e-29           # straddle the elision threshold
        ref = np.linalg.norm(a, axis=1)
        keep = ref >= ATOM_ELISION
        assert 0 < keep.sum() < len(a)
        atoms = VariationAtoms(dim=dim, atoms=a, backend=FACE_ATOMS)
        assert np.array_equal(atoms.masses(), ref[keep])
        assert np.array_equal(atoms.atoms, a[keep])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_components_rejected(self, dim, bad):
        a = np.ones((4, dim))
        a[2, dim - 1] = bad
        with pytest.raises(GridError):
            VariationAtoms(dim=dim, atoms=a, backend=FACE_ATOMS)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_finite_components_with_overflowing_mass_accepted(self, dim):
        a = np.full((3, dim), 1e200)
        a[1] = 3.0
        with np.errstate(over="ignore"):
            atoms = VariationAtoms(dim=dim, atoms=a, backend=FACE_ATOMS)
            ref = np.linalg.norm(a, axis=1)
        assert len(atoms) == 3
        assert np.array_equal(atoms.masses(), ref)


class TestCovariance:
    def test_parallel_atoms_rank_one(self):
        atoms = VariationAtoms(dim=2,
                               atoms=np.array([[1.0, 0], [2.0, 0], [-3.0, 0]]),
                               backend=FACE_ATOMS, source="interior")
        M = covariance(atoms.atoms.T, atoms.masses())
        evals = np.linalg.eigvalsh(M)
        assert evals[0] == pytest.approx(0.0, abs=1e-14)
        assert evals[1] == pytest.approx(6.0, rel=1e-12)

    def test_masses_are_row_norms(self, disk64):
        spec, mask = disk64
        atoms = compute_atoms(random_field(spec, mask, seed=16), mask,
                              backend=CELL_GRADIENT, include_boundary=True)
        assert np.array_equal(atoms.masses(),
                              np.linalg.norm(atoms.atoms, axis=1))

    def test_trace_equals_total_variation(self, disk64):
        spec, mask = disk64
        atoms = compute_atoms(random_field(spec, mask, seed=16), mask,
                              backend=FACE_ATOMS, include_boundary=True)
        assert np.trace(covariance(atoms.atoms.T, atoms.masses())) == pytest.approx(
            total_variation(atoms), rel=1e-12)

    def test_single_variable_field_degenerate(self, square64):
        spec, mask = square64
        x = spec.cell_centers()[..., 0]
        u = GridFunction(spec, np.where(mask.inside, np.sin(np.pi * x), 0.0))
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT,
                              include_boundary=False)
        assert covariance_eigen_ratio(atoms) < 1e-12

    def test_radial_bump_isotropic(self):
        spec = GridSpec(dim=2, shape=(128, 128), spacing=2.6 / 128,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        r2 = (spec.cell_centers() ** 2).sum(axis=-1)
        u = GridFunction(spec, np.where(mask.inside, np.exp(-8 * r2), 0.0))
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT)
        M = covariance(atoms.atoms.T, atoms.masses())
        tv = total_variation(atoms)
        assert np.allclose(M, (tv / 2) * np.eye(2), rtol=0.01, atol=0.01 * tv)

    def test_quadratic_form_bounds(self, disk64):
        spec, mask = disk64
        atoms = compute_atoms(random_field(spec, mask, seed=17), mask,
                              backend=FACE_ATOMS, include_boundary=True)
        M = covariance(atoms.atoms.T, atoms.masses())
        tv = total_variation(atoms)
        for theta in np.linspace(0, np.pi, 7):
            xi = unit(theta)
            quad = float(xi @ M @ xi)
            psi = directional_variation(atoms, xi)
            assert quad <= psi * (1 + 1e-12)
            assert psi <= np.sqrt(tv * quad) * (1 + 1e-12)


class TestAtomTransform:
    def test_transform_matches_resampled_tv(self):
        from affinebv import mollify, resample_affine

        spec = GridSpec(dim=2, shape=(128, 128), spacing=4.0 / 128,
                        origin=(-2.0, -2.0))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.8})
        c = spec.cell_centers()
        r2 = (c[..., 0] - 0.1) ** 2 + (c[..., 1] + 0.2) ** 2
        vals = np.where(mask.inside & (r2 < 1.0), np.exp(-6 * r2), 0.0)
        u = mollify(GridFunction(spec, vals), spec.spacing)
        u = u.with_values(np.where(mask.inside, u.values, 0.0))
        T = np.array([[1.0, 0.3], [0.0, 1.0]])  # shear, det 1
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT)
        tv_atoms = float(np.sum(np.linalg.norm(
            atoms.transformed(T).atoms, axis=1)))
        v = resample_affine(u, T)
        tv_resampled = total_variation(
            compute_atoms(v, mask, backend=CELL_GRADIENT))
        assert tv_atoms == pytest.approx(tv_resampled, rel=0.02)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_psi_at_mapped_directions(self, dim):
        # |(T^T v) . xi| = |v . (T xi)|: Psi of the mapped atoms is Psi of
        # the atoms at the mapped, non-unit directions, for any invertible T
        spec = GridSpec(dim=dim, shape=(48,) * 2 if dim == 2 else (16,) * 3,
                        spacing=2.6 / (48 if dim == 2 else 16),
                        origin=(-1.3,) * dim)
        mask = make_mask(spec, {"shape": "ball", "center": [0.05] * dim,
                                "radius": 0.9})
        u = random_field(spec, mask, seed=27, smooth=1)
        # coarse levels leave zero differences: axis and oblique atoms mix
        u = u.with_values(np.round(4 * u.values) / 4)
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT,
                              include_boundary=True)
        n_axis = np.sum(np.count_nonzero(atoms.atoms, axis=1) == 1)
        assert 0 < n_axis < len(atoms)
        rng = np.random.default_rng(27)
        D = make_quadrature(dim, 128).half.directions
        maps = [rng.normal(size=(dim, dim)) + 2 * np.eye(dim)
                for _ in range(4)] + [np.diag([30.0] + [0.2] * (dim - 1))]
        for T in maps:
            assert abs(np.linalg.det(T) - 1.0) > 0.1
            mapped = psi_samples(atoms, D @ T.T)
            ref = psi_samples(atoms.transformed(T), D)
            assert np.all(np.abs(mapped - ref) <= 1e-13 * ref)


# -- reference stencil: explicit loops over cells and faces --------------------

H = 0.37   # not a power of two, so scalings round


def _stencil_masks():
    """Tiny masks with forward, backward and zero differences at the rim."""
    s2 = GridSpec(dim=2, shape=(8, 8), spacing=H, origin=(0.0, 0.0))
    # L shape one cell thick: zero differences across each arm
    ell = [[2.1, 2.1], [5.9, 2.1], [5.9, 2.9], [2.9, 2.9], [2.9, 5.9],
           [2.1, 5.9]]
    yield "L2d", make_mask(s2, {"shape": "polygon",
                                "vertices": (H * np.array(ell)).tolist()})
    yield "ellipse2d", make_mask(s2, {
        "shape": "ellipsoid", "center": [4 * H, 4 * H],
        "matrix": (H * np.array([[1.3, 0.5], [-0.4, 1.1]])).tolist()})
    s3 = GridSpec(dim=3, shape=(6, 6, 6), spacing=H, origin=(0.0,) * 3)
    yield "ball3d", make_mask(s3, {"shape": "ball", "center": [3 * H] * 3,
                                   "radius": 0.95 * H})
    s3 = GridSpec(dim=3, shape=(8, 8, 8), spacing=H, origin=(0.0,) * 3)
    # one cell layer in z: zero z-differences everywhere
    yield "slab3d", make_mask(s3, {
        "shape": "ellipsoid", "center": [4 * H, 4 * H, 3.5 * H],
        "matrix": (H * np.diag([1.6, 1.2, 0.6])).tolist()})


def _reference_atoms(f, mask, backend, include_boundary, kinds=None):
    """Atoms by loops; ``kinds`` collects the cell-gradient difference kinds."""
    kinds = set() if kinds is None else kinds
    spec = mask.spec
    n, h, shape, inside = spec.dim, spec.spacing, spec.shape, mask.inside

    def neighbor(c, d, s):
        nb = list(c)
        nb[d] += s
        nb = tuple(nb)
        return nb if 0 <= nb[d] < shape[d] and inside[nb] else None

    rows = []
    if backend == FACE_ATOMS:
        for d in range(n):
            for c in np.ndindex(shape):
                if inside[c] and neighbor(c, d, 1):
                    v = np.zeros(n)
                    v[d] = (f[neighbor(c, d, 1)] - f[c]) * h ** (n - 1)
                    rows.append(v)
    else:
        for c in np.ndindex(shape):
            if not inside[c]:
                continue
            g = np.zeros(n)
            for d in range(n):
                fwd, bwd = neighbor(c, d, 1), neighbor(c, d, -1)
                if fwd:
                    g[d] = (f[fwd] - f[c]) / h
                    kinds.add("forward")
                elif bwd:
                    g[d] = (f[c] - f[bwd]) / h
                    kinds.add("backward")
                else:
                    kinds.add("zero")
            rows.append(g * h ** n)
    if include_boundary:
        k = 0
        for c in np.ndindex(shape):
            for d in range(n):
                for s in (-1, 1):
                    if not inside[c] or neighbor(c, d, s):
                        continue
                    assert np.unravel_index(mask.face_cells[k], shape) == c
                    if mask.descriptor["shape"] in ("ball", "ellipsoid"):
                        nu = mask.normals[k]
                        area = h ** (n - 1) * abs(nu[d])
                    else:
                        nu = np.zeros(n)
                        nu[d] = s
                        area = h ** (n - 1)
                    rows.append(-f[c] * nu * area)
                    k += 1
        assert k == mask.n_faces
    return np.array(rows).reshape(-1, n)


def _assert_rel(actual, expected, rtol=1e-15):
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= rtol * np.abs(expected))


class TestStencilReference:
    @pytest.mark.parametrize("backend", [FACE_ATOMS, CELL_GRADIENT])
    def test_matches_loops(self, backend):
        from affinebv import Weights, make_quadrature
        from affinebv.minimize import SmoothedProblem

        rng = np.random.default_rng(7)
        kinds = set()
        for name, mask in _stencil_masks():
            spec = mask.spec
            u = GridFunction(spec, rng.normal(size=spec.shape))
            for incl in (False, True):
                ref = _reference_atoms(u.values, mask, backend, incl)
                ref = ref[np.linalg.norm(ref, axis=1) >= 1e-30]
                atoms = compute_atoms(u, mask, backend=backend,
                                      include_boundary=incl)
                _assert_rel(atoms.atoms, ref)
            prob = SmoothedProblem(mask, Weights(), make_quadrature(spec.dim, 8),
                                   backend=backend)
            ref = _reference_atoms(u.values, mask, backend, True, kinds)
            _assert_rel(prob.atom_matrix(prob.to_vector(u)), ref)
        if backend == CELL_GRADIENT:
            assert kinds == {"forward", "backward", "zero"}


# -- the mask's shared stencil ----------------------------------------------------

def _interior_reference(f, mask, backend):
    """Interior atoms by whole-grid differences, in the stencil's row order.
    Each component is ``(f[hi] - f[lo]) * h**(n-1)``, the arithmetic of a
    stencil built without boundary rows, so the rows must agree bit for bit."""
    spec, inside = mask.spec, mask.inside
    n, area = spec.dim, spec.face_area
    if backend == FACE_ATOMS:
        blocks = []
        for d in range(n):
            both = inside & np.roll(inside, -1, axis=d)
            block = np.zeros((np.count_nonzero(both), n))
            block[:, d] = (np.roll(f, -1, axis=d)[both] - f[both]) * area
            blocks.append(block)
        return np.concatenate(blocks)
    out = np.zeros((np.count_nonzero(inside), n))
    for d in range(n):
        fwd = (np.roll(f, -1, axis=d) - f) * area
        bwd = (f - np.roll(f, 1, axis=d)) * area
        grad = np.where(np.roll(inside, -1, axis=d), fwd,
                        np.where(np.roll(inside, 1, axis=d), bwd, 0.0))
        out[:, d] = grad[inside]
    return out


def _shared_stencil_masks():
    """Box, ball and polygon masks in 2D and box and ball masks in 3D on a
    grid covering [-1.3, 1.3]^n, plus the rim cases of the loop reference."""
    for dim, n in ((2, 40), (3, 16)):
        spec = GridSpec(dim=dim, shape=(n,) * dim, spacing=2.6 / n,
                        origin=(-1.3,) * dim)
        yield f"box{dim}d", make_mask(spec, {
            "shape": "box", "extents": [[-0.7, 0.8], [-0.9, 0.6], [-0.5, 0.9]][:dim]})
        yield f"ball{dim}d", make_mask(spec, {
            "shape": "ball", "center": [0.1, -0.05, 0.0][:dim], "radius": 0.85})
        if dim == 2:
            yield "polygon2d", make_mask(spec, {"shape": "polygon", "vertices": [
                [-0.9, -0.8], [0.9, -0.6], [0.2, 0.1], [0.7, 0.9], [-0.8, 0.5]]})
    yield from _stencil_masks()


class TestSharedStencil:
    @pytest.mark.parametrize("backend", [FACE_ATOMS, CELL_GRADIENT])
    def test_interior_rows_bit_identical(self, backend, monkeypatch):
        from affinebv import variation
        from affinebv.grid import row_norms

        masks = list(_shared_stencil_masks())
        stencils = [mask.stencil(backend) for _, mask in masks]
        # with its mask's stencil in place, compute_atoms must build none
        monkeypatch.setattr(variation, "AtomStencil", None)
        rng = np.random.default_rng(11)
        for (name, mask), stencil in zip(masks, stencils):
            u = GridFunction(mask.spec, rng.normal(size=mask.spec.shape))
            ref = _interior_reference(u.values, mask, backend)
            assert stencil.n_rows == stencil.n_interior + mask.n_faces, name
            rows = stencil.apply(u.values)[:stencil.n_interior]
            assert rows.tobytes() == ref.tobytes(), name
            kept = ref[row_norms(ref) >= ATOM_ELISION]
            atoms = compute_atoms(u, mask, backend=backend)
            assert atoms.atoms.tobytes() == kept.tobytes(), name
            # the extended atoms start with the same interior rows
            ext = compute_atoms(u, mask, backend=backend, include_boundary=True)
            assert ext.atoms[:len(kept)].tobytes() == kept.tobytes(), name
