"""Closed-form constants, sphere quadrature, and the affine energies.

The twelve-digit constant values were frozen from an independent 50-digit
evaluation of the Gamma-function closed forms (mpmath).
"""

import numpy as np
import pytest

from affinebv import (
    GridFunction,
    GridSpec,
    affine_energy_boundary,
    affine_energy_extended,
    affine_energy_interior,
    compute_atoms,
    constants,
    energy_from_psi,
    extract_trace,
    make_mask,
    make_quadrature,
    total_variation,
)
from affinebv.energy import energy_of_atoms
from affinebv.errors import AffineBVError, GridError
from affinebv.variation import CELL_GRADIENT, FACE_ATOMS

from conftest import indicator, random_field

# 50-digit reference evaluations of the closed forms, rounded to double
ALPHA_2 = 3.9374024864306049
SHARP_2 = 3.5449077018110321       # 2 sqrt(pi)
D0_2 = 0.98435062160765123
ALPHA_3 = 4.6497894060385059
SHARP_3 = 4.8359758620494089       # 3 (4 pi / 3)^(1/3)
D0_3 = 0.97639459170768218


class TestConstants:
    def test_unit_ball_volumes(self):
        c = constants(3)
        # omegas stores omega_1 .. omega_n
        assert c.omegas[0] == pytest.approx(2.0, rel=1e-15)
        assert c.omegas[1] == pytest.approx(np.pi, rel=1e-15)
        assert c.omegas[2] == pytest.approx(4 * np.pi / 3, rel=1e-15)

    def test_dim2_frozen_values(self):
        c = constants(2)
        assert c.alpha == pytest.approx(ALPHA_2, rel=1e-12)
        assert c.sharp_sobolev == pytest.approx(SHARP_2, rel=1e-12)
        assert c.d0 == pytest.approx(D0_2, rel=1e-12)

    def test_dim3_frozen_values(self):
        c = constants(3)
        assert c.alpha == pytest.approx(ALPHA_3, rel=1e-12)
        assert c.sharp_sobolev == pytest.approx(SHARP_3, rel=1e-12)
        assert c.d0 == pytest.approx(D0_3, rel=1e-12)

    def test_alpha2_closed_form(self):
        # (2 pi)^(3/2) / 4
        assert constants(2).alpha == pytest.approx(
            (2 * np.pi) ** 1.5 / 4, rel=1e-14)

    def test_low_dim_rejected(self):
        with pytest.raises(AffineBVError):
            constants(1)


class TestQuadrature:
    def test_four_axis_directions(self):
        q = make_quadrature(2, 4)
        assert np.allclose(np.abs(q.directions), np.eye(2)[[0, 1, 0, 1]],
                           atol=1e-15)
        assert np.allclose(q.weights, np.pi / 2)

    @pytest.mark.parametrize("n,M,area", [(2, 64, 2 * np.pi),
                                          (3, 256, 4 * np.pi)])
    def test_weight_normalization(self, n, M, area):
        q = make_quadrature(n, M)
        assert q.weights.sum() == pytest.approx(area, abs=1e-10)

    def test_odd_count_rejected(self):
        with pytest.raises(AffineBVError):
            make_quadrature(2, 33)
        with pytest.raises(AffineBVError):
            make_quadrature(2, 2)

    def test_abs_component_integral(self):
        q = make_quadrature(2, 512)
        val = float(q.weights @ np.abs(q.directions[:, 0]))
        assert val == pytest.approx(4.0, abs=1e-4)

    def test_antipodal_balance(self):
        for n, M in [(2, 128), (3, 512)]:
            q = make_quadrature(n, M)
            odd = float(q.weights @ q.directions[:, 0] ** 3)
            assert abs(odd) < 1e-10

    def test_directions_unit(self):
        for n, M in [(2, 100), (3, 200)]:
            q = make_quadrature(n, M)
            assert np.allclose(np.linalg.norm(q.directions, axis=1), 1.0,
                               atol=1e-12)


class TestEnergyFromPsi:
    def test_constant_psi_closed_form(self):
        # constant psi = c: value = alpha_n (n omega_n)^(-1/n) c
        q = make_quadrature(2, 256)
        e = energy_from_psi(np.full(256, 4.0), q)
        assert e.value == pytest.approx(2 * np.pi, rel=1e-12)
        assert not e.degenerate

    def test_zero_sample_degenerate(self):
        q = make_quadrature(2, 64)
        psi = np.full(64, 1.0)
        psi[10] = 0.0
        e = energy_from_psi(psi, q)
        assert e.degenerate
        assert e.value == 0.0

    def test_square_psi_samples(self):
        q = make_quadrature(2, 512)
        th = np.arctan2(q.directions[:, 1], q.directions[:, 0])
        psi = 2 * (np.abs(np.cos(th)) + np.abs(np.sin(th)))
        e = energy_from_psi(psi, q)
        assert e.value == pytest.approx(constants(2).alpha, rel=1e-4)

    def test_negative_sample_rejected(self):
        q = make_quadrature(2, 64)
        psi = np.full(64, 1.0)
        psi[3] = -0.5
        with pytest.raises(AffineBVError):
            energy_from_psi(psi, q)

    def test_monotone_in_each_sample(self):
        q = make_quadrature(2, 64)
        rng = np.random.default_rng(2)
        psi = 1.0 + rng.random(64)
        base = energy_from_psi(psi, q).value
        for _ in range(10):
            bumped = psi.copy()
            bumped[rng.integers(64)] += rng.random()
            assert energy_from_psi(bumped, q).value >= base


class TestAffineEnergies:
    def test_single_variable_interior_degenerate(self, square64, quad128):
        spec, mask = square64
        x = spec.cell_centers()[..., 0]
        u = GridFunction(spec, np.where(mask.inside, np.sin(np.pi * x), 0.0))
        e = affine_energy_interior(u, mask, CELL_GRADIENT, quad128)
        assert e.degenerate
        assert e.value == 0.0

    def test_disk_indicator_extended(self, quad512):
        spec = GridSpec(dim=2, shape=(256, 256), spacing=2.6 / 256,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        e = affine_energy_extended(indicator(spec, mask), mask, FACE_ATOMS,
                                   quad512)
        assert e.value == pytest.approx(2 * np.pi, rel=0.02)

    def test_square_indicator_boundary_equals_extended(self, square64,
                                                       quad512):
        spec, mask = square64
        u = indicator(spec, mask)
        e_ext = affine_energy_extended(u, mask, FACE_ATOMS, quad512)
        e_bdy = affine_energy_boundary(extract_trace(u, mask), mask, quad512)
        assert e_ext.value == pytest.approx(constants(2).alpha, rel=1e-3)
        assert e_bdy.value == pytest.approx(e_ext.value, rel=1e-12)

    def test_homogeneity(self, disk64, quad128):
        spec, mask = disk64
        u = random_field(spec, mask, seed=21, smooth=2)
        e1 = affine_energy_extended(u, mask, FACE_ATOMS, quad128).value
        e2 = affine_energy_extended(u.with_values(-2.5 * u.values), mask,
                                    FACE_ATOMS, quad128).value
        assert e2 == pytest.approx(2.5 * e1, rel=1e-10)

    def test_bounded_by_total_variation(self, disk64, quad512):
        spec, mask = disk64
        for seed in range(5):
            u = random_field(spec, mask, seed=seed, smooth=1)
            atoms = compute_atoms(u, mask, backend=FACE_ATOMS,
                                  include_boundary=True)
            e = energy_of_atoms(atoms, quad512)
            assert e.value <= total_variation(atoms) * (1 + 1e-3)

    def test_quadrature_refinement_stable(self, disk64):
        spec, mask = disk64
        u = random_field(spec, mask, seed=22, smooth=2)
        e1 = affine_energy_extended(u, mask, CELL_GRADIENT,
                                    make_quadrature(2, 256)).value
        e2 = affine_energy_extended(u, mask, CELL_GRADIENT,
                                    make_quadrature(2, 512)).value
        assert abs(e2 - e1) / e1 < 1e-3

    def test_quadrature_convergence_disk_indicator(self):
        """Extended face-atom energy of the 256^2 unit-disk indicator: every
        M from 512 to 16384 is within 1e-6 of M = 32768, which is within
        criterion 2's 3e-2 of the closed form."""
        from affinebv.oracle import EllipsoidBody, energy_body

        spec = GridSpec(dim=2, shape=(256, 256), spacing=2.6 / 256,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        u = indicator(spec, mask)
        values = {M: affine_energy_extended(u, mask, FACE_ATOMS,
                                            make_quadrature(2, M)).value
                  for M in 2 ** np.arange(9, 16)}
        ref = values.pop(32768)
        for M, value in values.items():
            assert abs(value - ref) / ref <= 1e-6, M
        exact = energy_body(EllipsoidBody(dim=2, matrix=np.eye(2)))
        assert abs(ref - exact) / exact <= 3e-2

    def test_degenerate_three_way_agreement(self, square64, quad128):
        spec, mask = square64
        y = spec.cell_centers()[..., 1]
        u = GridFunction(spec, np.where(mask.inside, y ** 2, 0.0))
        e = affine_energy_interior(u, mask, CELL_GRADIENT, quad128)
        assert e.degenerate and e.value == 0.0
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT)
        from affinebv.variation import covariance_eigen_ratio

        assert covariance_eigen_ratio(atoms) < 1e-12

    def test_sl2_invariance_at_atom_level(self, disk64, quad512):
        spec, mask = disk64
        u = random_field(spec, mask, seed=23, smooth=2)
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT,
                              include_boundary=True)
        e0 = energy_of_atoms(atoms, quad512).value
        rng = np.random.default_rng(5)
        from scipy.linalg import expm

        for _ in range(5):
            A = rng.normal(size=(2, 2)) * 0.4
            A -= np.trace(A) / 2 * np.eye(2)
            T = expm(A)
            e1 = energy_of_atoms(atoms.transformed(T), quad512).value
            assert abs(e1 - e0) / e0 < 1e-3


FACE_MASKS = {
    2: {"ball": {"shape": "ball", "center": [0.05, -0.03], "radius": 0.95},
        "box": {"shape": "box", "extents": [[-0.8, 0.9], [-0.7, 0.6]]},
        "ellipsoid": {"shape": "ellipsoid", "center": [0.0, 0.1],
                      "matrix": [[0.9, 0.3], [-0.2, 0.6]]},
        "polygon": {"shape": "polygon", "vertices": [
            [-0.9, -0.8], [0.9, -0.7], [0.3, 0.95], [-0.7, 0.4]]}},
    3: {"ball": {"shape": "ball", "center": [0.05, -0.03, 0.0], "radius": 0.9},
        "box": {"shape": "box", "extents": [[-0.8, 0.9], [-0.7, 0.6], [-0.9, 0.9]]},
        "ellipsoid": {"shape": "ellipsoid", "center": [0.0, 0.1, 0.0],
                      "matrix": [[0.9, 0.3, 0.0], [-0.2, 0.6, 0.1],
                                 [0.0, 0.2, 0.8]]}},
}


def _face_masks():
    for dim, grid in ((2, 48), (3, 16)):
        spec = GridSpec(dim=dim, shape=(grid,) * dim, spacing=2.6 / grid,
                        origin=(-1.3,) * dim)
        for name, desc in FACE_MASKS[dim].items():
            yield pytest.param(spec, desc, id=f"{dim}d-{name}")


class TestFaceAtomEnergies:
    """The face-atom energies reduce the interior atoms per axis; they must
    equal the energy of the full atom set."""

    @pytest.mark.parametrize("spec,desc", _face_masks())
    @pytest.mark.parametrize("extended", [False, True],
                             ids=["interior", "extended"])
    def test_equal_energy_of_atoms(self, spec, desc, extended):
        mask = make_mask(spec, desc)
        quad = make_quadrature(spec.dim, 64)
        energy = affine_energy_extended if extended else affine_energy_interior
        x0 = spec.cell_centers()[..., 0]
        tiny = random_field(spec, mask, seed=2)
        fields = [
            random_field(spec, mask, seed=0),
            random_field(spec, mask, seed=1),
            # more than half of the atoms fall below ATOM_ELISION and are dropped
            tiny.with_values(tiny.values * (1e-30 / spec.face_area)),
            # varies along axis 0 only, so every interior atom lies on that axis
            GridFunction(spec, np.where(mask.inside, 1.0 + x0, 0.0)),
        ]
        for k, u in enumerate(fields):
            got = energy(u, mask, FACE_ATOMS, quad)
            want = energy_of_atoms(compute_atoms(u, mask, backend=FACE_ATOMS,
                                                 include_boundary=extended), quad)
            assert got.degenerate == want.degenerate
            assert got.degenerate == (k == 3 and not extended)
            assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)
            assert got.meta == pytest.approx(want.meta, rel=1e-14, abs=0.0)
            assert got.psi == pytest.approx(want.psi, rel=1e-14, abs=0.0)
            assert (got.backend, got.quadrature_size) == (
                want.backend, want.quadrature_size)

    @pytest.mark.parametrize("extended", [False, True],
                             ids=["interior", "extended"])
    def test_overflowing_jumps_rejected(self, disk64, quad128, extended):
        spec, mask = disk64
        signs = (-1.0) ** np.indices(spec.shape).sum(axis=0)
        u = GridFunction(spec, np.where(mask.inside, 1e308 * signs, 0.0))
        energy = affine_energy_extended if extended else affine_energy_interior
        with np.errstate(over="ignore"):
            with pytest.raises(GridError):
                compute_atoms(u, mask, backend=FACE_ATOMS, include_boundary=extended)
            with pytest.raises(GridError):
                energy(u, mask, FACE_ATOMS, quad128)


class Test3D:
    def test_ball_extended_energy(self):
        spec = GridSpec(dim=3, shape=(48, 48, 48), spacing=2.6 / 48,
                        origin=(-1.3, -1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball",
                                "center": [0.0, 0.0, 0.0], "radius": 1.0})
        q = make_quadrature(3, 512)
        e = affine_energy_extended(indicator(spec, mask), mask, FACE_ATOMS, q)
        # 3 omega_3^(1/3) * omega_3^(2/3) = 3 omega_3 = 4 pi
        assert e.value == pytest.approx(4 * np.pi, rel=0.03)
