"""Classical and affine functionals, constraints, m_r, truncations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinebv import (
    ConstraintSpec,
    GridFunction,
    GridSpec,
    Weights,
    constants,
    lq_norm,
    m_r_solve,
    make_mask,
    phi_affine,
    phi_classical,
    project_constraint,
    truncate,
)
from affinebv.errors import AffineBVError
from affinebv.functionals import clamp_rim, rim_cells
from affinebv.variation import CELL_GRADIENT, FACE_ATOMS

from conftest import indicator, random_field


def small_domain():
    spec = GridSpec(dim=2, shape=(16, 16), spacing=0.125, origin=(-1.0, -1.0))
    mask = make_mask(spec, {"shape": "box",
                            "extents": [[-0.5, 0.5], [-0.5, 0.5]]})
    return spec, mask


class TestWeights:
    def test_negative_b_guarded(self):
        with pytest.raises(AffineBVError):
            Weights(a=0.0, b=-1.0)
        w = Weights(a=0.0, b=-1.0, allow_negative_b=True)
        assert w.b == -1.0


class TestPhiClassical:
    def test_constant_field_zero(self, square64):
        spec, mask = square64
        u = indicator(spec, mask)
        w = Weights(a=0.0, b=0.0)
        assert phi_classical(u, mask, w, backend=FACE_ATOMS) == 0.0

    def test_bulk_weight(self, square64):
        spec, mask = square64
        u = indicator(spec, mask)
        val = phi_classical(u, mask, Weights(a=1.0, b=0.0),
                            backend=FACE_ATOMS)
        assert val == pytest.approx(1.0, rel=1e-12)  # area of the square

    def test_boundary_weight(self, square64):
        spec, mask = square64
        u = indicator(spec, mask)
        val = phi_classical(u, mask, Weights(a=0.0, b=1.0),
                            backend=FACE_ATOMS)
        assert val == pytest.approx(4.0, rel=1e-12)  # perimeter


class TestPhiAffine:
    def test_square_indicator(self, square64, quad512):
        spec, mask = square64
        val = phi_affine(indicator(spec, mask), mask, Weights(0.0, 0.0),
                         quad512, backend=FACE_ATOMS)
        assert val == pytest.approx(constants(2).alpha, rel=1e-3)

    def test_zero_trace_matches_interior_energy(self, square64, quad128):
        from affinebv import affine_energy_interior

        spec, mask = square64
        u = clamp_rim(random_field(spec, mask, seed=30), mask)
        val = phi_affine(u, mask, Weights(0.0, 0.0), quad128,
                         backend=FACE_ATOMS)
        e_int = affine_energy_interior(u, mask, FACE_ATOMS, quad128)
        assert val == pytest.approx(e_int.value, rel=1e-12)

    def test_energy_dominated_by_variation_plus_trace(self, disk64, quad512):
        from affinebv import (
            affine_energy_extended,
            compute_atoms,
            extract_trace,
            total_variation,
        )

        spec, mask = disk64
        for seed in range(5):
            u = random_field(spec, mask, seed=seed, smooth=1)
            tv = total_variation(compute_atoms(u, mask, backend=FACE_ATOMS))
            tr = extract_trace(u, mask).l1_norm()
            e = affine_energy_extended(u, mask, FACE_ATOMS, quad512)
            assert e.value <= tv + tr + 1e-3 * (tv + tr)


class TestMrSolve:
    def test_r1_is_mean(self, square64):
        spec, mask = square64
        u = random_field(spec, mask, seed=31)
        mean = float(np.mean(u.values[mask.inside]))
        assert m_r_solve(u, mask, 1.0) == pytest.approx(mean, abs=1e-12)

    def test_two_valued_any_r(self):
        spec, mask = small_domain()
        vals = np.zeros(spec.shape)
        ins = np.argwhere(mask.inside)
        half = len(ins) // 2
        vals[tuple(ins[:half].T)] = 0.0
        vals[tuple(ins[half:].T)] = 3.0
        u = GridFunction(spec, vals)
        for r in (1.0, 1.5, 2.0):
            assert m_r_solve(u, mask, r) == pytest.approx(1.5, abs=1e-9)

    def test_constant_field(self, square64):
        spec, mask = square64
        u = GridFunction(spec, np.where(mask.inside, 2.25, 0.0))
        assert m_r_solve(u, mask, 1.7) == pytest.approx(2.25, abs=1e-10)

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_residual_bound(self, r):
        spec, mask = small_domain()
        from affinebv.functionals import _mr_residual

        for seed in range(20):
            u = random_field(spec, mask, seed=seed)
            m = m_r_solve(u, mask, r)
            res = _mr_residual(u.values[mask.inside], m, r, spec.cell_volume)
            scale = float(np.sum(np.abs(u.values[mask.inside] - m)
                                 ** (r - 1.0)) * spec.cell_volume)
            assert abs(res) <= 1e-10 * max(scale, 1e-30)

    @given(seed=st.integers(0, 100), r=st.sampled_from([1.0, 1.5, 2.0]),
           c=st.floats(-5, 5), s=st.floats(0.1, 4))
    @settings(max_examples=30, deadline=None)
    def test_equivariance_and_homogeneity(self, seed, r, c, s):
        spec, mask = small_domain()
        u = random_field(spec, mask, seed=seed)
        m = m_r_solve(u, mask, r)
        shifted = u.with_values(np.where(mask.inside, u.values + c, 0.0))
        assert m_r_solve(shifted, mask, r) == pytest.approx(m + c, abs=1e-10)
        scaled = u.with_values(s * u.values)
        assert m_r_solve(scaled, mask, r) == pytest.approx(s * m, abs=1e-10)

    def test_bracket_validity(self):
        spec, mask = small_domain()
        from affinebv.functionals import _mr_residual

        for seed in range(10):
            u = random_field(spec, mask, seed=seed)
            vals = u.values[mask.inside]
            for r in (1.0, 1.5, 2.0):
                assert _mr_residual(vals, vals.min(), r,
                                    spec.cell_volume) >= 0.0
                assert _mr_residual(vals, vals.max(), r,
                                    spec.cell_volume) <= 0.0


def _m_r_reference(u, mask, r, tol=1e-10, max_iter=200):
    """The bisection that computed the scale at every step."""
    from affinebv.functionals import _mr_residual

    vals = u.values[mask.inside]
    h_n = mask.spec.cell_volume
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return lo
    span = hi - lo
    for _ in range(max_iter):
        m = 0.5 * (lo + hi)
        g = _mr_residual(vals, m, r, h_n)
        scale = float(np.sum(np.abs(vals - m) ** (r - 1.0)) * h_n)
        if (abs(g) <= tol * max(scale, 1e-300)
                and hi - lo <= 1e-13 * max(span, 1e-300)):
            return m
        if g > 0:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


class TestMrSolveReference:
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.5])
    def test_bitwise_equal_to_reference(self, disk64, r):
        spec, mask = disk64
        for seed in range(8):
            u = random_field(spec, mask, seed=seed, smooth=seed % 3)
            u = u.with_values(u.values * (1 + seed) + 0.3 * seed)
            assert m_r_solve(u, mask, r) == _m_r_reference(u, mask, r)


class TestTruncate:
    def test_exact_split(self):
        spec, mask = small_domain()
        u = random_field(spec, mask, seed=33)
        pair = truncate(u, 0.7)
        assert np.array_equal(pair.truncated.values + pair.remainder.values,
                              u.values)
        assert np.max(np.abs(pair.truncated.values)) <= 0.7

    def test_large_level_identity(self):
        spec, mask = small_domain()
        u = random_field(spec, mask, seed=34)
        h = float(np.max(np.abs(u.values))) + 1.0
        pair = truncate(u, h)
        assert np.array_equal(pair.truncated.values, u.values)
        assert not pair.remainder.values.any()

    def test_constant(self):
        spec, mask = small_domain()
        u = GridFunction(spec, np.full(spec.shape, 5.0))
        pair = truncate(u, 2.0)
        assert np.all(pair.truncated.values == 2.0)
        assert np.all(pair.remainder.values == 3.0)

    def test_nonpositive_level_rejected(self):
        spec, mask = small_domain()
        with pytest.raises(AffineBVError):
            truncate(GridFunction.zeros(spec), 0.0)


class TestProjection:
    def test_x_idempotent(self, square64):
        spec, mask = square64
        cs = ConstraintSpec(q=2.0, kind="X", r=1.0, zero_trace=False)
        u = random_field(spec, mask, seed=35)
        once = project_constraint(u, cs, mask).u
        twice = project_constraint(once, cs, mask).u
        assert np.allclose(once.values, twice.values, atol=1e-12)
        assert lq_norm(once, mask, 2.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_x_norm_residual_measured(self, square64, q):
        spec, mask = square64
        cs = ConstraintSpec(q=q, kind="X", r=1.0, zero_trace=False)
        u = random_field(spec, mask, seed=38, smooth=2)
        res = project_constraint(u, cs, mask)
        assert res.norm_residual == abs(lq_norm(res.u, mask, q) - 1.0)
        assert res.norm_residual <= 1e-8

    def test_square_indicator_already_unit(self, square64):
        spec, mask = square64
        cs = ConstraintSpec(q=2.0, kind="X", r=1.0, zero_trace=False)
        u = indicator(spec, mask)
        res = project_constraint(u, cs, mask)
        assert np.allclose(res.u.values, u.values, atol=1e-12)

    def test_sign_pattern_in_y(self, square64):
        spec, mask = square64
        x = spec.cell_centers()[..., 0]
        pattern = np.where(x < 0.5, 1.0, -1.0)
        u = GridFunction(spec, np.where(mask.inside, pattern, 0.0))
        cs = ConstraintSpec(q=1.0, kind="Y", r=1.0, zero_trace=False)
        res = project_constraint(u, cs, mask)
        assert res.converged
        # already mean-zero; only the norm scaling applies
        assert np.corrcoef(res.u.values[mask.inside],
                           u.values[mask.inside])[0, 1] > 0.999
        assert lq_norm(res.u, mask, 1.0) == pytest.approx(1.0, rel=1e-8)
        assert abs(m_r_solve(res.u, mask, 1.0)) < 1e-8

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_y_projection_residuals(self, square64, r):
        spec, mask = square64
        cs = ConstraintSpec(q=1.5, kind="Y", r=r, zero_trace=False)
        u = random_field(spec, mask, seed=36, smooth=2)
        res = project_constraint(u, cs, mask)
        assert res.converged
        assert res.norm_residual <= 1e-8
        scale = float(np.max(np.abs(res.u.values)))
        assert res.orth_residual <= 1e-8 * max(scale, 1.0)

    def test_zero_trace_clamps_rim(self, square64):
        spec, mask = square64
        cs = ConstraintSpec(q=2.0, kind="X", r=1.0, zero_trace=True)
        u = random_field(spec, mask, seed=37)
        res = project_constraint(u, cs, mask)
        assert np.all(res.u.values[rim_cells(mask)] == 0.0)

    def test_zero_field_rejected(self, square64):
        spec, mask = square64
        cs = ConstraintSpec(q=2.0, kind="X", r=1.0, zero_trace=False)
        with pytest.raises(AffineBVError):
            project_constraint(GridFunction.zeros(spec), cs, mask)


class TestConstraintSpec:
    def test_exponent_range_enforced(self):
        with pytest.raises(AffineBVError):
            ConstraintSpec(q=0.5, kind="X", r=1.0, zero_trace=False)
        with pytest.raises(AffineBVError):
            ConstraintSpec(q=1.0, kind="Z", r=1.0, zero_trace=False)

    def test_critical_exponent(self):
        cs = ConstraintSpec(q=2.0, kind="X", r=1.0, zero_trace=False)
        assert cs.is_critical(2)
        assert not cs.is_critical(3)
