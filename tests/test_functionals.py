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
    compute_atoms,
    constants,
    lq_norm,
    m_r_solve,
    make_mask,
    phi_affine,
    project_constraint,
    total_variation,
    truncate,
)
import affinebv.functionals as functionals
from affinebv.errors import AffineBVError, ConfigError, GridError
from affinebv.functionals import (
    clamp_rim,
    m_r_vector,
    project_vector,
    rim_cells,
    rim_positions,
)
from affinebv.variation import CELL_GRADIENT, FACE_ATOMS

from conftest import indicator, mr_residual, random_field


def small_domain():
    spec = GridSpec(dim=2, shape=(16, 16), spacing=0.125, origin=(-1.0, -1.0))
    mask = make_mask(spec, {"shape": "box",
                            "extents": [[-0.5, 0.5], [-0.5, 0.5]]})
    return spec, mask


class TestWeights:
    def test_negative_b_guarded(self):
        with pytest.raises(AffineBVError, match="negative boundary weight"):
            Weights(a=0.0, b=-1.0)
        with pytest.raises(AffineBVError, match="negative boundary weight"):
            Weights(a=0.0, b=np.array([0.0, -1e-300]))
        assert Weights(a=-1.0, b=0.0).a == -1.0


class TestPhiClassical:
    """The classical functional |Du|(Omega) + int a|u| + int b|u-tilde|,
    part by part: interior total variation and the two weight terms."""

    def test_constant_field_zero(self, square64):
        spec, mask = square64
        u = indicator(spec, mask)
        w = Weights(a=0.0, b=0.0)
        assert total_variation(compute_atoms(u, mask, backend=FACE_ATOMS)) == 0.0
        assert w.bulk_term(u, mask) == 0.0
        assert w.boundary_term(u, mask) == 0.0

    def test_bulk_weight(self, square64):
        spec, mask = square64
        u = indicator(spec, mask)
        w = Weights(a=1.0, b=0.0)
        assert total_variation(compute_atoms(u, mask, backend=FACE_ATOMS)) == 0.0
        assert w.boundary_term(u, mask) == 0.0
        # area of the square
        assert w.bulk_term(u, mask) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_weight(self, square64):
        spec, mask = square64
        u = indicator(spec, mask)
        w = Weights(a=0.0, b=1.0)
        assert total_variation(compute_atoms(u, mask, backend=FACE_ATOMS)) == 0.0
        assert w.bulk_term(u, mask) == 0.0
        # perimeter
        assert w.boundary_term(u, mask) == pytest.approx(4.0, rel=1e-12)


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
            tr = np.sum(np.abs(extract_trace(u, mask)) * mask.face_areas())
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
        for seed in range(20):
            u = random_field(spec, mask, seed=seed)
            m = m_r_solve(u, mask, r)
            res = mr_residual(u.values[mask.inside], m, r, spec.cell_volume)
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
        for seed in range(10):
            u = random_field(spec, mask, seed=seed)
            vals = u.values[mask.inside]
            for r in (1.0, 1.5, 2.0):
                assert mr_residual(vals, vals.min(), r,
                                    spec.cell_volume) >= 0.0
                assert mr_residual(vals, vals.max(), r,
                                    spec.cell_volume) <= 0.0


def _m_r_reference(u, mask, r):
    """The bisection that computed the scale at every step."""
    return _m_r_reference_values(u.values[mask.inside], r, mask.spec.cell_volume)


def _m_r_reference_values(vals, r, h_n, tol=1e-10, max_iter=200):
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return lo
    span = hi - lo
    for _ in range(max_iter):
        m = 0.5 * (lo + hi)
        g = mr_residual(vals, m, r, h_n)
        scale = float(np.sum(np.abs(vals - m) ** (r - 1.0)) * h_n)
        if (abs(g) <= tol * max(scale, 1e-300)
                and hi - lo <= 1e-13 * max(span, 1e-300)):
            return m
        if g > 0:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


def _assert_solves(u, mask, r):
    """m_r_solve's m lies in [min u, max u], meets the residual contract
    and agrees with the bisection reference to 1e-12 of the value span."""
    vals = u.values[mask.inside]
    h_n = mask.spec.cell_volume
    m = m_r_solve(u, mask, r)
    assert vals.min() <= m <= vals.max()
    scale = float(np.sum(np.abs(vals - m) ** (r - 1.0)) * h_n)
    assert abs(mr_residual(vals, m, r, h_n)) <= 1e-10 * max(scale, 1e-300)
    span = float(vals.max() - vals.min())
    assert abs(m - _m_r_reference(u, mask, r)) <= 1e-12 * span


class TestMrSolveReference:
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.5])
    def test_agrees_with_reference(self, disk64, r):
        spec, mask = disk64
        for seed in range(8):
            u = random_field(spec, mask, seed=seed, smooth=seed % 3)
            u = u.with_values(u.values * (1 + seed) + 0.3 * seed)
            _assert_solves(u, mask, r)

    @given(seed=st.integers(0, 2**32 - 1),
           r=st.sampled_from([1.05, 1.5, 2.0, 3.5, 6.0]),
           kind=st.sampled_from(["gaussian", "two_valued", "outlier",
                                 "cubed"]),
           s=st.floats(1e-2, 1e2), c=st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_stress_fields(self, disk64, seed, r, kind, s, c):
        spec, mask = disk64
        rng = np.random.default_rng(seed)
        x = rng.normal(size=mask.n_inside)
        if kind == "two_valued":
            x = np.where(rng.random(x.size) < rng.uniform(0.01, 0.99),
                         2.0, -1.0)
        elif kind == "outlier":
            # one cell far from the rest: its term dominates the residual
            x[rng.integers(x.size)] = rng.choice([-1.0, 1.0]) * 50.0
        elif kind == "cubed":
            x = x ** 3
        vals = np.zeros(spec.shape)
        vals[mask.inside] = s * x + c
        _assert_solves(GridFunction(spec, vals), mask, r)

    @pytest.mark.parametrize("r", [3.5, 6.0])
    def test_overflowing_residual_stays_in_bracket(self, r):
        """|u - m|^r overflows, so g and the Newton step are not finite;
        the bracket safeguard still returns a value inside [min u, max u]."""
        spec, mask = small_domain()
        u = random_field(spec, mask, seed=1)
        u = u.with_values(1e100 * u.values)
        vals = u.values[mask.inside]
        with np.errstate(over="ignore", invalid="ignore"):
            m = m_r_solve(u, mask, r)
        assert vals.min() <= m <= vals.max()

    @pytest.mark.parametrize("r", [1.05, 1.5, 2.0, 3.5, 6.0])
    def test_few_passes(self, disk64, r):
        """Newton converges in a handful of passes; bisection to the same
        resolution takes about 44."""
        spec, mask = disk64
        for seed in range(8):
            u = random_field(spec, mask, seed=seed, smooth=seed % 3)
            u = u.with_values((u.values * (1 + seed) + 0.3 * seed) ** 3)
            m = m_r_solve(u, mask, r)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(functionals, "MR_MAX_ITER", 10)
                assert m_r_solve(u, mask, r) == m


def _field_from(spec, mask, x):
    vals = np.zeros(spec.shape)
    vals[mask.inside] = x
    return GridFunction(spec, vals)


def _g_bracket_holds(vals, m, r, h_n):
    """g changes sign across m +- delta, with delta 1e-12 of the span or
    64 ulp of the largest value, whichever is larger."""
    span = float(vals.max() - vals.min())
    delta = max(1e-12 * span, 64 * np.spacing(float(np.abs(vals).max())))
    return (mr_residual(vals, m - delta, r, h_n) >= 0.0
            >= mr_residual(vals, m + delta, r, h_n))


class TestMrExhaustion:
    """The solve stops once the location is resolved, also where the
    residual test cannot pass, and reports exhaustion instead of hiding it."""

    @pytest.mark.parametrize("s,c", [(1e-6, 3.0), (1e-6, -3.0), (1e6, 3.0),
                                     (1e6, -3.0)])
    @pytest.mark.parametrize("r", [1.05, 1.5, 2.0, 3.5, 6.0])
    def test_large_offset_fields_converge(self, disk64, s, c, r):
        spec, mask = disk64
        h_n = spec.cell_volume
        rng = np.random.default_rng(int(10 * r) + (s > 1))
        for kind in ("gaussian", "two_valued", "outlier", "cubed"):
            x = rng.normal(size=mask.n_inside)
            if kind == "two_valued":
                x = np.where(rng.random(x.size) < 0.3, 2.0, -1.0)
            elif kind == "outlier":
                x[rng.integers(x.size)] = 50.0
            elif kind == "cubed":
                x = x ** 3
            vals = s * x + c
            m, converged = m_r_vector(vals, r, h_n)
            assert converged, kind
            assert vals.min() <= m <= vals.max()
            assert _g_bracket_holds(vals, m, r, h_n), kind
            assert m_r_solve(_field_from(spec, mask, vals), mask, r) == m

    def test_exhaustion_flagged(self, disk64, monkeypatch):
        spec, mask = disk64
        u = random_field(spec, mask, seed=3, smooth=2)
        u = u.with_values(np.where(mask.inside, u.values + 0.5, 0.0))
        vals = u.values[mask.inside]
        cs = ConstraintSpec(q=1.5, kind="Y", r=2.0)
        assert m_r_vector(vals, 2.0, spec.cell_volume)[1]
        assert project_vector(vals, cs, spec.cell_volume, None).converged
        monkeypatch.setattr(functionals, "MR_MAX_ITER", 1)
        assert not m_r_vector(vals, 2.0, spec.cell_volume)[1]
        assert not project_vector(vals, cs, spec.cell_volume, None).converged
        assert not project_constraint(u, cs, mask).converged

    def test_exhaustion_counted_per_start(self, monkeypatch):
        """Every accepted and final projection of a start whose m_r solves
        all exhaust counts as unconverged."""
        from affinebv import make_quadrature, minimize_level
        from affinebv.minimize import MinimizeConfig

        spec = GridSpec(dim=2, shape=(32, 32), spacing=2.6 / 32,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        monkeypatch.setattr(functionals, "MR_MAX_ITER", 1)
        res = minimize_level(
            mask, Weights(0.0, 0.0), ConstraintSpec(q=1.5, kind="Y", r=2.0),
            config=MinimizeConfig(max_iters=10, n_starts=2, seed=0),
            quadrature=make_quadrature(2, 64), backend=CELL_GRADIENT)
        for rec, hist in zip(res.meta["starts"], res.histories):
            # history: start, accepted steps, final level
            assert rec["unconverged_projections"] == len(hist) - 1


class TestMrSolveLevels:
    @pytest.mark.parametrize("zero_trace", [False, True], ids=["Y", "Y0"])
    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_levels_match_reference_solver(self, monkeypatch, zero_trace, r):
        """Minimizer levels with the shipped m_r solver and with the
        bisection reference agree to 1e-10 relative."""
        from affinebv import make_quadrature, minimize_level
        from affinebv.minimize import MinimizeConfig

        spec = GridSpec(dim=2, shape=(32, 32), spacing=2.6 / 32,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        cs = ConstraintSpec(q=1.5, kind="Y", r=r, zero_trace=zero_trace)

        def level():
            return minimize_level(
                mask, Weights(0.0, 0.0), cs,
                config=MinimizeConfig(max_iters=80, n_starts=2, seed=0),
                quadrature=make_quadrature(2, 128),
                backend=CELL_GRADIENT).level

        shipped = level()
        monkeypatch.setattr(functionals, "m_r_vector",
                            lambda *args: (_m_r_reference_values(*args), True))
        assert shipped == pytest.approx(level(), rel=1e-10)


class TestTruncate:
    def test_exact_split(self):
        spec, mask = small_domain()
        u = random_field(spec, mask, seed=33)
        truncated, remainder = truncate(u, 0.7)
        assert np.array_equal(truncated.values + remainder.values, u.values)
        assert np.max(np.abs(truncated.values)) <= 0.7

    def test_large_level_identity(self):
        spec, mask = small_domain()
        u = random_field(spec, mask, seed=34)
        h = float(np.max(np.abs(u.values))) + 1.0
        truncated, remainder = truncate(u, h)
        assert np.array_equal(truncated.values, u.values)
        assert not remainder.values.any()

    def test_constant(self):
        spec, mask = small_domain()
        u = GridFunction(spec, np.full(spec.shape, 5.0))
        truncated, remainder = truncate(u, 2.0)
        assert np.all(truncated.values == 2.0)
        assert np.all(remainder.values == 3.0)

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

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.5])
    def test_y_one_solve_per_round(self, disk64, monkeypatch, r):
        """Each round's orthogonality check supplies the next round's
        shift, with the field of the loop that solved twice per round."""
        spec, mask = disk64
        cs = ConstraintSpec(q=1.5, kind="Y", r=r, zero_trace=True)
        u = random_field(spec, mask, seed=3, smooth=2)
        u = u.with_values(u.values + 0.5)
        ref = _project_y_twice_per_round(u, cs, mask)
        calls = []

        def counted(*args):
            calls.append(args)
            return m_r_vector(*args)

        monkeypatch.setattr(functionals, "m_r_vector", counted)
        res = project_constraint(u, cs, mask)
        assert res.converged and res.rounds >= 3
        assert len(calls) == res.rounds + 1
        assert np.array_equal(res.u.values, ref.u.values)
        assert (res.rounds, res.norm_residual, res.orth_residual) == (
            ref.rounds, ref.norm_residual, ref.orth_residual)


def _project_field(u, spec, mask):
    """The projection on grid fields, with zero extension, rim clamping,
    ``lq_norm`` and ``m_r_solve`` on the whole grid: the reference the
    inside-cell vector projection must equal bit for bit."""
    from affinebv.functionals import (
        PROJECTION_MAX_ROUNDS,
        PROJECTION_TOL,
        ProjectionResult,
    )
    from affinebv.grid import zero_extend

    v = zero_extend(u, mask)
    if spec.zero_trace:
        v = clamp_rim(v, mask)
    norm = lq_norm(v, mask, spec.q)
    if norm == 0.0:
        raise AffineBVError("cannot project the zero field onto the constraint set")
    if spec.kind == "X":
        v = v.with_values(v.values / norm)
        return ProjectionResult(v, True, abs(lq_norm(v, mask, spec.q) - 1.0),
                                0.0, 0)
    s = m_r_solve(v, mask, spec.r)
    for rounds in range(1, PROJECTION_MAX_ROUNDS + 1):
        v = v.with_values(np.where(mask.inside, v.values - s, 0.0))
        if spec.zero_trace:
            v = clamp_rim(v, mask)
        norm = lq_norm(v, mask, spec.q)
        if norm == 0.0:
            raise AffineBVError("field collapsed to zero during Y projection")
        v = v.with_values(v.values / norm)
        s = m_r_solve(v, mask, spec.r)
        orth = abs(s)
        nrm = abs(lq_norm(v, mask, spec.q) - 1.0)
        scale = max(float(np.max(np.abs(v.values))), 1e-300)
        if orth <= PROJECTION_TOL * scale and nrm <= PROJECTION_TOL:
            return ProjectionResult(v, True, nrm, orth, rounds)
    return ProjectionResult(v, False, nrm, orth, PROJECTION_MAX_ROUNDS)


_SPECS = ([ConstraintSpec(q=q, kind="X", zero_trace=zt)
           for q in (1.0, 1.5, 2.0) for zt in (False, True)]
          + [ConstraintSpec(q=q, kind="Y", r=r, zero_trace=zt)
             for q in (1.0, 1.5, 2.0) for r in (1.0, 2.0, 3.0)
             for zt in (False, True)])


class TestProjectionVector:
    """project_vector on the inside-cell values equals the projection on
    grid fields bit for bit, through project_constraint and directly."""

    @pytest.mark.parametrize("domain", ["disk", "square"])
    @pytest.mark.parametrize("cs", _SPECS, ids=lambda c: (
        f"{c.kind}{'0' if c.zero_trace else ''}-q{c.q}-r{c.r}"))
    def test_equals_field_projection(self, disk64, square64, domain, cs):
        spec, mask = disk64 if domain == "disk" else square64
        rim = rim_positions(mask)
        for seed in range(3):
            u = random_field(spec, mask, seed=seed, smooth=seed)
            u = u.with_values(np.where(mask.inside, u.values + 0.3 * seed, 0.0))
            want = _project_field(u, cs, mask)
            got = project_constraint(u, cs, mask)
            assert np.array_equal(got.u.values, want.u.values)
            assert (got.converged, got.norm_residual, got.orth_residual,
                    got.rounds) == (want.converged, want.norm_residual,
                                    want.orth_residual, want.rounds)
            x = u.values[mask.inside]
            vec = project_vector(x, cs, spec.cell_volume, rim)
            assert np.array_equal(vec.u, want.u.values[mask.inside])
            assert np.array_equal(x, u.values[mask.inside])   # not mutated
            assert (vec.converged, vec.norm_residual, vec.orth_residual,
                    vec.rounds) == (want.converged, want.norm_residual,
                                    want.orth_residual, want.rounds)

    @pytest.mark.parametrize("cs", [ConstraintSpec(q=1.5, kind="X"),
                                    ConstraintSpec(q=1.5, kind="Y", r=2.0),
                                    ConstraintSpec(q=1.5, kind="X", zero_trace=True)])
    def test_zero_field_raises_as_before(self, square64, cs):
        spec, mask = square64
        # zero, or nonzero only on the rim, which the zero-trace clamp zeroes
        vals = np.where(rim_cells(mask), 1.0, 0.0) if cs.zero_trace else np.zeros(spec.shape)
        u = GridFunction(spec, vals)
        with pytest.raises(AffineBVError) as want:
            _project_field(u, cs, mask)
        with pytest.raises(AffineBVError) as got:
            project_constraint(u, cs, mask)
        assert str(got.value) == str(want.value)
        assert "zero field" in str(got.value)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_collapse_raises_as_before(self, disk64, r):
        spec, mask = disk64
        cs = ConstraintSpec(q=1.0, kind="Y", r=r)
        # a constant: its m_r shift leaves nothing
        u = GridFunction(spec, np.where(mask.inside, 2.0, 0.0))
        with pytest.raises(AffineBVError) as want:
            _project_field(u, cs, mask)
        with pytest.raises(AffineBVError) as got:
            project_constraint(u, cs, mask)
        assert str(got.value) == str(want.value)
        assert "collapsed" in str(got.value)

    def test_non_finite_values_rejected(self, square64):
        spec, mask = square64
        x = np.ones(mask.n_inside)
        x[5] = np.inf
        with pytest.raises(GridError):
            project_vector(x, ConstraintSpec(q=1.0), spec.cell_volume, None)

    def test_rim_positions(self, disk64):
        spec, mask = disk64
        x = np.zeros(mask.n_inside)
        x[rim_positions(mask)] = 1.0
        assert np.array_equal(_field_from(spec, mask, x).values,
                              rim_cells(mask).astype(float))


def _project_y_twice_per_round(u, spec, mask):
    """The Y projection that solved for the shift again at the start of
    each round, on the field its previous round had just checked."""
    from affinebv.functionals import (
        PROJECTION_MAX_ROUNDS,
        PROJECTION_TOL,
        ProjectionResult,
    )
    from affinebv.grid import zero_extend

    v = zero_extend(u, mask)
    if spec.zero_trace:
        v = clamp_rim(v, mask)
    for rounds in range(1, PROJECTION_MAX_ROUNDS + 1):
        s = m_r_solve(v, mask, spec.r)
        v = v.with_values(np.where(mask.inside, v.values - s, 0.0))
        if spec.zero_trace:
            v = clamp_rim(v, mask)
        v = v.with_values(v.values / lq_norm(v, mask, spec.q))
        orth = abs(m_r_solve(v, mask, spec.r))
        nrm = abs(lq_norm(v, mask, spec.q) - 1.0)
        scale = max(float(np.max(np.abs(v.values))), 1e-300)
        if orth <= PROJECTION_TOL * scale and nrm <= PROJECTION_TOL:
            return ProjectionResult(v, True, nrm, orth, rounds)
    return ProjectionResult(v, False, nrm, orth, PROJECTION_MAX_ROUNDS)


class TestConstraintSpec:
    def test_exponent_range_enforced(self):
        with pytest.raises(AffineBVError):
            ConstraintSpec(q=0.5, kind="X", r=1.0, zero_trace=False)
        with pytest.raises(AffineBVError):
            ConstraintSpec(q=1.0, kind="Z", r=1.0, zero_trace=False)
        for q, r in [(np.inf, 1.0), (np.nan, 1.0), (2.0, np.inf), (2.0, np.nan)]:
            with pytest.raises(ConfigError, match="finite"):
                ConstraintSpec(q=q, kind="Y", r=r)

    def test_critical_exponent(self):
        cs = ConstraintSpec(q=2.0, kind="X", r=1.0, zero_trace=False)
        assert cs.is_critical(2)
        assert not cs.is_critical(3)
