"""Smoothed projected descent, gradient correctness, SL(n) search."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from affinebv import (
    ConstraintSpec,
    GridFunction,
    GridSpec,
    Weights,
    check_critical_threshold,
    compute_atoms,
    constants,
    make_mask,
    make_quadrature,
    minimize_level,
    sl_n_minimize_tv,
    total_variation,
)
import affinebv.minimize as minimize_module
from affinebv.energy import COV_EIGEN_EPS
from affinebv.errors import AffineBVError, GridError
from affinebv.grid import row_norms
from affinebv.minimize import MinimizeConfig, SmoothedProblem
from affinebv.variation import (
    ATOM_ELISION,
    CELL_GRADIENT,
    FACE_ATOMS,
    VariationAtoms,
    covariance,
    covariance_eigen_ratio,
)
from affinebv.verify import square_domain

from conftest import aligned_square, check_gradient, random_field, src_env


class TestGradient:
    def _problem(self, mask, quad, backend=CELL_GRADIENT, a=0.0, b=0.0):
        return SmoothedProblem(mask, Weights(a=a, b=b), quad,
                               backend=backend)

    def test_matches_finite_differences(self, disk64, quad128):
        spec, mask = disk64
        prob = self._problem(mask, quad128)
        rng = np.random.default_rng(1)
        for seed in range(10):
            u = random_field(spec, mask, seed=seed, smooth=2)
            x = prob.to_vector(u)
            worst, tol = check_gradient(prob, x, delta=1e-3, n_coords=20,
                                        rng=rng)
            assert worst <= tol

    def test_with_weights(self, disk64, quad128):
        spec, mask = disk64
        prob = self._problem(mask, quad128, a=0.7, b=0.4)
        rng = np.random.default_rng(2)
        u = random_field(spec, mask, seed=40, smooth=2)
        worst, tol = check_gradient(prob, prob.to_vector(u), delta=1e-3,
                                    n_coords=20, rng=rng)
        assert worst <= tol

    def test_face_atoms_backend(self, disk64, quad128):
        spec, mask = disk64
        prob = self._problem(mask, quad128, backend=FACE_ATOMS)
        rng = np.random.default_rng(3)
        u = random_field(spec, mask, seed=41, smooth=2)
        worst, tol = check_gradient(prob, prob.to_vector(u), delta=1e-3,
                                    n_coords=20, rng=rng)
        assert worst <= tol

    def test_degenerate_flagged_not_thrown(self, square64, quad128):
        # a single-variable profile with nonzero trace is *not* degenerate
        # for the zero-extension energy; only a rank-deficient atom set is
        spec, mask = square64
        prob = self._problem(mask, quad128)
        x = spec.cell_centers()[..., 0]
        u = GridFunction(spec, np.where(mask.inside, x, 0.0))
        _, _, degen = prob.value_and_gradient(prob.to_vector(u), 1e-3)
        assert not degen
        val, g, degen = prob.value_and_gradient(
            np.zeros(prob.n_var), 1e-3)
        assert degen
        assert val == 0.0
        assert np.all(g == 0.0)

    def test_smoothed_value_above_nonsmooth(self, disk64, quad512):
        from affinebv import phi_affine

        spec, mask = disk64
        prob = self._problem(mask, quad512)
        u = random_field(spec, mask, seed=42, smooth=2)
        smooth_val = prob.value(prob.to_vector(u), 1e-2)
        exact = phi_affine(u, mask, Weights(0.0, 0.0), quad512,
                           backend=CELL_GRADIENT)
        assert smooth_val >= exact * (1 - 1e-9)


class TestMinimizeLevel:
    def _run(self, mask, kind="X", q=1.0, zero_trace=False, a=0.0,
             seed=0, iters=200, starts=3, dirs=128, extra=()):
        cs = ConstraintSpec(q=q, kind=kind, r=1.0, zero_trace=zero_trace)
        return minimize_level(
            mask, Weights(a=a, b=0.0), cs,
            config=MinimizeConfig(seed=seed, max_iters=iters, n_starts=starts),
            quadrature=make_quadrature(2, dirs), backend=CELL_GRADIENT,
            extra_starts=extra)

    def test_square_level_below_candidate_bound(self, square64):
        _, mask = square64
        res = self._run(mask)
        # inscribed-ball indicator candidate: E / ||.||_1 = 2 / r = 4
        assert res.level <= 4.0 * 1.05
        assert res.level > 0
        assert res.norm_residual <= 1e-8

    def test_level_not_above_any_start(self, square64):
        from affinebv import phi_affine
        from affinebv.functionals import project_constraint
        from affinebv.minimize import initial_guesses

        spec, mask = square64
        cs = ConstraintSpec(q=1.0, kind="X", r=1.0, zero_trace=False)
        cfg = MinimizeConfig(seed=0, max_iters=200, n_starts=3)
        res = self._run(mask)
        quad = make_quadrature(2, 128)
        rng = np.random.default_rng(0)
        for u0 in initial_guesses(mask, cs, cfg, rng):
            u0p = project_constraint(u0, cs, mask).u
            start_level = phi_affine(u0p, mask, Weights(0.0, 0.0), quad,
                                     backend=CELL_GRADIENT)
            assert res.level <= start_level + 1e-9

    def test_y_level(self, square64):
        _, mask = square64
        res = self._run(mask, kind="Y", iters=150)
        assert res.level > 0
        mean = float(np.mean(res.extremal.values[mask.inside]))
        assert abs(mean) < 1e-6
        assert res.orth_residual <= 1e-6

    def test_zero_trace_subset_monotone(self, square64):
        _, mask = square64
        res = self._run(mask, iters=150)
        res0 = self._run(mask, zero_trace=True, iters=150)
        assert res0.level >= res.level - 1e-6

    def test_negative_bulk_weight_lowers_level(self, square64):
        _, mask = square64
        res_zero = self._run(mask, q=2.0, iters=150)
        res_neg = self._run(mask, q=2.0, a=-1.0, iters=150)
        assert res_neg.level < res_zero.level

    def test_histories_recorded(self, square64):
        _, mask = square64
        res = self._run(mask, iters=50, starts=2)
        assert len(res.histories) == 2
        assert all(len(h) > 1 for h in res.histories)


class ParentFormula(SmoothedProblem):
    """The dense smoothed objective and gradient recomputed from scratch at
    every call, with fresh temporaries: the 3D reference the reusing
    evaluation must match bit for bit."""

    def value(self, x, delta):
        _, aval, _, bval = self._weight_parts(x, delta)
        V = self.atom_matrix(x)
        if self._degenerate(V.T, row_norms(V)):
            return aval + bval
        return self._reference_parts(V, delta)[-1] + aval + bval

    def value_and_gradient(self, x, delta):
        sa, aval, sb, bval = self._weight_parts(x, delta)
        grad = np.zeros_like(x)
        grad += self._a * (x / sa) * self.cell_volume
        np.add.at(grad, self._face_var,
                  self._b * (x[self._face_var] / sb) * self._face_areas)
        V = self.atom_matrix(x)
        if self._degenerate(V.T, row_norms(V)):
            return aval + bval, grad, True
        D, S, psi, ssum, energy = self._reference_parts(V, delta)
        n = self.dim
        coef = (self.consts.alpha * ssum ** (-1.0 / n - 1.0)
                * self.quad.weights * psi ** (-float(n) - 1.0))
        P = (D / S) @ (coef[:, None] * self.quad.directions)
        for d in range(self.dim):
            grad += self.BT[d] @ P[:, d]
        return energy + aval + bval, grad, False

    def _reference_parts(self, V, delta):
        D = V @ self.quad.directions.T
        S = np.sqrt(D * D + (delta * self.atom_scale) ** 2)
        psi = S.sum(axis=0)
        n = self.dim
        ssum = float(np.dot(self.quad.weights, psi ** (-float(n))))
        energy = self.consts.alpha * ssum ** (-1.0 / n)
        return D, S, psi, ssum, energy


class FreshEvaluation(SmoothedProblem):
    """The current objective evaluated from scratch at every call: the 2D
    reference the reusing evaluation must match bit for bit (the windowed
    2D kernel is not ParentFormula's dense one)."""

    def _parts(self, x, delta):
        self._last = None
        return super()._parts(x, delta)


def _ball_domain(dim, grid):
    spec = GridSpec(dim=dim, shape=(grid,) * dim, spacing=2.6 / grid,
                    origin=(-1.3,) * dim)
    return spec, make_mask(spec, {"shape": "ball", "center": [0.0] * dim,
                                  "radius": 1.0})


def _same(got, want):
    """Bitwise equality of (value, gradient, degenerate) triples."""
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def _degeneracy_cases():
    """Atom sets (N, dim): random ones over 16 decades, ones with atoms
    below ATOM_ELISION, rank-1 ones and all-zero ones."""
    rng = np.random.default_rng(13)
    cases = []
    for dim in (2, 3):
        for n in (1, 2, 3, 8, 40, 200):
            cases.append(rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-8, 8))
        line = np.outer(rng.normal(size=25), rng.normal(size=dim))
        light = rng.normal(size=(6, dim)) * 0.1 * ATOM_ELISION
        full = rng.normal(size=(30, dim))
        full[::3] *= 1e-31
        cases += [line, np.concatenate([line, light]), light, full,
                  np.concatenate([full, light]), np.zeros((12, dim))]
    return cases


class TestOneDegeneracyTest:
    """``SmoothedProblem._degenerate`` decides what
    ``covariance_eigen_ratio`` decides, from the norms the objective uses."""

    @pytest.fixture(scope="class")
    def problems(self):
        return {dim: SmoothedProblem(_ball_domain(dim, 20)[1], Weights(),
                                     make_quadrature(dim, 16), CELL_GRADIENT)
                for dim in (2, 3)}

    @pytest.mark.parametrize("case", range(len(_degeneracy_cases())))
    def test_agrees_with_covariance_eigen_ratio(self, problems, case):
        V = _degeneracy_cases()[case]
        prob = problems[V.shape[1]]
        want = covariance_eigen_ratio(VariationAtoms(V.shape[1], V, CELL_GRADIENT))
        assert prob._degenerate(np.ascontiguousarray(V.T), row_norms(V)) == (
            want < COV_EIGEN_EPS)

    def test_kinds_of_case_covered(self):
        decided = [covariance_eigen_ratio(VariationAtoms(V.shape[1], V, CELL_GRADIENT))
                   < COV_EIGEN_EPS for V in _degeneracy_cases()]
        assert 0 < sum(decided) < len(decided)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_same_error_on_non_finite_components(self, problems, bad):
        V = np.random.default_rng(2).normal(size=(10, 2))
        V[4, 1] = bad
        with pytest.raises(GridError) as atoms_err:
            VariationAtoms(2, V, CELL_GRADIENT)
        with pytest.raises(GridError) as problem_err:
            problems[2]._degenerate(np.ascontiguousarray(V.T), row_norms(V))
        assert str(problem_err.value) == str(atoms_err.value)

    def test_overflowing_norms_are_not_non_finite(self, problems):
        V = np.array([[1e200, 0.0], [0.0, 1e200], [1.0, 1.0]])
        with np.errstate(over="ignore"):
            r = row_norms(V)
            VariationAtoms(2, V, CELL_GRADIENT)
        assert not np.isfinite(r).all()
        problems[2]._degenerate(np.ascontiguousarray(V.T), r)


class TestSharedStencil:
    @pytest.mark.parametrize("backend", [CELL_GRADIENT, FACE_ATOMS])
    def test_problem_uses_the_mask_stencil(self, backend, monkeypatch):
        from affinebv import variation

        _, mask = _ball_domain(2, 24)
        stencil = mask.stencil(backend)
        operators = []
        operator = stencil.operator
        # no new stencil, and the operator comes from the mask's own
        monkeypatch.setattr(variation, "AtomStencil", None)
        monkeypatch.setattr(stencil, "operator",
                            lambda: operators.append(1) or operator())
        SmoothedProblem(mask, Weights(), make_quadrature(2, 16), backend=backend)
        assert operators == [1]


class TestEvaluationReuse:
    """A SmoothedProblem evaluates each point once; a reused evaluation is
    bitwise the fresh one, and nothing stale is ever reused."""

    DELTA = 1e-2

    def _setup(self, dim=2, backend=CELL_GRADIENT):
        spec, mask = _ball_domain(dim, 24 if dim == 2 else 20)
        quad = make_quadrature(dim, 64)

        def make(cls=SmoothedProblem):
            return cls(mask, Weights(a=0.7, b=0.4), quad, backend=backend)

        u = random_field(spec, mask, seed=5 + dim, smooth=1)
        return make, make().to_vector(u)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("backend", [CELL_GRADIENT, FACE_ATOMS])
    def test_gradient_after_value_is_fresh(self, dim, backend):
        make, x = self._setup(dim, backend)
        prob = make()
        val = prob.value(x, self.DELTA)
        got = prob.value_and_gradient(x, self.DELTA)
        assert val == make().value(x, self.DELTA)
        _same(got, make().value_and_gradient(x, self.DELTA))
        reference = ParentFormula if dim == 3 else FreshEvaluation
        _same(got, make(reference).value_and_gradient(x, self.DELTA))
        assert not got[2]

    def test_delta_changed(self):
        make, x = self._setup()
        prob = make()
        prob.value(x, self.DELTA)
        _same(prob.value_and_gradient(x, self.DELTA / 2),
              make().value_and_gradient(x, self.DELTA / 2))

    def test_other_point_in_between(self):
        make, x = self._setup()
        prob = make()
        prob.value(x, self.DELTA)
        prob.value(1.5 * x, self.DELTA)
        _same(prob.value_and_gradient(x, self.DELTA),
              make().value_and_gradient(x, self.DELTA))

    def test_mutated_in_place(self):
        make, x = self._setup()
        prob = make()
        prob.value(x, self.DELTA)
        x[::7] += 0.25
        _same(prob.value_and_gradient(x, self.DELTA),
              make().value_and_gradient(x.copy(), self.DELTA))

    def test_gradient_twice(self):
        make, x = self._setup()
        prob = make()
        first = prob.value_and_gradient(x, self.DELTA)
        second = prob.value_and_gradient(x, self.DELTA)
        _same(first, second)
        _same(second, make().value_and_gradient(x, self.DELTA))
        assert prob.value(x, self.DELTA) == first[0]

    def test_degenerate_then_regular(self):
        make, x = self._setup()
        prob = make()
        zero = np.zeros_like(x)
        prob.value(zero, self.DELTA)
        assert prob.value_and_gradient(zero, self.DELTA)[2]
        prob.value(zero, self.DELTA)
        _same(prob.value_and_gradient(x, self.DELTA),
              make().value_and_gradient(x, self.DELTA))

    def test_one_dense_product_per_value(self, monkeypatch, one_cpu):
        calls = {"_energy_parts": 0, "value": 0, "value_and_gradient": 0}
        for name in calls:
            orig = getattr(SmoothedProblem, name)

            def counted(self, *args, _orig=orig, _name=name):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(SmoothedProblem, name, counted)
        _, mask = aligned_square(48)
        minimize_level(mask, Weights(0.0, 0.0), ConstraintSpec(q=1.0),
                       config=MinimizeConfig(seed=0, max_iters=60, n_starts=2),
                       quadrature=make_quadrature(2, 256), backend=CELL_GRADIENT)
        assert calls["value_and_gradient"] > 0
        assert calls["_energy_parts"] == calls["value"]

    @pytest.mark.parametrize("domain,cspec,stall_window", [
        ("square", ConstraintSpec(q=1.0, kind="X"), 50),
        ("disk", ConstraintSpec(q=1.5, kind="Y", r=2.0), 50),
        # a short stall window makes the descent halve delta
        ("square", ConstraintSpec(q=1.0, kind="X"), 5),
    ])
    def test_minimize_matches_parent_formula(self, monkeypatch, domain, cspec,
                                             stall_window):
        mask = aligned_square(48)[1] if domain == "square" else _ball_domain(2, 48)[1]
        config = MinimizeConfig(seed=0, max_iters=60, n_starts=2)
        monkeypatch.setattr(minimize_module, "STALL_WINDOW", stall_window)
        monkeypatch.setattr(minimize_module, "STALL_REL", 1e-2)

        def run():
            return minimize_level(mask, Weights(0.0, 0.0), cspec, config=config,
                                  quadrature=make_quadrature(2, 256),
                                  backend=CELL_GRADIENT)

        got = run()
        monkeypatch.setattr(minimize_module, "SmoothedProblem", FreshEvaluation)
        want = run()
        assert got.level == want.level
        assert np.array_equal(got.extremal.values, want.extremal.values)
        assert got.histories == want.histories
        if stall_window == 5:
            assert all(s["delta_halvings"] > 0 for s in got.meta["starts"])


class TestStartRecords:
    def _run(self, mask, extra=()):
        return minimize_level(
            mask, Weights(0.0, 0.0), ConstraintSpec(q=1.0),
            config=MinimizeConfig(seed=0, max_iters=60, n_starts=2),
            quadrature=make_quadrature(2, 256), backend=CELL_GRADIENT,
            extra_starts=extra)

    def test_iteration_cap_reported(self):
        spec, mask = aligned_square(48)
        res = self._run(mask, extra=(GridFunction.zeros(spec),))
        starts = res.meta["starts"]
        assert [s["stop"] for s in starts] == ["max_iters", "max_iters",
                                               "projection_failed"]
        for s, h in zip(starts[:2], res.histories):
            assert s["iterations"] == 60
            # history: start, accepted steps, final nonsmooth level
            assert s["backtracks"] + len(h) - 2 >= 60
            assert s["unconverged_projections"] == 0
        assert starts[2]["iterations"] == 0
        assert res.as_dict()["starts"] == starts

    def test_degenerate_start_reported(self, monkeypatch):
        monkeypatch.setattr(SmoothedProblem, "_degenerate", lambda self, W, r: True)
        _, mask = aligned_square(48)
        res = self._run(mask)
        assert res.as_dict()["degenerate"] and res.meta["failed"]
        assert [s["stop"] for s in res.meta["starts"]] == ["degenerate"] * 2
        assert all(s["iterations"] == 1 for s in res.meta["starts"])

    def test_no_decrease_at_delta_min_reported(self, monkeypatch):
        # no trial step meets this Armijo constant, so every iteration
        # rejects MAX_BACKTRACKS trials and halves delta until DELTA_MIN
        monkeypatch.setattr(minimize_module, "SUFFICIENT_DECREASE", 1e300)
        _, mask = aligned_square(48)
        res = minimize_level(
            mask, Weights(0.0, 0.0), ConstraintSpec(q=1.0),
            config=MinimizeConfig(seed=0, max_iters=60, n_starts=2),
            quadrature=make_quadrature(2, 64), backend=CELL_GRADIENT)
        starts = res.meta["starts"]
        for s, h in zip(starts, res.histories):
            assert s["stop"] == "no_decrease_at_delta_min"
            assert s["iterations"] == s["delta_halvings"] + 1
            assert s["backtracks"] == minimize_module.MAX_BACKTRACKS * s["iterations"]
            assert s["evaluations"] == 1 + s["backtracks"] + s["delta_halvings"]
            # history: start and final nonsmooth level, no accepted step
            assert len(h) == 2
        assert [s["iterations"] for s in starts] == [16, 15]

    def test_start_levels_are_nonsmooth_levels(self):
        spec, mask = aligned_square(48)
        res = self._run(mask, extra=(GridFunction.zeros(spec),))
        levels = res.as_dict()["start_levels"]
        assert levels[:2] == [h[-1] for h in res.histories[:2]]
        assert levels[2] is None
        assert min(levels[:2]) == res.level

    def test_degenerate_start_has_no_level(self, monkeypatch):
        # a degenerate start's history ends in a smoothed value, not a level
        monkeypatch.setattr(SmoothedProblem, "_degenerate", lambda self, W, r: True)
        _, mask = aligned_square(48)
        out = self._run(mask).as_dict()
        assert math.isnan(out["level"])
        assert out["start_levels"] == [None, None]


    def test_evaluations_counted(self, monkeypatch):
        """A start evaluates its first point, every trial point that
        projected and its point again after each delta halving."""
        calls = {"_energy_parts": 0, "project_vector": 0}
        orig_parts = SmoothedProblem._energy_parts
        orig_project = minimize_module.project_vector

        def parts(self, *args):
            calls["_energy_parts"] += 1
            return orig_parts(self, *args)

        def project(*args):
            out = orig_project(*args)
            calls["project_vector"] += 1
            return out

        monkeypatch.setattr(SmoothedProblem, "_energy_parts", parts)
        monkeypatch.setattr(minimize_module, "project_vector", project)
        # a short stall window makes the descent halve delta
        monkeypatch.setattr(minimize_module, "STALL_WINDOW", 5)
        monkeypatch.setattr(minimize_module, "STALL_REL", 1e-2)
        _, mask = aligned_square(48)
        res = minimize_level(
            mask, Weights(0.0, 0.0), ConstraintSpec(q=1.0),
            config=MinimizeConfig(seed=0, max_iters=60, n_starts=1),
            quadrature=make_quadrature(2, 256), backend=CELL_GRADIENT)
        (rec,) = res.meta["starts"]
        assert rec["delta_halvings"] > 0
        # the start's and the final projection are not trial points
        trials = calls["project_vector"] - 2
        assert rec["evaluations"] == 1 + trials + rec["delta_halvings"]
        assert rec["evaluations"] == calls["_energy_parts"]
        # no projection failed: every trial was accepted or rejected
        assert trials == len(res.histories[0]) - 2 + rec["backtracks"]


class TestBenchmarkProblems:
    """The two solves of the minimize_levels benchmark at a 60-iteration
    budget, pinned to the levels and start records recorded before the
    descent moved onto inside-cell vectors."""

    @pytest.mark.parametrize("problem,level,backtracks", [
        ("cA", 3.993451776160399, [62, 62]),
        ("dA", 10.681744743659777, [61, 61]),
    ])
    def test_levels_and_records(self, problem, level, backtracks):
        if problem == "cA":
            spec = GridSpec(dim=2, shape=(128, 128), spacing=2.0 / 128,
                            origin=(-0.5, -0.5))
            mask = make_mask(spec, {"shape": "box",
                                    "extents": [[0.0, 1.0], [0.0, 1.0]]})
            cs = ConstraintSpec(q=1.0, kind="X")
        else:
            spec, mask = _ball_domain(2, 64)
            cs = ConstraintSpec(q=1.5, kind="Y", r=2.0)
        res = minimize_level(mask, Weights(0.0, 0.0), cs,
                             config=MinimizeConfig(seed=0, max_iters=60, n_starts=2),
                             quadrature=make_quadrature(2, 256),
                             backend=CELL_GRADIENT)
        assert res.level == pytest.approx(level, rel=1e-12, abs=0)
        records = [{k: rec[k] for k in ("stop", "iterations", "backtracks",
                                         "delta_halvings")}
                   for rec in res.meta["starts"]]
        assert records == [{"stop": "max_iters", "iterations": 60,
                            "backtracks": b, "delta_halvings": 0}
                           for b in backtracks]


class _Abort(BaseException):
    """Not an Exception: no start outcome catches it."""


class _NoPickle(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument."""

    def __init__(self, where, why):
        super().__init__(f"raised in the {where}: {why}")


class TestStartMap:
    """Starts run in forked workers, share i % k of k processes, with the
    outcomes of a one-process solve."""

    def _run(self, mask, cspec=ConstraintSpec(q=1.0), starts=2, extra=()):
        return minimize_level(
            mask, Weights(0.0, 0.0), cspec,
            config=MinimizeConfig(seed=0, max_iters=60, n_starts=starts),
            quadrature=make_quadrature(mask.spec.dim, 128), backend=CELL_GRADIENT,
            extra_starts=extra)

    @staticmethod
    def _descend_with(monkeypatch, before):
        """Route every start through ``before(pid)`` first; returns the list
        of pids that ran starts in this process."""
        pids = []
        orig = minimize_module._descend

        def descend(*args):
            before(os.getpid())
            pids.append(os.getpid())
            return orig(*args)

        monkeypatch.setattr(minimize_module, "_descend", descend)
        return pids

    @pytest.mark.parametrize("domain,cspec", [
        ("square", ConstraintSpec(q=1.0, kind="X")),
        ("disk", ConstraintSpec(q=1.5, kind="Y", r=2.0)),
    ])
    def test_forked_equals_one_process(self, monkeypatch, tmp_path, domain, cspec):
        mask = aligned_square(48)[1] if domain == "square" else _ball_domain(2, 48)[1]
        log = tmp_path / "pids"
        log.touch()

        def record(pid):
            with log.open("a") as f:
                f.write(f"{pid}\n")

        self._descend_with(monkeypatch, record)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        forked = self._run(mask, cspec, starts=4)
        assert not multiprocessing.active_children()
        forked_pids = log.read_text().split()
        log.write_text("")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        single = self._run(mask, cspec, starts=4)
        # shares 0 and 1 hold two starts and one start, share 2 one start
        assert len(forked_pids) == 4 and len(set(forked_pids)) == 3
        assert log.read_text().split() == [str(os.getpid())] * 4
        assert forked.level == single.level
        assert np.array_equal(forked.extremal.values, single.extremal.values)
        assert forked.histories == single.histories
        assert forked.start_levels == single.start_levels
        assert forked.meta["starts"] == single.meta["starts"]

    def test_projection_failure_in_worker_keeps_its_index(self, monkeypatch):
        spec, mask = aligned_square(48)
        # the zero start, index 2, is share 2 of 3: a worker's only start
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        res = self._run(mask, extra=(GridFunction.zeros(spec),))
        assert [s["stop"] for s in res.meta["starts"]] == [
            "max_iters", "max_iters", "projection_failed"]
        assert res.histories[2] == [] and res.start_levels[2] is None
        assert all(len(h) > 1 for h in res.histories[:2])
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_error_keeps_its_type(self, monkeypatch, where):
        parent = os.getpid()

        def fail(pid):
            if (pid == parent) == (where == "parent"):
                raise FloatingPointError(f"raised in the {where}")

        self._descend_with(monkeypatch, fail)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(FloatingPointError, match=f"raised in the {where}") as info:
            self._run(aligned_square(48)[1])
        assert not multiprocessing.active_children()
        if where == "worker":
            # the worker's traceback comes along as the cause
            cause = str(info.value.__cause__)
            assert "in start worker" in cause and "in fail" in cause
            assert "FloatingPointError: raised in the worker" in cause

    def test_unpicklable_error_in_worker_is_named(self, monkeypatch):
        parent = os.getpid()

        def fail(pid):
            if pid != parent:
                raise _NoPickle("worker", "no copy")

        self._descend_with(monkeypatch, fail)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ChildProcessError, match="_NoPickle, which does not "
                           "pickle: raised in the worker: no copy") as info:
            self._run(aligned_square(48)[1])
        assert "_NoPickle: raised in the worker: no copy" in str(info.value.__cause__)
        assert not multiprocessing.active_children()

    def test_interrupted_parent_stops_its_workers(self, monkeypatch):
        parent = os.getpid()

        def abort(pid):
            if pid == parent:
                raise _Abort
            time.sleep(60)

        self._descend_with(monkeypatch, abort)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        t0 = time.perf_counter()
        with pytest.raises(_Abort):
            self._run(aligned_square(48)[1], starts=3)
        # the worker was stopped, not waited for
        assert time.perf_counter() - t0 < 30
        assert not multiprocessing.active_children()

    def test_worker_lost_is_reported(self, monkeypatch):
        parent = os.getpid()

        def die(pid):
            if pid != parent:
                os._exit(3)

        self._descend_with(monkeypatch, die)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ChildProcessError, match="without its outcomes"):
            self._run(aligned_square(48)[1])
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("why", ["no fork", "no affinity", "daemonic",
                                     "thread", "3D"])
    def test_one_process_without_fork(self, monkeypatch, why):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        mask = aligned_square(48)[1]
        if why == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        elif why == "no affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        elif why == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        elif why == "3D":
            mask = _ball_domain(3, 20)[1]
        pids = self._descend_with(monkeypatch, lambda pid: None)
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        if why == "thread":
            other.start()
        try:
            self._run(mask)
        finally:
            done.set()
            if why == "thread":
                other.join(timeout=10)
                assert not other.is_alive()
        assert pids == [os.getpid()] * 2

    def test_blas_threads_leave_solve_unchanged(self):
        """A solve on 11,236 cells, above OpenBLAS's threading size for a
        dot product, gives the same bits with one BLAS thread and two."""
        script = (
            "import json\n"
            "from affinebv import ConstraintSpec, GridSpec, Weights, make_mask,"
            " make_quadrature, minimize_level\n"
            "from affinebv.minimize import MinimizeConfig\n"
            "spec = GridSpec(dim=2, shape=(212, 212), spacing=2.0 / 212,"
            " origin=(-0.5, -0.5))\n"
            "mask = make_mask(spec, {'shape': 'box', 'extents': [[0.0, 1.0], [0.0, 1.0]]})\n"
            "res = minimize_level(mask, Weights(0.0, 0.0), ConstraintSpec(q=1.0),"
            " config=MinimizeConfig(seed=0, max_iters=30, n_starts=2),"
            " quadrature=make_quadrature(2, 64), backend='cell-gradient')\n"
            "print(json.dumps([[[v.hex() for v in h] for h in res.histories],"
            " res.meta['starts']]))\n")
        out = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env={**src_env(), "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            out.append(json.loads(proc.stdout))
        assert out[0] == out[1]
        assert all(s["stop"] == "max_iters" for s in out[0][1])


def _windowed_psi_reference(V, directions, eps):
    """Psi_delta of the atoms V, one (atom, direction) pair at a time: the
    floor sqrt(r^2 + eps^2) - h(r) plus the Huber mass h(r) times |cos|
    averaged over the window of width w = pi / len(directions) around the
    direction.  sin(tau) = |xi . e| places the nearest perpendicular of the
    atom at tau from the direction."""
    w = math.pi / len(directions)
    r = np.hypot(V[:, 0], V[:, 1])
    h = np.where(r < eps, r * r / (2 * eps), r - eps / 2)
    root = np.sqrt(r * r + eps * eps)
    floor = np.where(r < eps, root - h, eps * eps / (root + r) + eps / 2)
    e = V / np.where(r > 0, r, 1.0)[:, None]
    # sin(tau); e of a subnormal atom is not quite unit, so clamp at 1
    c = np.minimum(np.abs(e @ directions.T), 1.0)
    cos_tau = np.sqrt(1.0 - c * c)
    # window without the perpendicular: |cos| integrates to 2 sin(w/2) c;
    # with it, at tau from the center: 2 - 2 cos(tau) cos(w/2)
    K = np.where(c >= math.sin(w / 2), 2 * math.sin(w / 2) * c / w,
                 (2 / w) * (c * c / (1 + cos_tau)
                            + 2 * cos_tau * math.sin(w / 4) ** 2))
    return (floor[:, None] + h[:, None] * K).sum(axis=0)


_SIGNED_ZEROS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]


@st.composite
def _atom_sets(draw):
    """(M, atoms, eps) with zero atoms, axis atoms, antipodal duplicates,
    signed zeros and atoms whose perpendicular lies on a window edge."""
    M = draw(st.sampled_from([64, 256, 512, 4096]))
    mag = st.floats(1e-3, 1e3)
    sign = st.sampled_from([1.0, -1.0])
    edge_angle = st.integers(0, M - 1).map(
        lambda J: (J + 0.5) * 2 * math.pi / M - math.pi / 2)
    atom = st.one_of(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.sampled_from(_SIGNED_ZEROS),
        st.tuples(mag, sign, sign).map(lambda a: (a[0] * a[1], a[2] * 0.0)),
        st.tuples(mag, sign, sign).map(lambda a: (a[2] * 0.0, a[0] * a[1])),
        st.tuples(mag, edge_angle).map(
            lambda a: (a[0] * math.cos(a[1]), a[0] * math.sin(a[1]))),
    )
    atoms = draw(st.lists(atom, min_size=1, max_size=40))
    dups = draw(st.lists(st.integers(0, len(atoms) - 1), max_size=8))
    V = np.array(atoms + [(-atoms[i][0], -atoms[i][1]) for i in dups])
    return M, V, draw(st.floats(1e-3, 1.0))


class TestWindowedKernel:
    """The 2D objective's O(N + M) window sums against a per-pair
    reference, and its gradient against central differences."""

    @settings(max_examples=200, deadline=None)
    @given(_atom_sets())
    # a subnormal atom: |e . xi| reaches 1 + 1.1e-14
    @example((64, np.array([(2.225073858507e-311, 2.225073858507e-311)]), 1.0))
    def test_matches_pair_reference(self, case):
        M, V, eps = case
        _, mask = aligned_square(8)
        prob = SmoothedProblem(mask, Weights(0.0, 0.0), make_quadrature(2, M),
                               CELL_GRADIENT)
        _, psi = prob._window_psi(np.ascontiguousarray(V.T), row_norms(V), eps)
        want = _windowed_psi_reference(V, prob.quad.directions, eps)
        np.testing.assert_allclose(psi, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("backend", [CELL_GRADIENT, FACE_ATOMS])
    def test_gradient_piecewise_constant(self, disk64, quad128, backend):
        spec, mask = disk64
        delta = 1e-2
        prob = SmoothedProblem(mask, Weights(a=0.7, b=0.4), quad128,
                               backend=backend)
        # one jump of 0.7 and, every 4 columns, steps of 3e-3 < delta:
        # the steps' atoms are in the Huber branch, all others exactly zero
        col = np.floor((spec.cell_centers()[..., 0] + 1.3) / (4 * spec.spacing))
        vals = 0.3 + 3e-3 * col + 0.7 * (col > 16)
        x = prob.to_vector(GridFunction(spec, np.where(mask.inside, vals, 0.0)))
        r = row_norms(prob.atom_matrix(x)) / prob.atom_scale
        assert np.mean(r == 0) > 0.5
        assert np.mean((r > 0) & (r < delta)) > 0.1
        worst, tol = check_gradient(prob, x, delta=delta, n_coords=40,
                                    rng=np.random.default_rng(4))
        assert worst <= tol


class TestCriticalThreshold:
    @pytest.mark.parametrize("level,expected", [
        (-1.0, False),
        (0.0, False),
        (3.0, True),
        (3.5449, True),     # just below 2 sqrt(pi) = 3.54490770...
        (4.0, False),
    ])
    def test_synthetic_levels(self, level, expected):
        rep = check_critical_threshold(level, constants(2))
        assert rep["critical_flag"] is expected
        assert rep["margin"] == pytest.approx(
            level - constants(2).sharp_sobolev)


class TestSLn:
    def _bump_atoms(self, stretch=None, grid=96):
        spec = GridSpec(dim=2, shape=(grid, grid), spacing=6.0 / grid,
                        origin=(-3.0, -3.0))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 2.7})
        c = spec.cell_centers()
        if stretch is None:
            vals = np.exp(-2 * (c[..., 0] ** 2 + c[..., 1] ** 2))
        else:
            vals = np.exp(-(stretch * c[..., 0] ** 2
                            + c[..., 1] ** 2 / stretch))
        u = GridFunction(spec, np.where(mask.inside, vals, 0.0))
        return compute_atoms(u, mask, backend=CELL_GRADIENT,
                             include_boundary=True)

    def _gaussian3d_atoms(self, grid=48):
        """exp(-(4x^2 + y^2 + z^2/4)) on a ball: principal axes 1:2:4."""
        spec = GridSpec(dim=3, shape=(grid,) * 3, spacing=6.0 / grid,
                        origin=(-3.0, -3.0, -3.0))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0, 0.0],
                                "radius": 2.4})
        c = spec.cell_centers()
        vals = np.exp(-(4 * c[..., 0] ** 2 + c[..., 1] ** 2
                        + c[..., 2] ** 2 / 4))
        u = GridFunction(spec, np.where(mask.inside, vals, 0.0))
        return compute_atoms(u, mask, backend=CELL_GRADIENT,
                             include_boundary=True)

    def test_radial_bump_identity_optimal(self):
        atoms = self._bump_atoms()
        _, f_best, _ = sl_n_minimize_tv(atoms)
        f_id = total_variation(atoms)
        assert f_best >= f_id * (1 - 1e-3)
        assert f_best <= f_id

    def test_anisotropic_gaussian_improves(self):
        atoms = self._bump_atoms(stretch=4.0)
        _, f_best, _ = sl_n_minimize_tv(atoms)
        f_id = total_variation(atoms)
        assert f_best < 0.9 * f_id
        # compare against a 1-D scan over diagonal balancing maps
        ts = np.linspace(0.3, 0.9, 31)
        scan = min(
            float(np.sum(np.linalg.norm(
                atoms.atoms @ np.diag([t, 1 / t]), axis=1)))
            for t in ts)
        assert f_best <= scan * (1 + 1e-3)

    def test_disk_indicator(self):
        spec = GridSpec(dim=2, shape=(128, 128), spacing=2.6 / 128,
                        origin=(-1.3, -1.3))
        mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                                "radius": 1.0})
        u = GridFunction(spec, mask.inside.astype(float))
        atoms = compute_atoms(u, mask, backend=FACE_ATOMS,
                              include_boundary=True)
        _, f_best, _ = sl_n_minimize_tv(atoms)
        assert constants(2).d0 * f_best <= 2 * np.pi * 1.01
        assert f_best == pytest.approx(2 * np.pi, rel=0.02)

    @pytest.mark.parametrize("case", ["radial", "aniso", "gaussian3d"])
    def test_isotropy_certificate(self, case):
        atoms = (self._gaussian3d_atoms(24) if case == "gaussian3d" else
                 self._bump_atoms(stretch=16.0 if case == "aniso" else None))
        T, f_best, isotropy = sl_n_minimize_tv(atoms)
        assert isinstance(T, np.ndarray)
        w = atoms.transformed(T)
        lam = np.linalg.eigvalsh(covariance(w.atoms.T, w.masses()))
        assert lam[0] / lam[-1] >= 1 - 1e-12
        assert isotropy >= 1 - 1e-13
        assert abs(np.linalg.det(T) - 1.0) <= 1e-12
        assert f_best == total_variation(w)
        assert f_best <= total_variation(atoms)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sl_n_invariant(self, dim):
        """The minimum over SL(n) does not see a det-1 map of the atoms."""
        atoms = (self._bump_atoms(stretch=4.0) if dim == 2
                 else self._gaussian3d_atoms(24))
        _, f0, _ = sl_n_minimize_tv(atoms)
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = rng.normal(size=(dim, dim))
            A -= np.trace(A) / dim * np.eye(dim)
            _, f1, _ = sl_n_minimize_tv(atoms.transformed(expm(A)))
            assert f1 == pytest.approx(f0, rel=1e-12)

    def test_3d_below_diagonal_scan(self):
        atoms = self._gaussian3d_atoms(48)
        _, f_best, _ = sl_n_minimize_tv(atoms)
        x, y, z = (atoms.atoms[:, d] for d in range(3))
        # the balancing map is diag(1/2, 1, 2)
        scan = min(
            float(np.sum(np.sqrt((a * x) ** 2 + (b * y) ** 2
                                 + (z / (a * b)) ** 2)))
            for a in np.geomspace(0.25, 1.0, 25)
            for b in np.geomspace(0.5, 2.0, 25))
        assert f_best <= scan

    def test_single_direction_field_rejected(self):
        """sin(pi x) varies in x only: the infimum 0 is not attained."""
        spec, mask = square_domain(128)
        x = spec.cell_centers()[..., 0]
        u = GridFunction(spec, np.where(mask.inside, np.sin(np.pi * x), 0.0))
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT)
        with pytest.raises(AffineBVError, match="not attained"):
            sl_n_minimize_tv(atoms)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(minimize_module, "SLN_MAX_ITERS", 2)
        with pytest.raises(AffineBVError, match="not isotropic"):
            sl_n_minimize_tv(self._bump_atoms(stretch=4.0))

    def test_empty_atoms_rejected(self):
        from affinebv.variation import VariationAtoms

        empty = VariationAtoms(dim=2, atoms=np.zeros((0, 2)),
                               backend=CELL_GRADIENT, source="interior")
        with pytest.raises(AffineBVError):
            sl_n_minimize_tv(empty)


def test_import_leaves_scipy_optimize_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import affinebv, sys; assert 'scipy.optimize' not in sys.modules"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
