"""The three benchmark workloads and the correctness check of every operation.

A workload builds its inputs from the seed (``__init__``, timed as set-up),
then hands out passes: ``pass_ops(p)`` returns the operations of pass ``p``,
each an :class:`Op` whose ``run`` is the timed call into ``affinebv`` and
whose ``check`` judges the result outside the timed region.  ``perturb``
returns a copy of a result with one reported value changed, for the
self-test that shows the check catches a wrong value.

This module is imported after ``run.py`` has put the checkout's ``src`` on
``sys.path``.  It calls the package through the ``affinebv`` namespace so
that the traced run, which rebinds those names, sees every call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import affinebv as ab
from affinebv import minimize as ab_minimize
from affinebv import oracle as ab_oracle
from affinebv import verify as ab_verify
from affinebv.variation import CELL_GRADIENT, FACE_ATOMS

# relative agreement of each energy with the benchmark's dense evaluation
DENSE_RTOL = 1e-10
# grid indicator energy vs closed-form oracle: the acceptance gate's
# tolerance for the grid-vs-closed-form comparison (criterion 2)
ORACLE_RTOL = 0.03
# constraint feasibility of an extremal, and the solver's own tolerance
NORM_TOL = 1e-8
ORTH_TOL = 1e-8
# a level must be what phi_affine gives at the extremal
LEVEL_RTOL = 1e-12
# relative size of the perturbation the self-test must catch
PERTURB = 1e-8


@dataclass
class Op:
    """One operation: ``cls`` names its sample class in the metrics."""

    cls: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    perturb: Callable[[object], object]


# -- reference computations, independent of the package -----------------------

def alpha_n(n):
    """Closed-form normalization of the affine energy in dimension n."""
    omega = [math.pi ** (k / 2) / math.gamma(k / 2 + 1) for k in range(n + 1)]
    return (n * omega[n]) ** (1.0 + 1.0 / n) / (2.0 * omega[n - 1])


def dense_energy(atoms, quadrature, chunk=2048):
    """E = alpha_n (sum_j w_j Psi_j^-n)^(-1/n) with Psi_j = sum_i |v_i . xi_j|
    over every direction, no antipodal halving."""
    n = quadrature.dim
    dirs = quadrature.directions.T
    psi = np.zeros(dirs.shape[1])
    for i in range(0, len(atoms), chunk):
        psi += np.abs(atoms[i:i + chunk] @ dirs).sum(axis=0)
    return alpha_n(n) * float(np.dot(quadrature.weights, psi ** (-n))) ** (-1.0 / n)


def lq_norm_inside(values, cell_volume, q):
    return float(np.sum(np.abs(values) ** q) * cell_volume) ** (1.0 / q)


def generalized_mean(values, r, iters=200):
    """The m with sum |u - m|^(r-1) (u - m) = 0, by bisection on [min, max]."""
    lo, hi = float(values.min()), float(values.max())
    for _ in range(iters):
        m = 0.5 * (lo + hi)
        d = values - m
        if np.sum(np.abs(d) ** (r - 1.0) * d) > 0:
            lo = m
        else:
            hi = m
        if hi - lo <= 1e-15 * max(abs(lo), abs(hi), 1e-300):
            break
    return 0.5 * (lo + hi)


def relative(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """Defaults shared by the workloads."""

    min_passes = 1

    def warm_up(self):
        """Untimed, unchecked work so first-call costs stay out of samples."""

    def report(self, results):
        """Extra detail metrics from the last passing result of each class."""
        return {}


# -- energy_sweep ---------------------------------------------------------------

class EnergySweep(Workload):
    """In-process ``affinebv energy``: each operation rasterizes its own
    domain and evaluates the extended face-atom energy of a field built at
    set-up.  Domains are drawn fresh per operation, so no two operations
    share a mask."""

    name = "energy_sweep"
    primary = ("energy2d",)
    latencies = (("energy2d_p50_ms", "energy2d", 50, "ms"),
                 ("energy2d_p90_ms", "energy2d", 90, "ms"),
                 ("energy2d_hires_p50_ms", "energy2d_hires", 50, "ms"),
                 ("energy3d_p50_ms", "energy3d", 50, "ms"))
    min_passes = 4           # 4 x 28 = 112 energy2d samples, > 10 beyond p90
    n_2d = 28
    half = 1.3               # grids cover [-1.3, 1.3]^n

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.spec2 = ab.GridSpec(dim=2, shape=(256, 256), spacing=2 * self.half / 256,
                                 origin=(-self.half,) * 2)
        self.spec3 = ab.GridSpec(dim=3, shape=(64,) * 3, spacing=2 * self.half / 64,
                                 origin=(-self.half,) * 3)
        self.quad2 = ab.make_quadrature(2, 512)
        self.quad2_hires = ab.make_quadrature(2, 4096)
        self.quad3 = ab.make_quadrature(3, 512)
        self.fields2 = [self._bump_field(self.spec2, rng) for _ in range(4)]
        self.fields3 = [self._bump_field(self.spec3, rng) for _ in range(2)]

    @staticmethod
    def _bump_field(spec, rng, n_bumps=4):
        """Signed Gaussian bumps on a tilted background.  The background
        keeps every jump and trace value away from zero, so no atom is
        elided and the atom count depends on the domain alone."""
        x = spec.cell_centers()
        slope = rng.uniform(0.2, 0.4, spec.dim) * rng.choice((-1.0, 1.0), spec.dim)
        vals = 0.3 + x @ slope
        for _ in range(n_bumps):
            c = rng.uniform(-0.6, 0.6, spec.dim)
            w = rng.uniform(0.15, 0.35)
            amp = rng.uniform(0.3, 1.0) * rng.choice((-1.0, 1.0))
            vals += amp * np.exp(-np.sum((x - c) ** 2, axis=-1) / (2 * w * w))
        return ab.GridFunction(spec, vals)

    @staticmethod
    def _disk(rng, dim, radius):
        return {"shape": "ball", "center": rng.uniform(-0.15, 0.15, dim).tolist(),
                "radius": float(radius)}

    @staticmethod
    def _ellipsoid(rng, dim):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        A = q @ np.diag(rng.uniform(0.6, 1.0, dim))
        return {"shape": "ellipsoid", "center": rng.uniform(-0.1, 0.1, dim).tolist(),
                "matrix": A.tolist()}

    def _field_op(self, cls, spec, field, quad, desc):
        def run():
            mask = ab.make_mask(spec, desc)
            return mask, field, quad, ab.affine_energy_extended(field, mask, FACE_ATOMS, quad)
        return Op(cls, run, self._check, self._perturb)

    def _indicator_op(self, cls, spec, quad, desc):
        def run():
            mask = ab.make_mask(spec, desc)
            u = ab.GridFunction(spec, mask.inside.astype(float))
            return mask, u, quad, ab.affine_energy_extended(u, mask, FACE_ATOMS, quad)
        return Op(cls, run, self._check_indicator, self._perturb)

    def pass_ops(self, p):
        rng = np.random.default_rng([self.seed, p])
        # radii stratified over [0.8, 1.05] and shuffled, so the spread of
        # op sizes is the same in every pass and for every seed
        radii = 0.8 + 0.25 * (rng.permutation(self.n_2d) + rng.random(self.n_2d)) / self.n_2d
        ops = []
        for k in range(self.n_2d):
            ops.append(self._field_op("energy2d", self.spec2, self.fields2[k % 4],
                                      self.quad2, self._disk(rng, 2, radii[k])))
            if k == 6:
                ops.append(self._field_op("energy2d_hires", self.spec2,
                                          self.fields2[p % 4], self.quad2_hires,
                                          self._disk(rng, 2, rng.uniform(0.9, 1.0))))
            if k in (13, 20):
                ops.append(self._field_op("energy3d", self.spec3,
                                          self.fields3[k % 2], self.quad3,
                                          self._disk(rng, 3, rng.uniform(0.9, 1.0))))
        ops.append(self._indicator_op("indicator2d", self.spec2, self.quad2,
                                      self._ellipsoid(rng, 2)))
        ops.append(self._indicator_op("indicator3d", self.spec3, self.quad3,
                                      self._ellipsoid(rng, 3)))
        return ops

    def warm_up(self):
        self._field_op("warm_up", self.spec2, self.fields2[0], self.quad2,
                       {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}).run()

    @staticmethod
    def _check(result):
        mask, u, quad, e = result
        if e.degenerate or not e.value > 0:
            return f"degenerate energy {e.value}"
        atoms = ab.compute_atoms(u, mask, backend=FACE_ATOMS, include_boundary=True)
        ref = dense_energy(atoms.atoms, quad)
        rel = relative(e.value, ref)
        if not rel <= DENSE_RTOL:
            return f"energy {e.value!r} vs dense {ref!r}: rel {rel:.2e} > {DENSE_RTOL:g}"
        return None

    @classmethod
    def _check_indicator(cls, result):
        failure = cls._check(result)
        if failure:
            return failure
        mask, _, _, e = result
        desc = mask.descriptor
        body = ab_oracle.EllipsoidBody(dim=mask.spec.dim, matrix=np.asarray(desc["matrix"]))
        ref = ab_oracle.energy_body(body)
        rel = relative(e.value, ref)
        if not rel <= ORACLE_RTOL:
            return f"indicator energy {e.value!r} vs oracle {ref!r}: rel {rel:.2e}"
        return None

    @staticmethod
    def _perturb(result):
        mask, u, quad, e = result
        return mask, u, quad, dataclasses.replace(e, value=e.value * (1 + PERTURB))


# -- minimize_levels --------------------------------------------------------------

class MinimizeLevels(Workload):
    """Two constrained solves per pass at criterion 10's solver settings.
    The problems and the solver seed are fixed, so the levels are
    deterministic and the known cA defect stays visible."""

    name = "minimize_levels"
    primary = ("cA", "dA")
    latencies = (("solve_cA_s", "cA", 50, "s"), ("solve_dA_s", "dA", 50, "s"))

    def __init__(self, seed):
        # the inputs do not depend on the seed, see the class docstring
        self.config = ab_minimize.MinimizeConfig(seed=0, max_iters=300, n_starts=2)
        self.weights = ab.Weights(0.0, 0.0)
        self.quad = ab.make_quadrature(2, 256)
        # cA: unit square aligned with the cells of a 128^2 grid
        spec = ab.GridSpec(dim=2, shape=(128, 128), spacing=2.0 / 128, origin=(-0.5, -0.5))
        self.square = ab.make_mask(spec, {"shape": "box", "extents": [[0.0, 1.0], [0.0, 1.0]]})
        # dA: unit disk in a 64^2 grid
        spec = ab.GridSpec(dim=2, shape=(64, 64), spacing=2.6 / 64, origin=(-1.3, -1.3))
        self.disk = ab.make_mask(spec, {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0})
        self.problems = {
            "cA": (self.square, ab.ConstraintSpec(q=1.0, kind="X")),
            "dA": (self.disk, ab.ConstraintSpec(q=1.5, kind="Y", r=2.0)),
        }
        self._bracket = None

    def _op(self, cls):
        mask, cspec = self.problems[cls]

        def run():
            return ab.minimize_level(mask, self.weights, cspec, config=self.config,
                                     quadrature=self.quad, backend=CELL_GRADIENT)

        return Op(cls, run, lambda r: self._check(r, mask, cspec), self._perturb)

    def pass_ops(self, p):
        return [self._op("cA"), self._op("dA")]

    def _check(self, r, mask, cspec):
        if r.meta.get("failed") or not math.isfinite(r.level):
            return f"no finite level ({r.level})"
        vals = r.extremal.values[mask.inside]
        h_n = mask.spec.cell_volume
        norm_err = abs(lq_norm_inside(vals, h_n, cspec.q) - 1.0)
        if not norm_err <= NORM_TOL:
            return f"|norm - 1| = {norm_err:.2e} > {NORM_TOL:g}"
        if cspec.kind == "Y":
            m = generalized_mean(vals, cspec.r)
            scale = float(np.max(np.abs(vals)))
            if not abs(m) <= ORTH_TOL * scale:
                return f"m_r = {m:.2e} exceeds {ORTH_TOL:g} * max|u| = {ORTH_TOL * scale:.2e}"
        level = ab.phi_affine(r.extremal, mask, self.weights, self.quad, backend=CELL_GRADIENT)
        if not relative(r.level, level) <= LEVEL_RTOL:
            return f"level {r.level!r} but phi_affine at the extremal is {level!r}"
        return None

    @staticmethod
    def _perturb(r):
        return dataclasses.replace(r, level=r.level * (1 + PERTURB))

    def bracket_cA(self):
        """Analytic bracket of the cA level on the unit square: Sobolev-Zhang
        plus Holder below, the projected square indicator above."""
        if self._bracket is None:
            mask = self.square
            volume = mask.n_inside * mask.spec.cell_volume
            lower = 2.0 * math.sqrt(math.pi) / math.sqrt(volume)
            u = ab.GridFunction(mask.spec, mask.inside / volume)   # unit L^1 norm
            upper = ab.phi_affine(u, mask, self.weights, self.quad, backend=CELL_GRADIENT)
            self._bracket = (lower, upper)
        return self._bracket

    def report(self, results):
        """Levels of the last pass and the cA bracket flag."""
        out = {}
        for cls in ("cA", "dA"):
            if cls in results:
                out[f"level_{cls}"] = {"value": results[cls].level, "unit": "1",
                                       "samples": 1, "better": "lower"}
        if "cA" in results:
            lo, hi = self.bracket_cA()
            out["level_cA_bracket"] = [lo, hi]
            out["level_cA_in_bracket"] = bool(lo <= results["cA"].level <= hi)
        return out


# -- verify_default ---------------------------------------------------------------

class VerifyDefault(Workload):
    """One ``run_suite`` per pass at the CLI defaults (128^2, 256
    directions, 100 fields); each pass draws its suite seed from the seed."""

    name = "verify_default"
    primary = ("suite",)
    latencies = (("suite_s", "suite", 50, "s"),)
    expected_counts = {"sobolev_zhang_equality": 1, "sobolev_zhang": 100,
                       "comparisons": 100, "superadditivity": 100,
                       "affine_invariance": 150, "wirtinger_gap": 2, "huang_li": 4}

    def __init__(self, seed):
        self.seed = seed

    def pass_ops(self, p):
        suite_seed = int(np.random.default_rng([self.seed, p]).integers(2 ** 31))
        config = ab_verify.VerifyConfig(seed=suite_seed)

        def run():
            return ab_verify.run_suite(config)

        return [Op("suite", run, self._check, self._perturb)]

    @classmethod
    def _check(cls, report):
        failed = [r.name for r in report.records if not r.passed]
        if failed or not report.passed:
            return f"suite failed: {failed}"
        counts = {r.name: r.count for r in report.records}
        if counts != cls.expected_counts:
            return f"record counts {counts} != {cls.expected_counts}"
        return None

    @staticmethod
    def _perturb(report):
        first = dataclasses.replace(report.records[0], count=report.records[0].count - 1)
        return dataclasses.replace(report, records=[first] + report.records[1:])


WORKLOADS = {w.name: w for w in (EnergySweep, MinimizeLevels, VerifyDefault)}
