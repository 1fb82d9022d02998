"""Constrained minimization of the affine functional and SL(n) normalization.

The nonsmooth energy is minimized by annealed smoothing, descent with
backtracking and projection onto the constraint set, and ``delta`` halved
on stagnation.  The weight terms' absolute values become
``sqrt(t^2 + delta^2)``; the directional variations are smoothed as
described in :class:`SmoothedProblem`.  The reported level is always the
nonsmooth functional re-evaluated at the final projected iterate, so the
choice of smoothing cannot change what a level means.

A start works on the vector x of inside-cell values (C order) throughout.
A trial point ``x - step * grad`` is projected by
:func:`~affinebv.functionals.project_vector` and evaluated from one sparse
product that gives its atom components; their norms serve the degeneracy
test and the energy alike.  Only the final projection becomes a grid
field.  In 2D a trial costs O(n + N + M) for n inside cells, N atoms and
M directions; in 3D the energy is one dense (atoms x half-directions)
product, formed in buffers the problem owns.  The gradient reuses the
parts the accepted trial's value left.  Each start reports why it stopped
and how many points it evaluated.

The starts share nothing after :func:`initial_guesses`, so a 2D solve
maps them over k processes with :func:`~affinebv.forkmap.fork_map`: k is
the number of starts capped by the CPUs this process may run on
(``os.sched_getaffinity``), and 1 where the "fork" start method or the
affinity is unavailable, or this process is daemonic or runs other Python
threads.  A 3D solve runs its starts here, one after another: its dense
products threaded BLAS already spreads over the CPUs.  Start i runs in
share i % k; share 0 runs here, every other share in a worker forked with
the problem in its memory, which pipes back its starts' outcomes.  The
outcomes are put back in start order, so the levels, histories and
records are those of a one-process solve, bit for bit.  Spans or counters
that a tracer records inside a worker do not reach this process; the
start records do.

The solver tuning has one value in use, so it is module constants, read
at call time, not config fields: the first trial step ``STEP_INIT``, its
factor ``STEP_SHRINK`` over at most ``MAX_BACKTRACKS`` trials, the Armijo
constant ``SUFFICIENT_DECREASE``; the initial smoothing ``DELTA0_FRAC`` of
the starting variation per atom, floored at ``DELTA_MIN``; delta halves
when ``STALL_WINDOW`` accepted steps gain less than ``STALL_REL``
relative, and a start at ``DELTA_MIN`` stops when ``LEVEL_WINDOW`` steps
gain less than ``LEVEL_REL``.

The SL(n) search behind the Huang-Li normalization is the Petty-Tyler
fixed point ``T <- T M^{-1/2}`` on the variation covariance M of the
transformed atoms, stopped at isotropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .energy import COV_EIGEN_EPS, constants
from .errors import AffineBVError, ConfigError
from .forkmap import fork_map, run_tasks
from .functionals import phi_affine, project_vector, rim_positions
from .grid import GridFunction, mollify, parse_shape, row_norms, zero_extend
from .variation import (
    check_finite_atoms,
    covariance,
    covariance_eigen_ratio,
    eigen_ratio,
    total_variation,
)


STEP_INIT = 1.0
STEP_SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 40
DELTA0_FRAC = 0.1
DELTA_MIN = 1e-6
STALL_WINDOW = 50
STALL_REL = 1e-6
LEVEL_WINDOW = 100
LEVEL_REL = 1e-6


@dataclass
class MinimizeConfig:
    max_iters: int = 500
    n_starts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ConfigError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class MinimizeResult:
    """The best level of a multistart solve and its extremal; :meth:`as_dict`
    adds ``critical_flag`` (:func:`check_critical_threshold` at the level) and
    ``degenerate`` (every start in ``meta["starts"]`` stopped degenerate)."""

    level: float
    extremal: GridFunction
    norm_residual: float
    orth_residual: float
    histories: list
    start_levels: list     # nonsmooth level per start, None where none
    meta: dict = field(default_factory=dict)

    def as_dict(self):
        threshold = check_critical_threshold(self.level, constants(self.extremal.spec.dim))
        return {
            "level": self.level,
            "norm_residual": self.norm_residual,
            "orth_residual": self.orth_residual,
            "critical_flag": threshold["critical_flag"],
            "degenerate": {s["stop"] for s in self.meta["starts"]} == {"degenerate"},
            "n_starts": len(self.histories),
            "start_levels": self.start_levels,
            **self.meta,
        }


class SmoothedProblem:
    """Smoothed affine functional over the inside-cell values of a mask.

    The atom components are linear in the variable vector x; the
    constructor stacks the atom stencil's sparse operators, so one product
    gives a point's components as the rows of a (dim, N) array.  Their
    norms ``r_i`` feed both the degeneracy test (the covariance
    ``M = sum v v^T / r`` of :func:`~affinebv.variation.covariance`) and the
    energy.  A point's weight and energy parts are kept until the
    next point, so the gradient at an accepted trial recomputes neither.

    Let ``eps = delta * atom_scale`` and, for atom i, ``r_i = |v_i|`` and
    ``phi_i`` its angle.  In 2D

        Psi_delta(theta_j) = sum_i [sqrt(r_i^2 + eps^2) - h(r_i)]
                             + sum_i h(r_i) K_w(theta_j - phi_i),

    with the Huber mass ``h(r) = r^2 / (2 eps)`` below eps and ``r - eps/2``
    above, and K_w the average of |cos| over a window of width
    ``w = 2 pi / M``, the spacing of the M/2 half directions, so that the
    windows tile the half circle.  Each term is C^1 in v_i, also at
    v_i = 0, where it equals the floor eps of the 3D form.  The floor term
    stays because without it the descent settles at worse levels: Huber
    mass alone raised the benchmark's disk level (q = 1.5, class Y) from
    7.36 to 8.97.  In 3D each pair contributes
    ``sqrt((v_i . xi_j)^2 + eps^2)``, a dense product.
    """

    def __init__(self, mask, weights, quadrature, backend):
        self.mask = mask
        self._a = np.asarray(weights.a)
        self._b = np.asarray(weights.b)
        self.consts = constants(mask.spec.dim)
        self.quad = quadrature.half
        spec = mask.spec
        self.dim = spec.dim
        self.cell_volume = spec.cell_volume
        # jump values enter atoms scaled by the face area, so the user-level
        # smoothing width is scaled the same way inside the energy term
        self.atom_scale = spec.face_area

        self._inside_flat = np.flatnonzero(mask.inside.ravel())
        stencil = mask.stencil(backend)
        self.n_var = stencil.n_inside
        self.n_atoms = stencil.n_rows
        self._face_var = stencil.rank[stencil.face_cells]
        self._face_areas = stencil.areas
        B = stencil.operator()
        # one product gives every component: row d of a (dim, n_atoms) array
        self._B = sparse.vstack(B, format="csr")
        self.BT = [b.T.tocsr() for b in B]
        k = len(self.quad.directions)
        if self.dim == 2:
            self._xi = np.ascontiguousarray(self.quad.directions.T)
            # window J of the full circle (J in [-k, 2k]) at position J + k:
            # window J % k of the half circle, turned by (-1)^(J // k)
            J = np.arange(-k, 2 * k + 1)
            self._window_of = J % k
            self._turn_of = 1.0 - 2.0 * ((J // k) & 1)
        else:
            # the dense 3D products go here
            self._D = np.empty((self.n_atoms, k))
            self._S = np.empty((self.n_atoms, k))
        # (x, delta, parts) of the last point evaluated, while parts hold
        self._last = None
        # points whose objective was computed, degenerate ones included
        self.evaluations = 0

    # -- variable <-> field ------------------------------------------------
    def to_vector(self, u):
        return u.values.ravel()[self._inside_flat].copy()

    def to_field(self, x):
        vals = np.zeros(int(np.prod(self.mask.spec.shape)))
        vals[self._inside_flat] = x
        return GridFunction(self.mask.spec, vals.reshape(self.mask.spec.shape))

    def _atoms(self, x):
        """Atom components as the rows of a (dim, n_atoms) array."""
        return (self._B @ x).reshape(self.dim, self.n_atoms)

    def atom_matrix(self, x):
        """Atoms as the rows of an (n_atoms, dim) array."""
        return np.ascontiguousarray(self._atoms(x).T)

    def _degenerate(self, W, r):
        """:func:`covariance_eigen_ratio` below ``COV_EIGEN_EPS`` for the atoms
        with components ``W`` (dim, N) and norms ``r``, the norms the
        objective uses."""
        check_finite_atoms(W, r)
        return eigen_ratio(covariance(W, r)) < COV_EIGEN_EPS

    # -- objective ---------------------------------------------------------
    def _energy_parts(self, W, r, delta):
        eps = delta * self.atom_scale
        if self.dim == 2:
            kernel, psi = self._window_psi(W, r, eps)
        else:
            kernel, psi = self._dense_psi(np.ascontiguousarray(W.T), eps)
        n = self.dim
        w = self.quad.weights
        ssum = float(np.dot(w, psi ** (-float(n))))
        energy = self.consts.alpha * ssum ** (-1.0 / n)
        return kernel, psi, ssum, energy

    def _dense_psi(self, V, eps):
        D, S = self._D, self._S
        np.matmul(V, self.quad.directions.T, out=D)
        np.multiply(D, D, out=S)
        S += eps ** 2
        np.sqrt(S, out=S)
        return (D, S), S.sum(axis=0)

    def _dense_gradient(self, kernel, coef):
        D, S = kernel
        # S becomes D/S in place, so the buffers stop holding this point
        self._last = None
        return (np.divide(D, S, out=S) @ (coef[:, None] * self.quad.directions)).T

    def _window_psi(self, W, r, eps):
        """The windowed Psi_delta at the half directions in O(N + M).

        The perpendicular of atom i lies in one window, at ``t`` from its
        center direction ``zeta = +-xi_j`` (``|t| <= w/2``, ``sin t = e_i .
        zeta``), where the kernel is ``kappa(t) = K_w(pi/2 - t)``.  In every
        other window K_w is ``sinc |cos|``, ``sinc = 2 sin(w/2) / w``, and
        ``v . xi`` has one sign over the atoms of a window: so the window
        sums of the atoms, turned into the half circle, give the rest of
        every Psi_j.  The half directions lie at the angles ``j w``, where
        :func:`~affinebv.energy.make_quadrature` places them.  ``W`` holds
        the atom components (2, N), ``r`` their norms.
        """
        k = len(self.quad.directions)
        w = math.pi / k
        xi = self._xi
        e = W / np.where(r > 0, r, 1.0)                       # unit atoms, (2, N)
        lin = r >= eps
        slope = np.minimum(r / eps, 1.0)                                 # h'(r)
        g = np.where(lin, 1.0 - 0.5 * eps / np.maximum(r, eps), 0.5 * r / eps)   # h / r
        root = np.sqrt(r * r + eps * eps)
        # sqrt(r^2 + eps^2) - h(r), without cancellation for r >> eps
        floor = np.where(lin, eps * eps / (root + r) + 0.5 * eps, root - g * r)
        # window J w +- w/2 of the full circle holds the perpendicular; it is
        # window j of the half circle with center zeta = turn * xi_j
        J = np.rint((np.arctan2(e[1], e[0]) + 0.5 * math.pi) / w).astype(np.intp)
        J += k
        j = self._window_of[J]
        turn = self._turn_of[J]
        st = turn * (e[0] * xi[0][j] + e[1] * xi[1][j])                  # sin t
        ct = np.sqrt(1.0 - st * st)
        # kappa = (2/w)(1 - cos t cos(w/2)), written without cancellation
        kappa = (2.0 / w) * (st * st / (1.0 + ct) + 2.0 * ct * math.sin(0.25 * w) ** 2)
        mass = g * r
        tm = turn * mass
        bins = np.empty((2, k))
        bins[0] = np.bincount(j, tm * e[0], minlength=k)
        bins[1] = np.bincount(j, tm * e[1], minlength=k)
        O = _other_windows(bins)
        sinc = 2.0 * math.sin(0.5 * w) / w
        psi = (floor.sum() + np.bincount(j, mass * kappa, minlength=k)
               + sinc * (xi[0] * O[0] + xi[1] * O[1]))
        return (e, r, slope, g, root, j, turn, st, kappa), psi

    def _window_gradient(self, kernel, coef):
        """Atom gradients of the windowed energy: with ``C(phi) = sum_j c_j
        K_w(theta_j - phi)``, atom i gets ``(c_tot floor'(r) + h'(r) C) e +
        (h(r)/r) C' e_perp`` at its angle, which vanishes at v = 0."""
        e, r, slope, g, root, j, turn, st, kappa = kernel
        k = len(coef)
        w = math.pi / k
        # the directions outside atom i's window, turned to where
        # cos(theta - phi_i) > 0
        O = _other_windows(coef * self._xi)
        S0 = -turn * O[0][j]
        S1 = -turn * O[1][j]
        sinc = 2.0 * math.sin(0.5 * w) / w
        c = coef[j]
        C = sinc * (e[0] * S0 + e[1] * S1) + c * kappa
        # C' = dC/dphi, with e_perp = (-e_y, e_x) and kappa'(t) = (2/w) cos(w/2) sin t
        dC = sinc * (e[0] * S1 - e[1] * S0) + c * (2.0 / w) * math.cos(0.5 * w) * st
        a = coef.sum() * (r / root - slope) + slope * C
        b = g * dC
        return a * e[0] - b * e[1], a * e[1] + b * e[0]

    def _weight_parts(self, x, delta):
        sa = np.sqrt(x * x + delta * delta)
        aval = float(np.sum(self._a * sa) * self.cell_volume)
        xb = x[self._face_var]
        sb = np.sqrt(xb * xb + delta * delta)
        bval = float(np.sum(self._b * sb * self._face_areas))
        return sa, aval, sb, bval

    def _parts(self, x, delta):
        """Weight parts and energy parts at (x, delta), the energy parts None
        at a degenerate point; equal arguments reuse the last evaluation's."""
        last = self._last
        if last is not None and last[1] == delta and np.array_equal(last[0], x):
            return last[2]
        self.evaluations += 1
        W = self._atoms(x)
        r = row_norms(W.T)
        energy = None if self._degenerate(W, r) else self._energy_parts(W, r, delta)
        parts = (self._weight_parts(x, delta), energy)
        self._last = (x.copy(), delta, parts)
        return parts

    def value(self, x, delta):
        (_, aval, _, bval), parts = self._parts(x, delta)
        if parts is None:
            return aval + bval
        return parts[-1] + aval + bval

    def value_and_gradient(self, x, delta):
        """Smoothed objective and its analytic gradient.

        A degenerate iterate (variation covariance rank-deficient) reports
        zero energy and zero energy-gradient, flagged via the third output.
        """
        (sa, aval, sb, bval), parts = self._parts(x, delta)
        grad = np.zeros_like(x)
        grad += self._a * (x / sa) * self.cell_volume
        np.add.at(grad, self._face_var,
                  self._b * (x[self._face_var] / sb) * self._face_areas)
        if parts is None:
            return aval + bval, grad, True
        kernel, psi, ssum, energy = parts
        n = self.dim
        coef = (self.consts.alpha * ssum ** (-1.0 / n - 1.0)
                * self.quad.weights * psi ** (-float(n) - 1.0))
        P = (self._window_gradient if self.dim == 2 else self._dense_gradient)(kernel, coef)
        for d in range(self.dim):
            grad += self.BT[d] @ P[d]
        return energy + aval + bval, grad, False


def _other_windows(b):
    """Column j: the columns of ``b`` (one per window of the half circle)
    other than j, turned to the side where direction j is positive,
    ``sum_{l > j} b_l - sum_{l < j} b_l``; neither sum holds ``b_j``."""
    after = np.zeros_like(b)
    before = np.zeros_like(b)
    np.cumsum(b[:, :0:-1], axis=1, out=after[:, -2::-1])
    np.cumsum(b[:, :-1], axis=1, out=before[:, 1:])
    return after - before


# -- initial guesses --------------------------------------------------------

def _inscribed_ellipsoid_field(mask, rng, round_ball):
    """Mollified indicator of an inscribed ball / randomly oriented
    ellipsoid, a natural near-extremal profile."""
    spec = mask.spec
    c = spec.cell_centers()[mask.inside].mean(axis=0)
    rad = max(_inradius(mask, c) - 2 * spec.spacing, 2 * spec.spacing)
    if round_ball:
        A = np.eye(spec.dim) * rad
    else:
        q, _ = np.linalg.qr(rng.normal(size=(spec.dim, spec.dim)))
        s = rng.uniform(0.6, 1.0, size=spec.dim)
        s *= rad / np.prod(s) ** (1.0 / spec.dim)
        A = q @ np.diag(s)
    _, inside, _ = parse_shape({"shape": "ellipsoid", "center": c, "matrix": A})
    u = GridFunction(spec, np.where(mask.inside & inside(spec.axes()), 1.0, 0.0))
    return mollify(u, 2.0 * spec.spacing)


def _inradius(mask, c):
    """Distance from c to the nearest boundary-face center."""
    fc = mask.face_centers()
    return float(np.min(row_norms(fc - c)))


def _random_bump_field(mask, rng):
    noise = GridFunction(mask.spec, rng.normal(size=mask.spec.shape))
    return zero_extend(mollify(noise, 3.0 * mask.spec.spacing), mask)


def _two_bump_field(mask, rng):
    """Antisymmetric two-bump profile, a natural start for Y."""
    spec = mask.spec
    pts = spec.cell_centers()[mask.inside]
    c = pts.mean(axis=0)
    spread = pts.std(axis=0)
    axis = np.zeros(spec.dim)
    axis[int(rng.integers(spec.dim))] = 1.0
    off = 0.8 * spread * axis
    r2 = (0.5 * float(spread.min())) ** 2
    xs = spec.axes()
    bump = lambda p0: np.exp(-sum((x - pk) ** 2 for x, pk in zip(xs, p0)) / r2)
    vals = bump(c + off) - bump(c - off)
    u = GridFunction(spec, np.where(mask.inside, vals, 0.0))
    return mollify(u, 2.0 * spec.spacing)


def _domain_indicator_field(mask):
    u = GridFunction(mask.spec, mask.inside.astype(float))
    return zero_extend(mollify(u, 1.5 * mask.spec.spacing), mask)


def initial_guesses(mask, cspec, config, rng):
    guesses = [
        _inscribed_ellipsoid_field(mask, rng, round_ball=True),
        _inscribed_ellipsoid_field(mask, rng, round_ball=False),
        _random_bump_field(mask, rng),
    ]
    if cspec.kind == "Y":
        guesses.append(_two_bump_field(mask, rng))
    else:
        # the domain indicator itself is an indicator-like candidate
        guesses.insert(1, _domain_indicator_field(mask))
    while len(guesses) < config.n_starts:
        guesses.append(_random_bump_field(mask, rng))
    return guesses[: config.n_starts]


# -- projected descent -------------------------------------------------------

def _start_record(stop="max_iters"):
    return {"stop": stop, "iterations": 0, "backtracks": 0,
            "delta_halvings": 0, "unconverged_projections": 0,
            "evaluations": 0}


def _stalled(history, window, rel):
    """The last ``window`` accepted steps lowered the level by less than
    ``rel`` relative."""
    return (len(history) > window
            and history[-window - 1] - history[-1] < rel * abs(history[-window - 1]))


def _descend(prob, cspec, x0, max_iters):
    """One projected-descent start on inside-cell vectors.  Returns
    (projection, history, record): the projection's ``u`` is an inside-cell
    vector, and the record holds the stop reason, iterations, rejected
    trial steps, delta halvings, accepted or final projections that did not
    converge, and objective evaluations."""
    rec = _start_record()
    evaluations = prob.evaluations
    rim = rim_positions(prob.mask) if cspec.zero_trace else None

    def project(x):
        return project_vector(x, cspec, prob.cell_volume, rim)

    pres = project(x0)
    x = pres.u
    # pick delta so the smoothing floor (each atom gains ~delta*atom_scale)
    # contributes a small fraction of the initial total variation
    tv0 = float(row_norms(prob.atom_matrix(x)).sum())
    floor = max(prob.n_atoms * prob.atom_scale, 1e-300)
    data_range = float(np.max(x) - np.min(x)) or 1.0
    delta = DELTA0_FRAC * max(tv0, 1e-12 * data_range) / floor
    history = [prob.value(x, delta)]
    step = STEP_INIT

    it = 0
    while it < max_iters:
        it += 1
        # x was the last point evaluated, so the gradient reuses its product
        val, g, degen = prob.value_and_gradient(x, delta)
        if degen:
            rec["stop"] = "degenerate"
            break
        # a numpy reduction, not a BLAS dot: its bits do not depend on the
        # BLAS thread count, and it leaves no BLAS thread spinning
        gn2 = float(np.sum(g * g))
        if gn2 == 0.0:
            rec["stop"] = "zero_gradient"
            break
        st = step
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            try:
                pres = project(x - st * g)
            except AffineBVError:
                rec["backtracks"] += 1
                st *= STEP_SHRINK
                continue
            x_new = pres.u
            f_new = prob.value(x_new, delta)
            if f_new <= val - SUFFICIENT_DECREASE * st * gn2:
                accepted = True
                break
            rec["backtracks"] += 1
            st *= STEP_SHRINK
        if accepted:
            rec["unconverged_projections"] += not pres.converged
            x = x_new
            step = st * 2.0
            history.append(f_new)
            # anneal on stagnation; the history may jump once per decrease
            if not _stalled(history, STALL_WINDOW, STALL_REL):
                continue
            if delta <= DELTA_MIN:
                if _stalled(history, LEVEL_WINDOW, LEVEL_REL):
                    rec["stop"] = "stall"
                    break
                continue
        elif delta <= DELTA_MIN:
            # no decrease available at this smoothing level
            rec["stop"] = "no_decrease_at_delta_min"
            break
        delta = max(delta * 0.5, DELTA_MIN)
        rec["delta_halvings"] += 1
        prob.value(x, delta)   # x is again the last point evaluated
    rec["iterations"] = it
    rec["evaluations"] = prob.evaluations - evaluations
    pres = project(x)
    rec["unconverged_projections"] += not pres.converged
    return pres, history, rec


def minimize_level(mask, weights, cspec, config, quadrature, backend,
                   extra_starts=()):
    """Best level over multistart smoothed projected descent.

    The result's ``level`` is the nonsmooth affine functional at the final
    projected extremal, NaN when no start reached one; its report adds the
    existence-threshold test ``0 < level < n omega_n^(1/n)`` and whether
    every start stopped at a degenerate point (:class:`MinimizeResult`).
    """
    prob = SmoothedProblem(mask, weights, quadrature, backend=backend)
    rng = np.random.default_rng(config.seed)
    guesses = initial_guesses(mask, cspec, config, rng)
    for extra in extra_starts:
        guesses.append(extra)

    x0s = [prob.to_vector(u0) for u0 in guesses]

    def start(x0):
        return _descend(prob, cspec, x0, config.max_iters)

    # a 3D problem's dense products run on threaded BLAS, and k processes
    # each running the BLAS pool on the same CPUs are slower than one
    starts_map = fork_map if prob.dim == 2 else run_tasks
    best = None
    histories = []
    starts = []
    levels = []
    for outcome in starts_map(start, x0s):
        if isinstance(outcome, AffineBVError):
            histories.append([])
            starts.append(_start_record("projection_failed"))
            levels.append(None)
            continue
        if isinstance(outcome, Exception):
            raise outcome
        pres, history, rec = outcome
        starts.append(rec)
        if rec["stop"] == "degenerate":
            histories.append(history)
            levels.append(None)
            continue
        pres.u = prob.to_field(pres.u)
        level = phi_affine(pres.u, mask, weights, quadrature, backend=backend)
        histories.append(history + [level])
        levels.append(level)
        if best is None or level < best[0]:
            best = (level, pres)
    if best is None:
        return MinimizeResult(
            level=float("nan"), extremal=GridFunction.zeros(mask.spec),
            norm_residual=float("nan"), orth_residual=float("nan"),
            histories=histories, start_levels=levels,
            meta={"failed": True, "starts": starts},
        )
    level, pres = best
    return MinimizeResult(
        level=level,
        extremal=pres.u,
        norm_residual=pres.norm_residual,
        orth_residual=pres.orth_residual,
        histories=histories,
        start_levels=levels,
        meta={
            "backend": backend,
            "grid": list(mask.spec.shape),
            "dirs": quadrature.size,
            "constraint": {"q": cspec.q, "kind": cspec.kind, "r": cspec.r,
                           "zero_trace": cspec.zero_trace},
            "critical_q": cspec.is_critical(mask.spec.dim),
            "starts": starts,
        },
    )


def check_critical_threshold(level, consts):
    """Existence-threshold report for a computed or synthetic level."""
    flag = bool(0.0 < level < consts.sharp_sobolev)
    return {
        "level": float(level),
        "threshold": consts.sharp_sobolev,
        "critical_flag": flag,
        "margin": float(level - consts.sharp_sobolev),
    }


# -- SL(n) normalization -----------------------------------------------------

# the fixed point stops once lambda_min > (1 - ISOTROPY_TOL) * lambda_max
ISOTROPY_TOL = 1e-13
SLN_MAX_ITERS = 200


def sl_n_minimize_tv(atoms):
    """Minimize ``F(T) = sum_i |T^T v_i|`` over det T = 1 by the Petty-Tyler
    fixed point; returns ``(T, F(T), lambda_min / lambda_max)``, the last
    value certifying the isotropy reached.

    F is geodesically convex on SL(n)/SO(n) (Wiesel 2012), and its gradient
    vanishes exactly where the covariance ``M = sum w w^T / |w|`` of the
    transformed atoms ``w = T^T v`` is a multiple of the identity (Petty's
    isotropic position), so such a T is a global minimizer.  Tyler's update
    ``T <- T M^{-1/2}``, rescaled to det T = 1, converges to it.
    """
    if covariance_eigen_ratio(atoms) < COV_EIGEN_EPS:
        raise AffineBVError("variation covariance is rank deficient: the "
                            "infimum 0 over SL(n) is not attained")
    n = atoms.dim
    T = np.eye(n)
    for _ in range(SLN_MAX_ITERS):
        w = atoms.transformed(T)
        lam, Q = np.linalg.eigh(covariance(w.atoms.T, w.masses()))
        if lam[0] > (1 - ISOTROPY_TOL) * lam[-1]:
            return T, total_variation(w), float(lam[0] / lam[-1])
        # M^{-1/2} is SPD, so det T stays positive
        T = T @ (Q * lam ** -0.5) @ Q.T
        T /= np.linalg.det(T) ** (1.0 / n)
    raise AffineBVError(f"SL(n) fixed point not isotropic after {SLN_MAX_ITERS} "
                        f"iterations: lambda_min/lambda_max = {lam[0] / lam[-1]:.3e}")
