"""Inequality and identity checks over generated corpora.

Each check evaluates one comparison between grid-pipeline quantities (or
between pipeline and closed-form oracle values) on a seeded corpus and
returns a machine-readable record; ``run_suite`` aggregates the records
into a report whose pass/fail drives the CLI exit code.

The suites share nothing but the generator their corpora draw from, so
``run_suite`` draws every corpus's random numbers first, in SUITES order,
and then maps the suites over k processes with
:func:`~affinebv.forkmap.fork_map`, one task per suite that builds its
corpus and runs its checks.  k is the number of suites capped by the CPUs
this process may run on (``os.sched_getaffinity``), and 1 where the "fork"
start method or the affinity is unavailable, or this process is daemonic
or runs other Python threads.  Suite i runs in share i % k; share 0 runs
here, every other share in a forked worker that pipes back its records.
The records are put back in suite order, so the report is that of a
one-process run, byte for byte.  Spans or counters that a tracer records
inside a worker do not reach this process; the records do.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import expm

from . import __version__
from .energy import (
    COV_EIGEN_EPS,
    affine_energy_boundary,
    affine_energy_extended,
    affine_energy_interior,
    constants,
    energies_under_maps,
    energy_of_atoms,
    make_quadrature,
)
from .errors import ConfigError
from .forkmap import fork_map
from .functionals import clamp_rim, truncate
from .grid import (
    GridFunction,
    GridSpec,
    extract_trace,
    lq_norm,
    make_mask,
    mollify,
    resample_affine,
)
from .minimize import sl_n_minimize_tv
from .variation import (
    CELL_GRADIENT,
    FACE_ATOMS,
    compute_atoms,
    covariance_eigen_ratio,
    total_variation,
)

SUITES = ("sobolev_zhang", "comparisons", "superadditivity",
          "affine_invariance", "wirtinger_gap", "huang_li")
# Gaussian bumps summed into each random corpus field
BUMPS_PER_FIELD = 3
# Tolerances and map count, read at call time so that a test can change them.
# affine invariance: det-1 maps per field in run_suite; relative tolerance of
# the atom path and of the resampling path; norm cap of the sl(n) generator
AFFINE_MAPS = 50
AFFINE_ATOM_TOL = 1e-3
AFFINE_RESAMPLE_TOL = 0.02
AFFINE_GENERATOR_SCALE = 0.5
# Sobolev-Zhang ratios: >= 1 - SOBOLEV_TOL; <= SOBOLEV_UPPER at equality cases
SOBOLEV_TOL = 0.03
SOBOLEV_UPPER = 1.05
# comparisons: relative tolerance of (C1) and (C3); that of the (C2) equality
COMPARISON_TOL = 1e-3
COMPARISON_EQUALITY_TOL = 1e-12
# superadditivity: relative tolerance; quantile levels h per field
SUPERADDITIVITY_TOL = 1e-3
SUPERADDITIVITY_LEVELS = 5
# Huang-Li: relative tolerance of d0 * min TV over the energy
HUANG_LI_TOL = 1e-2


@dataclass
class CheckRecord:
    name: str
    statement: str
    corpus: str
    count: int
    worst_margin: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return asdict(self)


def _record(conditions, **fields):
    """A :class:`CheckRecord` judged by the check's pass ``conditions``:
    ``(worst, tolerance)`` pairs, each holding when worst <= tolerance.  The
    pair with the smallest slack ``tolerance - worst`` is reported as
    ``worst_margin`` and ``tolerance``, its slack as ``details["slack"]``,
    and the record passes exactly when that slack is >= 0.  A check that
    tested nothing (``count == 0``) passes vacuously: ``details["vacuous"]``
    is set and its worst margin is its tolerance, slack 0."""
    details = dict(fields.pop("details", {}))
    worst, tolerance = min(conditions, key=lambda c: c[1] - c[0])
    if fields["count"] == 0:
        details["vacuous"] = True
        worst = tolerance
    details["slack"] = slack = float(tolerance - worst)
    return CheckRecord(worst_margin=float(worst), tolerance=float(tolerance),
                       passed=bool(slack >= 0), details=details, **fields)


@dataclass
class VerifyConfig:
    grid: int = 128
    dirs: int = 256
    seed: int = 42
    n_fields: int = 100
    suites: tuple = SUITES

    def __post_init__(self):
        if self.n_fields < 1:
            raise ConfigError(f"n_fields must be >= 1, got {self.n_fields}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # a bare string fails too: its letters are not suite names
        if not self.suites or set(self.suites) - set(SUITES):
            raise ConfigError(f"unknown suite in {self.suites!r}; choose a "
                              f"non-empty tuple from {list(SUITES)}")

    def as_dict(self):
        return {**asdict(self), "suites": list(self.suites)}


@dataclass
class VerifyReport:
    records: list
    config: VerifyConfig

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def as_dict(self):
        return {
            "version": __version__,
            "passed": self.passed,
            "config": self.config.as_dict(),
            "records": [r.as_dict() for r in self.records],
        }


# -- corpora -----------------------------------------------------------------

def square_domain(grid):
    """The cells of [0,1]^2 in a [-0.25, 1.25]^2 grid: 86 x 86 cells of side
    1.0078 at 128, cell-aligned only when 6 divides ``grid``."""
    spec = GridSpec(dim=2, shape=(grid, grid), spacing=1.5 / grid,
                    origin=(-0.25, -0.25))
    mask = make_mask(spec, {"shape": "box", "extents": [[0.0, 1.0], [0.0, 1.0]]})
    return spec, mask


def disk_domain(grid):
    """Unit disk centered in a [-1.3, 1.3]^2 grid."""
    spec = GridSpec(dim=2, shape=(grid, grid), spacing=2.6 / grid,
                    origin=(-1.3, -1.3))
    mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                            "radius": 1.0})
    return spec, mask


def _bump_draws(rng, dim, count, signed):
    """The random numbers of ``count`` fields of :func:`random_bumps`, in its
    order: per bump of each field, the center and the width as fractions of
    their ranges and the amplitude."""
    fields = []
    for _ in range(count):
        bumps = []
        for _ in range(BUMPS_PER_FIELD):
            c = rng.random(dim)
            w = rng.random()
            amp = rng.uniform(0.3, 1.0)
            if signed and rng.random() < 0.5:
                amp = -amp
            bumps.append((c, w, amp))
        fields.append(bumps)
    return fields


def random_bumps(mask, count, rng, signed=False):
    """Smooth compactly supported fields: sums of BUMPS_PER_FIELD random
    Gaussian bumps."""
    spec = mask.spec
    pts = spec.cell_centers()[mask.inside]
    xs = spec.axes()
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = hi - lo
    out = []
    for bumps in _bump_draws(rng, spec.dim, count, signed):
        vals = np.zeros(spec.shape)
        for c, w, amp in bumps:
            c = lo + (0.25 + 0.5 * c) * span
            w = (0.08 + 0.12 * w) * float(span.min())
            vals += amp * np.exp(-sum((x - ck) ** 2 for x, ck in zip(xs, c))
                                 / (2 * w * w))
        vals = np.where(mask.inside, vals, 0.0)
        out.append(mollify(GridFunction(spec, vals), 1.5 * spec.spacing))
    return out


# -- individual checks -------------------------------------------------------

def check_sobolev_zhang(corpus, mask, quadrature, backend, equality):
    """Ratio of the extended energy to the sharp constant times the critical
    norm: 1 - ratio <= SOBOLEV_TOL always.  With ``equality`` the corpus
    holds equality cases: every ratio is also <= SOBOLEV_UPPER and is listed
    in the details of the record ``sobolev_zhang_equality``."""
    consts = constants(mask.spec.dim)
    q = mask.spec.dim / (mask.spec.dim - 1.0)
    ratios = []
    for name, u in corpus:
        e = affine_energy_extended(u, mask, backend, quadrature)
        nrm = lq_norm(u, mask, q)
        if nrm > 0:
            ratios.append((name, e.value / (consts.sharp_sobolev * nrm)))
    values = [r for _, r in ratios]
    conditions = [(1 - min(values, default=np.inf), SOBOLEV_TOL)]
    if equality:
        conditions.append((max(values, default=-np.inf), SOBOLEV_UPPER))
    return _record(
        conditions,
        name="sobolev_zhang_equality" if equality else "sobolev_zhang",
        statement="sharp * ||u||_{n/(n-1)} <= E(ext); near-equality at ellipsoids",
        corpus=f"{len(ratios)} fields on {mask.descriptor.get('shape')}",
        count=len(ratios), details=dict(ratios) if equality else {},
    )


def check_comparisons(corpus, mask, quadrature):
    """(C1) E(ext) <= TV + trace; (C2) equality for zero-trace fields;
    (C3) superadditivity of extended over interior + boundary energies.
    Each field's interior atoms and trace are built once: TV is the
    interior energy's ``meta["tv"]``.  (C2) holds exactly on the grid: the
    clamped field's boundary atoms are zero and are elided, so ``c2_worst``
    is 0.0 at every seed tried and the record reports the pair
    (0.0, COMPARISON_EQUALITY_TOL), whose slack is the smallest."""
    c1_worst = -np.inf
    c2_worst = 0.0
    c3_worst = -np.inf
    count = 0
    for _, u in corpus:
        count += 1
        e_ext = affine_energy_extended(u, mask, FACE_ATOMS, quadrature)
        e_int = affine_energy_interior(u, mask, FACE_ATOMS, quadrature)
        tr = extract_trace(u, mask)
        rhs = e_int.meta["tv"] + float(np.sum(np.abs(tr) * mask.face_areas()))
        scale = max(rhs, 1e-30)
        c1_worst = max(c1_worst, (e_ext.value - rhs) / scale)

        u0 = clamp_rim(u, mask)
        e0_ext = affine_energy_extended(u0, mask, FACE_ATOMS, quadrature)
        e0_int = affine_energy_interior(u0, mask, FACE_ATOMS, quadrature)
        c2_worst = max(c2_worst, abs(e0_ext.value - e0_int.value)
                       / max(1.0, e0_int.value))

        e_bdy = affine_energy_boundary(tr, mask, quadrature)
        scale = max(e_ext.value, 1e-30)
        c3_worst = max(c3_worst,
                       (e_int.value + e_bdy.value - e_ext.value) / scale)
    return _record(
        [(c1_worst, COMPARISON_TOL), (c2_worst, COMPARISON_EQUALITY_TOL),
         (c3_worst, COMPARISON_TOL)],
        name="comparisons",
        statement="E(ext) <= TV + trace; E(ext) = E(int) at zero trace; "
                  "E(ext) >= E(int) + E(bdy)",
        corpus=f"{count} fields on {mask.descriptor.get('shape')}",
        count=count,
        details={"c1_worst": c1_worst, "c2_worst": c2_worst,
                 "c3_worst": c3_worst},
    )


def check_superadditivity(corpus, mask, quadrature):
    """Extended energy dominates the sum over a truncation split, for
    SUPERADDITIVITY_LEVELS level values swept over quantiles of |u|."""
    worst = -np.inf
    count = 0
    for _, u in corpus:
        mags = np.abs(u.values[mask.inside])
        mags = mags[mags > 0]
        if mags.size == 0:
            continue
        levels = np.quantile(
            mags, np.linspace(0.15, 0.95, SUPERADDITIVITY_LEVELS))
        e = affine_energy_extended(u, mask, FACE_ATOMS, quadrature)
        for h in levels:   # quantiles of positive magnitudes: h > 0
            et, er = (affine_energy_extended(v, mask, FACE_ATOMS, quadrature)
                      for v in truncate(u, float(h)))
            scale = max(e.value, 1e-30)
            worst = max(worst, (et.value + er.value - e.value) / scale)
            count += 1
    return _record(
        [(worst, SUPERADDITIVITY_TOL)],
        name="superadditivity",
        statement="E(u) >= E(T_h u) + E(R_h u)",
        corpus=f"{count} (field, level) pairs", count=count,
    )


def check_affine_invariance(corpus, mask, quadrature, n_maps, seed):
    """Energy invariance under det-1 maps T: exact change of variables on
    each field's atoms for all ``n_maps`` maps (``count``), and ``u o T``
    resampled for each field's last map only (``resample_pairs``).  Both
    u and u o T live on the grid zero-padded by half its size per side, which
    holds T^{-1}(supp u), and are measured on one box mask 3 cells inside.

    The atoms of u o T are T^T v, and sum_i |(T^T v_i) . xi| =
    sum_i |v_i . (T xi)| term by term, so Psi of every mapped set is Psi of
    u's atoms at the mapped directions T xi: one sort of each field's atoms
    serves all its maps (:func:`~affinebv.energy.energies_under_maps`).
    The identity is exact, not a quadrature of the change of variables; the
    two sides differ only by rounding."""
    rng = np.random.default_rng(seed)
    n, h, pad = mask.spec.dim, mask.spec.spacing, [s // 2 for s in mask.spec.shape]
    padded = GridSpec(n, [s + 2 * p for s, p in zip(mask.spec.shape, pad)], h,
                      np.subtract(mask.spec.origin, np.multiply(pad, h)))
    box = make_mask(padded, {"shape": "box", "extents":
                             np.stack(padded.bounds(), axis=1) + [3 * h, -3 * h]})
    atom_worst = 0.0
    resample = []
    count = 0
    for name, u in corpus:
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT,
                              include_boundary=True)
        e0 = energy_of_atoms(atoms, quadrature).value
        if e0 == 0:
            continue
        maps = []
        for _ in range(n_maps):
            A = rng.normal(size=(n, n))
            A -= np.trace(A) / n * np.eye(n)
            A *= AFFINE_GENERATOR_SCALE / max(1.0, np.linalg.norm(A))
            maps.append(expm(A))
        for e1 in energies_under_maps(atoms, maps, quadrature):
            atom_worst = max(atom_worst, abs(e1.value - e0) / e0)
            count += 1
        U = GridFunction(padded, np.pad(u.values, [(p, p) for p in pad]))
        e_pad = affine_energy_extended(U, box, CELL_GRADIENT, quadrature).value
        e2 = affine_energy_extended(resample_affine(U, maps[-1]), box,
                                    CELL_GRADIENT, quadrature).value
        resample.append(abs(e2 - e_pad) / e_pad)
    resample_worst = max(resample, default=0.0)
    return _record(
        [(atom_worst, AFFINE_ATOM_TOL), (resample_worst, AFFINE_RESAMPLE_TOL)],
        name="affine_invariance",
        statement="E(u o T) = E(u) for det T = 1",
        corpus=f"{count} (field, map) pairs", count=count,
        details={"atom_worst": atom_worst, "resample_worst": resample_worst,
                 "resample_pairs": len(resample),
                 "resample_tolerance": AFFINE_RESAMPLE_TOL},
    )


def check_wirtinger_gap(mask, quadrature):
    """Certificate that no constant bounds the mean-centered norm by the
    interior energy: a single-direction field has zero interior energy but
    mean-centered L1 norm far from zero.  Includes a negative control.
    ``mask`` is the unit square of :func:`square_domain`."""
    spec = mask.spec
    x = spec.cell_centers()[..., 0]
    u = GridFunction(spec, np.where(mask.inside, np.sin(np.pi * x), 0.0))
    atoms = compute_atoms(u, mask, backend=CELL_GRADIENT)
    e = energy_of_atoms(atoms, quadrature)
    mean = float(np.mean(u.values[mask.inside]))
    centered = u.with_values(np.where(mask.inside, u.values - mean, 0.0))
    nrm = lq_norm(centered, mask, 1.0)
    eig = covariance_eigen_ratio(atoms)

    # negative control: gradient direction varies, covariance has full rank
    y = spec.cell_centers()[..., 1]
    v = GridFunction(spec, np.where(mask.inside, x + y * y, 0.0))
    e_ctrl = affine_energy_interior(v, mask, CELL_GRADIENT, quadrature)

    conditions = [(eig, COV_EIGEN_EPS), (0.5 * 0.3 - nrm, 0.0)]
    # a failed yes/no condition counts as a full violation
    if not (e.degenerate and e.value == 0.0 and not e_ctrl.degenerate
            and e_ctrl.value > 0):
        conditions.append((1.0, 0.0))
    return _record(
        conditions,
        name="wirtinger_gap",
        statement="no constant A with A ||u - mean||_q <= E(int): "
                  "single-direction counterexample",
        corpus="sin(pi x) on the unit square; x + y^2 negative control",
        count=2,
        details={"energy": e.value, "centered_l1": nrm,
                 "eigen_ratio": eig, "control_energy": e_ctrl.value},
    )


def check_huang_li(corpus, mask, quadrature):
    """d0 * min_T TV(u o T) <= E(ext) on every corpus field."""
    consts = constants(mask.spec.dim)
    worst = -np.inf
    count = 0
    details = {}
    for name, u in corpus:
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT,
                              include_boundary=True)
        e = energy_of_atoms(atoms, quadrature).value
        if e == 0:
            continue
        _, f_best, isotropy = sl_n_minimize_tv(atoms)
        margin = (consts.d0 * f_best - e) / e
        worst = max(worst, margin)
        details[name] = {"f_best": f_best,
                         "f_identity": total_variation(atoms),
                         "energy": e,
                         "isotropy": isotropy}
        count += 1
    return _record(
        [(worst, HUANG_LI_TOL)],
        name="huang_li",
        statement="d0 * min_{det T = 1} TV(u o T) <= E(ext)",
        corpus=f"{count} fields", count=count, details=details,
    )


# -- suite -------------------------------------------------------------------

def run_suite(config):
    """The report of the suites in ``config``, one fork-map task per suite
    (see the module docstring).  A task builds its corpus with
    :func:`random_bumps` from a copy of the generator at the corpus's first
    draw, which this process made before moving past its draws."""
    rng = np.random.default_rng(config.seed)
    quad = make_quadrature(2, config.dirs)
    _, sq_mask = square_domain(config.grid)
    _, disk_mask = disk_domain(config.grid)
    # each suite's random corpus: domain, field count, signed, name prefix
    corpora = {
        "sobolev_zhang": (disk_mask, config.n_fields, False, "bump"),
        "comparisons": (disk_mask, config.n_fields, True, "field"),
        "superadditivity": (sq_mask, max(1, config.n_fields // 5), True, "field"),
        "affine_invariance": (disk_mask, 3, False, "field"),
        "huang_li": (disk_mask, 2, False, "bump"),
    }
    tasks = []
    for suite in SUITES:
        if suite not in config.suites:
            continue
        start = None
        if suite in corpora:
            mask, count, signed, _ = corpora[suite]
            start = copy.deepcopy(rng)
            _bump_draws(rng, mask.spec.dim, count, signed)
        tasks.append((suite, start))

    def run(task):
        suite, start = task
        fields = []
        if start is not None:
            mask, count, signed, prefix = corpora[suite]
            fields = [(f"{prefix}_{i}", u) for i, u in
                      enumerate(random_bumps(mask, count, start, signed=signed))]
        disk = ("disk_indicator", GridFunction(disk_mask.spec,
                                               disk_mask.inside.astype(float)))
        if suite == "sobolev_zhang":
            return [
                check_sobolev_zhang([disk], disk_mask, quad, FACE_ATOMS, True),
                check_sobolev_zhang(fields, disk_mask, quad, CELL_GRADIENT, False)]
        if suite == "comparisons":
            return [check_comparisons(fields, disk_mask, quad)]
        if suite == "superadditivity":
            return [check_superadditivity(fields, sq_mask, quad)]
        if suite == "affine_invariance":
            return [check_affine_invariance(fields, disk_mask, quad,
                                            AFFINE_MAPS, config.seed)]
        if suite == "wirtinger_gap":
            return [check_wirtinger_gap(sq_mask, quad)]
        # huang_li
        centers = disk_mask.spec.cell_centers()
        aniso = np.exp(-(4 * centers[..., 0] ** 2 + centers[..., 1] ** 2 / 4))
        aniso_u = GridFunction(disk_mask.spec,
                               np.where(disk_mask.inside, aniso, 0.0))
        return [check_huang_li([disk, ("aniso_gaussian", aniso_u)] + fields,
                               disk_mask, quad)]

    records = []
    for outcome in fork_map(run, tasks):
        if isinstance(outcome, Exception):
            raise outcome
        records += outcome
    return VerifyReport(records=records, config=config)
