"""Inequality and identity checks over generated corpora.

Each check evaluates one comparison between grid-pipeline quantities (or
between pipeline and closed-form oracle values) on a seeded corpus and
returns a machine-readable record; ``run_suite`` aggregates the records
into a report whose pass/fail drives the CLI exit code.
"""

from __future__ import annotations

import json
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
    energy_of_atoms,
    make_quadrature,
)
from .errors import AffineBVError, ConfigError
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

# Gaussian bumps summed into each random corpus field
BUMPS_PER_FIELD = 3
# affine invariance: relative tolerance of the exact atom path and of the
# interpolating resampling path; norm cap of the random sl(n) generator
AFFINE_ATOM_TOL = 1e-3
AFFINE_RESAMPLE_TOL = 0.02
AFFINE_GENERATOR_SCALE = 0.5


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


def _record(slack, **fields):
    """A :class:`CheckRecord` whose ``details["slack"]`` is the smallest
    margin over the check's own pass conditions (whatever ``worst_margin``
    means for that check); it passes exactly when the slack is >= 0.  A
    check that tested nothing (``count == 0``) passes vacuously:
    ``details["vacuous"]`` is set and its slack is 0."""
    details = dict(fields.pop("details", {}))
    if fields["count"] == 0:
        details["vacuous"] = True
        slack = 0.0
    details["slack"] = float(slack)
    return CheckRecord(passed=bool(slack >= 0), details=details, **fields)


@dataclass
class VerifyConfig:
    grid: int = 128
    dirs: int = 256
    seed: int = 42
    n_fields: int = 100
    n_maps: int = 50
    suites: tuple = ("sobolev_zhang", "comparisons", "superadditivity",
                     "affine_invariance", "wirtinger_gap", "huang_li")
    forced_tolerance: float | None = None   # harness self-test hook

    def __post_init__(self):
        for name in ("n_fields", "n_maps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

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

    def to_json(self, **kw):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, **kw)


# -- corpora -----------------------------------------------------------------

def square_domain(grid):
    """Unit square [0,1]^2 centered in a [-0.25, 1.25]^2 grid."""
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


def ellipse_domain(grid, matrix):
    A = np.asarray(matrix, dtype=float)
    hw = float(np.sqrt(np.diag(A @ A.T)).max()) * 1.3
    spec = GridSpec(dim=2, shape=(grid, grid), spacing=2 * hw / grid,
                    origin=(-hw, -hw))
    mask = make_mask(spec, {"shape": "ellipsoid", "center": [0.0, 0.0],
                            "matrix": A.tolist()})
    return spec, mask


def random_bumps(mask, count, rng, signed=False):
    """Smooth compactly supported fields: sums of BUMPS_PER_FIELD random
    Gaussian bumps."""
    spec = mask.spec
    pts = spec.cell_centers()[mask.inside]
    xs = spec.axes()
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = hi - lo
    out = []
    for _ in range(count):
        vals = np.zeros(spec.shape)
        for _ in range(BUMPS_PER_FIELD):
            c = lo + (0.25 + 0.5 * rng.random(spec.dim)) * span
            w = (0.08 + 0.12 * rng.random()) * float(span.min())
            amp = rng.uniform(0.3, 1.0)
            if signed and rng.random() < 0.5:
                amp = -amp
            vals += amp * np.exp(-sum((x - ck) ** 2 for x, ck in zip(xs, c))
                                 / (2 * w * w))
        vals = np.where(mask.inside, vals, 0.0)
        out.append(mollify(GridFunction(spec, vals), 1.5 * spec.spacing))
    return out


# -- individual checks -------------------------------------------------------

def check_sobolev_zhang(corpus, mask, quadrature, backend=CELL_GRADIENT,
                        equality_cases=(), tolerance=0.03, upper=1.05):
    """Ratio of the extended energy to the sharp constant times the critical
    norm: >= 1 - tol always; within [1 - tol, upper] at equality cases."""
    consts = constants(mask.spec.dim)
    q = mask.spec.dim / (mask.spec.dim - 1.0)
    worst = np.inf
    count = 0
    details = {}
    for name, u in corpus:
        e = affine_energy_extended(u, mask, backend, quadrature)
        nrm = lq_norm(u, mask, q)
        if nrm == 0:
            continue
        ratio = e.value / (consts.sharp_sobolev * nrm)
        worst = min(worst, ratio)
        count += 1
        if name in equality_cases:
            details[name] = ratio
    # details holds the equality-case ratios; their lower bound is in worst
    slack = min([worst - (1 - tolerance)] + [upper - r for r in details.values()])
    return _record(
        name="sobolev_zhang",
        statement="sharp * ||u||_{n/(n-1)} <= E(ext); near-equality at ellipsoids",
        corpus=f"{count} fields on {mask.descriptor.get('shape')}",
        count=count, worst_margin=float(worst if count else 0.0),
        tolerance=tolerance, slack=slack, details=details,
    )


def check_comparisons(corpus, mask, quadrature, tolerance=1e-3,
                      equality_tol=1e-12):
    """(C1) E(ext) <= TV + trace; (C2) equality for zero-trace fields;
    (C3) superadditivity of extended over interior + boundary energies."""
    c1_worst = -np.inf
    c2_worst = 0.0
    c3_worst = -np.inf
    count = 0
    for _, u in corpus:
        count += 1
        e_ext = affine_energy_extended(u, mask, FACE_ATOMS, quadrature)
        atoms_int = compute_atoms(u, mask, backend=FACE_ATOMS)
        tv = total_variation(atoms_int)
        tr = extract_trace(u, mask)
        rhs = tv + tr.l1_norm()
        scale = max(rhs, 1e-30)
        c1_worst = max(c1_worst, (e_ext.value - rhs) / scale)

        u0 = clamp_rim(u, mask)
        e0_ext = affine_energy_extended(u0, mask, FACE_ATOMS, quadrature)
        e0_int = affine_energy_interior(u0, mask, FACE_ATOMS, quadrature)
        c2_worst = max(c2_worst, abs(e0_ext.value - e0_int.value)
                       / max(1.0, e0_int.value))

        e_int = affine_energy_interior(u, mask, FACE_ATOMS, quadrature)
        e_bdy = affine_energy_boundary(extract_trace(u, mask), quadrature)
        scale = max(e_ext.value, 1e-30)
        c3_worst = max(c3_worst,
                       (e_int.value + e_bdy.value - e_ext.value) / scale)
    return _record(
        name="comparisons",
        statement="E(ext) <= TV + trace; E(ext) = E(int) at zero trace; "
                  "E(ext) >= E(int) + E(bdy)",
        corpus=f"{count} fields on {mask.descriptor.get('shape')}",
        count=count,
        worst_margin=float(max(c1_worst, c2_worst, c3_worst)),
        tolerance=tolerance,
        slack=min(tolerance - c1_worst, equality_tol - c2_worst,
                  tolerance - c3_worst),
        details={"c1_worst": c1_worst, "c2_worst": c2_worst,
                 "c3_worst": c3_worst},
    )


def check_superadditivity(corpus, mask, quadrature, tolerance=1e-3,
                          n_levels=5):
    """Extended energy dominates the sum over a truncation split, for level
    values swept over quantiles of |u|."""
    worst = -np.inf
    count = 0
    for _, u in corpus:
        mags = np.abs(u.values[mask.inside])
        mags = mags[mags > 0]
        if mags.size == 0:
            continue
        levels = np.quantile(mags, np.linspace(0.15, 0.95, n_levels))
        e = affine_energy_extended(u, mask, FACE_ATOMS, quadrature)
        for h in levels:   # quantiles of positive magnitudes: h > 0
            pair = truncate(u, float(h))
            et = affine_energy_extended(pair.truncated, mask, FACE_ATOMS,
                                        quadrature)
            er = affine_energy_extended(pair.remainder, mask, FACE_ATOMS,
                                        quadrature)
            scale = max(e.value, 1e-30)
            worst = max(worst, (et.value + er.value - e.value) / scale)
            count += 1
    return _record(
        name="superadditivity",
        statement="E(u) >= E(T_h u) + E(R_h u)",
        corpus=f"{count} (field, level) pairs",
        count=count, worst_margin=float(worst if count else 0.0),
        tolerance=tolerance, slack=tolerance - worst,
    )


def check_affine_invariance(corpus, mask, quadrature, n_maps=50, seed=0):
    """Energy invariance under det-1 maps: exact change of variables on the
    atoms, and the interpolating resampling path."""
    rng = np.random.default_rng(seed)
    n = mask.spec.dim
    atom_worst = 0.0
    resample_worst = 0.0
    count = 0
    for name, u in corpus:
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT,
                              include_boundary=True)
        e0 = energy_of_atoms(atoms, quadrature).value
        if e0 == 0:
            continue
        for _ in range(n_maps):
            A = rng.normal(size=(n, n))
            A -= np.trace(A) / n * np.eye(n)
            A *= AFFINE_GENERATOR_SCALE / max(1.0, np.linalg.norm(A))
            T = expm(A)
            e1 = energy_of_atoms(atoms.transformed(T), quadrature).value
            atom_worst = max(atom_worst, abs(e1 - e0) / e0)
            count += 1
        try:
            v = resample_affine(u, T)
            e2 = affine_energy_extended(v, mask, CELL_GRADIENT, quadrature).value
            resample_worst = max(resample_worst, abs(e2 - e0) / e0)
        except AffineBVError:
            pass  # support escaped the grid; the atom path already covered T
    return _record(
        name="affine_invariance",
        statement="E(u o T) = E(u) for det T = 1",
        corpus=f"{count} (field, map) pairs",
        count=count, worst_margin=float(max(atom_worst, resample_worst)),
        tolerance=AFFINE_ATOM_TOL,
        slack=min(AFFINE_ATOM_TOL - atom_worst,
                  AFFINE_RESAMPLE_TOL - resample_worst),
        details={"atom_worst": atom_worst, "resample_worst": resample_worst},
    )


def check_wirtinger_gap(grid=128, dirs=256):
    """Certificate that no constant bounds the mean-centered norm by the
    interior energy: a single-direction field has zero interior energy but
    mean-centered L1 norm far from zero.  Includes a negative control."""
    spec, mask = square_domain(grid)
    quad = make_quadrature(2, dirs)
    x = spec.cell_centers()[..., 0]
    u = GridFunction(spec, np.where(mask.inside, np.sin(np.pi * x), 0.0))
    e = affine_energy_interior(u, mask, CELL_GRADIENT, quad)
    mean = float(np.mean(u.values[mask.inside]))
    centered = u.with_values(np.where(mask.inside, u.values - mean, 0.0))
    nrm = lq_norm(centered, mask, 1.0)
    atoms = compute_atoms(u, mask, backend=CELL_GRADIENT)
    eig = covariance_eigen_ratio(atoms)

    # negative control: gradient direction varies, covariance has full rank
    y = spec.cell_centers()[..., 1]
    v = GridFunction(spec, np.where(mask.inside, x + y * y, 0.0))
    e_ctrl = affine_energy_interior(v, mask, CELL_GRADIENT, quad)

    flags = (e.degenerate and e.value == 0.0 and not e_ctrl.degenerate
             and e_ctrl.value > 0)
    # a failed yes/no condition counts as a full violation
    slack = min(COV_EIGEN_EPS - eig, nrm - 0.5 * 0.3) if flags else -1.0
    return _record(
        name="wirtinger_gap",
        statement="no constant A with A ||u - mean||_q <= E(int): "
                  "single-direction counterexample",
        corpus="sin(pi x) on the unit square; x + y^2 negative control",
        count=2, worst_margin=float(eig), tolerance=COV_EIGEN_EPS, slack=slack,
        details={"energy": e.value, "centered_l1": nrm,
                 "eigen_ratio": eig, "control_energy": e_ctrl.value},
    )


def check_huang_li(corpus, mask, quadrature, tolerance=1e-2):
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
        name="huang_li",
        statement="d0 * min_{det T = 1} TV(u o T) <= E(ext)",
        corpus=f"{count} fields",
        count=count, worst_margin=float(worst if count else 0.0),
        tolerance=tolerance, slack=tolerance - worst, details=details,
    )


# -- suite -------------------------------------------------------------------

def run_suite(config=None):
    config = config or VerifyConfig()
    rng = np.random.default_rng(config.seed)
    records = []
    quad = make_quadrature(2, config.dirs)

    _, sq_mask = square_domain(config.grid)
    _, disk_mask = disk_domain(config.grid)

    def named(fields, prefix):
        return [(f"{prefix}_{i}", u) for i, u in enumerate(fields)]

    if config.n_fields == 0:
        report = VerifyReport(records=[_record(
            name=name, statement="", corpus="empty", count=0,
            worst_margin=0.0, tolerance=0.0, slack=0.0,
            details={"empty": True},
        ) for name in config.suites], config=config)
        return report

    if "sobolev_zhang" in config.suites:
        disk_u = GridFunction(disk_mask.spec,
                              disk_mask.inside.astype(float))
        corpus = [("disk_indicator", disk_u)]
        rec_eq = check_sobolev_zhang(
            corpus, disk_mask, quad, backend=FACE_ATOMS,
            equality_cases=("disk_indicator",))
        bumps = named(random_bumps(disk_mask, config.n_fields, rng), "bump")
        rec = check_sobolev_zhang(bumps, disk_mask, quad)
        rec_eq.name = "sobolev_zhang_equality"
        records += [rec_eq, rec]

    if "comparisons" in config.suites:
        fields = named(random_bumps(disk_mask, config.n_fields, rng,
                                    signed=True), "field")
        records.append(check_comparisons(fields, disk_mask, quad))

    if "superadditivity" in config.suites:
        fields = named(random_bumps(sq_mask, max(1, config.n_fields // 5), rng,
                                    signed=True), "field")
        records.append(check_superadditivity(fields, sq_mask, quad))

    if "affine_invariance" in config.suites:
        fields = named(random_bumps(disk_mask, 3, rng), "field")
        records.append(check_affine_invariance(
            fields, disk_mask, quad, n_maps=config.n_maps, seed=config.seed))

    if "wirtinger_gap" in config.suites:
        records.append(check_wirtinger_gap(grid=config.grid, dirs=config.dirs))

    if "huang_li" in config.suites:
        spec = disk_mask.spec
        centers = spec.cell_centers()
        aniso = np.exp(-(4 * centers[..., 0] ** 2
                         + centers[..., 1] ** 2 / 4))
        aniso_u = GridFunction(spec, np.where(disk_mask.inside, aniso, 0.0))
        corpus = [
            ("disk_indicator", GridFunction(spec, disk_mask.inside.astype(float))),
            ("aniso_gaussian", aniso_u),
        ] + named(random_bumps(disk_mask, 2, rng), "bump")
        records.append(check_huang_li(corpus, disk_mask, quad))

    if config.forced_tolerance is not None:
        for r in records:
            r.tolerance = config.forced_tolerance
            r.passed = bool(abs(r.worst_margin) <= config.forced_tolerance)
            r.details["slack"] = config.forced_tolerance - abs(r.worst_margin)

    return VerifyReport(records=records, config=config)
