"""Acceptance gate: twelve end-to-end criteria at desk scale.

Each test prints exactly one PASS/FAIL line naming its criterion.  Scales:
2D corpora run on 256^2 grids with 512 quadrature directions unless a
criterion pins a different resolution for a stability comparison.
"""

import numpy as np
import pytest

from affinebv import (
    ConstraintSpec,
    GridFunction,
    Weights,
    affine_energy_extended,
    check_critical_threshold,
    compute_atoms,
    constants,
    energy_from_psi,
    lq_norm,
    m_r_solve,
    make_quadrature,
    minimize_level,
    sl_n_minimize_tv,
    total_variation,
)
from affinebv.functionals import clamp_rim
from affinebv.minimize import MinimizeConfig, SmoothedProblem
from affinebv.oracle import PolygonBody, psi_polygon
from affinebv.variation import CELL_GRADIENT, FACE_ATOMS
from affinebv.verify import (
    check_affine_invariance,
    check_comparisons,
    check_superadditivity,
    check_wirtinger_gap,
    disk_domain,
    random_bumps,
    square_domain,
)

from conftest import (
    aligned_square,
    check_gradient,
    ellipse_domain,
    mr_residual,
    random_field,
)


def report(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d} [{name}]: {detail}"
    print(line)
    assert ok, line


# -- shared desk-scale corpus ------------------------------------------------

@pytest.fixture(scope="module")
def quad512():
    return make_quadrature(2, 512)


@pytest.fixture(scope="module")
def quad256():
    return make_quadrature(2, 256)


@pytest.fixture(scope="module")
def disk256():
    return disk_domain(256)


@pytest.fixture(scope="module")
def bumps100(disk256):
    _, mask = disk256
    rng = np.random.default_rng(2024)
    return random_bumps(mask, 100, rng, signed=True)


# -- criteria ----------------------------------------------------------------

def test_criterion_01_constants():
    """Closed-form constants match frozen high-precision evaluations."""
    frozen = {
        2: (3.9374024864306049, 3.5449077018110321, 0.98435062160765123),
        3: (4.6497894060385059, 4.8359758620494089, 0.97639459170768218),
    }
    worst = 0.0
    for dim, (alpha, sharp, d0) in frozen.items():
        c = constants(dim)
        for got, want in ((c.alpha, alpha), (c.sharp_sobolev, sharp),
                          (c.d0, d0)):
            worst = max(worst, abs(got - want) / abs(want))
    report(1, "constants", worst <= 1e-12,
           f"worst relative error {worst:.2e} (tol 1e-12, 12 digits)")


def test_criterion_02_square_energy(quad512):
    """Unit-square indicator energy vs alpha_2, grid and oracle paths."""
    spec, mask = aligned_square(256)
    u = GridFunction(spec, mask.inside.astype(float))
    alpha = constants(2).alpha
    e_grid = affine_energy_extended(u, mask, FACE_ATOMS, quad512)
    grid_err = abs(e_grid.value - alpha) / alpha

    body = PolygonBody(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    psi = np.array([psi_polygon(body, xi) for xi in quad512.directions])
    e_oracle = energy_from_psi(psi, quad512)
    oracle_err = abs(e_oracle.value - alpha) / alpha

    ok = grid_err <= 0.03 and oracle_err <= 1e-4
    report(2, "square energy", ok,
           f"grid rel err {grid_err:.2e} (tol 3e-2), "
           f"oracle-psi rel err {oracle_err:.2e} (tol 1e-4)")


def test_criterion_03_sobolev_zhang(disk256, quad512, bumps100):
    """Energy / (sharp * critical norm): equality at round bodies, >= 1
    minus tolerance everywhere."""
    c = constants(2)

    def ratio(u, mask, backend):
        e = affine_energy_extended(u, mask, backend, quad512)
        return e.value / (c.sharp_sobolev * lq_norm(u, mask, 2.0))

    _, disk_mask = disk256
    r_disk = ratio(GridFunction(disk_mask.spec,
                                disk_mask.inside.astype(float)),
                   disk_mask, FACE_ATOMS)
    _, ell_mask = ellipse_domain(256, np.diag([1.6, 0.625]))
    r_ell = ratio(GridFunction(ell_mask.spec,
                               ell_mask.inside.astype(float)),
                  ell_mask, FACE_ATOMS)
    bump_worst = min(ratio(u, disk_mask, CELL_GRADIENT) for u in bumps100)

    ok = (0.97 <= r_disk <= 1.05 and 0.97 <= r_ell <= 1.05
          and bump_worst >= 0.97)
    report(3, "sharp Sobolev ratio", ok,
           f"disk {r_disk:.4f}, ellipse {r_ell:.4f} (range [0.97, 1.05]); "
           f"worst of 100 bumps {bump_worst:.4f} (>= 0.97)")


def test_criterion_04_affine_invariance(disk256, quad512, bumps100):
    """Energy unchanged by 50 volume-preserving linear maps."""
    _, mask = disk256
    corpus = [(f"f{i}", u) for i, u in enumerate(bumps100[:2])]
    rec = check_affine_invariance(corpus, mask, quad512, n_maps=50, seed=7)
    ok = (rec.details["atom_worst"] <= 1e-3
          and rec.details["resample_worst"] <= 0.02)
    report(4, "affine invariance", ok,
           f"atom path {rec.details['atom_worst']:.2e} (tol 1e-3), "
           f"resample path {rec.details['resample_worst']:.2e} (tol 2e-2) "
           f"over 50 maps")


def test_criterion_05_comparisons(disk256, quad512, bumps100):
    """Extension bound, zero-trace equality, interior+boundary split."""
    _, mask = disk256
    corpus = [(f"f{i}", u) for i, u in enumerate(bumps100)]
    rec = check_comparisons(corpus, mask, quad512)
    d = rec.details
    ok = (d["c1_worst"] <= 1e-3 and d["c2_worst"] <= 1e-12
          and d["c3_worst"] <= 1e-3)
    report(5, "energy comparisons", ok,
           f"extension bound {d['c1_worst']:.2e} (tol 1e-3), "
           f"zero-trace equality {d['c2_worst']:.2e} (tol 1e-12), "
           f"split bound {d['c3_worst']:.2e} (tol 1e-3) on 100 fields")


def test_criterion_06_degeneracy_certificate(quad512):
    """Single-direction field: zero energy, rank-deficient covariance;
    a genuinely two-direction control stays positive."""
    _, mask = square_domain(256)
    rec = check_wirtinger_gap(mask, quad512)
    d = rec.details
    ok = rec.passed and d["energy"] == 0.0 and d["eigen_ratio"] < 1e-12 \
        and d["control_energy"] > 0.0
    report(6, "degeneracy certificate", ok,
           f"interior energy {d['energy']:.1e}, covariance eigen-ratio "
           f"{d['eigen_ratio']:.1e} (tol 1e-12), control energy "
           f"{d['control_energy']:.3f} > 0")


def test_criterion_07_superadditivity(disk256, quad512, bumps100):
    """Energy dominates the truncation split at 5 levels per field."""
    _, mask = disk256
    rec = check_superadditivity(list(enumerate(bumps100)), mask, quad512)
    ok = rec.passed and rec.tolerance == 1e-3 and rec.count == 5 * 100
    report(7, "superadditivity", ok,
           f"worst relative margin {rec.worst_margin:.2e} "
           f"(tol {rec.tolerance:g}) over {rec.count} field-level pairs")


def test_criterion_08_sl_normalization(disk256, quad512, bumps100):
    """d0 times the best volume-preserving TV is below the energy; an
    anisotropic bump is improved by more than 10%."""
    spec, mask = disk256
    c = constants(2)
    centers = spec.cell_centers()
    # tight enough to decay before the disk boundary, 4:1 axis ratio
    aniso = np.exp(-(16 * centers[..., 0] ** 2 + centers[..., 1] ** 2))
    corpus = [GridFunction(spec, mask.inside.astype(float)),
              GridFunction(spec, np.where(mask.inside, aniso, 0.0))]
    corpus += bumps100[:5]
    worst = -np.inf
    for u in corpus:
        atoms = compute_atoms(u, mask, backend=CELL_GRADIENT,
                              include_boundary=True)
        e = affine_energy_extended(u, mask, CELL_GRADIENT, quad512).value
        _, f_best, _ = sl_n_minimize_tv(atoms)
        worst = max(worst, c.d0 * f_best / e)
    atoms = compute_atoms(corpus[1], mask, backend=CELL_GRADIENT,
                          include_boundary=True)
    _, f_aniso, _ = sl_n_minimize_tv(atoms)
    improvement = f_aniso / total_variation(atoms)
    ok = worst <= 1.01 and improvement < 0.9
    report(8, "volume-preserving normalization", ok,
           f"worst d0*TV_best/E = {worst:.4f} (<= 1.01); anisotropic "
           f"improvement factor {improvement:.3f} (< 0.9)")


def test_criterion_09_gradient_check(quad256):
    """Analytic gradient of the smoothed objective vs central differences."""
    spec, mask = disk_domain(128)
    prob = SmoothedProblem(mask, Weights(a=0.0, b=0.0), quad256,
                           backend=CELL_GRADIENT)
    rng = np.random.default_rng(11)
    worst_ratio = 0.0
    for seed in range(10):
        u = random_field(spec, mask, seed=seed, smooth=2)
        x = prob.to_vector(u)
        worst, tol = check_gradient(prob, x, delta=1e-3, n_coords=20, rng=rng)
        worst_ratio = max(worst_ratio, worst / tol)
    ok = worst_ratio <= 1.0
    report(9, "gradient check", ok,
           f"worst error / max(1e-5, 1e-4*|g|) = {worst_ratio:.3f} (<= 1) "
           f"over 10 fields x 20 coordinates")


def test_criterion_10_minimization_stability():
    """The critical-norm level on the square is stable under grid and
    quadrature refinement, with tight constraint residuals; the zero-trace
    level cannot drop below it."""
    cs = ConstraintSpec(q=1.0, kind="X", r=1.0, zero_trace=False)
    cfg = MinimizeConfig(seed=0, max_iters=300, n_starts=2)
    w = Weights(0.0, 0.0)

    def run(grid, dirs, cspec, extra=()):
        _, mask = aligned_square(grid)
        return minimize_level(mask, w, cspec, config=cfg,
                              quadrature=make_quadrature(2, dirs),
                              backend=CELL_GRADIENT, extra_starts=extra)

    r_base = run(128, 256, cs)
    r_grid = run(256, 256, cs)
    r_dirs = run(256, 512, cs)
    grid_change = abs(r_grid.level - r_base.level) / r_base.level
    dirs_change = abs(r_dirs.level - r_grid.level) / r_grid.level
    res_worst = max(r.norm_residual for r in (r_base, r_grid, r_dirs))

    cs0 = ConstraintSpec(q=1.0, kind="X", r=1.0, zero_trace=True)
    _, mask128 = aligned_square(128)
    seed_field = clamp_rim(r_base.extremal, mask128)
    r_zero = run(128, 256, cs0, extra=(seed_field,))
    monotone_margin = r_zero.level - r_base.level

    ok = (grid_change < 0.05 and dirs_change < 0.05
          and res_worst < 1e-8 and monotone_margin >= -1e-6)
    report(10, "minimization stability", ok,
           f"level {r_base.level:.5f} -> {r_grid.level:.5f} "
           f"(grid change {grid_change:.2%}) -> {r_dirs.level:.5f} "
           f"(direction change {dirs_change:.2%}), both < 5%; "
           f"residual {res_worst:.1e} < 1e-8; zero-trace margin "
           f"{monotone_margin:+.2e} >= -1e-6")


def test_criterion_11_critical_threshold():
    """Threshold flag matches the open-interval definition on synthetic
    levels; a negative bulk weight strictly lowers the subcritical level."""
    c = constants(2)
    synthetic = {-1.0: False, 0.0: False, 3.0: True, 3.5449: True,
                 4.0: False}
    flags_ok = all(check_critical_threshold(lvl, c)["critical_flag"] is want
                   for lvl, want in synthetic.items())

    _, mask = aligned_square(64)
    quad = make_quadrature(2, 128)
    cfg = MinimizeConfig(seed=0, max_iters=150, n_starts=3)
    cs = ConstraintSpec(q=2.0, kind="X", r=1.0, zero_trace=False)
    lvl0 = minimize_level(mask, Weights(0.0, 0.0), cs, config=cfg,
                          quadrature=quad, backend=CELL_GRADIENT).level
    lvl_neg = minimize_level(mask, Weights(-1.0, 0.0), cs, config=cfg,
                             quadrature=quad, backend=CELL_GRADIENT).level
    ok = flags_ok and lvl_neg < lvl0
    report(11, "critical threshold", ok,
           f"synthetic flags {'correct' if flags_ok else 'WRONG'} on "
           f"{sorted(synthetic)}; negative-weight level {lvl_neg:.4f} < "
           f"baseline {lvl0:.4f}")


def test_criterion_12_generalized_mean():
    """The generalized-mean solver: exact mean at r=1, tiny residuals,
    translation equivariance and homogeneity."""
    spec, mask = aligned_square(32)
    rng = np.random.default_rng(5)
    mean_worst = 0.0
    res_worst = 0.0
    sym_worst = 0.0
    for seed in range(100):
        u = random_field(spec, mask, seed=seed)
        vals = u.values[mask.inside]
        mean_worst = max(mean_worst,
                         abs(m_r_solve(u, mask, 1.0) - float(np.mean(vals))))
        c, s = rng.uniform(-3, 3), rng.uniform(0.2, 4.0)
        for r in (1.0, 1.5, 2.0):
            m = m_r_solve(u, mask, r)
            res = mr_residual(vals, m, r, spec.cell_volume)
            scale = float(np.sum(np.abs(vals - m) ** (r - 1.0))
                          * spec.cell_volume)
            res_worst = max(res_worst, abs(res) / max(scale, 1e-30))
            shifted = u.with_values(
                np.where(mask.inside, u.values + c, 0.0))
            sym_worst = max(
                sym_worst,
                abs(m_r_solve(shifted, mask, r) - (m + c)),
                abs(m_r_solve(u.with_values(s * u.values), mask, r) - s * m))
    ok = mean_worst <= 1e-12 and res_worst <= 1e-10 and sym_worst <= 1e-10
    report(12, "generalized mean solver", ok,
           f"mean error {mean_worst:.1e} (tol 1e-12), residual "
           f"{res_worst:.1e} (tol 1e-10), equivariance/homogeneity "
           f"{sym_worst:.1e} (tol 1e-10) over 100 fields")
