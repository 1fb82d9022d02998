"""Shared fixtures: small domains and quadratures used across the suite,
and the reference checks that more than one test module runs."""

import os
from pathlib import Path

import numpy as np
import pytest

from affinebv import GridFunction, GridSpec, make_mask, make_quadrature


def ellipse_domain(grid, matrix):
    """The ellipse ``A(unit disk)`` centered in a grid 1.3 times its
    widest half-extent on each side."""
    A = np.asarray(matrix, dtype=float)
    hw = float(np.sqrt(np.diag(A @ A.T)).max()) * 1.3
    spec = GridSpec(dim=2, shape=(grid, grid), spacing=2 * hw / grid,
                    origin=(-hw, -hw))
    mask = make_mask(spec, {"shape": "ellipsoid", "center": [0.0, 0.0],
                            "matrix": A.tolist()})
    return spec, mask


def aligned_square(n):
    """Unit square [0,1]^2 whose edges land exactly on cell boundaries."""
    spec = GridSpec(dim=2, shape=(n, n), spacing=2.0 / n, origin=(-0.5, -0.5))
    mask = make_mask(spec, {"shape": "box",
                            "extents": [[0.0, 1.0], [0.0, 1.0]]})
    return spec, mask


@pytest.fixture(scope="session")
def square64():
    """Unit square [0,1]^2, grid-aligned, in a 64x64 grid with margin."""
    return aligned_square(64)


@pytest.fixture(scope="session")
def disk64():
    """Unit disk centered in a 64x64 grid with margin."""
    spec = GridSpec(dim=2, shape=(64, 64), spacing=2.6 / 64,
                    origin=(-1.3, -1.3))
    mask = make_mask(spec, {"shape": "ball", "center": [0.0, 0.0],
                            "radius": 1.0})
    return spec, mask


@pytest.fixture(scope="session")
def quad128():
    return make_quadrature(2, 128)


@pytest.fixture(scope="session")
def quad512():
    return make_quadrature(2, 512)


@pytest.fixture
def one_cpu(monkeypatch):
    """One CPU to run on, so every task of a fork map (a solve's starts, a
    verify run's suites) runs in this process and call counters in it see
    them all."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    that a child interpreter imports the package under test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def indicator(spec, mask):
    return GridFunction(spec, mask.inside.astype(float))


def random_field(spec, mask, seed=0, smooth=None):
    """Random values on the inside cells, optionally mollified."""
    from affinebv import mollify

    rng = np.random.default_rng(seed)
    vals = np.where(mask.inside, rng.normal(size=spec.shape), 0.0)
    u = GridFunction(spec, vals)
    if smooth:
        u = mollify(u, smooth * spec.spacing)
        u = u.with_values(np.where(mask.inside, u.values, 0.0))
    return u


def mr_residual(vals, m, r, cell_volume):
    """g(m) = sum |vals - m|^(r-1) (vals - m) * cell_volume, the residual
    whose root m_r_vector finds."""
    d = vals - m
    return float(np.sum(np.abs(d) ** (r - 1.0) * d) * cell_volume)


def check_gradient(prob, x, delta, n_coords=20, rng=None):
    """Central-difference check of the analytic gradient of a
    ``SmoothedProblem`` on random coordinates, step
    ``1e-6 max(1, max|x|)``; returns the worst (abs_error, tolerance) pair."""
    rng = rng or np.random.default_rng(0)
    _, g, _ = prob.value_and_gradient(x, delta)
    gn = float(np.linalg.norm(g))
    tol = max(1e-5, 1e-4 * gn)
    eps = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    coords = rng.choice(prob.n_var, size=min(n_coords, prob.n_var), replace=False)
    worst = 0.0
    for c in coords:
        xp = x.copy()
        xp[c] += eps
        xm = x.copy()
        xm[c] -= eps
        fd = (prob.value(xp, delta) - prob.value(xm, delta)) / (2 * eps)
        worst = max(worst, abs(fd - g[c]))
    return worst, tol
