"""Shared fixtures: small domains and quadratures used across the suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from affinebv import GridFunction, GridSpec, make_mask, make_quadrature


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
