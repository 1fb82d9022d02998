"""Closed-form reference values for polygons and ellipsoids.

These are evaluated independently of the grid pipeline and anchor the
verification suite: per-direction boundary variation of convex bodies and
the resulting affine energies.  ``energy_body`` gates every ellipsoid
energy against its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import constants, energy_from_psi, make_quadrature
from .errors import AffineBVError, ShapeError


@dataclass(frozen=True)
class PolygonBody:
    """Simple closed 2D polygon, counterclockwise vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise ShapeError("polygon needs >= 3 vertices in 2D")
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if area2 <= 0:
            raise ShapeError("polygon must be counterclockwise with positive area")
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self):
        return 2

    def edges(self):
        """(lengths, outward unit normals)."""
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(e, axis=1)
        if np.any(lengths == 0):
            raise ShapeError("degenerate polygon edge")
        t = e / lengths[:, None]
        normals = np.stack([t[:, 1], -t[:, 0]], axis=1)  # CCW -> outward
        return lengths, normals


@dataclass(frozen=True)
class EllipsoidBody:
    """Image of the unit ball under an invertible matrix.  No center: Psi,
    and with it the energy, is translation-invariant."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        if A.shape != (self.dim, self.dim):
            raise ShapeError(f"matrix must be {self.dim}x{self.dim}")
        if abs(np.linalg.det(A)) < 1e-300:
            raise ShapeError("singular ellipsoid matrix")
        object.__setattr__(self, "matrix", A)


def psi_polygon(body, xi):
    """Boundary directional variation of the polygon indicator:
    sum of edge_length * |normal . xi|."""
    xi = np.asarray(xi, dtype=float)
    lengths, normals = body.edges()
    return float(np.sum(lengths * np.abs(normals @ xi)))


def psi_ellipsoid(body, xi):
    """Boundary directional variation of the ellipsoid indicator.

    For the image A(B) of the unit ball, parametrizing the boundary by
    x = A s over the unit sphere turns the integral of |nu . xi| into
    ``|det A| int |s . A^{-1} xi| dS = 2 omega_{n-1} |det A| |A^{-1} xi|``.
    """
    xi = np.asarray(xi, dtype=float)
    n = body.dim
    om = constants(n).omegas[n - 2]
    Ainv = np.linalg.inv(body.matrix)
    return float(2.0 * om * abs(np.linalg.det(body.matrix))
                 * np.linalg.norm(Ainv @ xi))


def psi_body(body, xi):
    if isinstance(body, PolygonBody):
        return psi_polygon(body, xi)
    return psi_ellipsoid(body, xi)


def energy_body(body):
    """Affine energy of the body's indicator from oracle Psi samples over
    4096 (2D) or 8192 (3D) directions.

    For ellipsoids the value is gated against the closed form
    ``n omega_n^(1/n) (omega_n |det A|)^((n-1)/n)`` at 1e-4 relative.
    """
    dim = body.dim
    consts = constants(dim)
    quadrature = make_quadrature(dim, 4096 if dim == 2 else 8192)
    psi = np.array([psi_body(body, xi) for xi in quadrature.directions])
    out = energy_from_psi(psi, quadrature)
    if isinstance(body, EllipsoidBody):
        vol = consts.omega_n * abs(np.linalg.det(body.matrix))
        exact = consts.sharp_sobolev * vol ** ((dim - 1.0) / dim)
        if abs(out.value - exact) > 1e-4 * exact:
            raise AffineBVError(
                f"ellipsoid energy self-check failed: {out.value} vs {exact}"
            )
    return out.value
