"""Closed-form body oracles and their mandatory self-checks."""

import numpy as np
import pytest

from affinebv import constants
from affinebv.errors import AffineBVError, ShapeError
from affinebv.oracle import (
    EllipsoidBody,
    PolygonBody,
    energy_body,
    psi_ellipsoid,
    psi_polygon,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def psi_ellipsoid_quadrature(body, xi, n_samples=200_000, rng=None):
    """Dense boundary quadrature of the integral ``psi_ellipsoid`` closes.

    Parametrizes the boundary as A(s) over the unit sphere; the surface
    element is |det A| |A^{-T} s| dS and the normal is A^{-T}s / |A^{-T}s|.
    """
    xi = np.asarray(xi, dtype=float)
    n = body.dim
    A = body.matrix
    AinvT = np.linalg.inv(A).T
    if n == 2:
        t = (np.arange(n_samples) + 0.5) * (2 * np.pi / n_samples)
        s = np.stack([np.cos(t), np.sin(t)], axis=1)
        dS = 2 * np.pi / n_samples
    else:
        rng = rng or np.random.default_rng(0)
        s = rng.normal(size=(n_samples, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        dS = 4 * np.pi / n_samples
    g = s @ AinvT.T
    return float(abs(np.linalg.det(A)) * np.sum(np.abs(g @ xi)) * dS)


def self_check(n_bodies=50, dim=2, seed=7, rtol=1e-6):
    """Validate the ellipsoid closed form against dense boundary quadrature
    on random matrices; raises on disagreement."""
    rng = np.random.default_rng(seed)
    for _ in range(n_bodies):
        A = rng.normal(size=(dim, dim))
        while abs(np.linalg.det(A)) < 0.1:
            A = rng.normal(size=(dim, dim))
        body = EllipsoidBody(dim=dim, matrix=A)
        xi = rng.normal(size=dim)
        xi /= np.linalg.norm(xi)
        closed = psi_ellipsoid(body, xi)
        dense = psi_ellipsoid_quadrature(body, xi, rng=rng)
        tol = rtol if dim == 2 else 5e-3  # MC quadrature in 3D
        if abs(closed - dense) > tol * abs(closed):
            raise AffineBVError(
                f"ellipsoid oracle self-check failed: {closed} vs {dense}"
            )
    return True


def unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


class TestPolygon:
    def test_square_axis(self):
        body = PolygonBody(UNIT_SQUARE)
        assert psi_polygon(body, unit(0.0)) == pytest.approx(2.0, rel=1e-14)

    def test_square_diagonal(self):
        body = PolygonBody(UNIT_SQUARE)
        assert psi_polygon(body, unit(np.pi / 4)) == pytest.approx(
            2 * np.sqrt(2), rel=1e-14)

    @pytest.mark.parametrize("theta", [0.2, 0.9, 2.1, 4.4])
    def test_square_closed_form(self, theta):
        body = PolygonBody(UNIT_SQUARE)
        expected = 2 * (abs(np.cos(theta)) + abs(np.sin(theta)))
        assert psi_polygon(body, unit(theta)) == pytest.approx(
            expected, rel=1e-13)

    def test_even(self):
        tri = PolygonBody(np.array([[0.0, 0], [2, 0], [0.5, 1.5]]))
        xi = unit(1.0)
        assert psi_polygon(tri, xi) == pytest.approx(
            psi_polygon(tri, -xi), rel=1e-14)

    def test_clockwise_rejected(self):
        with pytest.raises(ShapeError):
            PolygonBody(UNIT_SQUARE[::-1])

    def test_edges_close_up(self):
        body = PolygonBody(np.array([[0.0, 0], [3, 0], [3, 1], [0, 1]]))
        lens, normals = body.edges()
        assert np.allclose((lens[:, None] * normals).sum(axis=0), 0.0,
                           atol=1e-13)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


class TestEllipsoid:
    def test_disk_constant_psi(self):
        disk = EllipsoidBody(dim=2, matrix=np.eye(2))
        for theta in np.linspace(0, np.pi, 5):
            assert psi_ellipsoid(disk, unit(theta)) == pytest.approx(
                4.0, rel=1e-14)

    def test_ellipse_axis_extent(self):
        body = EllipsoidBody(dim=2, matrix=np.diag([2.0, 0.5]))
        # projection onto the x-axis sees the y-extent, doubled
        assert psi_ellipsoid(body, np.array([1.0, 0.0])) == pytest.approx(
            2.0, rel=1e-14)

    def test_ball_3d(self):
        ball = EllipsoidBody(dim=3, matrix=np.eye(3))
        xi = np.array([0.0, 0.0, 1.0])
        assert psi_ellipsoid(ball, xi) == pytest.approx(2 * np.pi, rel=1e-14)

    def test_closed_form_matches_surface_quadrature(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(2, 2))
        A /= abs(np.linalg.det(A)) ** 0.5
        body = EllipsoidBody(dim=2, matrix=A)
        xi = unit(0.8)
        assert psi_ellipsoid(body, xi) == pytest.approx(
            psi_ellipsoid_quadrature(body, xi), rel=1e-6)

    def test_singular_rejected(self):
        with pytest.raises(ShapeError):
            EllipsoidBody(dim=2, matrix=np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestEnergyBody:
    def test_square(self):
        e = energy_body(PolygonBody(UNIT_SQUARE))
        assert e == pytest.approx(constants(2).alpha, rel=1e-6)

    def test_square_strictly_below_perimeter(self):
        assert energy_body(PolygonBody(UNIT_SQUARE)) < 4.0

    def test_disk(self):
        e = energy_body(EllipsoidBody(dim=2, matrix=np.eye(2)))
        assert e == pytest.approx(2 * np.pi, rel=1e-6)

    def test_det_one_ellipse(self):
        e = energy_body(EllipsoidBody(dim=2, matrix=np.diag([2.0, 0.5])))
        assert e == pytest.approx(2 * np.pi, rel=1e-6)

    def test_general_ellipsoid_closed_form(self):
        rng = np.random.default_rng(9)
        c = constants(2)
        for _ in range(5):
            A = rng.normal(size=(2, 2))
            if abs(np.linalg.det(A)) < 0.1:
                continue
            body = EllipsoidBody(dim=2, matrix=A)
            expected = (2 * np.pi ** 0.5
                        * (np.pi * abs(np.linalg.det(A))) ** 0.5)
            assert energy_body(body) == pytest.approx(expected, rel=1e-4)
        del c

    def test_ball_3d(self):
        e = energy_body(EllipsoidBody(dim=3, matrix=np.eye(3)))
        assert e == pytest.approx(4 * np.pi, rel=1e-4)

    def test_sharpness_ratio(self):
        # energy / ||chi||_{n/(n-1)} = n omega_n^{1/n} at ellipsoids
        body = EllipsoidBody(dim=2, matrix=np.diag([1.5, 0.8]))
        area = np.pi * 1.5 * 0.8
        ratio = energy_body(body) / area ** 0.5
        assert ratio == pytest.approx(constants(2).sharp_sobolev, rel=1e-4)


class TestSelfCheck:
    def test_2d(self):
        assert self_check(n_bodies=50, dim=2, rtol=1e-6)

    def test_3d(self):
        assert self_check(n_bodies=10, dim=3, rtol=5e-3)
