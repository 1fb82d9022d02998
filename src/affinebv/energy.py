"""Sharp constants, spherical quadrature, and the three affine energies.

The affine energy of an atom set is

    E = alpha_n * (sum_j w_j Psi_j^(-n))^(-1/n)

over a quadrature of the unit sphere, where Psi_j is the directional
variation in direction xi_j.  The energy vanishes exactly when the variation
has no mass in some direction; the covariance rank test detects this
independently of the quadrature.

Every interior face atom is a jump along one axis, so the face-atom
energies take the interior atoms as their summed mass P per axis: they add
|xi_d| P_d to Psi, diag(P) to the covariance and sum P to the total
variation (:class:`~affinebv.variation.AtomStencil`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma

from .errors import AffineBVError, ConfigError
from .variation import (
    FACE_ATOMS,
    atoms_from_trace,
    axis_psi,
    compute_atoms,
    covariance,
    covariance_eigen_ratio,
    eigen_ratio,
    face_atom_sums,
    psi_samples,
    total_variation,
)

# relative Psi-floor below which the quadrature value is meaningless and the
# true energy is 0 (vanishing characterization)
DEGENERACY_EPS = 1e-8
COV_EIGEN_EPS = 1e-12
PSI_CLAMP = 1e-300


def unit_ball_volume(k):
    """omega_k, volume of the unit ball in R^k (omega_0 = 1)."""
    return math.pi ** (k / 2) / gamma(k / 2 + 1)


@dataclass(frozen=True)
class EnergyConstants:
    """Closed-form constants for dimension n."""

    dim: int
    omegas: tuple          # omega_1 .. omega_n
    alpha: float           # normalization of the affine energy
    sharp_sobolev: float   # n * omega_n^(1/n)
    d0: float              # Huang-Li constant

    @property
    def omega_n(self):
        return self.omegas[-1]

    def as_dict(self):
        return {
            "dim": self.dim,
            **{f"omega_{k + 1}": w for k, w in enumerate(self.omegas)},
            "alpha_n": self.alpha,
            "sharp_sobolev": self.sharp_sobolev,
            "d0": self.d0,
        }


@functools.cache
def constants(n):
    """Evaluate all closed-form constants for dimension ``n >= 2`` (cached:
    every layer derives them from its grid or quadrature dimension).  A
    dimension whose constants are not all finite floats, as from n = 171 on,
    where ``gamma(n + 1)`` overflows, is a :class:`ConfigError`."""
    if n < 2:
        raise AffineBVError(f"dimension must be >= 2, got {n}")
    try:
        # an overflow is rejected below, not warned about
        with np.errstate(all="ignore"):
            omegas = tuple(unit_ball_volume(k) for k in range(1, n + 1))
            alpha = (2 * omegas[n - 2]) ** (-1.0) * (n * omegas[n - 1]) ** (1.0 + 1.0 / n)
            sharp = n * omegas[n - 1] ** (1.0 / n)
            d0 = (
                0.25 * math.pi * gamma((n + 1) / 2)
                * gamma(n + 1.0) ** (1.0 / n)
                * gamma(n / 2 + 1.0) ** (-1.0 / n - 1.0)
            )
        finite = all(map(math.isfinite, (*omegas, alpha, sharp, d0)))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"the constants of dimension {n} are not finite floats")
    return EnergyConstants(dim=n, omegas=omegas, alpha=float(alpha),
                           sharp_sobolev=float(sharp), d0=float(d0))


@dataclass(frozen=True)
class SphereQuadrature:
    """Antipodally paired direction/weight pairs on S^(n-1): the second half
    of the directions is the exact negative of the first."""

    dim: int
    directions: np.ndarray   # (M, dim) unit vectors
    weights: np.ndarray      # (M,) positive, summing to the sphere area

    @property
    def size(self):
        return len(self.weights)

    @property
    def half(self):
        """One direction per antipodal pair with doubled weight; integrates
        every even function (such as Psi) as the full set does."""
        k = self.size // 2
        return SphereQuadrature(dim=self.dim, directions=self.directions[:k],
                                weights=self.weights[:k] * 2.0)

    def integrate(self, samples):
        return float(np.dot(self.weights, samples))


def make_quadrature(n, M):
    """Equispaced angles for n=2; antipodally symmetrized Fibonacci sphere
    for n=3.  ``M`` must be even and >= 4."""
    if M < 4 or M % 2 != 0:
        raise ConfigError(f"direction count must be even and >= 4, got {M}")
    if n == 2:
        # half circle plus exact mirror: keeps the antipodal pairing
        # bit-exact, which even-integrand evaluations exploit
        theta = 2 * math.pi * np.arange(M // 2) / M
        half = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        dirs = np.concatenate([half, -half])
        w = np.full(M, 2 * math.pi / M)
    elif n == 3:
        half = M // 2
        k = np.arange(half)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        # open hemisphere in z to avoid duplicating equatorial points
        z = (k + 0.5) / half
        rho = np.sqrt(1.0 - z ** 2)
        pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        dirs = np.concatenate([pts, -pts])
        w = np.full(M, 4 * math.pi / M)
    else:
        raise ConfigError(f"quadrature supports n in {{2, 3}}, got {n}")
    return SphereQuadrature(dim=n, directions=dirs, weights=w)


@dataclass
class EnergyBreakdown:
    """Energy value plus the per-direction diagnostics behind it."""

    value: float
    psi: np.ndarray            # one per evaluated direction
    degenerate: bool
    backend: str = ""
    quadrature_size: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def psi_min(self):
        return float(np.min(self.psi)) if len(self.psi) else 0.0

    @property
    def psi_max(self):
        return float(np.max(self.psi)) if len(self.psi) else 0.0

    def as_dict(self):
        return {
            "value": self.value,
            "degenerate": self.degenerate,
            "psi_min": self.psi_min,
            "psi_max": self.psi_max,
            "backend": self.backend,
            "quadrature_size": self.quadrature_size,
            **self.meta,
        }


def energy_from_psi(psi, quadrature):
    """Assemble the energy from per-direction variation samples."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi < 0):
        raise AffineBVError("negative directional-variation sample")
    pmax = psi.max(initial=0.0)
    if pmax == 0.0 or psi.min() <= max(DEGENERACY_EPS * pmax, PSI_CLAMP):
        return EnergyBreakdown(value=0.0, psi=psi, degenerate=True,
                               quadrature_size=quadrature.size)
    n = quadrature.dim
    # psi ** -n overflows at the same psi; the exp/log form stays because
    # the reported energies carry its rounding
    log_psi = np.log(psi)
    s = quadrature.integrate(np.exp(-n * log_psi))
    value = constants(n).alpha * s ** (-1.0 / n)
    return EnergyBreakdown(value=float(value), psi=psi, degenerate=False,
                           quadrature_size=quadrature.size)


def _breakdown(psi, eig, tv, quadrature, backend, source):
    """Energy from Psi on ``quadrature.half``, with the covariance eigen
    ratio ``eig`` forcing the vanishing value."""
    out = energy_from_psi(psi, quadrature.half)
    out.quadrature_size = quadrature.size
    if eig < COV_EIGEN_EPS:
        # rank test is primary: force the vanishing value
        out.value = 0.0
        out.degenerate = True
    out.backend = backend
    out.meta = {"source": source, "tv": tv}
    return out


def energy_of_atoms(atoms, quadrature):
    """Energy of an atom set; the breakdown carries the atoms' backend,
    source and total variation."""
    psi = psi_samples(atoms, quadrature.half.directions)
    return _breakdown(psi, covariance_eigen_ratio(atoms), total_variation(atoms),
                      quadrature, atoms.backend, atoms.source)


def energies_under_maps(atoms, maps, quadrature):
    """Energies of the atoms of ``u o T`` for each det-1 map ``T`` in
    ``maps``, given the atoms of ``u``.

    The atoms of ``u o T`` are ``T^T v``, and ``|(T^T v) . xi| = |v . (T xi)|``,
    so their Psi is Psi of the atoms of ``u`` at the directions ``T xi``
    (:func:`~affinebv.variation.psi_samples` takes any directions): one
    :func:`psi_samples` call over the mapped directions of every map.  The
    rank test and the total variation read the mapped atoms themselves."""
    D = quadrature.half.directions
    psi = psi_samples(atoms, np.concatenate([D @ T.T for T in maps]))
    out = []
    for T, p in zip(maps, psi.reshape(len(maps), len(D))):
        mapped = atoms.transformed(T)
        out.append(_breakdown(p, covariance_eigen_ratio(mapped),
                              total_variation(mapped), quadrature,
                              atoms.backend, atoms.source))
    return out


def _face_energy(u, mask, quadrature, source):
    """Energy of the face atoms of ``u``, interior or extended, from their
    per-axis interior mass and the boundary atoms (module docstring)."""
    P, boundary = face_atom_sums(u, mask, include_boundary=source == "extended")
    D = quadrature.half.directions
    psi, M, tv = axis_psi(D, P), np.diag(P), float(P.sum())
    if boundary is not None:
        psi += psi_samples(boundary, D)
        M += covariance(boundary.atoms.T, boundary.masses())
        tv += total_variation(boundary)
    return _breakdown(psi, eigen_ratio(M), tv, quadrature, FACE_ATOMS, source)


def affine_energy_interior(u, mask, backend, quadrature):
    """E_Omega(u): interior atoms only."""
    if backend == FACE_ATOMS:
        return _face_energy(u, mask, quadrature, "interior")
    return energy_of_atoms(compute_atoms(u, mask, backend=backend), quadrature)


def affine_energy_boundary(trace, mask, quadrature):
    """E_dOmega(u-tilde): boundary atoms only, of the trace on ``mask``."""
    return energy_of_atoms(atoms_from_trace(trace, mask), quadrature)


def affine_energy_extended(u, mask, backend, quadrature):
    """E_Rn(u-bar): interior plus boundary atoms of the zero extension."""
    if backend == FACE_ATOMS:
        return _face_energy(u, mask, quadrature, "extended")
    atoms = compute_atoms(u, mask, backend=backend, include_boundary=True)
    return energy_of_atoms(atoms, quadrature)
