"""The affine functional, constraint sets, and truncations.

``phi_affine`` is the affine energy of the zero extension plus the
weighted bulk and boundary terms of :class:`Weights`.  Constraint sets:

* X: unit L^q sphere over the domain;
* Y: X intersected with the generalized-mean orthogonality
  ``sum |u - s|^(r-1) (u - s) = 0`` at s = 0;
* zero-trace variants clamp the outermost inside-cell layer to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import affine_energy_extended
from .errors import AffineBVError, ConfigError, GridError
from .grid import GridFunction, _check_same_grid, check_finite, extract_trace, lq_vector

# m_r Newton solve: relative residual accepted once the step is resolved;
# passes before it reports exhaustion
MR_TOL = 1e-10
MR_MAX_ITER = 200
# Y projection: both residuals below this, within this many rounds
PROJECTION_TOL = 1e-8
PROJECTION_MAX_ROUNDS = 100


@dataclass
class Weights:
    """Bounded weights: ``a`` per inside cell, ``b >= 0`` per boundary
    face.  Scalars broadcast."""

    a: float | np.ndarray = 0.0
    b: float | np.ndarray = 0.0

    def __post_init__(self):
        if np.any(np.asarray(self.b) < 0):
            raise AffineBVError("negative boundary weight")

    def bulk_term(self, u, mask):
        vals = np.abs(u.values[mask.inside])
        return float(np.sum(np.asarray(self.a) * vals) * mask.spec.cell_volume)

    def boundary_term(self, u, mask):
        tr = extract_trace(u, mask)
        return float(np.sum(np.asarray(self.b) * np.abs(tr.values) * tr.areas))


@dataclass(frozen=True)
class ConstraintSpec:
    """Which constraint set a minimization runs over."""

    q: float
    kind: str = "X"            # "X" or "Y"
    r: float = 1.0             # Y only
    zero_trace: bool = False   # X0 / Y0 variants

    def __post_init__(self):
        if self.kind not in ("X", "Y"):
            raise ConfigError(f"constraint kind must be X or Y, got {self.kind}")
        if not (1 <= self.q < math.inf and 1 <= self.r < math.inf):
            raise ConfigError(f"exponents must be finite and >= 1, got "
                              f"q={self.q}, r={self.r}")

    def is_critical(self, dim):
        return abs(self.q - dim / (dim - 1.0)) < 1e-12


@dataclass(frozen=True)
class TruncationPair:
    """Split u = T_h u + R_h u with |T_h u| <= h, exact pointwise."""

    truncated: GridFunction
    remainder: GridFunction


def truncate(u, h):
    if not h > 0:
        raise AffineBVError(f"truncation level must be > 0, got {h}")
    t = np.clip(u.values, -h, h)
    return TruncationPair(truncated=u.with_values(t),
                          remainder=u.with_values(u.values - t))


def phi_affine(u, mask, weights, quadrature, backend):
    """Affine energy of the zero extension plus the weight terms."""
    e = affine_energy_extended(u, mask, backend, quadrature)
    return (e.value
            + weights.bulk_term(u, mask)
            + weights.boundary_term(u, mask))


def _mr_residual(vals, m, r, cell_volume):
    d = vals - m
    return float(np.sum(np.abs(d) ** (r - 1.0) * d) * cell_volume)


def m_r_solve(u, mask, r):
    """The unique m with ``g(m) = sum |u - m|^(r-1) (u - m) h^n = 0`` over
    the inside cells: :func:`m_r_vector` on their values."""
    return m_r_vector(u.values[mask.inside], r, mask.spec.cell_volume)[0]


def m_r_vector(vals, r, cell_volume):
    """``(m, converged)`` for the root m of ``g(m) = sum |vals - m|^(r-1)
    (vals - m) * cell_volume``.

    For r > 1, g is strictly decreasing with ``g'(m) = -r * scale``, where
    ``scale = sum |vals - m|^(r-1) * cell_volume``, so one pass over the
    values gives both g and a Newton step.  The iteration starts at the mean
    inside the bracket [min, max]; each residual's sign shrinks the bracket,
    and a step that leaves the open bracket is replaced by bisection, so the
    iterates never leave it.  The location is resolved once the Newton step
    is at most 1e-13 of the value span or 4 ulp of m, whichever is larger.
    Returns m when it is resolved and ``|g| <= MR_TOL * scale``, when it is
    resolved at two passes in a row (the residual, which is not
    scale-invariant, is then at its rounding floor), or when g = 0 exactly;
    after ``MR_MAX_ITER`` passes returns the last iterate with ``converged``
    False.  For r = 1 this is the mean.
    """
    if r < 1:
        raise AffineBVError(f"r must be >= 1, got {r}")
    if vals.size == 0:
        raise GridError("empty mask")
    if r == 1.0:
        return float(np.mean(vals)), True
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return lo, True
    span = hi - lo
    m = float(np.mean(vals))
    resolved = False
    for _ in range(MR_MAX_ITER):
        d = vals - m
        p = np.abs(d) ** (r - 1.0)
        # the same arithmetic as _mr_residual, so the contract holds for it
        g = float(np.sum(p * d) * cell_volume)
        # exact root; also avoids 0/0 when every |u - m|^(r-1) underflows
        if g == 0.0:
            return m, True
        scale = float(np.sum(p) * cell_volume)
        step = g / (r * scale)
        was_resolved = resolved
        resolved = abs(step) <= max(1e-13 * span, 4.0 * math.ulp(m))
        if resolved and (was_resolved or abs(g) <= MR_TOL * max(scale, 1e-300)):
            return m, True
        if g > 0:
            lo = m
        else:
            hi = m
        m += step
        if not lo < m < hi:
            m = 0.5 * (lo + hi)
    return m, False


def rim_cells(mask):
    """Boolean field marking inside cells adjacent to the boundary."""
    rim = np.zeros(mask.spec.shape, dtype=bool)
    np.put(rim, mask.face_cells, True)
    return rim


def rim_positions(mask):
    """Positions of the rim cells in the inside-cell vector (C order)."""
    return np.flatnonzero(rim_cells(mask)[mask.inside])


def clamp_rim(u, mask):
    """Zero the outermost inside-cell layer (discrete zero trace)."""
    return u.with_values(np.where(rim_cells(mask), 0.0, u.values))


@dataclass
class ProjectionResult:
    u: GridFunction   # project_vector: the inside-cell vector
    converged: bool
    norm_residual: float
    orth_residual: float
    rounds: int


def project_constraint(u, spec, mask):
    """Restore membership in X or Y (and the zero-trace variants):
    :func:`project_vector` on the inside-cell values, zero outside."""
    _check_same_grid(u, mask)
    rim = rim_positions(mask) if spec.zero_trace else None
    res = project_vector(u.values[mask.inside], spec, mask.spec.cell_volume, rim)
    vals = np.zeros(mask.spec.shape)
    vals[mask.inside] = res.u
    res.u = u.with_values(vals)
    return res


def project_vector(x, spec, cell_volume, rim):
    """Project the inside-cell values ``x`` onto X or Y; ``rim`` holds the
    positions of the rim cells in ``x``, zeroed for the zero-trace variants
    (None for the others).

    X: scale to unit L^q norm.  Y: alternate subtracting the m_r shift and
    renormalizing until both residuals fall below ``PROJECTION_TOL``;
    non-convergence, of the rounds or of an m_r solve, is flagged, never
    silent.  Non-finite values raise :class:`GridError`.
    """
    v = check_finite(x)
    if spec.zero_trace:
        v = v.copy()
        v[rim] = 0.0
    norm = lq_vector(v, spec.q, cell_volume)
    if norm == 0.0:
        raise AffineBVError("cannot project the zero field onto the constraint set")
    if spec.kind == "X":
        v = check_finite(v / norm)
        return ProjectionResult(v, True, abs(lq_vector(v, spec.q, cell_volume) - 1.0),
                                0.0, 0)
    s, solved = m_r_vector(v, spec.r, cell_volume)
    for rounds in range(1, PROJECTION_MAX_ROUNDS + 1):
        v = check_finite(v - s)
        if spec.zero_trace:
            v[rim] = 0.0
        norm = lq_vector(v, spec.q, cell_volume)
        if norm == 0.0:
            raise AffineBVError("field collapsed to zero during Y projection")
        v = check_finite(v / norm)
        # the check's shift is the next round's shift
        s, ok = m_r_vector(v, spec.r, cell_volume)
        solved = solved and ok
        orth = abs(s)
        nrm = abs(lq_vector(v, spec.q, cell_volume) - 1.0)
        scale = max(float(np.max(np.abs(v))), 1e-300)
        if orth <= PROJECTION_TOL * scale and nrm <= PROJECTION_TOL:
            return ProjectionResult(v, solved, nrm, orth, rounds)
    return ProjectionResult(v, False, nrm, orth, PROJECTION_MAX_ROUNDS)
