"""Discrete vector measure of a field: variation atoms and their reductions.

An atom set represents the measure Du of a grid field as a finite list of
vectors: each atom's mass is its norm, its direction the unit vector.  Two
backends:

* ``face-atoms``: one atom per interior face (jump times face area).  Exact
  for axis-aligned indicators; with boundary atoms included on an
  axis-normal mask (box, polygon) the discrete zero-extension identity
  holds exactly.
* ``cell-gradient``: one atom per inside cell (finite-difference gradient
  times cell volume).  Consistent for smooth fields and the default for
  optimization; overestimates oblique directional variation on unmollified
  jumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import GridError
from .grid import _check_same_grid, row_norms

FACE_ATOMS = "face-atoms"
CELL_GRADIENT = "cell-gradient"

# below this mass an atom has no well-defined direction and is dropped
ATOM_ELISION = 1e-30
# atom-direction products per dense 3D Psi block, bounding the working set
PSI_BLOCK = 1 << 22


@dataclass
class VariationAtoms:
    """Finite list of vectors representing Du; positions are not retained."""

    dim: int
    atoms: np.ndarray          # (N, dim)
    backend: str
    source: str = "interior"   # interior / boundary / extended
    _masses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float).reshape(-1, self.dim)
        mass = row_norms(a)
        check_finite_atoms(a, mass)
        keep = mass >= ATOM_ELISION
        if not keep.all():
            a, mass = a[keep], mass[keep]
        self.atoms = a
        self._masses = mass

    def __len__(self):
        return len(self.atoms)

    def masses(self):
        """Atom norms, computed once at construction."""
        return self._masses

    def transformed(self, T):
        """Atoms of u o T for det-1 T: each v becomes T^T v."""
        return VariationAtoms(
            dim=self.dim,
            atoms=self.atoms @ np.asarray(T, dtype=float),
            backend=self.backend,
            source=self.source,
        )


def check_finite_atoms(components, masses):
    """Raise :class:`GridError` if an atom component is non-finite.  Finite
    components above about 1e154 overflow their mass to inf, so only where
    a mass is non-finite do the components decide."""
    if not np.isfinite(masses).all() and not np.isfinite(components).all():
        raise GridError("atoms contain non-finite components")


def _boundary_rows(values, normals, areas):
    """Atoms of the jump of the zero extension across boundary faces."""
    return -values[:, None] * normals * areas[:, None]


class AtomStencil:
    """The variation atoms of a field on a mask as linear forms in its cell
    values, over flat grid indices: applied to cell values it gives the atoms
    (:meth:`apply`), to the inside-cell numbering :attr:`rank` the columns of
    the atom operator (:meth:`operator`).

    For ``(rows, lo, step)`` in ``interior[d]``, component ``d`` of atom
    ``rows[k]`` is ``h**(n-1) * (f[lo[k] + step] - f[lo[k]])``: a face jump,
    or for the cell gradient (times the cell volume) the forward difference,
    else the backward one, else 0.  Boundary face ``k`` adds atom
    ``n_interior + k``: ``-f[cell] * normal * area``.  Its mask keeps it
    (:meth:`~affinebv.grid.DomainMask.stencil`), so it stores ``lo`` alone.

    Every interior face atom is a jump along one axis, ``v = |v_d| e_d`` up
    to sign.  Psi, the covariance and the total variation are sums over the
    atoms, and such an atom adds ``|xi_d| |v_d|``, ``|v_d| e_d e_d^T`` and
    ``|v_d|`` to them: the face-atom energies need only the summed mass per
    axis (:meth:`axis_mass`), not the atoms.
    """

    def __init__(self, mask, backend):
        if backend not in (FACE_ATOMS, CELL_GRADIENT):
            raise GridError(f"unknown backend {backend!r}")
        spec = mask.spec
        inside = self.inside = mask.inside
        self.dim = spec.dim
        self.scale = spec.face_area
        self.n_inside = mask.n_inside
        rank = self.rank if backend == CELL_GRADIENT else None
        self.interior = []
        n = 0
        for d in range(self.dim):
            # inside cells are off the grid edge: roll never wraps onto one
            fwd_ok = inside & np.roll(inside, -1, axis=d)
            fwd = np.flatnonzero(fwd_ok)
            step = int(np.prod(spec.shape[d + 1:]))
            if backend == FACE_ATOMS:
                self.interior.append((slice(n, n + len(fwd)), fwd, step))
                n += len(fwd)
                continue
            # cells with a backward but no forward inside neighbor
            end = fwd[~fwd_ok.ravel()[fwd + step]] + step
            self.interior.append((rank[np.r_[fwd, end]], np.r_[fwd, end - step], step))
        self.n_interior = n if backend == FACE_ATOMS else self.n_inside
        self.n_rows = self.n_interior + mask.n_faces
        self.face_cells, self.normals = mask.face_cells, mask.normals
        self.areas = mask.face_areas()

    def apply(self, values):
        """Atom components ``(n_rows, dim)`` of the field with these cell
        values (grid-shaped)."""
        f = np.asarray(values, dtype=float).ravel()
        out = np.zeros((self.n_rows, self.dim))
        for d, (rows, lo, step) in enumerate(self.interior):
            out[rows, d] = (f[step:][lo] - f[lo]) * self.scale   # f[lo + step]
        out[self.n_interior:] = _boundary_rows(f[self.face_cells], self.normals,
                                               self.areas)
        return out

    def axis_mass(self, f):
        """Summed interior atom mass along each axis, ``(dim,)``, of the flat
        cell values ``f`` on a face-atom stencil: the atoms' masses after
        the same finiteness check and elision as :class:`VariationAtoms`."""
        out = np.empty(self.dim)
        for d, (_, lo, step) in enumerate(self.interior):
            jump = np.abs(f[step:][lo] - f[lo])
            jump *= self.scale
            jump[jump < ATOM_ELISION] = 0.0
            out[d] = jump.sum()
            check_finite_atoms(jump, out[d])
        return out

    @property
    def rank(self):
        """C-order number of each inside cell (meaningless outside)."""
        return np.cumsum(self.inside.ravel()) - 1

    def operator(self):
        """One sparse ``(n_rows, n_inside)`` matrix per component, mapping
        the inside-cell values ``x[rank[c]] = f[c]`` to that component of
        the atoms."""
        mats, rank, all_rows = [], self.rank, np.arange(self.n_rows)
        for d, (rows, lo, step) in enumerate(self.interior):
            rows = all_rows[rows]
            r, c = [rows, rows], [rank[lo + step], rank[lo]]
            v = [np.full(len(rows), self.scale), np.full(len(rows), -self.scale)]
            coef = -self.normals[:, d] * self.areas
            nz = np.flatnonzero(coef)
            r.append(self.n_interior + nz)
            c.append(rank[self.face_cells[nz]])
            v.append(coef[nz])
            mats.append(sparse.csr_matrix(
                (np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                shape=(self.n_rows, self.n_inside)))
        return mats


def compute_atoms(u, mask, backend, include_boundary=False):
    """Atomize the variation measure of ``u`` with ``mask.stencil(backend)``."""
    _check_same_grid(u, mask)
    stencil = mask.stencil(backend)
    atoms = stencil.apply(u.values)
    if not include_boundary:
        atoms = atoms[:stencil.n_interior]
    return VariationAtoms(dim=mask.spec.dim, atoms=atoms, backend=backend,
                          source="extended" if include_boundary else "interior")


def face_atom_sums(u, mask, include_boundary):
    """The face atoms of ``u`` as the energy needs them: the summed interior
    mass per axis (:meth:`AtomStencil.axis_mass`) and the boundary atoms,
    ``None`` unless ``include_boundary``."""
    _check_same_grid(u, mask)
    stencil = mask.stencil(FACE_ATOMS)
    f = np.asarray(u.values, dtype=float).ravel()
    boundary = None
    if include_boundary:
        v = _boundary_rows(f[stencil.face_cells], stencil.normals, stencil.areas)
        boundary = VariationAtoms(dim=mask.spec.dim, atoms=v, backend=FACE_ATOMS,
                                  source="boundary")
    return stencil.axis_mass(f), boundary


def atoms_from_trace(trace, mask):
    """Boundary atoms of the (K,) trace values on the faces of ``mask``
    (:func:`~affinebv.grid.extract_trace`), with its normals and areas."""
    v = _boundary_rows(trace, mask.normals, mask.face_areas())
    return VariationAtoms(dim=mask.spec.dim, atoms=v, backend="trace",
                          source="boundary")


def total_variation(atoms):
    """Sum of atom masses."""
    return float(np.sum(atoms.masses()))


def _fold(v):
    """Rows of ``v`` (n, 2) turned by pi where needed so that their angle,
    returned alongside, lies in [0, pi); |v . xi| is unchanged."""
    flip = (v[:, 1] < 0) | ((v[:, 1] == 0) & (v[:, 0] < 0))
    v = np.where(flip[:, None], -v, v)
    return v, np.arctan2(v[:, 1], v[:, 0])


def axis_psi(directions, axis_mass):
    """Psi of atoms along the coordinate axes, ``sum_d |xi_d| * axis_mass[d]``
    for each direction, where ``axis_mass[d]`` sums ``|v_d|`` over the atoms
    along axis ``d``."""
    return np.abs(directions) @ axis_mass


def psi_samples(atoms, directions):
    """Psi_xi = sum_i |v_i . xi| for a batch of directions, shape (M,), exact
    up to rounding.  The directions need not be unit vectors: Psi is
    1-homogeneous, Psi_(t xi) = |t| Psi_xi, and every step below is exact
    for any xi.

    * Atoms with one nonzero component (interior face atoms, axis-normal
      boundary atoms, 2D cell gradients with a zero difference) add
      ``|xi_d| * sum |v_d|`` per axis ``d``.
    * The other 2D atoms are folded to angles in [0, pi) and sorted once.
      The line orthogonal to xi splits them into two angular runs on each of
      which ``v . xi`` keeps its sign, so with prefix sums P the run sums are
      ``|P_k . xi|`` and ``|(P_N - P_k) . xi|``: O((N + M) log N) in all.
    * Only the other 3D atoms go through the dense product, chunked over
      atoms so that a block holds at most ``PSI_BLOCK`` products.
    """
    D = np.asarray(directions, dtype=float).reshape(-1, atoms.dim)
    v = atoms.atoms
    cols = [v[:, d] for d in range(atoms.dim)]
    axis = sum((c != 0).astype(np.int8) for c in cols) == 1
    out = axis_psi(D, np.array([np.abs(c[axis]).sum() for c in cols]))
    v = v[~axis]
    if atoms.dim == 2:
        v, phi = _fold(v)
        order = np.argsort(phi)
        P = np.zeros((len(v) + 1, 2))
        np.cumsum(v[order], axis=0, out=P[1:])
        # the runs meet at the angle of xi turned by pi/2
        _, split = _fold(np.stack([-D[:, 1], D[:, 0]], axis=1))
        left = P[np.searchsorted(phi[order], split)]
        right = P[-1] - left
        out += np.abs(left[:, 0] * D[:, 0] + left[:, 1] * D[:, 1])
        out += np.abs(right[:, 0] * D[:, 0] + right[:, 1] * D[:, 1])
        return out
    step = max(1, PSI_BLOCK // max(1, len(D)))
    for i in range(0, len(v), step):
        prod = v[i:i + step] @ D.T
        np.abs(prod, out=prod)
        out += prod.sum(axis=0)
    return out


def covariance(components, masses):
    """M = sum v v^T / |v| over the atoms with components (dim, N) and
    masses (N,), leaving out atoms lighter than ``ATOM_ELISION``: symmetric
    PSD with trace = total variation, and zero for no atoms.

    ``xi^T M xi <= Psi_xi <= sqrt(TV * xi^T M xi)``, so the variation
    vanishes in some direction iff M is rank deficient.
    """
    inv = np.divide(1.0, masses, out=np.zeros_like(masses),
                    where=masses >= ATOM_ELISION)
    return (components * inv) @ components.T


def eigen_ratio(M):
    """Smallest eigenvalue over trace of a variation covariance M; 0 when
    the trace is not positive.  The quadrature-independent degeneracy
    detector."""
    tr = float(np.trace(M))
    if tr <= 0:
        return 0.0
    return float(np.linalg.eigvalsh(M)[0] / tr)


def covariance_eigen_ratio(atoms):
    """:func:`eigen_ratio` of the atoms' covariance; 0 for empty atom sets."""
    return eigen_ratio(covariance(atoms.atoms.T, atoms.masses()))
