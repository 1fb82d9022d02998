"""Numerical laboratory for the affine BV energy on grid-discretized fields."""

__version__ = "0.1.0"

from .energy import (
    EnergyBreakdown,
    EnergyConstants,
    SphereQuadrature,
    affine_energy_boundary,
    affine_energy_extended,
    affine_energy_interior,
    constants,
    energy_from_psi,
    make_quadrature,
)
from .errors import AffineBVError, ConfigError, GridError, ShapeError
from .functionals import (
    ConstraintSpec,
    Weights,
    m_r_solve,
    phi_affine,
    project_constraint,
    truncate,
)
from .grid import (
    DomainMask,
    GridFunction,
    GridSpec,
    extract_trace,
    lq_norm,
    make_mask,
    mollify,
    resample_affine,
    zero_extend,
)
from .minimize import (
    MinimizeConfig,
    MinimizeResult,
    check_critical_threshold,
    minimize_level,
    sl_n_minimize_tv,
)
from .oracle import EllipsoidBody, PolygonBody, energy_body, psi_ellipsoid, psi_polygon
from .variation import (
    VariationAtoms,
    compute_atoms,
    covariance,
    total_variation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
