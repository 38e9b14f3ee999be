"""solitonlab: curvature computation, verification and classification for
structured 4-dimensional gradient Ricci solitons with harmonic Weyl
curvature (divergence-free Weyl tensor).

The package computes closed-form curvature of block-warped metric ansaetze,
cross-checks it against an independent finite-difference engine on
coordinate grids, integrates the reduced first-order soliton system,
verifies the defining identities, and classifies sampled data into the four
local soliton types (Einstein / plane x surface product / singular steady /
locally conformally flat warped product).
"""

from .classify import TypeVerdict, classify
from .curvature import (CurvatureTable, family_eigenvalues, family_table,
                        family_weyl_sq)
from .errors import DomainError, GridBoundaryError, UnsupportedFamilyError
from .families import (MetricFamily, Profile, SolitonData, broken_family,
                       canonical_family, constant_profile, cylinder_family,
                       family_metric, fiber_profile_eval, flat_family,
                       gaussian_family, log_profile, power_profile,
                       product_family, quadratic_potential, sin_profile,
                       singular_steady_family, sphere_family)
from .fdgrid import CurvatureBundle, MetricGrid, fd_curvature, grid_from_family
from .frames import sym_eigen, sym_eigvals, tensor_norm
from .reduced import (ReducedState, Trajectory, branch_label, integrate, product_state,
                      singular_steady_state, warp3_rhs)
from .verify import (codazzi_residual_closed, hamilton_check, oracle_deviation,
                     soliton_residual)

__version__ = "0.1.0"
