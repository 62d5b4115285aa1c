"""Co-circular four-body central configurations.

Compute, certify and classify the critical points of the Newtonian
potential restricted to the normalized cyclic-constraint manifold
{I = 1, P = 0}, recover masses from cyclic shapes, and scan mass space.
"""

from .chart import PCoords, VWPoint, in_region_E, p_to_r, p_to_vw, r_to_p, sample_interior, vw_to_p
from .errors import (CCC4Error, DegeneratePointError, IndeterminateShapeError,
                     InfeasibleShapeError, NonRealizableError,
                     RegionViolationError, UniquenessAlarmError)
from .geometry import (DistanceVector, MassVector, ScalarReport, K_term, Q_term,
                       cayley_menger_H, in_D, is_geometric, moment_I,
                       potential_U, ptolemy_P)
from .inverse import (CyclicShape, MassRecovery, dziobek_lambda,
                      masses_from_shape, recover_masses, shape_to_distances)
from .oracle import (PlanarConfig, UniquenessReport, cartesian_cc_residual,
                     circumradius, embed_cyclic, fd_gradient, fd_hessian,
                     multistart_uniqueness, run_identity_battery)
from .solver import (CertReport, Multipliers, SolveRecord, SolverOptions,
                     a_terms, certify_minimum, classify_cocircular,
                     dziobek_residual, hessian_L, lagrangian_L, minimize_U,
                     principal_minors, recover_multipliers)

__version__ = "0.1.0"
