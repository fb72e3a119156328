"""Numerical toolkit for Fock-space traces on critical lattices.

The package decides whether a value sequence on a critical lattice is the
trace of a Fock-space function, reconstructs the interpolant from its
lattice values, and exercises the supporting machinery: the Weierstrass
sigma function of the square lattice, the rho-geometry of radial doubling
weights, shell-ordered principal-value summation, discrete Cauchy and
Beurling-Ahlfors transforms, and Muckenhoupt disc-ratio probes.
"""

__version__ = "0.1.0"

from .errors import (FockLatticeError, NumericalError, SchemaError,
                     SeparationError)
from .weights import (ApReport, DoublingExponent, WeightProfile, ap_probe,
                      c_gamma_for_rho_origin, choose_N, classical_weight,
                      default_ap_radii, effective_t, estimate_t,
                      laplacian_phi, mu_disc, mu_disc_many, phi,
                      power_weight, rho, rho_many)
from .lattice import (CellGeometry, GridSpec, Lattice, ShellSchedule,
                      SQUARE_SCALE, cell_geometry, explicit_lattice,
                      nearest_index, shells_for, square_lattice, upper_density)
from .multiplier import (BoundsReport, Multiplier, builtin_sigma_multiplier,
                         multiplier_bounds_check, sigma_log, sigma_prime,
                         sigma_weighted_mag, user_multiplier)
from .transforms import (NecessityReport, OperatorNormReport, PvResult,
                         SequenceData, batch_higher, batch_modified_inf,
                         higher_transform, modified_cauchy_inf,
                         necessity_probe, operator_matrix,
                         operator_norm_estimate, potential_LM, pv_sum,
                         taylor_kernel_check)
from .classifier import (BranchInfo, ConditionReport, Margins, TraceData,
                         TraceVerdict, classify, condition, condition_a,
                         select_branch, trajectory_margins)
from .interpolate import (Interpolant, NormEstimate, make_interpolant,
                          reconstruct, reconstruct_inf, verify_interpolation,
                          w0_from, weighted_norm)
