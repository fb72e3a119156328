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
                      default_ap_radii, effective_t, estimate_t, mu_disc,
                      mu_disc_many, phi, power_weight, rho, rho_many)
from .lattice import (Lattice, ShellSchedule, SQUARE_SCALE, explicit_lattice,
                      nearest_index, shells_for, square_lattice, upper_density)
from .multiplier import (Multiplier, builtin_sigma_multiplier, sigma_log,
                         sigma_weighted_mag, user_multiplier)
from .transforms import (OperatorNormReport, batch_higher, batch_modified_inf,
                         operator_norm_estimate, taylor_kernel_check)
from .classifier import (BranchInfo, ConditionReport, Margins, TraceData,
                         TraceVerdict, classify, condition, condition_a,
                         select_branch, trajectory_margins)
from .interpolate import (Interpolant, reconstruct, verify_interpolation,
                          w0_from)
