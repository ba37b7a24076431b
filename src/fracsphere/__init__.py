"""Sharp spectral inequalities for fractional operators on the sphere.

Subpackages are organized by what they compute:

- specfun: log-gamma, Gegenbauer polynomials, Gauss-Jacobi quadrature
- spectrum: eigenvalue sequences, derived parameters with the sharp
  constant C (ParameterSet.constant), slope monotonicity
- field: zonal fields, synthesis/analysis, norms and entropy on a rule
- inequality: deficit reports for the inequality family (KINDS, deficit)
- flow: fractional fast-diffusion flow on the circle, entropy decay
- euclid: stereographic transport to the line, line-side checks
- cli: command line entry points
"""

__version__ = "0.1.0"

from .specfun import QuadratureRule, gauss_jacobi, log_gamma, sphere_rule
from .spectrum import (ParameterSet, derive_params, monotonicity_scan,
                       operator_eigenvalue)
from .field import (ZonalField, analyze, entropy2, field_from_descriptor,
                    lq_norm, quadratic_form, synthesize)
from .inequality import InequalityReport, deficit, deficit_square
from .flow import FlowConfig, FlowResult, run_flow
from .euclid import EuclidParams, eigen_residual, pushforward, thm16_deficit
