"""Sharp spectral inequalities for fractional operators on the sphere.

Subpackages are organized by what they compute:

- specfun: log-gamma, Gegenbauer polynomials, Gauss-Jacobi quadrature
- spectrum: eigenvalue sequences, sharp constants, slope monotonicity
- field: zonal fields, synthesis/analysis, norms and entropy
- inequality: deficit reports for the inequality family, kernel checks
- flow: fractional fast-diffusion flow on the circle, entropy decay
- euclid: stereographic transport to the line, line-side checks
- cli: command line entry points
"""

__version__ = "0.1.0"

from .specfun import (QuadratureRule, gauss_jacobi, gegenbauer, log_gamma,
                      sphere_rule)
from .spectrum import (ParameterSet, derive_params, monotonicity_scan,
                       operator_eigenvalue, sharp_constant)
from .field import (ZonalField, analyze, entropy2, field_from_descriptor,
                    lq_norm, quadratic_form, quotient, synthesize)
from .inequality import (InequalityReport, deficit, deficit_square,
                         funk_hecke_mu, linearization_probe, taylor_remainder)
from .flow import FlowConfig, FlowResult, run_flow
from .euclid import EuclidParams, eigen_residual, pushforward, thm16_deficit
