"""Exact spatial quantum dynamics of high-gain parametric down-conversion
accompanied by cascaded up-conversion in a finite nonlinear crystal.

The package solves the four coupled mode systems exactly (a rotating-frame
matrix exponential, with the paper's closed form and an independent adaptive
ODE integrator as references), classifies generation regimes from the
characteristic quartic, evaluates photon numbers and quadrature squeezing,
and scans parameter grids deterministically.
"""

from .analytic import MultipleRootsError, f_kernel, full_matrix, transfer_matrix
from .bogoliubov import BogoliubovMatrix
from .characteristic import (Area, QuarticRoots, Regime, classify,
                             classify_degenerate, classify_general,
                             classify_three_mode, discriminant_general,
                             solve_quartic)
from .observables import (ConvergenceError, Correlators, PhotonNumbers,
                          SqueezingReport, averaged_model,
                          collective_min_variance, correlators,
                          lossy_approximation, observables_summary,
                          pdc_only_reference, photon_numbers,
                          single_mode_min_variance, zeta)
from .oracle import StepSizeUnderflow, Trajectory, canonical_residuals, \
    canonical_residuals_scaled, integrate, matrix_at
from .params import (DerivedParams, ModelParams, degenerate_params, derive,
                     is_degenerate, is_three_mode, params_from_dict,
                     params_to_dict, three_mode_params, validate)
from .scan import (AxisSpec, ScanResult, ScanSpec, compare_point,
                   degenerate_diagram_spec, emit, four_mode_diagram_spec,
                   run_scan, solve_point, sweep_gain)

__version__ = "0.1.0"
