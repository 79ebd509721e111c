"""krrlab: kernel ridge regression in high dimension.

Closed-form KRR, the high-dimensional linearization of inner-product and
radial kernel matrices, spectral variance bounds with parametric eigenvalue
decays, exact Monte-Carlo bias-variance decomposition of the excess risk,
and an experiment harness for synthetic and real risk curves.
"""

from .errors import (ConfigError, DataFormatError, KernelEvaluationError,
                     KrrLabError, NumericalError, SingularKernelError)
from .kernels import (Dataset, KernelSpec, KrrModel, cross_kernel_matrix,
                      kernel_matrix, krr_fit, krr_predict, solve_regularized)
from .linearize import (InterlacingReport, LinFactor, LinModel, LinParams,
                        MomentDiagnostics, approx_error, build_lin_kernel, estimate_trace_ratio,
                        factored_spectrum, interlacing_check, lin_cross_kernel_matrix,
                        lin_factors, linearize_params, moment_diagnostics,
                        perturbation_inertia, spectrum_with_t)
from .spectral import (DecaySpec, Spectrum, bound_N, effective_dimension,
                       exp_monotone_condition, generate_decay_spectrum,
                       numeric_peak, peak_point, polynomial_theta_threshold,
                       quantity_N)
from .synth import (CovModel, TargetSpec, evaluate_target, make_covariance,
                    random_orthogonal_rows, sample_dataset, sample_features)
from .risk import (QuerySample, RiskEstimate, bias_ref, bound_v1, bound_v2,
                   excess_risk_mc, spectral_risk_mc)
from .libsvm import export_libsvm, parse_libsvm
from .svgplot import emit_plot
from .sweep import (CurveShape, EigComparison, ExperimentConfig, RiskPoint,
                    classify_curve, eig_compare, kernel_by_name, run_sweep)

__version__ = "0.1.0"
