"""Gaussian process regression with exact integrated-gradients attribution.

The public surface re-exports the main types and operations; the modules
group them by layer: special functions, kernels, regression, exact
attribution, quadrature benchmarking, random-feature approximation, data
handling, and the command line.
"""

from .attrib_exact import (
    AttributionGaussian,
    AttributionReport,
    attribution_report,
    gpr_attribution,
    prior_attribution_variance,
    report_from_rows,
)
from .attrib_quad import (
    McOracleResult,
    QuadratureSpec,
    SweepRow,
    convergence_sweep,
    mc_attribution_oracle,
    nodes_weights,
    quad_attribution,
)
from .data_io import (
    DataError,
    Dataset,
    NormStats,
    load_csv,
    normalize,
    simulate,
    target_filtered_baseline,
)
from .gpr import (
    GprModel,
    fit,
    load_model,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict,
    save_model,
)
from .kernels import (
    ArdSeHyper,
    grad_i_cross,
    hess_ii_cross,
    kernel_cross,
    kernel_matrix,
)
from .rfgp import (
    AttributionMixture,
    RfgpModel,
    feature_gradient_integral,
    marginalized_attribution,
    rfgp_attribution,
    rfgp_fit,
    sample_frequencies,
)
from .specfun import NumericalError

__version__ = "0.1.0"
