"""Wiener-Schetzen identification with generalized orthonormal basis functions.

Estimate models of the form "orthonormal filter bank + multivariate
polynomial" from input/output data: the best linear approximation supplies
pole estimates, the poles generate the basis filters, and a linear
regression fits the polynomial.  A Monte-Carlo harness reproduces the
convergence-rate and noise studies at desk scale.
"""

from .bla import (
    BlaFitResult,
    NonparametricBla,
    estimate_frf,
    estimate_frf_welch,
    fit_rational,
    stabilize_poles,
)
from .gobf import (
    ExpansionResult,
    GobfBank,
    bank_frequency_matrix,
    bank_outputs,
    build_bank,
    decay_rho,
    gram_matrix,
    project_expansion,
)
from .pipeline import (
    IdentifyConfig,
    StaticNonlinearity,
    WienerModel,
    WienerSystem,
    estimate_intermediate,
    identify,
    nrmse,
    predict,
    simulate,
    sup_error,
)
from .polymodel import (
    MultiPolyModel,
    build_regressors,
    enumerate_multi_indices,
    evaluate,
    fit_ls,
    fit_poly_model,
)
from .ratfun import RationalTF, filter_time, freq_response, poles
from .signals import (
    MultisineSpec,
    NoiseSpec,
    SignalRecord,
    derive_rng,
    derive_seed,
    generate_gaussian,
    generate_multisine,
    generate_noise,
)

__version__ = "0.1.0"
