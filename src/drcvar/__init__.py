"""Distributionally robust, risk-sensitive affine estimation.

Fits affine estimators x_hat = A y + b that minimize the worst-case CVaR of
squared estimation error over a type-2 transport ball around an empirical
distribution, via an exact conic reformulation solved by the in-repo
interior-point solver and cross-validated by an independent dual evaluation.
"""
from .conic import SdpSolution, SolverSettings, solve_sdp
from .data import (
    Dataset,
    MinMaxScaler,
    SpikyConfig,
    SweepReport,
    evaluate_out_of_sample,
    load_dataset,
    radius_sweep,
    split_and_normalize,
    synth_spiky,
    write_dataset,
)
from .dual import DualCertificate, worst_case_cvar
from .estimate import (
    FitError,
    FitResult,
    fit_dr_cvar,
    fit_dr_mse,
    fit_nominal_cvar,
    fit_nominal_mse,
)
from .model import (
    AffineEstimator,
    EmpiricalDistribution,
    QuadraticForm,
    RiskSpec,
    affine_to_quadratic,
    loss_batch,
)
from .risk import RiskReport, cvar_discrete
from .sdp import SdpProblem, build_drcvar_sdp

__version__ = "0.1.0"

__all__ = [
    "AffineEstimator",
    "Dataset",
    "DualCertificate",
    "EmpiricalDistribution",
    "FitError",
    "FitResult",
    "MinMaxScaler",
    "QuadraticForm",
    "RiskReport",
    "RiskSpec",
    "SdpProblem",
    "SdpSolution",
    "SolverSettings",
    "SpikyConfig",
    "SweepReport",
    "affine_to_quadratic",
    "build_drcvar_sdp",
    "cvar_discrete",
    "evaluate_out_of_sample",
    "fit_dr_cvar",
    "fit_dr_mse",
    "fit_nominal_cvar",
    "fit_nominal_mse",
    "load_dataset",
    "loss_batch",
    "radius_sweep",
    "solve_sdp",
    "split_and_normalize",
    "synth_spiky",
    "worst_case_cvar",
    "write_dataset",
]
