"""Joint occurrence/magnitude regression under size-dependent label missingness."""

from .baselines import TwoPartModel, fit_observed_mixture, fit_oracle
from .metrics import MetricsReport, evaluate_trial
from .model import Dataset, DetectionParam, ParamPair
from .optimizer import FitConfig, FitResult, fit
from .selection import LambdaGrid, PuOmmModel, fit_at_lambda, fit_pu_omm, make_lambda_grid
from .simulate import SimConfig, SimOutput, Setting, make_datasets

__all__ = [
    "Dataset",
    "DetectionParam",
    "FitConfig",
    "FitResult",
    "LambdaGrid",
    "MetricsReport",
    "ParamPair",
    "PuOmmModel",
    "Setting",
    "SimConfig",
    "SimOutput",
    "TwoPartModel",
    "evaluate_trial",
    "fit",
    "fit_at_lambda",
    "fit_observed_mixture",
    "fit_oracle",
    "fit_pu_omm",
    "make_datasets",
    "make_lambda_grid",
]

__version__ = "0.1.0"
