"""Evaluation metrics and the prediction mappings they consume.

Occurrence is scored against the true event indicator in simulation mode
and against the recorded indicator on real data; size metrics condition
on the rows where an event (or a record) exists and compare against each
model's conditional-mean prediction.  A test set with no such rows leaves
the size metrics undefined: they are reported as None (an empty CSV
cell), never as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .baselines import TwoPartModel
from .model import Dataset
from .selection import PuOmmModel, observed_occurrence_prob
from .special import expit


@dataclass
class MetricsReport:
    """Scores of one method on one trial; serializes to a single CSV row, one column per field."""

    method_name: str
    trial_id: int
    rmse_beta: float | None
    rmse_theta: float | None
    brier: float
    misclassification: float
    mad: float | None
    rmse_pred: float | None
    smape: float | None
    n_eval: int
    n_eval_size: int

    def to_csv_row(self) -> list[str]:
        """Fields in CSV_COLUMNS order: None as empty, str and int as is, floats by repr."""

        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, (str, int)):
                return str(v)
            return repr(float(v))

        return [fmt(getattr(self, f.name)) for f in fields(self)]


# CSV column names of the fields, where they differ from the field names
_CSV_NAMES = {"method_name": "method", "trial_id": "trial"}
CSV_COLUMNS = tuple(_CSV_NAMES.get(f.name, f.name) for f in fields(MetricsReport))


def rmse_params(est: np.ndarray, truth: np.ndarray) -> float:
    """l2 norm of the coefficient error (not scaled by dimension)."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError("estimate and truth must have equal length")
    return float(np.linalg.norm(est - truth))


def _check_paired(labels, probs):
    labels = np.asarray(labels, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if labels.shape != probs.shape:
        raise ValueError("labels and probabilities must have equal length")
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    return labels, probs


def brier(labels, probs) -> float:
    """Mean squared difference between probabilities and binary outcomes."""
    return _brier(*_check_paired(labels, probs))


def misclassification(labels, probs) -> float:
    """Mean disagreement of the strict threshold-at-0.5 classifier."""
    return _misclassification(*_check_paired(labels, probs))


def _brier(labels: np.ndarray, probs: np.ndarray) -> float:
    return float(np.mean((probs - labels) ** 2))


def _misclassification(labels: np.ndarray, probs: np.ndarray) -> float:
    return float(np.mean((probs > 0.5).astype(float) != labels))


def _check_pair_lengths(y, yhat):
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise ValueError("realized and predicted vectors must have equal length")
    return y, yhat


def mad(y, yhat) -> float:
    y, yhat = _check_pair_lengths(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def rmse_pred(y, yhat) -> float:
    y, yhat = _check_pair_lengths(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def smape(y, yhat) -> float:
    """Symmetric mean absolute percentage error in [0, 2]; 0/0 pairs count as 0."""
    y, yhat = _check_pair_lengths(y, yhat)
    denom = np.abs(y) + np.abs(yhat)
    terms = np.divide(2.0 * np.abs(y - yhat), denom, out=np.zeros(y.shape[0]), where=denom > 0)
    return float(np.mean(terms))


def predict_occurrence(model, x):
    """True-occurrence probability (not the recorded-occurrence probability)."""
    x = np.asarray(x, dtype=float)
    if isinstance(model, PuOmmModel):
        return expit(x @ model.theta)
    if isinstance(model, TwoPartModel):
        return expit(x @ model.occurrence_coef)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def predict_magnitude(model, x):
    """Conditional mean event size given occurrence."""
    x = np.asarray(x, dtype=float)
    if isinstance(model, PuOmmModel):
        return np.exp(x @ model.beta)
    if isinstance(model, TwoPartModel):
        eta = x @ model.magnitude_coef
        if model.magnitude_family == "lognormal":
            return np.exp(eta + 0.5 * (model.aux or 0.0))
        return np.exp(eta)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _recorded_occurrence_prob(model, x):
    # Real data has no true labels; score everything on the recorded scale.
    if isinstance(model, PuOmmModel):
        return observed_occurrence_prob(model.omega_hat, model.lambda_hat, x)
    return predict_occurrence(model, x)


def _coef_pair(model):
    if isinstance(model, PuOmmModel):
        return model.beta, model.theta
    return model.magnitude_coef, model.occurrence_coef


# Size rows per prediction block in evaluate_trial: at p = 10 a block's
# feature copy is 80 KB, below glibc's default mmap threshold, so each
# block reuses heap memory instead of faulting in fresh pages.  Blocks of
# 1,024 rows give the products of one call over all size rows bit for bit
# (test_evaluate_trial_matches_the_reference_across_size_blocks).
_SIZE_BLOCK = 1024


def evaluate_trial(
    models: dict[str, object],
    test: Dataset,
    truth: tuple[np.ndarray, np.ndarray] | None = None,
    trial_id: int = 0,
    mode: str = "auto",
) -> list[MetricsReport]:
    """Score every model on one held-out dataset.

    Simulation mode needs the latent columns: occurrence is scored on
    1{y > 0} over all rows and size on the y > 0 rows against the true
    magnitudes.  Real-data mode scores occurrence against 1{z > 0} with
    each model's recorded-occurrence predictor and size on the z > 0 rows.
    Every model's size predictions are made in one pass over the size rows,
    _SIZE_BLOCK rows at a time, so no whole copy of their features is made;
    when there are none, mad, rmse_pred and smape are None.  An empty test
    set raises ValueError.  Each model's probabilities are validated once,
    for both brier and misclassification.
    """
    if test.n == 0:
        raise ValueError("the test set is empty: there is nothing to score")
    if mode == "auto":
        mode = "simulation" if test.has_latent else "observed"
    if mode not in ("simulation", "observed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "simulation" and not test.has_latent:
        raise ValueError("simulation-mode evaluation needs latent y")

    reports = []
    outcome = test.y if mode == "simulation" else test.z
    events = outcome > 0
    labels = events.astype(float)
    size_idx = np.flatnonzero(events)
    size_truth = outcome[size_idx]
    yhats = {name: np.empty(size_idx.size) for name in models}
    for start in range(0, size_idx.size, _SIZE_BLOCK):
        x_block = test.x.take(size_idx[start : start + _SIZE_BLOCK], axis=0)
        for name, model in models.items():
            yhats[name][start : start + len(x_block)] = predict_magnitude(model, x_block)

    for name, model in models.items():
        if mode == "simulation":
            probs = predict_occurrence(model, test.x)
        else:
            probs = _recorded_occurrence_prob(model, test.x)
        checked = _check_paired(labels, probs)
        size_scores = dict.fromkeys(("mad", "rmse_pred", "smape"))
        if size_idx.size:
            yhat = yhats[name]
            size_scores = {
                "mad": mad(size_truth, yhat),
                "rmse_pred": rmse_pred(size_truth, yhat),
                "smape": smape(size_truth, yhat),
            }

        rb = rt = None
        if truth is not None and mode == "simulation":
            beta0, theta0 = truth
            est_beta, est_theta = _coef_pair(model)
            rb = rmse_params(est_beta, beta0)
            rt = rmse_params(est_theta, theta0)

        reports.append(
            MetricsReport(
                method_name=name,
                trial_id=trial_id,
                rmse_beta=rb,
                rmse_theta=rt,
                brier=_brier(*checked),
                misclassification=_misclassification(*checked),
                **size_scores,
                n_eval=test.n,
                n_eval_size=size_idx.size,
            )
        )
    return reports
