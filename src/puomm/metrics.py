"""Scores of one fitted model on one held-out dataset.

Occurrence is scored against the true event indicator in simulation mode
and against the recorded indicator on real data; size metrics condition
on the rows where an event (or a record) exists and compare against the
model's conditional-mean prediction.  A model answers through its own
occurrence_prob, recorded_prob, size_mean and coefficients methods, so
this module knows no model class.  A test set with no size rows leaves
the size metrics undefined: they are reported as None (an empty CSV
cell), never as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import Dataset


@dataclass
class MetricsReport:
    """Scores of one method on one trial; dataio.write_metrics_csv writes it as one CSV row, a column per field."""

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


# CSV column names of the fields, where they differ from the field names
_CSV_NAMES = {"method_name": "method", "trial_id": "trial"}
CSV_COLUMNS = tuple(_CSV_NAMES.get(f.name, f.name) for f in fields(MetricsReport))


# Size rows per prediction block in evaluate_trial: at p = 10 a block's
# feature copy is 80 KB, below glibc's default mmap threshold, so each
# block reuses heap memory instead of faulting in fresh pages.  Blocks of
# 1,024 rows give the products of one call over all size rows bit for bit
# (test_evaluate_trial_matches_the_reference_across_size_blocks).
_SIZE_BLOCK = 1024


def evaluate_trial(
    name: str,
    model,
    test: Dataset,
    truth: tuple[np.ndarray, np.ndarray] | None = None,
    trial_id: int = 0,
    mode: str = "auto",
) -> MetricsReport:
    """Score one model, reported as name, on one held-out dataset.

    Simulation mode needs the latent columns: occurrence is scored on
    1{y > 0} over all rows with the model's occurrence_prob, and size on
    the y > 0 rows against the true magnitudes.  Real-data mode scores
    occurrence against 1{z > 0} with the model's recorded_prob, and size
    on the z > 0 rows.  Size predictions are made _SIZE_BLOCK rows at a
    time, so no whole copy of the size rows' features is made; when there
    are none, mad, rmse_pred and smape are None.  smape lies in [0, 2];
    a size row's outcome is positive, so none of its ratios is 0/0.  The
    coefficient errors are l2 norms, not scaled by dimension, against
    truth (beta0, theta0) in simulation mode; a truth whose length differs
    from the model's raises ValueError, and so does an empty test set.
    """
    if test.n == 0:
        raise ValueError("the test set is empty: there is nothing to score")
    if mode == "auto":
        mode = "simulation" if test.has_latent else "observed"
    if mode not in ("simulation", "observed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "simulation" and not test.has_latent:
        raise ValueError("simulation-mode evaluation needs latent y")

    outcome = test.y if mode == "simulation" else test.z
    events = outcome > 0
    labels = events.astype(float)
    size_idx = np.flatnonzero(events)
    size_scores = dict.fromkeys(("mad", "rmse_pred", "smape"))
    if size_idx.size:
        y = outcome[size_idx]
        yhat = np.empty(size_idx.size)
        for start in range(0, size_idx.size, _SIZE_BLOCK):
            x_block = test.x.take(size_idx[start : start + _SIZE_BLOCK], axis=0)
            yhat[start : start + len(x_block)] = model.size_mean(x_block)
        size_scores = {
            "mad": float(np.mean(np.abs(y - yhat))),
            "rmse_pred": float(np.sqrt(np.mean((y - yhat) ** 2))),
            "smape": float(np.mean(2.0 * np.abs(y - yhat) / (np.abs(y) + np.abs(yhat)))),
        }

    # Occurrence is scored after size on purpose: computing the n-row
    # probability vector before the size loop made a process that repeats
    # `puomm evaluate` on 50,000 rows (perfbench's cli_io) fault ~1,900 fresh
    # pages per op (getrusage minor faults), ~4 ms; in this order it faults none.
    probs = model.occurrence_prob(test.x) if mode == "simulation" else model.recorded_prob(test.x)

    coef_errors = [None, None]
    if truth is not None and mode == "simulation":
        for i, (est, true) in enumerate(zip(model.coefficients(), truth)):
            true = np.asarray(true, dtype=float)
            if est.shape != true.shape:
                raise ValueError("estimate and truth must have equal length")
            coef_errors[i] = float(np.linalg.norm(est - true))

    return MetricsReport(
        method_name=name,
        trial_id=trial_id,
        rmse_beta=coef_errors[0],
        rmse_theta=coef_errors[1],
        brier=float(np.mean((probs - labels) ** 2)),
        misclassification=float(np.mean((probs > 0.5).astype(float) != labels)),
        **size_scores,
        n_eval=test.n,
        n_eval_size=size_idx.size,
    )
