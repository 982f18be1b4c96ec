"""Detection-rate selection: fit across a log-spaced grid, keep the best Brier fit.

Likelihood values are not comparable across detection rates (a
rate-dependent constant is dropped from the loss), so the grid winner is
chosen by Brier loss of the predicted observed-occurrence probability
against the training indicator 1{z > 0}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, DetectionParam, ParamPair
from .optimizer import FitConfig, FitResult, fit
from .special import expit

DEFAULT_GRID_SIZE = 20
DEFAULT_GRID_LO = 1.0 / 50.0
DEFAULT_GRID_HI = 50.0


def default_radius(p: int) -> float:
    """Search-ball radius 5 * sqrt(p) used throughout."""
    return 5.0 * np.sqrt(p)


@dataclass
class LambdaGrid:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("grid must be a nonempty 1-D sequence")
        if np.any(self.values <= 0):
            raise ValueError("grid values must be positive")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("grid values must be sorted increasing")

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)


@dataclass
class PuOmmModel:
    """Fitted coefficient pair with the selected detection rate.

    selection_scores holds one (lambda, brier) pair per grid value;
    lambda_hat attains the minimum (ties broken toward smaller lambda).
    """

    omega_hat: ParamPair
    lambda_hat: float
    fit: FitResult
    selection_scores: list[tuple[float, float]]

    @property
    def beta(self) -> np.ndarray:
        return self.omega_hat.beta

    @property
    def theta(self) -> np.ndarray:
        return self.omega_hat.theta


def make_lambda_grid(
    n_points: int = DEFAULT_GRID_SIZE,
    lo: float = DEFAULT_GRID_LO,
    hi: float = DEFAULT_GRID_HI,
) -> LambdaGrid:
    """n_points values from lo to hi, equally spaced on a log scale."""
    if n_points < 2:
        raise ValueError("grid needs at least 2 points")
    if not (0 < lo < hi):
        raise ValueError(f"grid bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    return LambdaGrid(np.exp(np.linspace(np.log(lo), np.log(hi), n_points)))


def observed_occurrence_prob(omega: ParamPair, lam: float, x: np.ndarray):
    """Probability a row is recorded positive: sigmoid(x.beta + log lam) * sigmoid(x.theta)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != omega.p:
        raise ValueError(f"dimension mismatch: x has {x.shape[-1]} features, parameters have {omega.p}")
    if lam <= 0:
        raise ValueError("lam must be positive")
    return expit(x @ omega.beta + np.log(lam)) * expit(x @ omega.theta)


def fit_at_lambda(
    train: Dataset,
    lam: float,
    cfg: FitConfig,
    omega0: ParamPair | None = None,
) -> PuOmmModel:
    """Single fit at a fixed detection rate; no grid, no selection."""
    res = fit(train, DetectionParam(lam), cfg, omega0)
    v = (train.z > 0).astype(float)
    q = observed_occurrence_prob(res.omega_hat, lam, train.x)
    score = float(np.mean((q - v) ** 2))
    return PuOmmModel(
        omega_hat=res.omega_hat,
        lambda_hat=float(lam),
        fit=res,
        selection_scores=[(float(lam), score)],
    )


def fit_pu_omm(
    train: Dataset,
    grid: LambdaGrid | None = None,
    cfg: FitConfig | None = None,
) -> PuOmmModel:
    """Fit once per grid value and keep the best observed-occurrence Brier score.

    Each grid fit starts from zero, so results do not depend on grid
    order.  Raises only if every grid fit errors out.
    """
    if train.n < 1:
        raise ValueError("training data must be nonempty")
    if grid is None:
        grid = make_lambda_grid()
    if cfg is None:
        cfg = FitConfig(radius=default_radius(train.p))

    v = (train.z > 0).astype(float)
    scores: list[tuple[float, float]] = []
    results: list[FitResult] = []
    failures: list[str] = []
    for lam in grid:
        try:
            res = fit(train, DetectionParam(float(lam)), cfg)
        except (ValueError, FloatingPointError) as exc:
            failures.append(f"lambda={lam}: {exc}")
            scores.append((float(lam), np.inf))
            results.append(None)
            continue
        q = observed_occurrence_prob(res.omega_hat, float(lam), train.x)
        scores.append((float(lam), float(np.mean((q - v) ** 2))))
        results.append(res)

    if all(r is None for r in results):
        raise RuntimeError("every grid fit failed: " + "; ".join(failures))

    briers = np.array([s for _, s in scores])
    best = int(np.argmin(briers))  # argmin takes the first minimum: ties go to smaller lambda
    return PuOmmModel(
        omega_hat=results[best].omega_hat,
        lambda_hat=scores[best][0],
        fit=results[best],
        selection_scores=scores,
    )
