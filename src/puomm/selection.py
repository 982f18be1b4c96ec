"""Detection-rate selection: fit across a log-spaced grid, keep the best Brier fit.

Likelihood values are not comparable across detection rates (a
rate-dependent constant is dropped from the loss), so the grid winner is
chosen by Brier loss of the predicted observed-occurrence probability
against the training indicator 1{z > 0}.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .model import Dataset, DetectionParam, ParamPair, is_real_in, phi
from .optimizer import FitConfig, FitResult, default_radius, fit  # default_radius is re-exported
from .special import expit


@dataclass
class LambdaGrid:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("grid must be a nonempty 1-D sequence")
        bad = self.values[~(np.isfinite(self.values) & (self.values > 0))]
        if bad.size:
            raise ValueError(f"grid values must be finite and positive, got {float(bad[0])}")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("grid values must be sorted increasing")

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)


@dataclass
class PuOmmModel:
    """The fit at the selected detection rate lambda_hat.

    selection_scores holds one (lambda, brier) pair per grid value (inf
    where the fit failed).  lambda_hat attains the minimum Brier score
    among the grid fits that converged, or among all that returned when
    none converged, in which case fit.converged is False; ties go to the
    smaller lambda.
    """

    lambda_hat: float
    fit: FitResult
    selection_scores: list[tuple[float, float]]

    @property
    def omega_hat(self) -> ParamPair:
        return self.fit.omega_hat

    @property
    def beta(self) -> np.ndarray:
        return self.omega_hat.beta

    @property
    def theta(self) -> np.ndarray:
        return self.omega_hat.theta

    @property
    def converged(self) -> bool:
        return self.fit.converged

    def occurrence_prob(self, x: np.ndarray) -> np.ndarray:
        """True-occurrence probability expit(x.theta), not the recorded-occurrence probability."""
        return expit(x @ self.theta)

    def recorded_prob(self, x: np.ndarray) -> np.ndarray:
        """Probability a row is recorded positive, at the selected detection rate."""
        return observed_occurrence_prob(self.omega_hat, self.lambda_hat, x)

    def size_mean(self, x: np.ndarray) -> np.ndarray:
        """Conditional mean event size given occurrence, exp(x.beta)."""
        return np.exp(x @ self.beta)

    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """The (magnitude, occurrence) coefficients."""
        return self.beta, self.theta


def make_lambda_grid(size: int = 20, lo: float = 1.0 / 50.0, hi: float = 50.0) -> LambdaGrid:
    """size values from lo to hi, equally spaced on a log scale.

    Its defaults are the only place the grid's defaults are written.
    """
    try:
        size = operator.index(None if isinstance(size, bool) else size)
    except TypeError:
        raise ValueError(f"size must be an integer, got {size!r}") from None
    if size < 2:
        raise ValueError(f"grid needs at least 2 points, got {size}")
    if not (is_real_in(lo, 0, np.inf) and is_real_in(hi, lo, np.inf)):
        raise ValueError(f"grid bounds must satisfy 0 < lo < hi < inf, got ({lo!r}, {hi!r})")
    return LambdaGrid(np.exp(np.linspace(np.log(lo), np.log(hi), size)))


def observed_occurrence_prob(omega: ParamPair, lam: float, x: np.ndarray):
    """Probability a row is recorded positive: phi(x) * expit(x.theta), phi at detection rate lam."""
    x = np.asarray(x, dtype=float)
    return phi(x, omega.beta, DetectionParam(lam)) * expit(x @ omega.theta)


def _fit_and_score(train: Dataset, lam: float, cfg: FitConfig) -> tuple[FitResult, float]:
    """One fit at lam and the Brier score of its recorded-occurrence probability against 1{z > 0}."""
    res = fit(train, DetectionParam(lam), cfg)
    v = (train.z > 0).astype(float)
    q = observed_occurrence_prob(res.omega_hat, lam, train.x)
    return res, float(np.mean((q - v) ** 2))


def fit_at_lambda(train: Dataset, lam: float, cfg: FitConfig) -> PuOmmModel:
    """Single fit at a fixed detection rate; no grid, no selection."""
    res, score = _fit_and_score(train, lam, cfg)
    return PuOmmModel(
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

    grid defaults to make_lambda_grid() and cfg to FitConfig().  The best
    score is taken over the converged grid fits; only when none
    converged is it taken over every fit that returned.  Each grid fit
    starts from zero, so results do not depend on grid order.  Raises
    only if every grid fit errors out.
    """
    if train.n < 1:
        raise ValueError("training data must be nonempty")
    if grid is None:
        grid = make_lambda_grid()
    if cfg is None:
        cfg = FitConfig()

    scores: list[tuple[float, float]] = []
    results: list[FitResult | None] = []
    failures: list[str] = []
    for lam in grid:
        lam = float(lam)
        try:
            res, score = _fit_and_score(train, lam, cfg)
        except ValueError as exc:
            failures.append(f"lambda={lam}: {exc}")
            res, score = None, np.inf
        scores.append((lam, score))
        results.append(res)

    if all(r is None for r in results):
        raise RuntimeError("every grid fit failed: " + "; ".join(failures))

    briers = np.array([s for _, s in scores])
    converged = np.array([r is not None and r.converged for r in results])
    if converged.any():  # a fit stopped at max_iter competes only when no fit converged
        briers[~converged] = np.inf
    best = int(np.argmin(briers))  # argmin takes the first minimum: ties go to smaller lambda
    return PuOmmModel(
        lambda_hat=scores[best][0],
        fit=results[best],
        selection_scores=scores,
    )
