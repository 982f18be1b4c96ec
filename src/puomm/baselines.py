"""Comparison fits: oracle two-part GLMs and observed-data mixtures.

The oracle sees the unmasked magnitudes; the observed-data mixtures fit a
logistic stage on 1{z > 0} plus a Gamma or log-normal size stage on the
recorded positives.  All fitters are deterministic damped-Newton solvers
with explicit tolerances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset
from .special import digamma, trigamma

GRAD_TOL = 1e-8
MAX_NEWTON = 100


class SeparationWarning(UserWarning):
    """Logistic labels are (nearly) separable; coefficients were clamped."""


class DegenerateFitWarning(UserWarning):
    """Too little data to estimate a stage; returned a degenerate fit."""


@dataclass
class TwoPartModel:
    """Occurrence logistic stage plus a log-link magnitude stage.

    aux carries the Gamma shape or the log-normal residual variance;
    flags records degeneracies (separation, rank deficiency, ...).
    Coefficients must be finite, and aux nonnegative and finite, apart
    from the +inf Gamma shape of a degenerate fit.
    """

    occurrence_coef: np.ndarray
    magnitude_coef: np.ndarray
    magnitude_family: str  # "exponential" | "gamma" | "lognormal"
    aux: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.magnitude_family not in ("exponential", "gamma", "lognormal"):
            raise ValueError(f"unknown magnitude family {self.magnitude_family!r}")
        if len(self.occurrence_coef) != len(self.magnitude_coef):
            raise ValueError("stage coefficient lengths differ")
        if not (np.isfinite(self.occurrence_coef).all() and np.isfinite(self.magnitude_coef).all()):
            raise ValueError("stage coefficients must be finite")
        # fit_gamma_glm reports a degenerate Gamma shape as +inf
        top = np.inf if self.magnitude_family == "gamma" else np.finfo(float).max
        if self.aux is not None and not 0 <= self.aux <= top:
            raise ValueError(f"aux must be nonnegative and finite (or a +inf Gamma shape), got {self.aux}")


def _damped_newton(w0, grad_fn, hess_fn, obj_fn, clamp_radius=None, max_iter=MAX_NEWTON):
    """Minimize a smooth convex objective; returns (w, clamped) flag.

    Newton direction with step halving on the objective; falls back to a
    plain gradient step when the Hessian solve fails.  If clamp_radius is
    set, iterates are projected back onto that l2 ball and the projection
    is reported (used to contain separation divergence).
    """
    w = np.asarray(w0, dtype=float).copy()
    clamped = False
    f = obj_fn(w)
    for _ in range(max_iter):
        g = grad_fn(w)
        if np.linalg.norm(g) <= GRAD_TOL:
            break
        try:
            step = np.linalg.solve(hess_fn(w), g)
            if not np.isfinite(step).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = g
        t = 1.0
        while t >= 1e-12:
            w_new = w - t * step
            if clamp_radius is not None:
                norm = np.linalg.norm(w_new)
                if norm > clamp_radius:
                    w_new = w_new * (clamp_radius / norm)
            f_new = obj_fn(w_new)
            if np.isfinite(f_new) and f_new <= f:
                break
            t *= 0.5
        else:
            break
        if clamp_radius is not None and np.linalg.norm(w - t * step) > clamp_radius + 1e-12:
            clamped = True
        delta = np.linalg.norm(w_new - w)
        w, f = w_new, f_new
        if delta <= 1e-14:
            break
    return w, clamped


class _GlmTerms:
    """A GLM objective's row terms at the last iterate seen.

    The objective is the mean over rows of f(s, y) in the linear predictor
    s = X w.  rows(s, y) returns each row's f, its score df/ds and its
    curvature d2f/ds2, so one pass per iterate serves the objective, the
    gradient X^T df/ds / n and the Hessian (X^T * d2f/ds2) X / n: the
    linear predictor and working weights of IRLS (McCullagh & Nelder 1989).
    obj, grad and hess are the objective and its derivatives that
    _damped_newton takes.  The terms are recomputed only when at() gets a
    point that differs from a private copy of the last one, so the gradient
    and Hessian at the iterate that the line search just accepted reuse them.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, rows):
        self.X, self.y, self.rows, self.n = X, y, rows, X.shape[0]
        self.w = None

    def at(self, w: np.ndarray) -> "_GlmTerms":
        if self.w is None or not np.array_equal(w, self.w):
            self.w = None
            self.f, self.score, self.curv = self.rows(self.X @ w, self.y)
            self.w = w.copy()
        return self

    def obj(self, w: np.ndarray) -> float:
        return float(np.sum(self.at(w).f) / self.n)

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.X.T @ self.at(w).score / self.n

    def hess(self, w: np.ndarray) -> np.ndarray:
        # Row-major on purpose: the feature-major product is faster but rounds
        # differently, and near GRAD_TOL whether the last line search accepts
        # its step can turn on that rounding, moving estimates by ~5e-9.
        return (self.X * self.at(w).curv[:, None]).T @ self.X / self.n


def _logistic_rows(s, y):
    """Logistic loss -(y log expit(s) + (1 - y) log expit(-s)) = max(s, 0) - y s + log1p(exp(-|s|)).

    For binary y, max(s, 0) - y s is exact, and one exp(-|s|) serves both
    the loss and expit(s), formed as special.expit forms it.
    """
    e = np.exp(-np.abs(s))
    mu = np.where(s >= 0, 1.0, e) / (1.0 + e)
    return np.maximum(s, 0.0) - y * s + np.log1p(e), mu - y, mu * (1.0 - mu)


def _exponential_rows(s, y):
    """Exponential-GLM loss exp(-s) y + s."""
    r = np.exp(-s) * y
    return r + s, 1.0 - r, r


def fit_logistic(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Logistic regression MLE by damped Newton.

    Separable (or all-equal) labels push the MLE to infinity; such fits
    are clamped to the ball of radius 5*sqrt(p) and flagged with a
    SeparationWarning instead of raising.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("features must be (n, p) with a matching label vector")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be binary")
    p = X.shape[1]
    clamp = 5.0 * np.sqrt(p)
    terms = _GlmTerms(X, y, _logistic_rows)
    w, clamped = _damped_newton(np.zeros(p), terms.grad, terms.hess, terms.obj, clamp_radius=clamp)
    if clamped or np.linalg.norm(terms.grad(w)) > 1e-4:
        warnings.warn("labels are separable or nearly so; coefficients clamped", SeparationWarning)
    return w


def fit_exponential_glm(features: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """MLE of the exponential size model y ~ Exp(rate exp(-x.beta)).

    Minimizes mean(exp(-x.beta) y + x.beta); the Hessian is positive
    definite whenever all sizes are positive.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(sizes, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("features must be (n, p) with a matching size vector")
    if np.any(y <= 0):
        raise ValueError("sizes must be strictly positive")
    terms = _GlmTerms(X, y, _exponential_rows)
    w, _ = _damped_newton(np.zeros(X.shape[1]), terms.grad, terms.hess, terms.obj)
    return w


def fit_gamma_glm(features: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, float]:
    """Log-link Gamma regression: mean-model coefficients plus profile-MLE shape.

    The mean-model score does not involve the shape, so the coefficients
    coincide with the exponential-GLM fit; the shape then solves
    log(a) - digamma(a) = s by scalar Newton.
    """
    coef = fit_exponential_glm(features, sizes)
    y = np.asarray(sizes, dtype=float)
    mu = np.exp(np.asarray(features, dtype=float) @ coef)
    s = -1.0 - float(np.mean(np.log(y / mu) - y / mu))
    if s <= 1e-12:
        warnings.warn("degenerate Gamma shape (perfect mean fit)", DegenerateFitWarning)
        return coef, np.inf
    # Minka's starting point, then Newton on log(a) - digamma(a) - s = 0.
    a = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(MAX_NEWTON):
        g = np.log(a) - digamma(a) - s
        if abs(g) <= 1e-8:
            break
        a -= g / (1.0 / a - trigamma(a))
    return coef, float(a)


def fit_lognormal(features: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares of log(size) on the features; aux is the MLE residual variance.

    Rank-deficient designs get the minimum-norm solution and a warning.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(sizes, dtype=float)
    if np.any(y <= 0):
        raise ValueError("sizes must be strictly positive")
    logy = np.log(y)
    coef, _, rank, _ = np.linalg.lstsq(X, logy, rcond=None)
    if rank < X.shape[1]:
        warnings.warn("rank-deficient design; minimum-norm solution", DegenerateFitWarning)
    resid = logy - X @ coef
    return coef, float(np.mean(resid**2))


def fit_oracle(train: Dataset) -> TwoPartModel:
    """Two GLMs on the unmasked training responses: logistic on 1{y>0}, exponential on y>0.

    train must carry latent magnitudes.
    """
    if train.y is None:
        raise ValueError("oracle fit needs latent magnitudes")
    events = train.y > 0
    if not events.any():
        raise ValueError("no positive responses; cannot fit the magnitude stage")
    flags = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        occ = fit_logistic(train.x, events.astype(float))
    if any(issubclass(w.category, SeparationWarning) for w in caught):
        flags.append("separation")
    rows = np.flatnonzero(events)
    mag = fit_exponential_glm(train.x.take(rows, axis=0), train.y[rows])
    return TwoPartModel(
        occurrence_coef=occ,
        magnitude_coef=mag,
        magnitude_family="exponential",
        flags=tuple(flags),
    )


def fit_observed_mixture(train: Dataset, family: str) -> TwoPartModel:
    """Logistic stage on 1{z>0} plus the requested size family on recorded positives."""
    if family not in ("gamma", "lognormal"):
        raise ValueError(f"unknown magnitude family {family!r}")
    if train.n < 1:
        raise ValueError("training data must be nonempty")
    recorded = train.z > 0
    if not recorded.any():
        raise ValueError("no positive observations; cannot fit the magnitude stage")
    flags = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        occ = fit_logistic(train.x, recorded.astype(float))
        rows = np.flatnonzero(recorded)
        Xp, zp = train.x.take(rows, axis=0), train.z[rows]
        if rows.size <= Xp.shape[1]:
            warnings.warn("too few positives for the magnitude stage", DegenerateFitWarning)
        if family == "gamma":
            mag, aux = fit_gamma_glm(Xp, zp)
        else:
            mag, aux = fit_lognormal(Xp, zp)
    for w in caught:
        if issubclass(w.category, SeparationWarning):
            flags.append("separation")
        elif issubclass(w.category, DegenerateFitWarning):
            flags.append("degenerate_magnitude")
    return TwoPartModel(
        occurrence_coef=occ,
        magnitude_coef=mag,
        magnitude_family=family,
        aux=aux,
        flags=tuple(dict.fromkeys(flags)),
    )
