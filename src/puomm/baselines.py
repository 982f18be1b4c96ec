"""Comparison fits: oracle two-part GLMs and observed-data mixtures.

The oracle sees the unmasked magnitudes; the observed-data mixtures fit a
logistic stage on 1{z > 0} plus a Gamma or log-normal size stage on the
recorded positives.  All fitters are deterministic damped-Newton solvers
with explicit tolerances.  A stage on degenerate data returns a fallback
fit and says so in a returned value, from which TwoPartModel.flags is built.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .model import Dataset
from .special import digamma, expit, trigamma

GRAD_TOL = 1e-8
MAX_NEWTON = 100


@dataclass
class TwoPartModel:
    """Occurrence logistic stage plus a log-link magnitude stage.

    aux carries the Gamma shape or the log-normal residual variance.
    flags names the degeneracies that the stage fits returned:
    "separation" when the logistic stage was clamped (separable or
    all-equal labels), "degenerate_magnitude" when the size stage had no
    more rows than features, a +inf Gamma shape or a rank-deficient
    log-normal design, and "not_converged" when a stage's damped-Newton
    solve used all MAX_NEWTON iterations.
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

    @property
    def converged(self) -> bool:
        return "not_converged" not in self.flags

    def occurrence_prob(self, x: np.ndarray) -> np.ndarray:
        """Occurrence probability of the logistic stage, expit(x.occurrence_coef)."""
        return expit(x @ self.occurrence_coef)

    def recorded_prob(self, x: np.ndarray) -> np.ndarray:
        """The recorded-occurrence probability: a two-part model has no detection stage, so its occurrence_prob."""
        return self.occurrence_prob(x)

    def size_mean(self, x: np.ndarray) -> np.ndarray:
        """Conditional mean event size given occurrence; the log-normal mean adds half the residual variance."""
        eta = x @ self.magnitude_coef
        if self.magnitude_family == "lognormal":
            return np.exp(eta + 0.5 * (self.aux or 0.0))
        return np.exp(eta)

    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """The (magnitude, occurrence) coefficients."""
        return self.magnitude_coef, self.occurrence_coef


def _damped_newton(w0, grad_fn, hess_fn, obj_fn, clamp_radius=None):
    """Minimize a smooth convex objective; returns (w, clamped, exhausted).

    Newton direction with step halving on the objective; falls back to a
    plain gradient step when the Hessian solve fails.  If clamp_radius is
    set, iterates are projected back onto that l2 ball and the projection
    is reported (used to contain separation divergence).  exhausted is
    True when the solve used all MAX_NEWTON iterations; a stop at the
    gradient tolerance, at a negligible step or where the line search
    finds no decrease is not reported.
    """
    w = np.asarray(w0, dtype=float).copy()
    clamped = False
    f = obj_fn(w)
    for _ in range(MAX_NEWTON):
        g = grad_fn(w)
        if math.sqrt(g.dot(g)) <= GRAD_TOL:  # np.linalg.norm's arithmetic, without its call overhead
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
                norm = math.sqrt(w_new.dot(w_new))
                if norm > clamp_radius:
                    w_new = w_new * (clamp_radius / norm)
            f_new = obj_fn(w_new)
            if np.isfinite(f_new) and f_new <= f:
                break
            t *= 0.5
        else:
            break
        if clamp_radius is not None and norm > clamp_radius + 1e-12:  # the accepted step left the ball
            clamped = True
        move = w_new - w
        delta = math.sqrt(move.dot(move))
        w, f = w_new, f_new
        if delta <= 1e-14:
            break
    else:
        return w, clamped, True
    return w, clamped, False


class _GlmTerms:
    """A GLM objective's row terms at the last iterate seen.

    The objective is the mean over rows of f(s, y) in the linear predictor
    s = X w.  rows(s, y) returns each row's f, its score df/ds and its
    curvature d2f/ds2, so one pass per iterate serves the objective, the
    gradient X^T df/ds / n and the Hessian (X^T * d2f/ds2) X / n: the
    linear predictor and working weights of IRLS (McCullagh & Nelder 1989).
    obj, grad and hess are the objective and its derivatives that
    _damped_newton takes.  The terms are recomputed only when at() gets a
    point whose bytes differ from the last one's, so the gradient and
    Hessian at the iterate that the line search just accepted reuse them,
    and an iterate mutated in place is never served stale terms.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, rows):
        self.X, self.y, self.rows, self.n = X, y, rows, X.shape[0]
        self.key = None  # the bytes of the last iterate, once its terms are complete

    def at(self, w: np.ndarray) -> "_GlmTerms":
        key = w.tobytes()
        if key != self.key:
            self.key = None
            self.f, self.score, self.curv = self.rows(self.X @ w, self.y)
            self.key = key
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


def fit_logistic(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, bool, bool]:
    """Logistic regression MLE by damped Newton, whether the labels are separated, and whether Newton was exhausted.

    Separable (or all-equal) labels push the MLE to infinity; such fits
    are clamped to the ball of radius 5*sqrt(p), and the flag is True
    when the clamp was active, or when the final gradient norm exceeds
    1e-4 at a solve that stopped before MAX_NEWTON iterations (an
    exhausted solve is reported as exhausted, not as separated).
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
    w, clamped, exhausted = _damped_newton(np.zeros(p), terms.grad, terms.hess, terms.obj, clamp_radius=clamp)
    g = terms.grad(w)
    return w, clamped or (not exhausted and math.sqrt(g.dot(g)) > 1e-4), exhausted


def fit_exponential_glm(features: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, bool]:
    """MLE of the exponential size model y ~ Exp(rate exp(-x.beta)), and whether Newton was exhausted.

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
    # exp(-s) overflows only at trial points whose loss is inf, which the line search rejects
    with np.errstate(over="ignore"):
        w, _, exhausted = _damped_newton(np.zeros(X.shape[1]), terms.grad, terms.hess, terms.obj)
    return w, exhausted


def fit_gamma_glm(features: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Log-link Gamma regression: mean-model coefficients, profile-MLE shape, and whether Newton was exhausted.

    The mean-model score does not involve the shape, so the coefficients
    and the exhaustion flag are the exponential-GLM fit's; the shape then
    solves log(a) - digamma(a) = s by scalar Newton.  A perfect mean fit
    (s at most 1e-12) has no finite shape estimate and returns shape +inf.
    """
    coef, exhausted = fit_exponential_glm(features, sizes)
    y = np.asarray(sizes, dtype=float)
    mu = np.exp(np.asarray(features, dtype=float) @ coef)
    s = -1.0 - float(np.mean(np.log(y / mu) - y / mu))
    if s <= 1e-12:
        return coef, np.inf, exhausted
    # Minka's starting point, then Newton on log(a) - digamma(a) - s = 0.
    a = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(MAX_NEWTON):
        g = np.log(a) - digamma(a) - s
        if abs(g) <= 1e-8:
            break
        a -= g / (1.0 / a - trigamma(a))
    return coef, float(a), exhausted


def fit_lognormal(features: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Least squares of log(size) on the features: coefficients, MLE residual variance, rank deficiency.

    A rank-deficient design gets the minimum-norm solution, and the flag is True.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(sizes, dtype=float)
    if np.any(y <= 0):
        raise ValueError("sizes must be strictly positive")
    logy = np.log(y)
    coef, _, rank, _ = np.linalg.lstsq(X, logy, rcond=None)
    resid = logy - X @ coef
    return coef, float(np.mean(resid**2)), bool(rank < X.shape[1])


def fit_oracle(train: Dataset) -> TwoPartModel:
    """Two GLMs on the unmasked training responses: logistic on 1{y>0}, exponential on y>0.

    train must carry latent magnitudes.
    """
    if train.y is None:
        raise ValueError("oracle fit needs latent magnitudes")
    events = train.y > 0
    if not events.any():
        raise ValueError("no positive responses; cannot fit the magnitude stage")
    occ, separated, occ_exhausted = fit_logistic(train.x, events.astype(float))
    rows = np.flatnonzero(events)
    mag, mag_exhausted = fit_exponential_glm(train.x.take(rows, axis=0), train.y[rows])
    flags = ["separation"] if separated else []
    if occ_exhausted or mag_exhausted:
        flags.append("not_converged")
    return TwoPartModel(
        occurrence_coef=occ,
        magnitude_coef=mag,
        magnitude_family="exponential",
        flags=tuple(flags),
    )


# Each Dataset's logistic stage on 1{z > 0}, shared by its Gamma and log-normal
# mixtures; an entry goes with its Dataset.
_OCCURRENCE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _occurrence_stage(train: Dataset, recorded: np.ndarray) -> tuple[np.ndarray, bool, bool]:
    """fit_logistic's (coefficients, separated, exhausted) on 1{z > 0}, fitted once per Dataset.

    Each call returns its own copy of the coefficients.
    """
    stage = _OCCURRENCE.get(train)
    if stage is None:
        stage = _OCCURRENCE[train] = fit_logistic(train.x, recorded.astype(float))
    return stage[0].copy(), *stage[1:]


def fit_observed_mixture(train: Dataset, family: str) -> TwoPartModel:
    """Logistic stage on 1{z>0} plus the requested size family on recorded positives.

    The logistic stage is fitted once per Dataset (_occurrence_stage), so
    the Gamma and log-normal mixtures of one training set share it.
    """
    if family not in ("gamma", "lognormal"):
        raise ValueError(f"unknown magnitude family {family!r}")
    if train.n < 1:
        raise ValueError("training data must be nonempty")
    recorded = train.z > 0
    if not recorded.any():
        raise ValueError("no positive observations; cannot fit the magnitude stage")
    occ, separated, occ_exhausted = _occurrence_stage(train, recorded)
    flags = ["separation"] if separated else []
    rows = np.flatnonzero(recorded)
    Xp, zp = train.x.take(rows, axis=0), train.z[rows]
    mag_exhausted = False
    if family == "gamma":
        mag, aux, mag_exhausted = fit_gamma_glm(Xp, zp)
        degenerate = aux == np.inf
    else:
        mag, aux, degenerate = fit_lognormal(Xp, zp)
    if degenerate or rows.size <= Xp.shape[1]:
        flags.append("degenerate_magnitude")
    if occ_exhausted or mag_exhausted:
        flags.append("not_converged")
    return TwoPartModel(
        occurrence_coef=occ,
        magnitude_coef=mag,
        magnitude_family=family,
        aux=aux,
        flags=tuple(flags),
    )
