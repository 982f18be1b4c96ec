"""Projected gradient descent on an l2 ball, finished by ball-constrained Newton steps.

The loss is non-convex, but any local minimiser inside a large enough
ball has the estimator's statistical error, so what matters is which
basin the method settles in.  Phase 1 is projected gradient descent
(PGD) with a backtracking sufficient-decrease test, from the start
point, which picks the basin.  Once a PGD step moves the iterate by at
most NEWTON_SWITCH, every later iteration first tries a Newton step on
the analytic Hessian: the minimiser of the local quadratic model over
the ball, a trust-region subproblem solved exactly from one
eigendecomposition (More & Sorensen 1983), damped by an Armijo search
along the segment to it.  An iteration whose Hessian is not positive
definite or not finite, or whose search fails, takes the PGD step
instead, as in projected Newton methods (Bertsekas 1982).  Iterates
never leave the ball and the loss trace is monotone non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import Dataset, DetectionParam, NumericalError, ParamPair, make_hessian, make_objective

STEP_FLOOR = 1e-16
# A PGD step that moves the iterate by at most this much switches the fit to Newton steps.
NEWTON_SWITCH = 1e-2
# The Newton search tries the full step and then up to this many halvings of it.
NEWTON_HALVINGS = 8
# Root finding for the multiplier of the ball constraint: relative accuracy and iteration cap.
SECULAR_RTOL = 1e-13
SECULAR_MAX_ITER = 60


@dataclass
class FitConfig:
    """Optimizer settings.

    radius is the l2 search-ball radius; a PGD step starts at init_step
    each iteration and shrinks by backtrack_factor until the projected
    sufficient-decrease test passes.  armijo_c sets the sufficient
    decrease of both the PGD and the Newton search.
    """

    radius: float
    init_step: float = 1.0
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    max_iter: int = 10000
    tol: float = 1e-8
    record_iterates: bool = False

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must lie in (0, 1)")
        if self.init_step <= 0:
            raise ValueError("init_step must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class FitResult:
    """Fitted parameters plus the convergence trace.

    trace rows are (iteration, loss, step_size, iterate_change); losses
    are non-increasing.  On a PGD iteration step_size is the gradient
    step eta; on a Newton iteration it is the accepted fraction of the
    segment to the ball-constrained Newton point (1, 1/2, ..., 2^-8).
    iterates (one row per iterate, including the start) is populated
    only when FitConfig.record_iterates is set.
    """

    omega_hat: ParamPair
    converged: bool
    iterations: int
    final_loss: float
    trace: list[tuple[int, float, float, float]] = field(default_factory=list)
    iterates: np.ndarray | None = None


def project_l2_ball(v: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection onto the centered l2 ball of radius r."""
    if r <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's arithmetic, without its call overhead
    if math.isinf(norm) and np.isfinite(v).all():  # a square overflowed: scale by the largest entry first
        scale = np.max(np.abs(v))
        norm = scale * np.linalg.norm(v / scale)
    if norm <= r:
        return v
    return v * (r / norm)


def _backtrack(
    w: np.ndarray,
    grad: np.ndarray,
    loss_w: float,
    loss_vec: Callable[[np.ndarray], float],
    cfg: FitConfig,
) -> tuple[np.ndarray, float, float]:
    """Largest step eta = init_step * factor^k passing the projected decrease test.

    Accepts w_plus = P(w - eta * grad) when
    loss(w_plus) <= loss(w) - (armijo_c / eta) * ||w_plus - w||^2.
    Returns (w, 0, loss(w)) if no eta >= STEP_FLOOR qualifies.
    """
    eta = cfg.init_step
    while eta >= STEP_FLOOR:
        candidate = project_l2_ball(w - eta * grad, cfg.radius)
        decrease = np.sum((candidate - w) ** 2) * (cfg.armijo_c / eta)
        loss_c = loss_vec(candidate)
        if not np.isfinite(loss_c):
            raise FloatingPointError(f"non-finite loss {loss_c} during line search at step {eta}")
        if loss_c <= loss_w - decrease:
            return candidate, eta, loss_c
        eta *= cfg.backtrack_factor
    return w.copy(), 0.0, loss_w


def _ball_newton_point(w: np.ndarray, grad: np.ndarray, hess: np.ndarray, r: float) -> np.ndarray | None:
    """Minimiser over the ball of the model grad.(v - w) + (v - w)^T hess (v - w) / 2.

    Returns None unless hess is finite and positive definite.  The model's
    minimiser over the ball is v(mu) = (hess + mu I)^{-1} (hess w - grad)
    with mu = 0 when that point lies in the ball, and otherwise with the
    mu > 0 at which ||v(mu)|| = r.  Newton's method on 1/r - 1/||v(mu)||,
    a concave function of mu, finds that root from mu = 0; after its first
    step it approaches the root from above, so every later v(mu) lies in
    the ball.
    """
    if not np.isfinite(hess).all():
        return None
    evals, evecs = np.linalg.eigh(hess)
    if evals[0] <= 0.0:
        return None
    c = evals * (evecs.T @ w) - evecs.T @ grad
    y = c / evals
    if np.linalg.norm(y) > r:
        mu = 0.0
        for _ in range(SECULAR_MAX_ITER):
            norm = float(np.linalg.norm(y))
            if abs(norm - r) <= SECULAR_RTOL * r:
                break
            mu += (norm / r - 1.0) * norm**2 / float(np.sum(y**2 / (evals + mu)))
            y = c / (evals + mu)
    return project_l2_ball(evecs @ y, r)


def _newton_step(
    w: np.ndarray,
    grad: np.ndarray,
    loss_w: float,
    loss_vec: Callable[[np.ndarray], float],
    hess: np.ndarray,
    cfg: FitConfig,
) -> tuple[np.ndarray, float, float] | None:
    """Damped step toward the ball-constrained Newton point v.

    Accepts w_plus = w + t (v - w) for the first t in 1, 1/2, ..., 2^-8 with
    loss(w_plus) <= loss(w) + armijo_c * grad.(w_plus - w); a non-finite loss
    rejects that t.  Returns (w_plus, t, loss(w_plus)), or None when hess is
    not positive definite or no t qualifies.
    """
    v = _ball_newton_point(w, grad, hess, cfg.radius)
    if v is None:
        return None
    direction = v - w
    slope = cfg.armijo_c * float(grad @ direction)
    t = 1.0
    for _ in range(NEWTON_HALVINGS + 1):
        candidate = project_l2_ball(w + t * direction, cfg.radius)
        try:
            loss_c = loss_vec(candidate)
        except NumericalError:
            loss_c = np.inf
        if loss_c <= loss_w + t * slope:
            return candidate, t, loss_c
        t *= 0.5
    return None


def fit(
    data: Dataset,
    d: DetectionParam,
    cfg: FitConfig,
    omega0: ParamPair | None = None,
) -> FitResult:
    """Minimize the mean negative log-likelihood over the l2 ball.

    PGD steps until one moves the iterate by at most NEWTON_SWITCH, then
    Newton steps, each falling back to the PGD step when it fails.
    Stops when the iterate change drops to cfg.tol or max_iter is
    reached; exhausting max_iter is reported through converged=False,
    not an error.  A failed line search (no admissible step) also
    returns the current iterate with converged=False.
    """
    if omega0 is None:
        omega0 = ParamPair.zeros(data.p)
    w = omega0.as_vector()
    if np.linalg.norm(w) > cfg.radius:
        raise ValueError("initial point lies outside the search ball")

    loss_vec, loss_and_grad = make_objective(data, d)
    hessian = make_hessian(data, d)
    loss_w, grad = loss_and_grad(w)
    trace = [(0, loss_w, 0.0, 0.0)]
    iterates = [w.copy()] if cfg.record_iterates else None

    converged = False
    newton = False
    iterations = 0
    for t in range(1, cfg.max_iter + 1):
        step = _newton_step(w, grad, loss_w, loss_vec, hessian(w), cfg) if newton else None
        if step is None:
            step = _backtrack(w, grad, loss_w, loss_vec, cfg)
            if step[1] == 0.0:
                break
        candidate, eta, loss_c = step
        change = float(np.linalg.norm(candidate - w))
        newton = newton or change <= NEWTON_SWITCH
        w, loss_w = candidate, loss_c
        iterations = t
        trace.append((t, loss_w, eta, change))
        if iterates is not None:
            iterates.append(w.copy())
        if change <= cfg.tol:
            converged = True
            break
        loss_w, grad = loss_and_grad(w)

    return FitResult(
        omega_hat=ParamPair.from_vector(w),
        converged=converged,
        iterations=iterations,
        final_loss=loss_w,
        trace=trace,
        iterates=None if iterates is None else np.asarray(iterates),
    )
