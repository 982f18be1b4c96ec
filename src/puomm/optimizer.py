"""Projected gradient descent on an l2 ball, finished by ball-constrained Newton steps.

The loss is non-convex, but any local minimiser inside a large enough
ball has the estimator's statistical error, so what matters is which
basin the method settles in.  Phase 1 is projected gradient descent
(PGD) with a backtracking sufficient-decrease test, from zero, which
picks the basin.  Once a PGD step moves the iterate by at most
NEWTON_SWITCH (0.1), every later iteration first tries a Newton step on
the analytic Hessian: the minimiser of the local quadratic model over
the ball, a trust-region subproblem solved exactly from one
eigendecomposition (More & Sorensen 1983), damped by an Armijo search
along the segment to it.  An iteration whose Hessian is not positive
definite or not finite, or whose search fails, takes the PGD step
instead, as in projected Newton methods (Bertsekas 1982).  After a
Newton step that moved the iterate by at most HESSIAN_REUSE, the next
step reuses the same eigendecomposition instead of a new Hessian (the
lazy-Hessian scheme of Doikov, Chayti & Jaggi 2023); a longer step or a
PGD step means a fresh one.  Iterates never leave the ball, and the loss
never increases from one iterate to the next.  The loss is +inf at a
trial point where the log-likelihood overflows, so both line searches
reject that point as they would any point of larger loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import (
    Dataset,
    DetectionParam,
    ParamPair,
    is_real_in,
    make_objective,
    store_integer_fields,
)

# A PGD step starts at INIT_STEP each iteration and shrinks by BACKTRACK_FACTOR
# until the projected sufficient-decrease test passes, or gives up below STEP_FLOOR.
INIT_STEP = 1.0
BACKTRACK_FACTOR = 0.5
STEP_FLOOR = 1e-16
# Sufficient-decrease constant of both the PGD and the Newton search.
ARMIJO_C = 1e-4
# A PGD step that moves the iterate by at most this much switches the fit to Newton steps.
NEWTON_SWITCH = 1e-1
# A Newton step that moves the iterate by at most this much keeps its Hessian's
# eigendecomposition for the next Newton step.
HESSIAN_REUSE = 1e-3
# The Newton search tries the full step and then up to this many halvings of it.
NEWTON_HALVINGS = 8
# Root finding for the multiplier of the ball constraint: relative accuracy and iteration cap.
SECULAR_RTOL = 1e-13
SECULAR_MAX_ITER = 60


def default_radius(p: int) -> float:
    """Search-ball radius 5 * sqrt(p) used throughout."""
    return 5.0 * np.sqrt(p)


@dataclass
class FitConfig:
    """Optimizer settings, and the only place their defaults are written.

    radius is the l2 search-ball radius, None for default_radius(p) of
    the data that fit() is given; the fit stops once an iteration
    moves the iterate by at most tol, or after max_iter iterations.  The
    line searches are fixed by the module constants INIT_STEP,
    BACKTRACK_FACTOR, ARMIJO_C and NEWTON_HALVINGS; the phases by
    NEWTON_SWITCH (Newton steps start after a PGD step of at most 0.1)
    and HESSIAN_REUSE (a Newton step of at most 1e-3 keeps its Hessian's
    eigendecomposition for the next one).
    """

    radius: float | None = None
    max_iter: int = 10000
    tol: float = 1e-8

    def __post_init__(self):
        store_integer_fields(self, ("max_iter",))
        for name in ("radius", "tol") if self.radius is not None else ("tol",):
            value = getattr(self, name)
            if not is_real_in(value, 0, math.inf):
                raise ValueError(f"{name} must be a finite positive real, got {value!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class FitResult:
    """Fitted parameters, whether the fit converged, its iteration count and its loss at omega_hat."""

    omega_hat: ParamPair
    converged: bool
    iterations: int
    final_loss: float


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
) -> tuple[np.ndarray, float] | None:
    """The PGD step of the largest eta = INIT_STEP * BACKTRACK_FACTOR^k passing the projected decrease test.

    Accepts w_plus = P(w - eta * grad) when
    loss(w_plus) <= loss(w) - (ARMIJO_C / eta) * ||w_plus - w||^2; a
    loss of +inf rejects that eta.  Returns (w_plus, loss(w_plus)),
    or None if no eta >= STEP_FLOOR qualifies.
    """
    eta = INIT_STEP
    while eta >= STEP_FLOOR:
        candidate = project_l2_ball(w - eta * grad, cfg.radius)
        decrease = np.sum((candidate - w) ** 2) * (ARMIJO_C / eta)
        loss_c = loss_vec(candidate)
        if loss_c <= loss_w - decrease:
            return candidate, loss_c
        eta *= BACKTRACK_FACTOR
    return None


def _pd_eigh(hess: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues (ascending) and eigenvectors of hess; None unless it is finite and positive definite."""
    if not np.isfinite(hess).all():
        return None
    evals, evecs = np.linalg.eigh(hess)
    return (evals, evecs) if evals[0] > 0.0 else None


def _ball_newton_point(
    w: np.ndarray, grad: np.ndarray, eig: tuple[np.ndarray, np.ndarray], r: float
) -> np.ndarray:
    """Minimiser over the ball of the model grad.(v - w) + (v - w)^T H (v - w) / 2.

    eig = (evals, evecs) is the eigendecomposition of a positive definite
    H.  The model's minimiser over the ball is
    v(mu) = (H + mu I)^{-1} (H w - grad) with mu = 0 when that point lies
    in the ball, and otherwise with the mu > 0 at which ||v(mu)|| = r.
    Newton's method on 1/r - 1/||v(mu)||, a concave function of mu, finds
    that root from mu = 0; after its first step it approaches the root
    from above, so every later v(mu) lies in the ball.
    """
    evals, evecs = eig
    c = evals * (evecs.T @ w) - evecs.T @ grad
    y = c / evals
    if math.sqrt(y.dot(y)) > r:
        mu = 0.0
        for _ in range(SECULAR_MAX_ITER):
            norm = math.sqrt(y.dot(y))
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
    eig: tuple[np.ndarray, np.ndarray],
    cfg: FitConfig,
) -> tuple[np.ndarray, float] | None:
    """Damped step toward the ball-constrained Newton point v of the Hessian that eig decomposes.

    Accepts w_plus = w + t (v - w) for the first t in 1, 1/2, ..., 2^-8 with
    loss(w_plus) <= loss(w) + ARMIJO_C * grad.(w_plus - w); a loss of +inf
    rejects that t.  Returns (w_plus, loss(w_plus)), or None when no t
    qualifies.
    """
    direction = _ball_newton_point(w, grad, eig, cfg.radius) - w
    slope = ARMIJO_C * float(grad @ direction)
    t = 1.0
    for _ in range(NEWTON_HALVINGS + 1):
        candidate = project_l2_ball(w + t * direction, cfg.radius)
        loss_c = loss_vec(candidate)
        if loss_c <= loss_w + t * slope:
            return candidate, loss_c
        t *= 0.5
    return None


def fit(
    data: Dataset,
    d: DetectionParam,
    cfg: FitConfig,
) -> FitResult:
    """Minimize the mean negative log-likelihood over the l2 ball, starting at zero.

    The ball's radius is cfg.radius, or default_radius(data.p) when that is None.
    PGD steps until one moves the iterate by at most NEWTON_SWITCH, then
    Newton steps, each falling back to the PGD step when it fails.  A
    Newton step that moved at most HESSIAN_REUSE leaves its Hessian's
    eigendecomposition to the next one.  The fit owns its one objective,
    so an iterate's loss, gradient and Hessian share one pass over the rows.
    Stops when the iterate change drops to cfg.tol or max_iter is
    reached; exhausting max_iter is reported through converged=False,
    not an error.  A PGD line search that finds no admissible step also
    returns the current iterate with converged=False.
    """
    if cfg.radius is None:
        cfg = replace(cfg, radius=default_radius(data.p))
    w = ParamPair.zeros(data.p).as_vector()

    loss_vec, derivatives = make_objective(data, d)
    loss_w, grad, hessian = derivatives(w)

    converged = False
    newton = False
    eig = None  # eigendecomposition kept from the last Newton step, when it was short
    iterations = 0
    for t in range(1, cfg.max_iter + 1):
        step = None
        if newton:
            if eig is None:
                eig = _pd_eigh(hessian())
            if eig is not None:
                step = _newton_step(w, grad, loss_w, loss_vec, eig, cfg)
        if step is None:
            eig = None
            step = _backtrack(w, grad, loss_w, loss_vec, cfg)
            if step is None:
                break
        candidate, loss_c = step
        move = candidate - w
        change = math.sqrt(move.dot(move))
        newton = newton or change <= NEWTON_SWITCH
        if change > HESSIAN_REUSE:
            eig = None
        w, loss_w = candidate, loss_c
        iterations = t
        if change <= cfg.tol:
            converged = True
            break
        loss_w, grad, hessian = derivatives(w)

    return FitResult(
        omega_hat=ParamPair.from_vector(w),
        converged=converged,
        iterations=iterations,
        final_loss=loss_w,
    )
