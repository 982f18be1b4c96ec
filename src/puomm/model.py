"""Probabilistic core: zero-inflated exponential mixture with size-dependent detection.

The response is a mixture of a point mass at zero (no event) and an
exponential magnitude law whose rate depends on features through a log
link.  Events are recorded only with probability 1 - exp(-lambda_eps * y),
so a recorded zero may be a true negative or an undetected positive.
Marginalizing the detection indicator gives a closed-form likelihood in
the stacked parameter omega = (beta, theta); this module evaluates that
likelihood, its analytic gradient and its analytic Hessian.

Every evaluation reads one private per-point state, _RowTerms: the rows
are split once into recorded and zero blocks, stored feature-major
(p x rows), and one pass per point computes both linear predictors, the
expit pairs and the log-likelihood total.  The terms of the last point
are kept, so loss, gradient and Hessian at one point share that pass.
The optimizer's closures (make_objective, make_hessian) read one shared
state per Dataset object, rate and thread, so a fit splits the rows once
and a Hessian at the point the gradient just saw reuses its terms.  The
state is held weakly: it lives only while some closure uses it.
neg_log_likelihood and gradient build a private state per call.  A
non-finite total is traced back to its rows only then, so NumericalError
still names the first bad sample in the original row order.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .special import expit, expit_pair

# Keeps log(1 - q) finite at extreme parameter values.
_Q_MAX = 1.0 - 1e-15


class NumericalError(ValueError):
    """Non-finite value met while evaluating the loss; carries the sample index."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass
class ParamPair:
    """Stacked optimization variable: magnitude coefficients and occurrence coefficients."""

    beta: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.beta.ndim != 1 or self.theta.ndim != 1:
            raise ValueError("beta and theta must be 1-D")
        if self.beta.shape != self.theta.shape:
            raise ValueError(
                f"beta and theta must have equal length, got {self.beta.size} and {self.theta.size}"
            )
        if self.beta.size < 1:
            raise ValueError("parameter dimension must be >= 1")
        if not (np.isfinite(self.beta).all() and np.isfinite(self.theta).all()):
            raise ValueError("parameter entries must be finite")

    @property
    def p(self) -> int:
        return self.beta.size

    def as_vector(self) -> np.ndarray:
        """Stacked [beta; theta] of length 2p."""
        return np.concatenate([self.beta, self.theta])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "ParamPair":
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.size % 2 != 0:
            raise ValueError("stacked parameter vector must be 1-D with even length")
        p = v.size // 2
        return cls(beta=v[:p].copy(), theta=v[p:].copy())

    @classmethod
    def zeros(cls, p: int) -> "ParamPair":
        return cls(beta=np.zeros(p), theta=np.zeros(p))

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_vector()))


@dataclass
class DetectionParam:
    """Rate of the exponential detection curve 1 - exp(-lambda_eps * y)."""

    lambda_eps: float

    def __post_init__(self):
        self.lambda_eps = float(self.lambda_eps)
        if not np.isfinite(self.lambda_eps) or self.lambda_eps <= 0:
            raise ValueError(f"lambda_eps must be a finite positive real, got {self.lambda_eps}")


@dataclass
class Dataset:
    """Feature matrix x (one row per sample) with the observed magnitude column.

    x may be shared with other datasets: while a simulated design is
    alive, make_datasets returns that same read-only array for every
    setting and n value of its trial, so nothing writes into x.  Latent columns (y, u, r) are present only for simulated data and are
    consumed exclusively by oracle fitting and evaluation code.  x and z
    must be finite and z nonnegative, and every column must have n
    entries; a violation raises ValueError naming the first bad row or
    the column.  Each check scans the whole array once, and the first
    bad row is located only when that scan fails.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray | None = None
    u: np.ndarray | None = None
    r: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("x must be an (n, p) matrix")
        if self.z.shape != (self.n,):
            raise ValueError("z must be a length-n vector")
        for name, col in (("x", self.x), ("z", self.z)):
            finite = np.isfinite(col)
            if not finite.all():
                row_ok = finite.all(axis=1) if col.ndim == 2 else finite
                raise ValueError(f"{name} must be finite (row {int(np.argmin(row_ok))})")
        if (self.z < 0).any():
            bad = int(np.argmax(self.z < 0))
            raise ValueError(f"z must be nonnegative (row {bad})")
        for name in ("y", "u", "r"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col, dtype=float)
                if col.shape != (self.n,):
                    raise ValueError(f"{name} must be a length-n vector (n={self.n}), got shape {col.shape}")
                setattr(self, name, col)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def has_latent(self) -> bool:
        return self.y is not None and self.u is not None

    def observed_only(self) -> "Dataset":
        """Copy with latent columns stripped (what a real estimator sees)."""
        return Dataset(x=self.x, z=self.z)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            x=self.x[idx],
            z=self.z[idx],
            y=None if self.y is None else self.y[idx],
            u=None if self.u is None else self.u[idx],
            r=None if self.r is None else self.r[idx],
        )

    def with_intercept(self) -> "Dataset":
        """Prepend a constant-1 feature column."""
        ones = np.ones((self.n, 1))
        return Dataset(x=np.hstack([ones, self.x]), z=self.z, y=self.y, u=self.u, r=self.r)

    def latent_mismatch(self) -> tuple[int, str] | None:
        """The first row breaking u = 1{y > 0} or z = y*r, with the rule it breaks."""
        if self.y is None or self.u is None or self.r is None:
            raise ValueError("latent columns y, u, r are required")
        bad_u = self.u != (self.y > 0)
        bad = np.flatnonzero(bad_u | (self.z != self.y * self.r))
        if bad.size == 0:
            return None
        i = int(bad[0])
        return i, "u must equal 1{y > 0}" if bad_u[i] else "z must equal y * r"

    def validate_latent(self) -> None:
        """Check the z = y*r bookkeeping on simulated data."""
        bad = self.latent_mismatch()
        if bad is not None:
            raise ValueError(f"{bad[1]} rowwise (row {bad[0]})")


def phi(x: np.ndarray, beta: np.ndarray, d: DetectionParam):
    """Marginal detection probability of an occurred event given features.

    The exponential detection curve integrates against the exponential
    magnitude law in closed form:
    lambda_eps / (lambda_eps + exp(-x.beta)) = expit(x.beta + log lambda_eps).
    """
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if x.shape[-1] != beta.shape[0]:
        raise ValueError(f"dimension mismatch: x has {x.shape[-1]} features, beta has {beta.shape[0]}")
    return expit(x @ beta + np.log(d.lambda_eps))


class _RowTerms:
    """The likelihood's per-row terms at the last point seen, over feature-major blocks.

    One product w.reshape(2, p) @ X^T gives both linear predictors of a
    block.  The terms kept are expit(+-a) and q = expit(a) expit(b) on
    zero rows, expit(+-b) and exp(-x.beta) on recorded rows, each row's
    log-likelihood term and their total.  They are recomputed only when
    at() gets a point that differs from a private copy of the last one,
    so evaluating the loss, the gradient and the Hessian at one point pays
    for them once, and mutating the caller's array in place never serves
    stale terms.  Overflow is left to produce inf, which loss() and
    loss_and_grad() report as NumericalError and hessian() as non-finite
    entries, not as a warning.
    """

    def __init__(self, data: Dataset, d: DetectionParam):
        if data.n < 1:
            raise ValueError("dataset must contain at least one sample")
        # held so that id(data), _state_for's key, is not reused while this state lives
        self.data = data
        pos = data.z > 0
        # each block's rows in the original order, also used to name the first bad row
        self.rows_p, self.rows_n = np.flatnonzero(pos), np.flatnonzero(~pos)
        self.XpT = np.ascontiguousarray(data.x.take(self.rows_p, axis=0).T)
        self.XnT = np.ascontiguousarray(data.x.take(self.rows_n, axis=0).T)
        self.zp = data.z[self.rows_p]
        self.n, self.p = data.n, data.p
        self.loglam = np.log(d.lambda_eps)
        self.w = None

    def at(self, w: np.ndarray) -> "_RowTerms":
        if self.w is not None and np.array_equal(w, self.w):
            return self
        self.w = None
        coef = w.reshape(2, self.p)
        with np.errstate(over="ignore", invalid="ignore"):
            ab = coef @ self.XnT
            ab[0] += self.loglam
            xbp, bp = coef @ self.XpT
            (self.sig_an, self.sig_bn), (self.comp_an, self.comp_bn), _ = expit_pair(ab)
            self.qn = np.minimum(self.sig_an * self.sig_bn, _Q_MAX)
            self.sig_bp, self.comp_bp, exp_bp = expit_pair(bp)
            self.ratep = np.exp(-xbp)
            self.ell_n = np.log1p(-self.qn)
            # log_expit(bp) from the exp(-|bp|) already at hand
            self.ell_p = -xbp - self.ratep * self.zp + (np.minimum(bp, 0.0) - np.log1p(exp_bp))
            self.total = np.sum(self.ell_n) + np.sum(self.ell_p)
        self.w = w.copy()
        return self

    def loss(self) -> float:
        """Mean negative log-likelihood at the current point.

        A non-finite total raises NumericalError naming the first row, in
        the original order, whose term is not finite; when every term is
        finite, their sum overflowed.
        """
        if not np.isfinite(self.total):
            bad = np.concatenate([self.rows_n[~np.isfinite(self.ell_n)], self.rows_p[~np.isfinite(self.ell_p)]])
            if bad.size == 0:
                raise NumericalError("non-finite log-likelihood sum")
            i = int(bad.min())
            raise NumericalError(f"non-finite log-likelihood term at sample {i}", index=i)
        return float(-self.total / self.n)

    def loss_and_grad(self) -> tuple[float, np.ndarray]:
        """loss() and its gradient, stacked [d/dbeta; d/dtheta].

        Once the total is finite, so is every row's weight, and only the
        products over rows can overflow.
        """
        value = self.loss()
        with np.errstate(over="ignore", invalid="ignore"):
            # zero rows: residual is -q, shared by both blocks of the gradient
            scaled = self.qn / (1.0 - self.qn)
            g_zero = np.stack([scaled * self.comp_an, scaled * self.comp_bn]) @ self.XnT.T
            # recorded rows: exponential-GLM score in beta, logistic part in theta
            g_pos = np.stack([self.ratep * self.zp - 1.0, self.comp_bp]) @ self.XpT.T
            g = ((g_zero - g_pos) / self.n).ravel()
        if not np.isfinite(g).all():
            raise NumericalError("non-finite gradient sum")
        return value, g

    def hessian(self) -> np.ndarray:
        """The 2p x 2p Hessian of loss() at the current point, in blocks [[bb, bt], [tb, tt]].

        Each row's loss depends on omega only through a = x.beta + log
        lambda_eps and b = x.theta, so the Hessian is X^T diag(w) X in four
        blocks.  A zero row contributes f = -log(1 - q), q = expit(a)
        expit(b); with A = df/da = q expit(-a) / (1 - q) and B = df/db,
            f_aa = A (expit(-a) - expit(a) + A),   f_bb likewise in b,
            f_ab = A expit(-b) / (1 - q).
        A recorded row adds z exp(-x.beta) to the beta block and
        expit(b) expit(-b) to the theta block, with no cross term.  Each
        block is a sum of (X^T * weights) @ X over the feature-major row
        blocks, O(n p^2) per call.  Overflow shows as non-finite entries.
        """
        XnT, XpT, p = self.XnT, self.XpT, self.p
        h = np.empty((2 * p, 2 * p))
        with np.errstate(over="ignore", invalid="ignore"):
            one_minus = 1.0 - self.qn
            scaled = self.qn / one_minus
            fa, fb = scaled * self.comp_an, scaled * self.comp_bn
            w_bb, w_tt = fa * (self.comp_an - self.sig_an + fa), fb * (self.comp_bn - self.sig_bn + fb)
            h[:p, :p] = (XnT * w_bb) @ XnT.T + (XpT * (self.ratep * self.zp)) @ XpT.T
            h[p:, p:] = (XnT * w_tt) @ XnT.T + (XpT * (self.sig_bp * self.comp_bp)) @ XpT.T
            h[:p, p:] = (XnT * (fa * self.comp_bn / one_minus)) @ XnT.T
            h[p:, :p] = h[:p, p:].T
            h /= self.n
        return h


# The live shared state of each (id(data), lambda_eps, thread); an entry goes
# when the last closure reading its state is dropped.
_STATES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _state_for(data: Dataset, d: DetectionParam) -> _RowTerms:
    """The live _RowTerms of this Dataset object, rate and thread, or a new one."""
    key = (id(data), d.lambda_eps, threading.get_ident())
    state = _STATES.get(key)
    if state is None:
        state = _STATES[key] = _RowTerms(data, d)
    return state


def _state_at(omega: ParamPair, data: Dataset, d: DetectionParam) -> _RowTerms:
    """A fresh row-terms state at omega, whose dimension must match the data's."""
    state = _RowTerms(data, d)
    if data.p != omega.p:
        raise ValueError(f"dimension mismatch: data has {data.p} features, parameters have {omega.p}")
    return state.at(omega.as_vector())


def neg_log_likelihood(omega: ParamPair, data: Dataset, d: DetectionParam) -> float:
    """Mean negative log-likelihood over the dataset; make_objective's loss at omega.

    z > 0 rows contribute log g(z|x) + log p1(x); z = 0 rows contribute
    log(1 - phi(x) p1(x)).  The detection factor log(1 - exp(-lambda_eps z))
    on recorded rows is constant in omega and omitted, so values are not
    comparable across lambda_eps.  Repeated calls on identical inputs are
    bit-identical.
    """
    return _state_at(omega, data, d).loss()


def gradient(omega: ParamPair, data: Dataset, d: DetectionParam) -> np.ndarray:
    """Analytic gradient of neg_log_likelihood, stacked [d/dbeta; d/dtheta]; make_objective's at omega."""
    return _state_at(omega, data, d).loss_and_grad()[1]


def make_objective(data: Dataset, d: DetectionParam):
    """Loss and loss+gradient closures over the stacked parameter vector.

    Both read the _RowTerms state that _state_for shares with every live
    closure of this Dataset object, rate and thread, so loss_and_grad(w)
    right after loss(w) costs only the two gradient products.
    """
    state = _state_for(data, d)

    def loss(w: np.ndarray) -> float:
        return state.at(w).loss()

    def loss_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        return state.at(w).loss_and_grad()

    return loss, loss_and_grad


def make_hessian(data: Dataset, d: DetectionParam):
    """Closure for the 2p x 2p Hessian of make_objective's loss (see _RowTerms.hessian).

    It reads the same shared state as make_objective's closures for this
    Dataset object, rate and thread, so a Hessian at the point that
    loss_and_grad has just evaluated recomputes no row terms.  The state
    is held weakly by the lookup and strongly by the closures: it lives
    while any of them does.  Overflow shows as non-finite entries, which
    the optimizer rejects.
    """
    state = _state_for(data, d)

    def hess(w: np.ndarray) -> np.ndarray:
        return state.at(w).hessian()

    return hess
