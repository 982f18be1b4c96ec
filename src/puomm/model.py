"""Probabilistic core: zero-inflated exponential mixture with size-dependent detection.

The response is a mixture of a point mass at zero (no event) and an
exponential magnitude law whose rate depends on features through a log
link.  Events are recorded only with probability 1 - exp(-lambda_eps * y),
so a recorded zero may be a true negative or an undetected positive.
Marginalizing the detection indicator gives a closed-form likelihood in
the stacked parameter omega = (beta, theta); this module evaluates that
likelihood, its analytic gradient and its analytic Hessian.

Every evaluation reads one private per-point state, _RowTerms, over
the rows split into recorded and zero blocks, stored feature-major
(p x rows).  A Dataset's arrays cannot change, so its split is made once,
kept on the Dataset (Dataset._row_split), and shared by the states of
all its detection rates.  One pass per point computes both linear
predictors, the expit pairs and the log-likelihood total.  Both blocks
take their sigmoid pairs from special.expit_pair, one clipped exp per
block with no sign test; the recorded rows take log expit(x.theta) from
special.log_expit, which stays exact where the clipped pair saturates.
The terms of the last point are kept, keyed by the point's bytes, so
loss, gradient and Hessian at one point share that pass.
The likelihood has one way in: make_objective's loss and derivatives
closures, which optimizer.fit runs.  Each call builds a state of its own,
so two fits share nothing that changes.  A non-finite loss total reads
as +inf, so a line search rejects that trial point; the gradient there
raises ValueError.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import expit, expit_pair, log_expit

# Keeps log(1 - q) finite at extreme parameter values.
_Q_MAX = 1.0 - 1e-15


def store_integer_fields(obj, names) -> None:
    """Set each named field of obj to an int; ValueError naming the first field that is not an integer or is a bool."""
    for name in names:
        value = getattr(obj, name)
        try:
            setattr(obj, name, operator.index(None if isinstance(value, bool) else value))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


def is_real_in(value, lo: float, hi: float) -> bool:
    """Whether value is a real number in (lo, hi); NaN is not, and neither is a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and lo < value < hi


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


@dataclass(eq=False)
class Dataset:
    """Feature matrix x (one row per sample) with the observed magnitude column.

    A Dataset is immutable: construction marks every array it holds (x,
    z, and y, u, r when present) read-only, without copying, so a float64
    array passed in becomes read-only for its caller too and a later
    write into it raises ValueError.  (A write through another, writable
    view of the same base array is not caught.)  Fits therefore keep
    their lambda-free work per Dataset while it lives: the likelihood's
    row split (_row_split) and the observed-data mixtures' logistic
    stage (baselines._occurrence_stage).  A Dataset equals only itself
    and hashes by identity.  x may be shared with other datasets: while a
    simulated design is alive, make_datasets returns that same array for
    every setting and n value of its trial.
    Latent columns (y, u, r) are present only for simulated data and are
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
        for col in (self.x, self.z, self.y, self.u, self.r):
            if col is not None:
                col.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def has_latent(self) -> bool:
        return self.y is not None and self.u is not None

    @functools.cached_property
    def _row_split(self) -> tuple[np.ndarray, ...]:
        """XpT, XnT and zp, the lambda-free part of every _RowTerms on this Dataset.

        XpT and XnT are the features of the recorded and zero rows, in the
        original order, feature-major; zp is the recorded sizes.  Threads
        that miss it at once may each make the same arrays; one thread's stay.
        """
        pos = self.z > 0
        recorded, zero = np.flatnonzero(pos), np.flatnonzero(~pos)
        return (
            np.ascontiguousarray(self.x.take(recorded, axis=0).T),
            np.ascontiguousarray(self.x.take(zero, axis=0).T),
            self.z[recorded],
        )

    def observed_only(self) -> "Dataset":
        """A Dataset over the same x and z, with the latent columns stripped (what a real estimator sees)."""
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
    log-likelihood term and their total.  Every expit pair comes from
    expit_pair: within 4 ulp of the exact sigmoids for |predictor| <= 700,
    and held at its value at +-700 beyond.  On zero rows the pairs feed q,
    1 - q and the derivative weights, where that ~1e-304 tail is
    negligible.  A recorded row's loss needs log expit(b) itself, which is
    about b far below zero, so it comes from log_expit, exact in both
    tails, and not from the clipped pair.  The row blocks come from
    Dataset._row_split, shared by the states of all its rates; the rest
    changes with the point, so a state serves one fit in one thread, and
    make_objective builds one per call.  The terms are recomputed only
    when at() gets a point whose bytes differ from the last one's, so
    evaluating the loss, the gradient and the Hessian at one point pays
    for them once, mutating the caller's array in place never serves
    stale terms, and 0.0 and -0.0 count as different points.  Overflow is
    left to produce inf, not a warning: loss() reads a non-finite total as
    +inf, loss_and_grad() raises ValueError, and hessian() returns
    non-finite entries.
    """

    def __init__(self, data: Dataset, d: DetectionParam):
        if data.n < 1:
            raise ValueError("dataset must contain at least one sample")
        self.XpT, self.XnT, self.zp = data._row_split
        self.n, self.p = data.n, data.p
        self.loglam = np.log(d.lambda_eps)
        self.key = None  # the bytes of the last point, once its terms are complete

    def at(self, w: np.ndarray) -> "_RowTerms":
        key = w.tobytes()
        if key == self.key:
            return self
        self.key = None
        coef = w.reshape(2, self.p)
        with np.errstate(over="ignore", invalid="ignore"):
            ab = coef @ self.XnT
            ab[0] += self.loglam
            xbp, bp = coef @ self.XpT
            (self.sig_an, self.sig_bn), (self.comp_an, self.comp_bn) = expit_pair(ab)
            self.qn = np.minimum(self.sig_an * self.sig_bn, _Q_MAX)
            self.sig_bp, self.comp_bp = expit_pair(bp)
            self.ratep = np.exp(-xbp)
            self.ell_n = np.log1p(-self.qn)
            self.ell_p = -xbp - self.ratep * self.zp + log_expit(bp)
            self.total = np.sum(self.ell_n) + np.sum(self.ell_p)
        self.key = key
        return self

    def loss(self) -> float:
        """Mean negative log-likelihood at the current point; +inf where the total is not finite.

        A trial point whose loss overflows is rejected like any point
        with a larger loss, so NaN and -inf never reach a comparison.
        """
        if not math.isfinite(self.total):
            return math.inf
        return float(-self.total / self.n)

    def loss_and_grad(self) -> tuple[float, np.ndarray]:
        """loss() and its gradient, stacked [d/dbeta; d/dtheta]; ValueError where either is not finite.

        Once the total is finite, so is every row's weight, and only the
        products over rows can overflow.
        """
        value = self.loss()
        if value == math.inf:
            raise ValueError("non-finite log-likelihood sum")
        with np.errstate(over="ignore", invalid="ignore"):
            # zero rows: residual is -q, shared by both blocks of the gradient
            scaled = self.qn / (1.0 - self.qn)
            wn = np.empty((2, scaled.size))
            np.multiply(scaled, self.comp_an, out=wn[0])
            np.multiply(scaled, self.comp_bn, out=wn[1])
            g_zero = wn @ self.XnT.T
            # recorded rows: exponential-GLM score in beta, logistic part in theta
            wp = np.empty((2, self.zp.size))
            np.multiply(self.ratep, self.zp, out=wp[0])
            np.subtract(wp[0], 1.0, out=wp[0])
            wp[1] = self.comp_bp
            g_pos = wp @ self.XpT.T
            g = ((g_zero - g_pos) / self.n).ravel()
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient sum")
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


def make_objective(data: Dataset, d: DetectionParam):
    """Closures for the mean negative log-likelihood of data at w = [beta; theta] and for its derivatives.

    z > 0 rows contribute log g(z|x) + log p1(x); z = 0 rows contribute
    log(1 - phi(x) p1(x)).  The detection factor log(1 - exp(-lambda_eps z))
    of recorded rows is constant in omega and omitted, so values are not
    comparable across lambda_eps.  derivatives(w) returns (loss, gradient,
    hessian), where hessian() gives the 2p x 2p Hessian at that w (see
    _RowTerms.hessian).  Both closures read one _RowTerms built here, so
    derivatives(w) right after loss(w) costs only the two gradient
    products, and hessian() called before any other point recomputes no
    row terms.
    """
    state = _RowTerms(data, d)

    def loss(w: np.ndarray) -> float:
        return state.at(w).loss()

    def derivatives(w: np.ndarray) -> tuple[float, np.ndarray, Callable[[], np.ndarray]]:
        value, grad = state.at(w).loss_and_grad()
        point = w.copy()
        return value, grad, lambda: state.at(point).hessian()

    return loss, derivatives
