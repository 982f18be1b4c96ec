"""Probabilistic core: zero-inflated exponential mixture with size-dependent detection.

The response is a mixture of a point mass at zero (no event) and an
exponential magnitude law whose rate depends on features through a log
link.  Events are recorded only with probability 1 - exp(-lambda_eps * y),
so a recorded zero may be a true negative or an undetected positive.
Marginalizing the detection indicator gives a closed-form likelihood in
the stacked parameter omega = (beta, theta); this module evaluates that
likelihood, its analytic gradient and its analytic Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import expit, log_expit

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
class ObservedSample:
    """One data row: features and the recorded (possibly masked) magnitude."""

    x: np.ndarray
    z: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.z = float(self.z)
        if self.x.ndim != 1:
            raise ValueError("x must be a 1-D feature vector")
        if not np.isfinite(self.x).all():
            raise ValueError("feature entries must be finite")
        if self.z < 0:
            raise ValueError(f"z must be nonnegative, got {self.z}")


@dataclass
class LatentSample:
    """A simulator row that still carries the unmasked truth.

    u flags a true event, y its size, r whether it was recorded; the
    observed magnitude is z = y * r.  Estimators never see u, y, r.
    """

    x: np.ndarray
    y: float
    u: int
    r: int
    z: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.u != (1 if self.y > 0 else 0):
            raise ValueError("u must equal 1 exactly when y > 0")
        expected_z = self.y if self.r == 1 else 0.0
        if self.z != expected_z:
            raise ValueError("z must equal y*r")

    def observed(self) -> ObservedSample:
        return ObservedSample(x=self.x, z=self.z)


@dataclass
class Dataset:
    """Row-major feature matrix with the observed magnitude column.

    Latent columns (y, u, r) are present only for simulated data and are
    consumed exclusively by oracle fitting and evaluation code.
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
        if self.z.shape != (self.x.shape[0],):
            raise ValueError("z must be a length-n vector")
        if np.any(self.z < 0):
            bad = int(np.argmax(self.z < 0))
            raise ValueError(f"z must be nonnegative (row {bad})")
        for name in ("y", "u", "r"):
            col = getattr(self, name)
            if col is not None:
                setattr(self, name, np.asarray(col, dtype=float))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def has_latent(self) -> bool:
        return self.y is not None and self.u is not None

    def row(self, i: int) -> ObservedSample:
        return ObservedSample(x=self.x[i], z=float(self.z[i]))

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


def sigmoid(t):
    """Logistic function 1 / (1 + exp(-t)), overflow-safe for any float."""
    return expit(t)


def occurrence_prob(x: np.ndarray, theta: np.ndarray):
    """P(event occurs | x) = sigmoid(x . theta); x may be a vector or an (n, p) matrix."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if x.shape[-1] != theta.shape[0]:
        raise ValueError(f"dimension mismatch: x has {x.shape[-1]} features, theta has {theta.shape[0]}")
    return expit(x @ theta)


def magnitude_density(t, x: np.ndarray, beta: np.ndarray):
    """Exponential magnitude density at t > 0, rate exp(-x . beta)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("magnitude density is defined for t > 0 only")
    rate = np.exp(-np.asarray(x, dtype=float) @ np.asarray(beta, dtype=float))
    return rate * np.exp(-rate * t)


def detection_prob(y, d: DetectionParam):
    """Probability a magnitude-y event is recorded: 1 - exp(-lambda_eps * y)."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    return -np.expm1(-d.lambda_eps * y)


def phi(x: np.ndarray, beta: np.ndarray, d: DetectionParam):
    """Marginal detection probability of an occurred event given features.

    The exponential detection curve integrates against the exponential
    magnitude law in closed form:
    lambda_eps / (lambda_eps + exp(-x.beta)) = sigmoid(x.beta + log lambda_eps).
    """
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if x.shape[-1] != beta.shape[0]:
        raise ValueError(f"dimension mismatch: x has {x.shape[-1]} features, beta has {beta.shape[0]}")
    return expit(x @ beta + np.log(d.lambda_eps))


def mixture_link(a, b):
    """h(a, b) = logit(sigmoid(a) * sigmoid(b)); satisfies sigmoid(h) = sigmoid(a)sigmoid(b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # 1 - s(a)s(b) = s(-a) + s(a)s(-b) avoids cancellation when the product nears 1.
    one_minus = expit(-a) + expit(a) * expit(-b)
    return log_expit(a) + log_expit(b) - np.log(one_minus)


def mixture_link_partials(a, b):
    """Partials (h1, h2) of the mixture link; both lie in [0, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    one_minus = expit(-a) + expit(a) * expit(-b)
    # the exact ratios are in [0, 1]; clip the 1-ulp float excess
    return np.clip(expit(-a) / one_minus, 0.0, 1.0), np.clip(expit(-b) / one_minus, 0.0, 1.0)


def _linear_terms(omega: ParamPair, x: np.ndarray, d: DetectionParam):
    xb = x @ omega.beta
    a = xb + np.log(d.lambda_eps)
    b = x @ omega.theta
    return xb, a, b


def _log_terms(omega: ParamPair, x: np.ndarray, z: np.ndarray, d: DetectionParam) -> np.ndarray:
    """Per-sample log-likelihood contributions, vectorized over rows.

    Overflow is left to produce inf and reported by the callers'
    finiteness check, not a warning.
    """
    xb, a, b = _linear_terms(omega, x, d)
    pos = z > 0
    out = np.empty(z.shape[0])
    with np.errstate(over="ignore"):
        q = np.minimum(expit(a[~pos]) * expit(b[~pos]), _Q_MAX)
        out[~pos] = np.log1p(-q)
        out[pos] = -xb[pos] - np.exp(-xb[pos]) * z[pos] + log_expit(b[pos])
    return out


def _check_finite(values: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NumericalError(f"non-finite {what} at sample {idx}", index=idx)


def per_sample_loss(omega: ParamPair, s: ObservedSample, d: DetectionParam) -> float:
    """Log-likelihood of one row.

    z > 0 rows contribute log g(z|x) + log p1(x); z = 0 rows contribute
    log(1 - phi(x) p1(x)).  The detection factor log(1 - exp(-lambda_eps z))
    on recorded rows is constant in omega and omitted, so values are not
    comparable across lambda_eps.
    """
    if s.x.shape[0] != omega.p:
        raise ValueError(f"dimension mismatch: x has {s.x.shape[0]} features, parameters have {omega.p}")
    val = _log_terms(omega, s.x[None, :], np.array([s.z]), d)
    _check_finite(val, "log-likelihood term")
    return float(val[0])


def neg_log_likelihood(omega: ParamPair, data: Dataset, d: DetectionParam) -> float:
    """Mean negative log-likelihood over the dataset.

    Summation is a fixed-order reduction over rows, so repeated calls on
    identical inputs are bit-identical.
    """
    if data.n < 1:
        raise ValueError("dataset must contain at least one sample")
    if data.p != omega.p:
        raise ValueError(f"dimension mismatch: data has {data.p} features, parameters have {omega.p}")
    terms = _log_terms(omega, data.x, data.z, d)
    _check_finite(terms, "log-likelihood term")
    return float(-np.sum(terms) / data.n)


def gradient(omega: ParamPair, data: Dataset, d: DetectionParam) -> np.ndarray:
    """Analytic gradient of the mean negative log-likelihood, stacked [d/dbeta; d/dtheta].

    Written through the mixture link h(x.beta + log lambda_eps, x.theta):
    both blocks share the residual u - sigmoid(h); recorded rows add the
    exponential-GLM score to the beta block.
    """
    if data.n < 1:
        raise ValueError("dataset must contain at least one sample")
    if data.p != omega.p:
        raise ValueError(f"dimension mismatch: data has {data.p} features, parameters have {omega.p}")
    xb, a, b = _linear_terms(omega, data.x, d)
    with np.errstate(over="ignore"):
        sig_a = expit(a)
        q = np.minimum(sig_a * expit(b), _Q_MAX)
        one_minus = 1.0 - q
        h1 = expit(-a) / one_minus
        h2 = expit(-b) / one_minus

        u = (data.z > 0).astype(float)
        resid = u - q
        beta_w = resid * h1
        pos = data.z > 0
        beta_w[pos] -= -np.exp(-xb[pos]) * data.z[pos] + 2.0 - sig_a[pos]
        theta_w = resid * h2
    _check_finite(beta_w, "gradient weight")
    _check_finite(theta_w, "gradient weight")

    g_beta = -(data.x.T @ beta_w) / data.n
    g_theta = -(data.x.T @ theta_w) / data.n
    return np.concatenate([g_beta, g_theta])


def _split_rows(data: Dataset):
    """Recorded-row features, zero-row features and recorded sizes, as contiguous blocks."""
    if data.n < 1:
        raise ValueError("dataset must contain at least one sample")
    pos = data.z > 0
    return np.ascontiguousarray(data.x[pos]), np.ascontiguousarray(data.x[~pos]), data.z[pos]


def make_objective(data: Dataset, d: DetectionParam):
    """Loss and loss+gradient closures over the stacked parameter vector.

    Rows are split once into recorded/zero blocks so the optimizer's
    inner loop avoids repeated boolean indexing; values agree with
    neg_log_likelihood/gradient up to summation order.
    """
    Xp, Xn, zp = _split_rows(data)
    n, p = data.n, data.p
    loglam = np.log(d.lambda_eps)

    def _pos_terms(w):
        xbp = Xp @ w[:p]
        bp = Xp @ w[p:]
        with np.errstate(over="ignore"):
            ratep = np.exp(-xbp)
            ell = -xbp - ratep * zp + log_expit(bp)
        return xbp, bp, ratep, ell

    def _neg_parts(w):
        an = Xn @ w[:p] + loglam
        bn = Xn @ w[p:]
        sig_an = expit(an)
        qn = np.minimum(sig_an * expit(bn), _Q_MAX)
        return an, bn, sig_an, qn

    def loss(w: np.ndarray) -> float:
        *_, qn = _neg_parts(w)
        *_, ell_p = _pos_terms(w)
        total = np.sum(np.log1p(-qn)) + np.sum(ell_p)
        if not np.isfinite(total):
            raise NumericalError("non-finite log-likelihood term")
        return float(-total / n)

    def loss_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        an, bn, sig_an, qn = _neg_parts(w)
        xbp, bp, ratep, ell_p = _pos_terms(w)
        total = np.sum(np.log1p(-qn)) + np.sum(ell_p)

        # zero rows: residual is -q, shared by both blocks of the gradient
        one_minus = 1.0 - qn
        scaled = qn / one_minus
        gn_beta = Xn.T @ (scaled * expit(-an))
        gn_theta = Xn.T @ (scaled * expit(-bn))
        # recorded rows: logistic part in theta, exponential-GLM score in beta
        gp_beta = Xp.T @ (ratep * zp - 1.0)
        gp_theta = Xp.T @ expit(-bp)
        g = np.concatenate([(gn_beta - gp_beta) / n, (gn_theta - gp_theta) / n])
        if not (np.isfinite(total) and np.isfinite(g).all()):
            raise NumericalError("non-finite log-likelihood or gradient term")
        return float(-total / n), g

    return loss, loss_and_grad


def make_hessian(data: Dataset, d: DetectionParam):
    """Closure for the 2p x 2p Hessian of make_objective's loss.

    Each row's loss depends on omega only through a = x.beta + log
    lambda_eps and b = x.theta, so the Hessian is X^T diag(w) X in four
    blocks.  A zero row contributes f = -log(1 - q), q = sigmoid(a)
    sigmoid(b); with A = df/da = q sigmoid(-a) / (1 - q) and B = df/db,
        f_aa = A (sigmoid(-a) - sigmoid(a) + A),   f_bb likewise in b,
        f_ab = A sigmoid(-b) / (1 - q).
    A recorded row adds z exp(-x.beta) to the beta block and
    sigmoid(b) sigmoid(-b) to the theta block, with no cross term.  The
    three weight vectors cost O(n p^2) to apply.
    """
    Xp, Xn, zp = _split_rows(data)
    n, p = data.n, data.p
    loglam = np.log(d.lambda_eps)
    X = np.vstack([Xn, Xp])

    def hess(w: np.ndarray) -> np.ndarray:
        an = Xn @ w[:p] + loglam
        bn = Xn @ w[p:]
        bp = Xp @ w[p:]
        sig_an, sig_bn, comp_an, comp_bn = expit(an), expit(bn), expit(-an), expit(-bn)
        qn = np.minimum(sig_an * sig_bn, _Q_MAX)
        one_minus = 1.0 - qn
        fa, fb = qn / one_minus * comp_an, qn / one_minus * comp_bn
        with np.errstate(over="ignore"):
            rate_z = np.exp(-(Xp @ w[:p])) * zp
        w_bb = np.concatenate([fa * (comp_an - sig_an + fa), rate_z])
        w_tt = np.concatenate([fb * (comp_bn - sig_bn + fb), expit(bp) * expit(-bp)])
        w_bt = fa * comp_bn / one_minus
        h_bb = (X * w_bb[:, None]).T @ X
        h_tt = (X * w_tt[:, None]).T @ X
        h_bt = (Xn * w_bt[:, None]).T @ Xn
        return np.block([[h_bb, h_bt], [h_bt.T, h_tt]]) / n

    return hess
