"""Synthetic data generators for the three study settings.

Setting "correct": exponential magnitudes with probabilistic,
size-dependent masking (the model the estimator assumes).
Setting "lognormal": log-normal magnitudes, same masking.
Setting "threshold": exponential magnitudes, deterministic masking of
every event below a fixed size.

Latent truth (y, u, r) is kept alongside the observed z so oracle fits
and true-response evaluation remain possible.
"""

from __future__ import annotations

import enum
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .model import Dataset
from .special import expit


class Setting(str, enum.Enum):
    CORRECT = "correct"
    LOGNORMAL = "lognormal"
    THRESHOLD = "threshold"


# Stream indices for seed spawning; fixed so that outputs are stable
# across releases and independent draws stay independent.
_S_PARAMS, _S_DESIGN, _S_LATENT, _S_MISSING, _S_TEST = range(5)


@dataclass
class SimConfig:
    setting: Setting
    n: int
    p: int = 10
    lambda_eps_true: float = 0.24
    tau: float = 3.0
    rho: float = 0.2
    param_scale: float | None = None  # variance of each coefficient entry; default 9/p
    seed: int = 0
    n_test: int = 50000

    def __post_init__(self):
        self.setting = Setting(self.setting)
        for name in ("n", "p", "n_test", "seed"):
            value = getattr(self, name)
            try:
                setattr(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        for name in ("n", "p", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not abs(self.rho) < 1:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho!r}")
        if self.param_scale is not None and not self.param_scale > 0:
            raise ValueError(f"param_scale must be positive, got {self.param_scale!r}")
        if self.setting is not Setting.THRESHOLD and self.lambda_eps_true <= 0:
            raise ValueError("lambda_eps_true must be positive")
        if self.setting is Setting.THRESHOLD and self.tau <= 0:
            raise ValueError("tau must be positive")

    @property
    def scale(self) -> float:
        return 9.0 / self.p if self.param_scale is None else self.param_scale


@dataclass
class SimOutput:
    train: Dataset
    test: Dataset
    beta0: np.ndarray
    theta0: np.ndarray
    config: SimConfig


def ar_covariance(p: int, rho: float) -> np.ndarray:
    """Covariance with entries rho^|i-j|."""
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def gen_design(n: int, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. mean-zero Gaussian rows with autoregressive covariance rho^|i-j|.

    Sampling goes through the Cholesky factor, so for a fixed stream the
    first rows do not depend on n.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    try:
        chol = np.linalg.cholesky(ar_covariance(p, rho))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"design covariance is not positive definite for rho={rho}") from exc
    return rng.standard_normal((n, p)) @ chol.T


def gen_params(p: int, scale: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two independent coefficient vectors with i.i.d. N(0, scale) entries."""
    sd = np.sqrt(scale)
    beta0 = sd * rng.standard_normal(p)
    theta0 = sd * rng.standard_normal(p)
    return beta0, theta0


def gen_latent(
    x: np.ndarray,
    beta0: np.ndarray,
    theta0: np.ndarray,
    setting: Setting,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Occurrence flags and true magnitudes for one row or a matrix of rows.

    u ~ Bernoulli(expit(x.theta0)); given an event, the magnitude is
    exponential with mean exp(x.beta0) (settings correct/threshold) or
    log-normal with log-mean x.beta0 and unit log-variance (lognormal).
    """
    setting = Setting(setting)
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    xb = x2 @ beta0
    xt = x2 @ theta0
    u = (rng.random(x2.shape[0]) < expit(xt)).astype(float)
    y = np.zeros(x2.shape[0])
    events = np.flatnonzero(u)
    if events.size:
        if setting is Setting.LOGNORMAL:
            y[events] = rng.lognormal(mean=xb[events], sigma=1.0)
        else:
            y[events] = rng.exponential(scale=np.exp(xb[events]))
    if np.asarray(x).ndim == 1:
        return float(u[0]), float(y[0])
    return u, y


def apply_missingness(
    y: np.ndarray,
    setting: Setting,
    lambda_eps_true: float,
    tau: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Detection flags and observed magnitudes z = y * r.

    Probabilistic settings record an event with probability
    1 - exp(-lambda_eps_true * y) (never when y = 0); the threshold
    setting records exactly the events with y >= tau.
    """
    setting = Setting(setting)
    y1 = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y1 < 0):
        raise ValueError("y must be nonnegative")
    if setting is Setting.THRESHOLD:
        r = (y1 >= tau).astype(float)
    else:
        gamma = -np.expm1(-lambda_eps_true * y1)
        r = (rng.random(y1.shape[0]) < gamma).astype(float)
    z = y1 * r
    if np.asarray(y).ndim == 0:
        return float(r[0]), float(z[0])
    return r, z


# The live designs by (split, seed, rows, p, rho).  Each is drawn from a
# substream that depends on nothing else, so every setting and n value of a
# trial reads one read-only array; an entry goes with the last Dataset holding it.
# No lock: threads that miss one key at once each draw the same values, and
# the last one's array stays in the map.
_DESIGNS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _design(split: str, n: int, cfg: SimConfig, stream: np.random.SeedSequence) -> np.ndarray:
    """The live design of this split, seed, size, p and rho, or a new read-only draw from stream."""
    key = (split, cfg.seed, n, cfg.p, cfg.rho)
    x = _DESIGNS.get(key)
    if x is None:
        x = gen_design(n, cfg.p, cfg.rho, np.random.default_rng(stream))
        x.flags.writeable = False
        _DESIGNS[key] = x
    return x


def _build_split(
    x: np.ndarray,
    cfg: SimConfig,
    beta0: np.ndarray,
    theta0: np.ndarray,
    rng_latent: np.random.Generator,
    rng_missing: np.random.Generator,
) -> Dataset:
    u, y = gen_latent(x, beta0, theta0, cfg.setting, rng_latent)
    r, z = apply_missingness(y, cfg.setting, cfg.lambda_eps_true, cfg.tau, rng_missing)
    return Dataset(x=x, z=z, y=y, u=u, r=r)


def make_datasets(cfg: SimConfig) -> SimOutput:
    """Train and test datasets from independent, purpose-keyed substreams.

    Parameters, design, latent draws, missingness and the test split each
    consume their own substream, so enlarging n leaves beta0/theta0 and
    the leading design rows unchanged.  The train design depends only on
    (seed, n, p, rho) and the test design only on (seed, n_test, p, rho),
    so the settings and n values of one experiment trial see the same
    designs (common random numbers).  While some Dataset holds a design,
    every call with the same key returns that very array, which is why
    the simulated x arrays are read-only; copy one before writing.  The
    experiment harness keeps each cell's datasets alive while it makes the
    next cell's, so back-to-back cells share their designs, and it rejects
    a repeated setting label, n value or method.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(5)
    beta0, theta0 = gen_params(cfg.p, cfg.scale, np.random.default_rng(children[_S_PARAMS]))
    train = _build_split(
        _design("train", cfg.n, cfg, children[_S_DESIGN]),
        cfg,
        beta0,
        theta0,
        np.random.default_rng(children[_S_LATENT]),
        np.random.default_rng(children[_S_MISSING]),
    )
    test_children = children[_S_TEST].spawn(3)
    test = _build_split(
        _design("test", cfg.n_test, cfg, test_children[0]),
        cfg,
        beta0,
        theta0,
        np.random.default_rng(test_children[1]),
        np.random.default_rng(test_children[2]),
    )
    train.validate_latent()
    test.validate_latent()
    return SimOutput(train=train, test=test, beta0=beta0, theta0=theta0, config=cfg)
