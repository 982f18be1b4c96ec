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
import weakref
from dataclasses import dataclass

import numpy as np

from .model import Dataset, is_real_in, store_integer_fields
from .special import expit


class Setting(str, enum.Enum):
    CORRECT = "correct"
    LOGNORMAL = "lognormal"
    THRESHOLD = "threshold"


# Stream indices for seed spawning; fixed so that outputs are stable
# across releases and independent draws stay independent.
_S_PARAMS, _S_DESIGN, _S_LATENT, _S_MISSING, _S_TEST = range(5)
# Rows of standard normals gen_design draws at a time.
_DESIGN_BLOCK = 1024


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
        store_integer_fields(self, ("n", "p", "n_test", "seed"))
        for name in ("n", "p", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not is_real_in(self.rho, -1, 1):
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho!r}")
        if self.param_scale is not None and not is_real_in(self.param_scale, 0, np.inf):
            raise ValueError(f"param_scale must be positive and finite, got {self.param_scale!r}")
        rate = "tau" if self.setting is Setting.THRESHOLD else "lambda_eps_true"
        if not is_real_in(getattr(self, rate), 0, np.inf):
            raise ValueError(f"{rate} must be a finite positive real, got {getattr(self, rate)!r}")

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
    first rows do not depend on n.  The normals are drawn and transformed
    _DESIGN_BLOCK rows at a time straight into the output, so no second
    n x p array is made.  The values equal those of one whole-array draw
    to rounding.  They were bit-equal with OpenBLAS 0.3.31 on an x86-64
    Xeon at 1 and 2 threads, for n up to 60,000 and p up to 59; another
    BLAS kernel or thread split may round a row differently.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    try:
        chol = np.linalg.cholesky(ar_covariance(p, rho))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"design covariance is not positive definite for rho={rho}") from exc
    block = min(n, _DESIGN_BLOCK)
    out = np.empty((n, p))
    normals = np.empty((block, p))
    for start in range(0, n, block):
        fresh = min(block, n - start)
        # a short last block keeps the previous block's last normals ahead of
        # its own and rewrites their rows with the same values: every product
        # has block rows, as OpenBLAS rounds a small product differently
        normals[: block - fresh] = normals[fresh:]
        rng.standard_normal(out=normals[block - fresh :])
        stop = start + fresh
        np.matmul(normals, chol.T, out=out[stop - block : stop])
    return out


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
    """Occurrence flags and true magnitudes for the rows of the matrix x.

    u ~ Bernoulli(expit(x.theta0)); given an event, the magnitude is
    exponential with mean exp(x.beta0) (settings correct/threshold) or
    log-normal with log-mean x.beta0 and unit log-variance (lognormal).
    """
    setting = Setting(setting)
    xb = x @ beta0
    xt = x @ theta0
    u = (rng.random(x.shape[0]) < expit(xt)).astype(float)
    y = np.zeros(x.shape[0])
    events = np.flatnonzero(u)
    if events.size:
        if setting is Setting.LOGNORMAL:
            y[events] = rng.lognormal(mean=xb[events], sigma=1.0)
        else:
            y[events] = rng.exponential(scale=np.exp(xb[events]))
    return u, y


def apply_missingness(
    y: np.ndarray,
    setting: Setting,
    lambda_eps_true: float,
    tau: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Detection flags and observed magnitudes z = y * r for the vector of magnitudes y.

    Probabilistic settings record an event with probability
    1 - exp(-lambda_eps_true * y) (never when y = 0); the threshold
    setting records exactly the events with y >= tau.
    """
    setting = Setting(setting)
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    if setting is Setting.THRESHOLD:
        r = (y >= tau).astype(float)
    else:
        gamma = -np.expm1(-lambda_eps_true * y)
        r = (rng.random(y.shape[0]) < gamma).astype(float)
    return r, y * r


# The live designs by (split, seed, rows, p, rho).  Each is drawn from a
# substream that depends on nothing else, so every setting and n value of a
# trial reads one array, which its first Dataset marks read-only; an entry goes
# with the last Dataset holding it.
# No lock: threads that miss one key at once each draw the same values, and
# the last one's array stays in the map.
_DESIGNS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _design(split: str, n: int, cfg: SimConfig, stream: np.random.SeedSequence) -> np.ndarray:
    """The live design of this split, seed, size, p and rho, or a new draw from stream."""
    key = (split, cfg.seed, n, cfg.p, cfg.rho)
    x = _DESIGNS.get(key)
    if x is None:
        x = _DESIGNS[key] = gen_design(n, cfg.p, cfg.rho, np.random.default_rng(stream))
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
    every call with the same key returns that very array; like every
    Dataset array it is read-only, so copy one before writing.  The
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
    return SimOutput(train=train, test=test, beta0=beta0, theta0=theta0, config=cfg)
