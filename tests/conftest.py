import os
import tempfile

import numpy as np
import pytest

from puomm.model import Dataset, ParamPair, neg_log_likelihood
from puomm.optimizer import FitResult
from puomm.selection import PuOmmModel


def central_diff_gradient(omega: ParamPair, data: Dataset, d, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the mean negative log-likelihood."""
    w = omega.as_vector()
    out = np.zeros_like(w)
    for j in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[j] += step
        wm[j] -= step
        out[j] = (
            neg_log_likelihood(ParamPair.from_vector(wp), data, d)
            - neg_log_likelihood(ParamPair.from_vector(wm), data, d)
        ) / (2 * step)
    return out


def reference_loss_and_gradient(omega: ParamPair, data: Dataset, d) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient from per-row vectors in the original row order.

    An independent derivation, kept apart from the package's blocked
    row-terms pass so tests can compare the two.  The gradient is written
    through the mixture link h(a, b) = logit(expit(a) expit(b)) with
    a = x.beta + log lambda_eps and b = x.theta: both blocks share the
    residual u - expit(h), and recorded rows add the exponential-GLM score
    to the beta block.
    """
    from scipy.special import expit, log_expit

    xb = data.x @ omega.beta
    a, b = xb + np.log(d.lambda_eps), data.x @ omega.theta
    pos = data.z > 0
    terms = np.empty(data.n)
    q = np.minimum(expit(a) * expit(b), 1.0 - 1e-15)
    terms[~pos] = np.log1p(-q[~pos])
    terms[pos] = -xb[pos] - np.exp(-xb[pos]) * data.z[pos] + log_expit(b[pos])

    h1, h2 = expit(-a) / (1.0 - q), expit(-b) / (1.0 - q)
    resid = pos - q
    beta_w = resid * h1
    beta_w[pos] -= -np.exp(-xb[pos]) * data.z[pos] + 2.0 - expit(a[pos])
    grad = -np.concatenate([data.x.T @ beta_w, data.x.T @ (resid * h2)]) / data.n
    return float(-np.sum(terms) / data.n), grad


def pu_model(beta, theta, lam=0.5) -> PuOmmModel:
    """A fitted-looking PuOmmModel at the given coefficients."""
    omega = ParamPair(np.asarray(beta, dtype=float), np.asarray(theta, dtype=float))
    res = FitResult(omega_hat=omega, converged=True, iterations=1, final_loss=0.0)
    return PuOmmModel(omega_hat=omega, lambda_hat=lam, fit=res, selection_scores=[(lam, 0.0)])


def random_dataset(rng: np.random.Generator, n: int, p: int, detect_rate: float = 0.24) -> Dataset:
    """Rows from the assumed generative model at random coefficients."""
    from scipy.special import expit

    x = rng.standard_normal((n, p))
    beta = rng.standard_normal(p) * 0.7
    theta = rng.standard_normal(p) * 0.7
    u = rng.random(n) < expit(x @ theta)
    y = np.where(u, rng.exponential(np.exp(x @ beta)), 0.0)
    r = rng.random(n) < -np.expm1(-detect_rate * y)
    return Dataset(x=x, z=y * r)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fork_hygiene(monkeypatch):
    """Fail a test that leaves a forked child unreaped or a temp file from mkstemp behind."""
    made = []
    mkstemp = tempfile.mkstemp

    def recording_mkstemp(*args, **kwargs):
        fd, name = mkstemp(*args, **kwargs)
        made.append(name)
        return fd, name

    monkeypatch.setattr(tempfile, "mkstemp", recording_mkstemp)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [name for name in made if os.path.exists(name)] == []
