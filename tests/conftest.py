import os
import tempfile

import numpy as np
import pytest

from puomm.model import Dataset, ParamPair, neg_log_likelihood


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
