import contextlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import strategies as st

from puomm.model import Dataset, ParamPair
from puomm.optimizer import FitResult
from puomm.selection import PuOmmModel


def central_differences(f, w: np.ndarray, step: float, order: int) -> np.ndarray:
    """Central differences of f at w along each coordinate, of order 2 or 4 in step.

    f maps a vector to a float, and the result approximates its gradient.
    An f returning an array gives the Jacobian instead, column j holding
    the differences along coordinate j.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    cols = []
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = step
        if order == 2:
            cols.append((f(w + e) - f(w - e)) / (2 * step))
        else:
            cols.append((-f(w + 2 * e) + 8 * f(w + e) - 8 * f(w - e) + f(w - 2 * e)) / (12 * step))
    return np.array(cols).T


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
    return PuOmmModel(lambda_hat=lam, fit=res, selection_scores=[(lam, 0.0)])


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


def assert_read_only(ds: Dataset) -> None:
    """Every array ds holds refuses a write with ValueError."""
    for name in ("x", "z", "y", "u", "r"):
        col = getattr(ds, name)
        if col is not None:
            with pytest.raises(ValueError, match="read-only"):
                col[...] = 1.0


@contextlib.contextmanager
def objective_points():
    """Copies of the points that optimizer.fit's objective closures see while the block runs, and their losses.

    Yields (points, losses), two dicts {"loss": [...], "derivatives": [...]}
    filled in call order by wrapping optimizer.make_objective, as the
    benchmark's tracer does: each call records its point, then the loss it
    returns (a call that raises records no loss).  loss sees the line
    searches' trial points; derivatives sees the start and every
    accepted iterate after which the fit went on.
    """
    from puomm import optimizer

    points = {"loss": [], "derivatives": []}
    losses = {"loss": [], "derivatives": []}
    make_objective = optimizer.make_objective

    def recording(data, d):
        def recorded(kind, f):
            def call(w):
                points[kind].append(w.copy())
                out = f(w)
                losses[kind].append(out if kind == "loss" else out[0])
                return out

            return call

        return tuple(recorded(kind, f) for kind, f in zip(points, make_objective(data, d)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "make_objective", recording)
        yield points, losses


def accepted_iterates(points, losses, res) -> tuple[np.ndarray, list[float]]:
    """The start and every accepted iterate of one fit run under objective_points, in order, and their losses.

    The fit evaluates derivatives at the start and at every accepted
    iterate after which it went on; a converged fit's last iterate is its
    omega_hat, at its final_loss.
    """
    if not res.converged:
        return np.array(points["derivatives"]), losses["derivatives"]
    return np.array(points["derivatives"] + [res.omega_hat.as_vector()]), losses["derivatives"] + [res.final_loss]


@st.composite
def z_pattern_datasets(draw, latent=False):
    """Small datasets whose size rows are all rows, one row, no row or a random share.

    Without latent columns the size rows are z > 0.  With them they are
    y > 0, and z = y * r records a random share of those rows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    rows = {
        "all": np.ones(n, dtype=bool),
        "one": np.arange(n) == rng.integers(n),
        "none": np.zeros(n, dtype=bool),
        "random": rng.random(n) < 0.5,
    }[draw(st.sampled_from(["all", "one", "none", "random"]))]
    x = rng.standard_normal((n, p))
    sizes = np.where(rows, rng.exponential(1.0, n) + 1e-3, 0.0)
    if not latent:
        return Dataset(x=x, z=sizes)
    r = (rng.random(n) < 0.5).astype(float)
    return Dataset(x=x, z=sizes * r, y=sizes, u=rows.astype(float), r=r)


@st.composite
def tables_with_bad_cells(draw):
    """(x, cols): a table breaking the Dataset row rule, cols holding z or z, y, u, r by name.

    The latent columns, when drawn, keep u = 1{y > 0} and z = y * r.  Then
    one to three cells go bad: NaN, +-inf or a negative z and, with the
    latent columns, a flipped u or a z moved off y * r.  A negative value
    always lands in z, where it is the only place it is bad.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    x = rng.standard_normal((n, p))
    y = np.where(rng.random(n) < 0.5, rng.exponential(1.0, n), 0.0)
    cols = {"z": y}
    if draw(st.booleans()):
        r = (rng.random(n) < 0.5).astype(float)
        cols = {"z": y * r, "y": y, "u": (y > 0).astype(float), "r": r}
    breaks = [np.nan, np.inf, -np.inf, -1.5] + (["flip u", "move z"] if "y" in cols else [])
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, p + len(cols) - 1))
        value = draw(st.sampled_from(breaks))
        if value == "flip u":
            cols["u"][i] = float(not y[i] > 0)
        elif value == "move z":
            cols["z"][i] += 1.0
        elif value == -1.5:
            cols["z"][i] = value
        elif j < p:
            x[i, j] = value
        else:
            cols[list(cols)[j - p]][i] = value
    return x, cols


def reference_row_error(x: np.ndarray, cols: dict) -> tuple[int, str] | None:
    """The first row breaking the Dataset row rule and the words of its rule, found one row at a time.

    First a row holding a non-finite cell or a negative z; only when there
    is none, the first row whose latent columns break u = 1{y > 0} or
    z = y * r.
    """
    z = cols["z"]
    for i in range(len(z)):
        if not (np.isfinite(x[i]).all() and all(np.isfinite(col[i]) for col in cols.values())):
            return i, "non-finite cell"
        if z[i] < 0:
            return i, f"z must be nonnegative, got {z[i]}"
    if "y" in cols:
        for i, (zi, yi, ui, ri) in enumerate(zip(z, cols["y"], cols["u"], cols["r"])):
            if ui != float(yi > 0):
                return i, "u must equal 1{y > 0}"
            if zi != yi * ri:
                return i, "z must equal y * r"
    return None


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
