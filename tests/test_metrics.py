import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puomm import metrics
from puomm.baselines import TwoPartModel, fit_logistic
from puomm.dataio import write_metrics_csv
from puomm.metrics import CSV_COLUMNS, MetricsReport, evaluate_trial
from puomm.model import Dataset
from scipy.special import expit

from conftest import pu_model, z_pattern_datasets


class _Given:
    """A model whose predictions are given per row: each test row's one feature is its row index."""

    def __init__(self, probs, sizes, coefs):
        self.probs, self.sizes, self.coefs = np.asarray(probs, dtype=float), np.asarray(sizes, dtype=float), coefs

    def occurrence_prob(self, x):
        return self.probs[x[:, 0].astype(int)]

    recorded_prob = occurrence_prob

    def size_mean(self, x):
        return self.sizes[x[:, 0].astype(int)]

    def coefficients(self):
        return self.coefs


def _score(outcome, probs, yhat=None, truth=None, coefs=(np.zeros(1), np.zeros(1))) -> MetricsReport:
    """evaluate_trial of a model predicting probs and yhat, row by row, on test rows with these outcomes."""
    y = np.asarray(outcome, dtype=float)
    test = Dataset(x=np.arange(y.size, dtype=float)[:, None], z=y, y=y, u=(y > 0).astype(float), r=np.ones(y.size))
    model = _Given(probs, np.ones(y.size) if yhat is None else yhat, coefs)
    return evaluate_trial("m", model, test, truth=truth, mode="simulation")


def test_rmse_params_zero_and_hand_value():
    rep = _score([1.0], [0.5], truth=(np.ones(3), np.ones(3)), coefs=(np.ones(3), np.ones(3)))
    assert rep.rmse_beta == rep.rmse_theta == 0.0
    rep = _score([1.0], [0.5], truth=(np.zeros(2), np.ones(2)), coefs=(np.array([3.0, 4.0]), np.array([1.0, 2.0])))
    assert (rep.rmse_beta, rep.rmse_theta) == (5.0, 1.0)


def test_rmse_params_permutation_invariant():
    a, b = np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 2.0])
    perm = [2, 0, 1]
    rep = _score([1.0], [0.5], truth=(b, a), coefs=(a, b))
    permuted = _score([1.0], [0.5], truth=(b[perm], a[perm]), coefs=(a[perm], b[perm]))
    assert (rep.rmse_beta, rep.rmse_theta) == (permuted.rmse_beta, permuted.rmse_theta)


def test_rmse_params_length_mismatch():
    # the truth comes from outside (puomm evaluate --truth meta.json), so its length is checked
    with pytest.raises(ValueError, match="^estimate and truth must have equal length$"):
        _score([1.0], [0.5], truth=(np.ones(2), np.ones(3)), coefs=(np.ones(2), np.ones(2)))


def test_brier_values():
    assert _score([1.0, 0.0], [1.0, 0.0]).brier == 0.0
    assert _score([1.0, 0.0], [0.5, 0.5]).brier == 0.25
    assert _score([1.0, 1.0, 0.0], np.full(3, 0.5)).brier == 0.25


def test_misclassification_values():
    assert _score([1.0, 0.0], [1.0, 0.0]).misclassification == 0.0
    assert _score([1.0, 1.0, 0.0, 0.0], [0.6, 0.4, 0.6, 0.4]).misclassification == 0.5


def test_misclassification_half_probability_classifies_as_zero():
    labels = np.array([1.0, 1.0, 0.0, 1.0])
    assert _score(labels, np.full(4, 0.5)).misclassification == labels.mean()


def test_size_metrics_zero_error():
    y = np.array([1.0, 2.0, 3.0])
    rep = _score(y, np.full(3, 0.5), yhat=y)
    assert rep.mad == rep.rmse_pred == rep.smape == 0.0


def test_size_metrics_hand_values():
    rep = _score([2.0], [0.5], yhat=[4.0])
    assert rep.mad == 2.0
    assert rep.rmse_pred == 2.0
    assert rep.smape == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_smape_boundary_and_zero_pair():
    # a zero prediction of a positive size is smape's upper end
    assert _score([4.0], [0.5], yhat=[0.0]).smape == 2.0
    # a zero outcome predicted as zero is not a size row, so its 0/0 ratio never enters smape
    assert _score([3.0, 0.0], [0.5, 0.5], yhat=[0.0, 0.0]).smape == 2.0
    assert _score([3.0, 0.0], [0.5, 0.5], yhat=[3.0, 0.0]).smape == 0.0
    rng = np.random.default_rng(0)
    assert _score(rng.exponential(1, 100), np.full(100, 0.5), yhat=rng.exponential(1, 100)).smape <= 2.0


def test_predict_occurrence_pu_model_uses_theta_only():
    m1 = pu_model([5.0, 5.0], [0.0, 0.0], lam=0.1)
    m2 = pu_model([5.0, 5.0], [0.0, 0.0], lam=10.0)
    x = np.array([0.3, -0.7])
    assert m1.occurrence_prob(x) == 0.5
    assert m1.occurrence_prob(x) == m2.occurrence_prob(x)
    assert m1.recorded_prob(x) != m2.recorded_prob(x)


def test_predict_occurrence_baseline_delegates_to_logistic():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((300, 2))
    y = (rng.random(300) < expit(x @ np.array([0.5, -1.0]))).astype(float)
    coef, _, _ = fit_logistic(x, y)
    model = TwoPartModel(coef, np.zeros(2), "exponential")
    assert np.allclose(model.occurrence_prob(x), expit(x @ coef))
    assert np.array_equal(model.recorded_prob(x), model.occurrence_prob(x))


def test_predict_magnitude_families():
    x = np.array([0.0, 0.0])
    assert pu_model([0.0, 0.0], [1.0, 1.0]).size_mean(x) == 1.0
    logn = TwoPartModel(np.zeros(2), np.zeros(2), "lognormal", aux=0.25)
    assert logn.size_mean(x) == pytest.approx(np.exp(0.125), abs=1e-15)
    gamma = TwoPartModel(np.zeros(2), np.array([0.3, -0.2]), "gamma", aux=1.0)
    expo = TwoPartModel(np.zeros(2), np.array([0.3, -0.2]), "exponential")
    pts = np.array([[1.0, 2.0], [0.5, -0.5]])
    assert np.allclose(gamma.size_mean(pts), expo.size_mean(pts), atol=1e-6)


def test_evaluate_trial_simulation_mode_counts_and_floors():
    rng = np.random.default_rng(2)
    n, p = 400, 2
    x = rng.standard_normal((n, p))
    beta0 = np.array([0.4, -0.3])
    theta0 = np.array([1.0, 0.5])
    u = (rng.random(n) < expit(x @ theta0)).astype(float)
    y = np.where(u > 0, np.exp(x @ beta0), 0.0)  # deterministic size given x
    test = Dataset(x=x, z=y.copy(), y=y, u=u, r=u.copy())
    perfect = pu_model(beta0, theta0)
    rep = evaluate_trial("perfect", perfect, test, truth=(beta0, theta0), trial_id=3)
    assert rep.method_name == "perfect"
    assert rep.n_eval == n
    assert rep.n_eval_size == int((y > 0).sum())
    assert rep.trial_id == 3
    assert rep.rmse_beta == 0.0 and rep.rmse_theta == 0.0
    assert rep.mad == pytest.approx(0.0, abs=1e-12)
    assert rep.smape == pytest.approx(0.0, abs=1e-12)
    assert rep.brier <= 0.25


def test_evaluate_trial_observed_mode_skips_truth_metrics():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 2))
    z = np.where(rng.random(100) < 0.4, rng.exponential(1.0, 100), 0.0)
    test = Dataset(x=x, z=z)
    model = pu_model([0.1, 0.1], [0.2, -0.2])
    rep = evaluate_trial("m", model, test, truth=(np.zeros(2), np.zeros(2)))
    assert rep.rmse_beta is None and rep.rmse_theta is None
    assert rep.n_eval_size == int((z > 0).sum())


def test_evaluate_trial_missing_latent_raises():
    test = Dataset(x=np.ones((5, 1)), z=np.zeros(5))
    with pytest.raises(ValueError):
        evaluate_trial("m", pu_model([0.0], [0.0]), test, mode="simulation")


def test_metrics_report_csv_row_roundtrip(tmp_path):
    model = pu_model([0.0, 0.0], [0.0, 0.0])
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 2))
    z = np.where(rng.random(50) < 0.5, rng.exponential(1.0, 50), 0.0)
    rep = evaluate_trial("m", model, Dataset(x=x, z=z))
    write_metrics_csv(rep, tmp_path / "metrics.csv")
    header, row = (line.split(",") for line in (tmp_path / "metrics.csv").read_text().splitlines())
    assert tuple(header) == CSV_COLUMNS and len(row) == len(CSV_COLUMNS)
    assert row[0] == "m"
    assert row[2] == ""  # absent rmse_beta serializes empty
    assert float(row[4]) == rep.brier


@pytest.mark.parametrize("mode", ["simulation", "observed"])
def test_evaluate_trial_leaves_size_metrics_blank_without_size_rows(mode, tmp_path):
    # no y > 0 (simulation) or z > 0 (observed) rows: the size metrics are
    # undefined, so they are None and no empty-mean warning is raised
    x = np.random.default_rng(5).standard_normal((40, 2))
    zeros = np.zeros(40)
    test = Dataset(x=x, z=zeros, y=zeros, u=zeros, r=zeros) if mode == "simulation" else Dataset(x=x, z=zeros)
    truth = (np.zeros(2), np.zeros(2)) if mode == "simulation" else None
    models = {
        "pu": pu_model([0.1, 0.2], [0.3, -0.1]),
        "tp": TwoPartModel(np.zeros(2), np.zeros(2), "lognormal", aux=1.0),
    }
    for name, model in models.items():
        rep = evaluate_trial(name, model, test, truth=truth, mode=mode)
        assert (rep.mad, rep.rmse_pred, rep.smape) == (None, None, None)
        assert rep.n_eval_size == 0 and rep.n_eval == 40
        assert 0.0 <= rep.brier <= 1.0
        write_metrics_csv(rep, tmp_path / "metrics.csv")
        row = dict(zip(*(line.split(",") for line in (tmp_path / "metrics.csv").read_text().splitlines())))
        assert row["mad"] == row["rmse_pred"] == row["smape"] == ""


def reference_evaluate_trial(name, model, test, truth, mode) -> MetricsReport:
    """evaluate_trial written with boolean-mask row selection and one size prediction over all size rows."""
    outcome = test.y if mode == "simulation" else test.z
    mask = outcome > 0
    labels = mask.astype(float)
    probs = model.occurrence_prob(test.x) if mode == "simulation" else model.recorded_prob(test.x)
    size = dict.fromkeys(("mad", "rmse_pred", "smape"))
    if mask.any():
        y, yhat = outcome[mask], model.size_mean(test.x[mask])
        size = {
            "mad": float(np.mean(np.abs(y - yhat))),
            "rmse_pred": float(np.sqrt(np.mean((y - yhat) ** 2))),
            "smape": float(np.mean(2.0 * np.abs(y - yhat) / (np.abs(y) + np.abs(yhat)))),
        }
    rb = rt = None
    if truth is not None:
        est_beta, est_theta = model.coefficients()
        rb, rt = float(np.linalg.norm(est_beta - truth[0])), float(np.linalg.norm(est_theta - truth[1]))
    return MetricsReport(
        method_name=name, trial_id=0, rmse_beta=rb, rmse_theta=rt,
        brier=float(np.mean((probs - labels) ** 2)),
        misclassification=float(np.mean((probs > 0.5).astype(float) != labels)),
        **size, n_eval=test.n, n_eval_size=int(mask.sum()),
    )


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["simulation", "observed"]))
def test_evaluate_trial_matches_the_boolean_mask_reference(data, mode):
    test = data.draw(z_pattern_datasets(latent=mode == "simulation"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = test.p

    def coef():
        return rng.standard_normal(p) * 0.5

    models = {
        "pu": pu_model(coef(), coef(), lam=float(rng.uniform(0.05, 2.0))),
        "exponential": TwoPartModel(coef(), coef(), "exponential"),
        "gamma": TwoPartModel(coef(), coef(), "gamma", aux=1.5),
        "lognormal": TwoPartModel(coef(), coef(), "lognormal", aux=0.7),
    }
    truth = (coef(), coef()) if mode == "simulation" else None
    for name, model in models.items():
        # dataclass equality compares every float exactly
        assert evaluate_trial(name, model, test, truth=truth, mode=mode) == reference_evaluate_trial(
            name, model, test, truth, mode
        )


@pytest.mark.parametrize("mode", ["simulation", "observed"])
def test_evaluate_trial_matches_the_reference_across_size_blocks(mode):
    # thousands of size rows, so evaluate_trial predicts them in several blocks
    # (the last one partial) while the reference predicts them in one product
    rng = np.random.default_rng(21)
    n, p = 3 * metrics._SIZE_BLOCK + 517, 10
    x = rng.standard_normal((n, p))
    y = np.where(rng.random(n) < 0.7, rng.exponential(2.0, n), 0.0)
    r = (rng.random(n) < 0.8).astype(float)
    test = Dataset(x=x, z=y * r, y=y, u=(y > 0).astype(float), r=r)
    models = {
        "pu": pu_model(rng.standard_normal(p) * 0.3, rng.standard_normal(p) * 0.3, lam=0.4),
        "gamma": TwoPartModel(rng.standard_normal(p) * 0.3, rng.standard_normal(p) * 0.3, "gamma", aux=1.5),
        "lognormal": TwoPartModel(rng.standard_normal(p) * 0.3, rng.standard_normal(p) * 0.3, "lognormal", aux=0.7),
    }
    truth = (np.zeros(p), np.zeros(p)) if mode == "simulation" else None
    for name, model in models.items():
        got = evaluate_trial(name, model, test, truth=truth, mode=mode)
        assert got.n_eval_size > metrics._SIZE_BLOCK
        assert got == reference_evaluate_trial(name, model, test, truth, mode)
