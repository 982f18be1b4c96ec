import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puomm import metrics
from puomm.baselines import TwoPartModel, fit_logistic
from puomm.metrics import (
    CSV_COLUMNS,
    MetricsReport,
    _coef_pair,
    _recorded_occurrence_prob,
    brier,
    evaluate_trial,
    mad,
    misclassification,
    predict_magnitude,
    predict_occurrence,
    rmse_params,
    rmse_pred,
    smape,
)
from puomm.model import Dataset
from scipy.special import expit

from conftest import pu_model, z_pattern_datasets


def test_rmse_params_zero_and_hand_value():
    assert rmse_params(np.ones(3), np.ones(3)) == 0.0
    assert rmse_params(np.array([3.0, 4.0]), np.zeros(2)) == 5.0


def test_rmse_params_permutation_invariant():
    a, b = np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 2.0])
    perm = [2, 0, 1]
    assert rmse_params(a, b) == rmse_params(a[perm], b[perm])


def test_rmse_params_length_mismatch():
    with pytest.raises(ValueError):
        rmse_params(np.ones(2), np.ones(3))


def test_brier_values():
    assert brier(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert brier(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == 0.25
    assert brier(np.array([1.0, 1.0, 0.0]), np.full(3, 0.5)) == 0.25


def test_brier_rejects_out_of_range():
    with pytest.raises(ValueError):
        brier(np.array([1.0]), np.array([1.1]))


def test_misclassification_values():
    assert misclassification(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    labels = np.array([1.0, 1.0, 0.0, 0.0])
    probs = np.array([0.6, 0.4, 0.6, 0.4])
    assert misclassification(labels, probs) == 0.5


def test_misclassification_half_probability_classifies_as_zero():
    labels = np.array([1.0, 1.0, 0.0, 1.0])
    assert misclassification(labels, np.full(4, 0.5)) == labels.mean()


def test_size_metrics_zero_error():
    y = np.array([1.0, 2.0, 3.0])
    assert mad(y, y) == 0.0
    assert rmse_pred(y, y) == 0.0
    assert smape(y, y) == 0.0


def test_size_metrics_hand_values():
    y, yhat = np.array([2.0]), np.array([4.0])
    assert mad(y, yhat) == 2.0
    assert rmse_pred(y, yhat) == 2.0
    assert smape(y, yhat) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_smape_boundary_and_zero_pair():
    assert smape(np.array([0.0]), np.array([4.0])) == 2.0
    assert smape(np.array([0.0]), np.array([0.0])) == 0.0
    rng = np.random.default_rng(0)
    y, yhat = rng.exponential(1, 100), rng.exponential(1, 100)
    assert smape(y, yhat) <= 2.0


def test_predict_occurrence_pu_model_uses_theta_only():
    m1 = pu_model([5.0, 5.0], [0.0, 0.0], lam=0.1)
    m2 = pu_model([5.0, 5.0], [0.0, 0.0], lam=10.0)
    x = np.array([0.3, -0.7])
    assert predict_occurrence(m1, x) == 0.5
    assert predict_occurrence(m1, x) == predict_occurrence(m2, x)


def test_predict_occurrence_baseline_delegates_to_logistic():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((300, 2))
    y = (rng.random(300) < expit(x @ np.array([0.5, -1.0]))).astype(float)
    coef = fit_logistic(x, y)
    model = TwoPartModel(coef, np.zeros(2), "exponential")
    assert np.allclose(predict_occurrence(model, x), expit(x @ coef))


def test_predict_magnitude_families():
    x = np.array([0.0, 0.0])
    assert predict_magnitude(pu_model([0.0, 0.0], [1.0, 1.0]), x) == 1.0
    logn = TwoPartModel(np.zeros(2), np.zeros(2), "lognormal", aux=0.25)
    assert predict_magnitude(logn, x) == pytest.approx(np.exp(0.125), abs=1e-15)
    gamma = TwoPartModel(np.zeros(2), np.array([0.3, -0.2]), "gamma", aux=1.0)
    expo = TwoPartModel(np.zeros(2), np.array([0.3, -0.2]), "exponential")
    pts = np.array([[1.0, 2.0], [0.5, -0.5]])
    assert np.allclose(predict_magnitude(gamma, pts), predict_magnitude(expo, pts), atol=1e-6)


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
    reports = evaluate_trial({"perfect": perfect}, test, truth=(beta0, theta0), trial_id=3)
    rep = reports[0]
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
    rep = evaluate_trial({"m": model}, test)[0]
    assert rep.rmse_beta is None and rep.rmse_theta is None
    assert rep.n_eval_size == int((z > 0).sum())


def test_evaluate_trial_missing_latent_raises():
    test = Dataset(x=np.ones((5, 1)), z=np.zeros(5))
    with pytest.raises(ValueError):
        evaluate_trial({"m": pu_model([0.0], [0.0])}, test, mode="simulation")


def test_evaluate_trial_validates_each_models_probabilities_once(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 2))
    test = Dataset(x=x, z=np.where(rng.random(60) < 0.5, rng.exponential(1.0, 60), 0.0))
    models = {"a": pu_model([0.1, 0.1], [0.2, -0.2]), "b": pu_model([0.0, 0.3], [-0.1, 0.4])}
    expected = evaluate_trial(models, test)
    calls = []
    check = metrics._check_paired
    monkeypatch.setattr(metrics, "_check_paired", lambda *a: calls.append(a) or check(*a))
    got = evaluate_trial(models, test)
    assert len(calls) == len(models)
    assert got == expected
    probs = _recorded_occurrence_prob(models["a"], x)
    labels = (test.z > 0).astype(float)
    assert (got[0].brier, got[0].misclassification) == (brier(labels, probs), misclassification(labels, probs))


def test_metrics_report_csv_row_roundtrip():
    model = pu_model([0.0, 0.0], [0.0, 0.0])
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 2))
    z = np.where(rng.random(50) < 0.5, rng.exponential(1.0, 50), 0.0)
    rep = evaluate_trial({"m": model}, Dataset(x=x, z=z))[0]
    row = rep.to_csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == "m"
    assert row[2] == ""  # absent rmse_beta serializes empty
    assert float(row[4]) == rep.brier


@pytest.mark.parametrize("mode", ["simulation", "observed"])
def test_evaluate_trial_leaves_size_metrics_blank_without_size_rows(mode):
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
    for rep in evaluate_trial(models, test, truth=truth, mode=mode):
        assert (rep.mad, rep.rmse_pred, rep.smape) == (None, None, None)
        assert rep.n_eval_size == 0 and rep.n_eval == 40
        assert 0.0 <= rep.brier <= 1.0
        row = dict(zip(CSV_COLUMNS, rep.to_csv_row()))
        assert row["mad"] == row["rmse_pred"] == row["smape"] == ""


def reference_evaluate_trial(models, test, truth, mode) -> list[MetricsReport]:
    """evaluate_trial written with boolean-mask row selection, model by model."""
    reports = []
    for name, model in models.items():
        outcome = test.y if mode == "simulation" else test.z
        mask = outcome > 0
        labels = mask.astype(float)
        if mode == "simulation":
            probs = predict_occurrence(model, test.x)
        else:
            probs = _recorded_occurrence_prob(model, test.x)
        size = dict.fromkeys(("mad", "rmse_pred", "smape"))
        if mask.any():
            y, yhat = outcome[mask], predict_magnitude(model, test.x[mask])
            size = {"mad": mad(y, yhat), "rmse_pred": rmse_pred(y, yhat), "smape": smape(y, yhat)}
        rb = rt = None
        if truth is not None:
            est_beta, est_theta = _coef_pair(model)
            rb, rt = rmse_params(est_beta, truth[0]), rmse_params(est_theta, truth[1])
        reports.append(MetricsReport(
            method_name=name, trial_id=0, rmse_beta=rb, rmse_theta=rt,
            brier=brier(labels, probs), misclassification=misclassification(labels, probs),
            **size, n_eval=test.n, n_eval_size=int(mask.sum()),
        ))
    return reports


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
    got = evaluate_trial(models, test, truth=truth, mode=mode)
    expected = reference_evaluate_trial(models, test, truth, mode)
    # repr round-trips every float, so equal rows are bit-equal reports
    assert [r.to_csv_row() for r in got] == [r.to_csv_row() for r in expected]


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
    got = evaluate_trial(models, test, truth=truth, mode=mode)
    assert got[0].n_eval_size > metrics._SIZE_BLOCK
    expected = reference_evaluate_trial(models, test, truth, mode)
    assert [r.to_csv_row() for r in got] == [r.to_csv_row() for r in expected]
