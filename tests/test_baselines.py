import numpy as np
import pytest
from scipy.special import expit

from puomm.baselines import (
    DegenerateFitWarning,
    SeparationWarning,
    TwoPartModel,
    fit_exponential_glm,
    fit_gamma_glm,
    fit_logistic,
    fit_lognormal,
    fit_observed_mixture,
    fit_oracle,
)
from puomm.model import Dataset
from puomm.simulate import SimConfig, make_datasets


def _logistic_se(x, coef):
    mu = expit(x @ coef)
    info = (x * (mu * (1 - mu))[:, None]).T @ x
    return np.sqrt(np.diag(np.linalg.inv(info)))


def test_logistic_recovers_coefficients_within_3_se():
    rng = np.random.default_rng(0)
    n = 100_000
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    theta = np.array([-0.3, 0.8])
    y = (rng.random(n) < expit(x @ theta)).astype(float)
    w = fit_logistic(x, y)
    se = _logistic_se(x, w)
    assert np.all(np.abs(w - theta) < 3 * se)


def test_logistic_degenerate_labels_clamped():
    rng = np.random.default_rng(1)
    x = np.hstack([np.ones((200, 1)), rng.standard_normal((200, 1))])
    with pytest.warns(SeparationWarning):
        w = fit_logistic(x, np.ones(200))
    assert np.isfinite(w).all()
    assert np.linalg.norm(w) <= 5 * np.sqrt(2) + 1e-9


def test_logistic_permutation_stable():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((500, 3))
    y = (rng.random(500) < expit(x @ np.array([1.0, -0.5, 0.2]))).astype(float)
    perm = rng.permutation(500)
    assert np.allclose(fit_logistic(x, y), fit_logistic(x[perm], y[perm]), atol=1e-8)


def test_logistic_rejects_nonbinary():
    with pytest.raises(ValueError):
        fit_logistic(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]))


def test_exponential_glm_intercept_only_closed_form():
    rng = np.random.default_rng(3)
    sizes = rng.exponential(2.5, 5000)
    w = fit_exponential_glm(np.ones((5000, 1)), sizes)
    assert w[0] == pytest.approx(np.log(sizes.mean()), abs=1e-8)


def test_exponential_glm_recovers_coefficients():
    rng = np.random.default_rng(4)
    n = 100_000
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
    beta = np.array([0.5, -0.7, 0.3])
    y = rng.exponential(np.exp(x @ beta))
    w = fit_exponential_glm(x, y)
    # asymptotic covariance of the exponential-GLM MLE is (X'X)^{-1}
    se = np.sqrt(np.diag(np.linalg.inv(x.T @ x)))
    assert np.all(np.abs(w - beta) < 3 * se)


def test_exponential_glm_duplication_invariant():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 2))
    y = rng.exponential(1.0, 300) + 0.01
    w1 = fit_exponential_glm(x, y)
    w2 = fit_exponential_glm(np.vstack([x, x]), np.concatenate([y, y]))
    assert np.allclose(w1, w2, atol=1e-9)


def test_exponential_glm_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        fit_exponential_glm(np.ones((2, 1)), np.array([1.0, 0.0]))


def test_gamma_glm_shape_one_on_exponential_data():
    rng = np.random.default_rng(6)
    n = 100_000
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    y = rng.exponential(np.exp(x @ np.array([0.2, 0.5])))
    coef, shape = fit_gamma_glm(x, y)
    assert shape == pytest.approx(1.0, abs=0.05)
    assert np.allclose(coef, fit_exponential_glm(x, y))


def test_gamma_glm_intercept_only_mean():
    rng = np.random.default_rng(7)
    y = rng.gamma(3.0, 2.0, 20_000)
    coef, _ = fit_gamma_glm(np.ones((20_000, 1)), y)
    assert coef[0] == pytest.approx(np.log(y.mean()), abs=1e-8)


def test_gamma_glm_scaling_shifts_intercept():
    rng = np.random.default_rng(8)
    x = np.hstack([np.ones((2000, 1)), rng.standard_normal((2000, 1))])
    y = rng.gamma(2.0, 1.0, 2000) * np.exp(0.3 * x[:, 1])
    c = 4.0
    coef1, shape1 = fit_gamma_glm(x, y)
    coef2, shape2 = fit_gamma_glm(x, c * y)
    assert coef2[0] - coef1[0] == pytest.approx(np.log(c), abs=1e-7)
    assert coef2[1] == pytest.approx(coef1[1], abs=1e-7)
    assert shape2 == pytest.approx(shape1, rel=1e-5)


def test_lognormal_recovers_coefficients_and_variance():
    rng = np.random.default_rng(9)
    n = 100_000
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    beta = np.array([0.1, -0.4])
    y = np.exp(x @ beta + rng.normal(0, 0.5, n))
    coef, logvar = fit_lognormal(x, y)
    se = 0.5 * np.sqrt(np.diag(np.linalg.inv(x.T @ x)))
    assert np.all(np.abs(coef - beta) < 3 * se)
    assert logvar == pytest.approx(0.25, rel=0.02)


def test_lognormal_noiseless_exact():
    rng = np.random.default_rng(10)
    x = np.hstack([np.ones((100, 1)), rng.standard_normal((100, 1))])
    beta = np.array([0.7, -0.2])
    coef, logvar = fit_lognormal(x, np.exp(x @ beta))
    assert np.allclose(coef, beta, atol=1e-10)
    assert logvar == pytest.approx(0.0, abs=1e-20)


def test_lognormal_intercept_only_mean_of_logs():
    rng = np.random.default_rng(11)
    y = rng.lognormal(0.3, 1.0, 1000)
    coef, _ = fit_lognormal(np.ones((1000, 1)), y)
    assert coef[0] == pytest.approx(np.log(y).mean(), abs=1e-12)


def test_lognormal_rank_deficient_flagged():
    x = np.ones((50, 2))  # duplicated column
    with pytest.warns(DegenerateFitWarning):
        fit_lognormal(x, np.full(50, 2.0))


def test_oracle_is_composition_of_stage_fits():
    sim = make_datasets(SimConfig(setting="correct", n=3000, p=4, seed=12, n_test=10))
    model = fit_oracle(sim.train)
    u = (sim.train.y > 0).astype(float)
    occ = fit_logistic(sim.train.x, u)
    mag = fit_exponential_glm(sim.train.x[sim.train.y > 0], sim.train.y[sim.train.y > 0])
    assert np.array_equal(model.occurrence_coef, occ)
    assert np.array_equal(model.magnitude_coef, mag)
    assert model.magnitude_family == "exponential"


def test_oracle_all_positive_flags_separation():
    rng = np.random.default_rng(13)
    n = 200
    ds = Dataset(
        x=np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))]),
        z=np.zeros(n),
        y=rng.exponential(1.0, n) + 0.01,
        u=np.ones(n),
        r=np.zeros(n),
    )
    model = fit_oracle(ds)
    assert "separation" in model.flags
    assert np.isfinite(model.magnitude_coef).all()


def test_oracle_beats_observed_mixtures_majority_wise():
    wins = 0
    trials = 3
    for trial in range(trials):
        sim = make_datasets(
            SimConfig(setting="correct", n=20000, p=10, lambda_eps_true=0.24, seed=500 + trial, n_test=10)
        )
        oracle = fit_oracle(sim.train)
        gamma = fit_observed_mixture(sim.train.observed_only(), "gamma")
        logn = fit_observed_mixture(sim.train.observed_only(), "lognormal")
        o_rmse = np.linalg.norm(oracle.occurrence_coef - sim.theta0)
        if all(
            o_rmse < np.linalg.norm(m.occurrence_coef - sim.theta0) for m in (gamma, logn)
        ) and all(
            np.linalg.norm(oracle.magnitude_coef - sim.beta0)
            < np.linalg.norm(m.magnitude_coef - sim.beta0)
            for m in (gamma, logn)
        ):
            wins += 1
    assert wins > trials / 2


def test_observed_mixture_shared_logistic_stage():
    sim = make_datasets(SimConfig(setting="correct", n=2000, p=3, seed=14, n_test=10))
    train = sim.train.observed_only()
    gamma = fit_observed_mixture(train, "gamma")
    logn = fit_observed_mixture(train, "lognormal")
    assert np.array_equal(gamma.occurrence_coef, logn.occurrence_coef)
    assert not np.array_equal(gamma.magnitude_coef, logn.magnitude_coef)


def test_observed_mixture_single_positive_flagged():
    rng = np.random.default_rng(15)
    n = 100
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    z = np.zeros(n)
    z[0] = 2.0
    model = fit_observed_mixture(Dataset(x=x, z=z), "gamma")
    assert "degenerate_magnitude" in model.flags


def test_observed_mixture_requires_positives():
    with pytest.raises(ValueError):
        fit_observed_mixture(Dataset(x=np.ones((5, 1)), z=np.zeros(5)), "gamma")


def test_two_part_model_validation():
    with pytest.raises(ValueError):
        TwoPartModel(np.zeros(2), np.zeros(3), "gamma")
    with pytest.raises(ValueError):
        TwoPartModel(np.zeros(2), np.zeros(2), "weibull")


def test_gamma_shape_fixed_at_one_matches_exponential():
    # the mean-model score is shape-free, so coefficients coincide by construction
    rng = np.random.default_rng(16)
    x = np.hstack([np.ones((3000, 1)), rng.standard_normal((3000, 2))])
    y = rng.gamma(2.0, 0.5, 3000) * np.exp(x @ np.array([0.1, 0.2, -0.3]))
    coef_gamma, _ = fit_gamma_glm(x, y)
    coef_exp = fit_exponential_glm(x, y)
    assert np.allclose(coef_gamma, coef_exp, atol=1e-6)
