import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, log_expit

from puomm import baselines
from puomm.baselines import (
    TwoPartModel,
    fit_exponential_glm,
    fit_gamma_glm,
    fit_logistic,
    fit_lognormal,
    fit_observed_mixture,
    fit_oracle,
)
from puomm.dataio import ingest_csv, read_model_json, write_dataset_csv, write_model_json
from puomm.experiment import ExperimentConfig, run_experiment
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
    w, separated, exhausted = fit_logistic(x, y)
    se = _logistic_se(x, w)
    assert np.all(np.abs(w - theta) < 3 * se)
    assert not separated and not exhausted


def test_logistic_degenerate_labels_clamped():
    rng = np.random.default_rng(1)
    x = np.hstack([np.ones((200, 1)), rng.standard_normal((200, 1))])
    w, separated, _ = fit_logistic(x, np.ones(200))
    assert separated
    assert np.isfinite(w).all()
    assert np.linalg.norm(w) <= 5 * np.sqrt(2) + 1e-9


def test_logistic_permutation_stable():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((500, 3))
    y = (rng.random(500) < expit(x @ np.array([1.0, -0.5, 0.2]))).astype(float)
    perm = rng.permutation(500)
    assert np.allclose(fit_logistic(x, y)[0], fit_logistic(x[perm], y[perm])[0], atol=1e-8)


def test_logistic_rejects_nonbinary():
    with pytest.raises(ValueError):
        fit_logistic(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]))


def test_exponential_glm_intercept_only_closed_form():
    rng = np.random.default_rng(3)
    sizes = rng.exponential(2.5, 5000)
    w, _ = fit_exponential_glm(np.ones((5000, 1)), sizes)
    assert w[0] == pytest.approx(np.log(sizes.mean()), abs=1e-8)


def test_exponential_glm_recovers_coefficients():
    rng = np.random.default_rng(4)
    n = 100_000
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
    beta = np.array([0.5, -0.7, 0.3])
    y = rng.exponential(np.exp(x @ beta))
    w, _ = fit_exponential_glm(x, y)
    # asymptotic covariance of the exponential-GLM MLE is (X'X)^{-1}
    se = np.sqrt(np.diag(np.linalg.inv(x.T @ x)))
    assert np.all(np.abs(w - beta) < 3 * se)


def test_exponential_glm_duplication_invariant():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 2))
    y = rng.exponential(1.0, 300) + 0.01
    w1, _ = fit_exponential_glm(x, y)
    w2, _ = fit_exponential_glm(np.vstack([x, x]), np.concatenate([y, y]))
    assert np.allclose(w1, w2, atol=1e-9)


def test_exponential_glm_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        fit_exponential_glm(np.ones((2, 1)), np.array([1.0, 0.0]))


def test_gamma_glm_shape_one_on_exponential_data():
    rng = np.random.default_rng(6)
    n = 100_000
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    y = rng.exponential(np.exp(x @ np.array([0.2, 0.5])))
    coef, shape, _ = fit_gamma_glm(x, y)
    assert shape == pytest.approx(1.0, abs=0.05)
    assert np.allclose(coef, fit_exponential_glm(x, y)[0])


def test_gamma_glm_intercept_only_mean():
    rng = np.random.default_rng(7)
    y = rng.gamma(3.0, 2.0, 20_000)
    coef, _, _ = fit_gamma_glm(np.ones((20_000, 1)), y)
    assert coef[0] == pytest.approx(np.log(y.mean()), abs=1e-8)


def test_gamma_glm_scaling_shifts_intercept():
    rng = np.random.default_rng(8)
    x = np.hstack([np.ones((2000, 1)), rng.standard_normal((2000, 1))])
    y = rng.gamma(2.0, 1.0, 2000) * np.exp(0.3 * x[:, 1])
    c = 4.0
    coef1, shape1, _ = fit_gamma_glm(x, y)
    coef2, shape2, _ = fit_gamma_glm(x, c * y)
    assert coef2[0] - coef1[0] == pytest.approx(np.log(c), abs=1e-7)
    assert coef2[1] == pytest.approx(coef1[1], abs=1e-7)
    assert shape2 == pytest.approx(shape1, rel=1e-5)


def test_lognormal_recovers_coefficients_and_variance():
    rng = np.random.default_rng(9)
    n = 100_000
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    beta = np.array([0.1, -0.4])
    y = np.exp(x @ beta + rng.normal(0, 0.5, n))
    coef, logvar, rank_deficient = fit_lognormal(x, y)
    assert not rank_deficient
    se = 0.5 * np.sqrt(np.diag(np.linalg.inv(x.T @ x)))
    assert np.all(np.abs(coef - beta) < 3 * se)
    assert logvar == pytest.approx(0.25, rel=0.02)


def test_lognormal_noiseless_exact():
    rng = np.random.default_rng(10)
    x = np.hstack([np.ones((100, 1)), rng.standard_normal((100, 1))])
    beta = np.array([0.7, -0.2])
    coef, logvar, _ = fit_lognormal(x, np.exp(x @ beta))
    assert np.allclose(coef, beta, atol=1e-10)
    assert logvar == pytest.approx(0.0, abs=1e-20)


def test_lognormal_intercept_only_mean_of_logs():
    rng = np.random.default_rng(11)
    y = rng.lognormal(0.3, 1.0, 1000)
    coef, _, _ = fit_lognormal(np.ones((1000, 1)), y)
    assert coef[0] == pytest.approx(np.log(y).mean(), abs=1e-12)


def test_lognormal_rank_deficient_flagged():
    x = np.ones((50, 2))  # duplicated column
    coef, logvar, rank_deficient = fit_lognormal(x, np.full(50, 2.0))
    assert rank_deficient
    assert np.allclose(coef, np.log(2.0) / 2)  # the minimum-norm solution
    assert logvar == pytest.approx(0.0, abs=1e-20)


def test_gamma_glm_perfect_mean_fit_returns_infinite_shape():
    # constant sizes on an intercept: the mean fit is exact, so the shape MLE is at infinity
    coef, shape, _ = fit_gamma_glm(np.ones((50, 1)), np.full(50, 2.0))
    assert shape == np.inf
    assert coef[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_oracle_is_composition_of_stage_fits():
    sim = make_datasets(SimConfig(setting="correct", n=3000, p=4, seed=12, n_test=10))
    model = fit_oracle(sim.train)
    u = (sim.train.y > 0).astype(float)
    occ, separated, _ = fit_logistic(sim.train.x, u)
    mag, _ = fit_exponential_glm(sim.train.x[sim.train.y > 0], sim.train.y[sim.train.y > 0])
    assert np.array_equal(model.occurrence_coef, occ)
    assert np.array_equal(model.magnitude_coef, mag)
    assert model.magnitude_family == "exponential"
    assert model.flags == () and not separated


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


def test_a_newton_solve_that_uses_every_iteration_leaves_its_model_not_converged(tmp_path, monkeypatch):
    sim = make_datasets(SimConfig(setting="correct", n=500, p=3, seed=19, n_test=100))
    train = sim.train.observed_only()
    assert all(m.converged and m.flags == () for m in (fit_oracle(sim.train), fit_observed_mixture(train, "gamma")))
    # a line search that finds no decrease stops the solve, and is not reported
    identity = lambda w: np.eye(2)
    w, clamped, exhausted = baselines._damped_newton(np.zeros(2), lambda w: np.ones(2), identity, lambda w: -w.sum())
    assert (w.tolist(), clamped, exhausted) == ([0.0, 0.0], False, False)

    monkeypatch.setattr(baselines, "MAX_NEWTON", 1)
    assert baselines._damped_newton(np.zeros(2), lambda w: w - 1.0, identity, lambda w: w.dot(w - 2.0))[2]
    # a fresh observed copy, so that the logistic stage fitted above for train is not reused
    models = [fit_oracle(sim.train)] + [fit_observed_mixture(train.observed_only(), f) for f in ("gamma", "lognormal")]
    for model in models:
        # the labels are not separable: one Newton step leaves |g| > 1e-4, which is exhaustion, not separation
        assert model.flags == ("not_converged",) and not model.converged
        write_model_json(model, "m", tmp_path / "m.json")
        assert not read_model_json(tmp_path / "m.json")[0].converged
    cfg = ExperimentConfig(mode="simulation", methods=["oracle", "logistic_gamma", "logistic_lognormal"], trials=1,
                           base_seed=19, output_dir=str(tmp_path), settings=[sim.config], n_values=[500])
    long_path, summary_path = run_experiment(cfg)
    rows = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    assert {r[6] for r in rows} == {"not_converged"} and all(r[5] != "" for r in rows)
    assert summary_path.read_text().splitlines()[1:] == []


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


def _separable_dataset():
    # recorded exactly where the second feature is positive: the logistic MLE is at infinity
    x = np.hstack([np.ones((200, 1)), np.random.default_rng(18).standard_normal((200, 2))])
    return Dataset(x=x, z=np.where(x[:, 1] > 0, 1.0 + np.abs(x[:, 2]), 0.0))


@pytest.mark.parametrize("kind", ["simulated", "separable"])
def test_observed_mixtures_on_one_dataset_fit_the_logistic_stage_once(kind, monkeypatch):
    if kind == "simulated":
        train = make_datasets(SimConfig(setting="lognormal", n=2000, p=3, seed=14, n_test=10)).train.observed_only()
    else:
        train = _separable_dataset()
    # each mixture on a copy of its own fits its own logistic stage
    alone = {family: fit_observed_mixture(Dataset(x=train.x.copy(), z=train.z.copy()), family)
             for family in ("gamma", "lognormal")}
    calls = []
    logistic = baselines.fit_logistic
    monkeypatch.setattr(baselines, "fit_logistic", lambda *a: calls.append(1) or logistic(*a))
    shared = {family: fit_observed_mixture(train, family) for family in ("gamma", "lognormal")}
    assert len(calls) == 1
    for family, model in shared.items():
        assert model.occurrence_coef.tobytes() == alone[family].occurrence_coef.tobytes()
        assert model.magnitude_coef.tobytes() == alone[family].magnitude_coef.tobytes()
        assert model.aux == alone[family].aux and model.flags == alone[family].flags
        assert ("separation" in model.flags) == (kind == "separable")
    # each model holds its own copy of the shared coefficients
    assert shared["gamma"].occurrence_coef is not shared["lognormal"].occurrence_coef


def test_writing_into_a_mixtures_training_set_raises(monkeypatch):
    # the kept logistic stage stays valid because no write gets through
    train = make_datasets(SimConfig(setting="lognormal", n=2000, p=3, seed=14, n_test=10)).train.observed_only()
    calls = []
    logistic = baselines.fit_logistic
    monkeypatch.setattr(baselines, "fit_logistic", lambda *a: calls.append(1) or logistic(*a))
    before = fit_observed_mixture(train, "gamma")
    with pytest.raises(ValueError, match="read-only"):
        train.z[np.flatnonzero(train.z > 0)[::2]] = 0.0
    after = fit_observed_mixture(train, "lognormal")
    assert len(calls) == 1
    assert after.occurrence_coef.tobytes() == before.occurrence_coef.tobytes()


def test_mixtures_on_one_ingested_dataset_fit_the_logistic_stage_once(tmp_path, monkeypatch):
    path = tmp_path / "train.csv"
    write_dataset_csv(make_datasets(SimConfig(setting="correct", n=500, p=3, seed=9, n_test=10)).train, path)
    train = ingest_csv(path)
    calls = []
    logistic = baselines.fit_logistic
    monkeypatch.setattr(baselines, "fit_logistic", lambda *a: calls.append(1) or logistic(*a))
    gamma, lognormal = (fit_observed_mixture(train, family) for family in ("gamma", "lognormal"))
    assert len(calls) == 1
    assert gamma.occurrence_coef.tobytes() == lognormal.occurrence_coef.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 4), st.data())
def test_glm_terms_recompute_after_an_in_place_change_and_between_signed_zeros(seed, n, p, data):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, p)), (rng.random(n) < 0.5).astype(float)
    terms = baselines._GlmTerms(x, y, baselines._logistic_rows)
    w = rng.standard_normal(p)
    k = data.draw(st.integers(0, p - 1))
    w[k] = 0.0
    for change in ("first point", "0.0 to -0.0", "add 0.25"):
        if change == "0.0 to -0.0":
            w[k] = -0.0  # == 0.0, but a point with other bytes
        elif change == "add 0.25":
            w[k] += 0.25
        before = getattr(terms, "f", None)
        terms.at(w)
        assert terms.f is not before, change
        kept = terms.f
        terms.at(w.copy())  # the same bytes: the terms are kept
        assert terms.f is kept, change
        fresh = baselines._GlmTerms(x, y, baselines._logistic_rows)
        for fn in ("obj", "grad", "hess"):
            assert np.asarray(getattr(terms, fn)(w)).tobytes() == np.asarray(getattr(fresh, fn)(w.copy())).tobytes()


def test_observed_mixture_single_positive_flagged():
    rng = np.random.default_rng(15)
    n = 100
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    z = np.zeros(n)
    z[0] = 2.0
    model = fit_observed_mixture(Dataset(x=x, z=z), "gamma")
    assert "degenerate_magnitude" in model.flags


def test_observed_mixture_with_too_few_positives_is_flagged_without_a_warning():
    # 4 recorded positives for 4 features; the Gamma stage's rejected trial points overflow exp
    train = make_datasets(SimConfig(setting="threshold", n=60, p=4, seed=6, n_test=10)).train.observed_only()
    assert np.count_nonzero(train.z > 0) <= train.p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_observed_mixture(train, "gamma")
    assert model.flags == ("degenerate_magnitude",)
    assert np.isfinite(model.aux)


def test_two_threads_fitting_mixtures_get_the_serial_flags():
    # the flags are returned values, so a fit on one thread cannot add to or hide another's
    datasets = {
        "separable": _separable_dataset(),
        "plain": make_datasets(SimConfig(setting="correct", n=200, p=3, seed=14, n_test=10)).train.observed_only(),
    }

    def flags(name, repeats):
        # a new Dataset per round, so every round fits its own logistic stage
        fresh = [Dataset(x=datasets[name].x, z=datasets[name].z) for _ in range(repeats)]
        return [fit_observed_mixture(ds, family).flags for ds in fresh for family in ("gamma", "lognormal")]

    serial = {name: flags(name, 1) for name in datasets}
    assert serial == {"separable": [("separation",)] * 2, "plain": [(), ()]}
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = {name: pool.submit(flags, name, 40) for name in datasets}
        for name, future in threaded.items():
            assert future.result() == serial[name] * 40, name


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
    coef_gamma, _, _ = fit_gamma_glm(x, y)
    coef_exp, _ = fit_exponential_glm(x, y)
    assert np.allclose(coef_gamma, coef_exp, atol=1e-6)



def _newton_functions(fitter, x, y, solve=True):
    """The (grad, hess, obj) functions that fitter hands to baselines._damped_newton on (x, y).

    With solve=False the solver is not run and the fitter gets back its
    starting point, so extreme inputs never reach the Newton iteration.
    """
    seen = []
    newton = baselines._damped_newton

    def capture(w0, grad_fn, hess_fn, obj_fn, **kwargs):
        seen.append((grad_fn, hess_fn, obj_fn))
        return newton(w0, grad_fn, hess_fn, obj_fn, **kwargs) if solve else (np.asarray(w0, dtype=float), False, False)

    with mock.patch.object(baselines, "_damped_newton", capture):
        fitter(x, y)
    (functions,) = seen
    return functions


def _assert_derivatives_match_central_differences(grad, hess, obj, w, h=1e-5):
    """Gradient against central differences of the objective, Hessian against those of the gradient.

    The gradient is read first and the Hessian last, each after the
    functions have been evaluated at other points, so terms kept from an
    earlier point would show.
    """
    g = grad(w)
    steps = np.eye(w.size) * h
    fd_g = np.array([(obj(w + e) - obj(w - e)) / (2 * h) for e in steps])
    fd_h = np.array([(grad(w + e) - grad(w - e)) / (2 * h) for e in steps])
    H = hess(w)
    np.testing.assert_allclose(g, fd_g, rtol=1e-5, atol=1e-6 * (1.0 + abs(obj(w))))
    np.testing.assert_allclose(H, fd_h, rtol=1e-5, atol=1e-6 * (1.0 + np.abs(g).max() + np.abs(H).max()))


def _logistic_loss(y, s):
    return -np.mean(y * log_expit(s) + (1 - y) * log_expit(-s))


def _exponential_loss(y, s):
    return np.mean(np.exp(-s) * y + s)


def _events(seed):
    sim = make_datasets(SimConfig(setting="lognormal", n=2000, p=4, seed=seed, n_test=10))
    rows = np.flatnonzero(sim.train.z > 0)
    return sim.train.x, (sim.train.z > 0).astype(float), sim.train.x[rows], sim.train.z[rows]


def test_logistic_newton_functions_match_central_differences_away_from_the_optimum():
    x, labels, _, _ = _events(17)
    grad, hess, obj = _newton_functions(fit_logistic, x, labels)
    w = fit_logistic(x, labels)[0] + np.array([0.3, -0.2, 0.1, 0.4])
    assert obj(w) == pytest.approx(_logistic_loss(labels, x @ w), rel=1e-13)
    assert np.linalg.norm(grad(w)) > 1e-2
    _assert_derivatives_match_central_differences(grad, hess, obj, w)


def test_exponential_glm_newton_functions_match_central_differences_away_from_the_optimum():
    _, _, xp, zp = _events(17)
    grad, hess, obj = _newton_functions(fit_exponential_glm, xp, zp)
    w = fit_exponential_glm(xp, zp)[0] + np.array([0.3, -0.2, 0.1, 0.4])
    assert obj(w) == pytest.approx(_exponential_loss(zp, xp @ w), rel=1e-13)
    assert np.linalg.norm(grad(w)) > 1e-2
    _assert_derivatives_match_central_differences(grad, hess, obj, w)
    # the terms are keyed on a copy of the point, so a point changed in place is recomputed
    before = obj(w)
    w[0] += 0.5
    assert obj(w) != before
    assert obj(w) == pytest.approx(_exponential_loss(zp, xp @ w), rel=1e-13)


def _design_and_point(seed, n, p, log_scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    w = rng.standard_normal(p)
    return rng, x, w * 10.0**log_scale / np.linalg.norm(w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.integers(1, 4),
    st.floats(-2.0, 3.0),
    st.sampled_from(["all 0", "all 1", "mixed"]),
)
def test_logistic_newton_functions_at_extreme_predictors(seed, n, p, log_scale, labels):
    # linear predictors up to ~1e3 * |x|, where the sigmoid saturates in double precision
    rng, x, w = _design_and_point(seed, n, p, log_scale)
    y = {"all 0": np.zeros(n), "all 1": np.ones(n), "mixed": (rng.random(n) < 0.5).astype(float)}[labels]
    grad, hess, obj = _newton_functions(fit_logistic, x, y, solve=False)
    assert obj(w) == pytest.approx(_logistic_loss(y, x @ w), rel=1e-12)
    _assert_derivatives_match_central_differences(grad, hess, obj, w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4), st.floats(-2.0, 1.2))
def test_exponential_glm_newton_functions_at_extreme_predictors(seed, n, p, log_scale):
    # linear predictors up to ~16 * |x|, so exp(-x.w) spans ~1e-30 to ~1e30
    rng, x, w = _design_and_point(seed, n, p, log_scale)
    sizes = rng.exponential(1.0, n) + 1e-3
    grad, hess, obj = _newton_functions(fit_exponential_glm, x, sizes, solve=False)
    assert obj(w) == pytest.approx(_exponential_loss(sizes, x @ w), rel=1e-12)
    _assert_derivatives_match_central_differences(grad, hess, obj, w)
