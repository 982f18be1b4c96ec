import math
import re
import warnings

import numpy as np
import pytest

from puomm.model import Dataset, ParamPair
from puomm.optimizer import FitConfig
from puomm.selection import (
    LambdaGrid,
    default_radius,
    fit_pu_omm,
    make_lambda_grid,
    observed_occurrence_prob,
)
from puomm.simulate import SimConfig, make_datasets

from conftest import random_dataset


def test_grid_paper_defaults():
    grid = make_lambda_grid(20, 1 / 50, 50.0)
    assert len(grid) == 20
    assert grid.values[0] == pytest.approx(0.02, abs=1e-15)
    assert grid.values[-1] == pytest.approx(50.0, rel=1e-12)
    ratios = grid.values[1:] / grid.values[:-1]
    assert np.allclose(ratios, 2500.0 ** (1 / 19), rtol=1e-10)


def test_grid_two_points_are_endpoints():
    grid = make_lambda_grid(2, 1.0, 10.0)
    assert np.allclose(grid.values, [1.0, 10.0])


def test_grid_log_midpoint():
    grid = make_lambda_grid(3, 1.0, 100.0)
    assert np.allclose(grid.values, [1.0, 10.0, 100.0])


def test_grid_invalid_bounds():
    with pytest.raises(ValueError):
        make_lambda_grid(5, 2.0, 1.0)
    with pytest.raises(ValueError):
        make_lambda_grid(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        LambdaGrid(np.array([0.5, -1.0]))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LambdaGrid([0.1, math.nan]), "grid values must be finite and positive, got nan"),
        (lambda: LambdaGrid([0.24, math.inf]), "grid values must be finite and positive, got inf"),
        (lambda: LambdaGrid([0.5, -1.0]), "grid values must be finite and positive, got -1.0"),
        (lambda: make_lambda_grid(3, 0.1, math.inf), "grid bounds must satisfy 0 < lo < hi < inf, got (0.1, inf)"),
        (lambda: make_lambda_grid(3, math.nan, 1.0), "grid bounds must satisfy 0 < lo < hi < inf, got (nan, 1.0)"),
        (lambda: make_lambda_grid(3, "0.1", 1.0), "grid bounds must satisfy 0 < lo < hi < inf, got ('0.1', 1.0)"),
        (lambda: make_lambda_grid(2.5), "size must be an integer, got 2.5"),
        (lambda: make_lambda_grid(True), "size must be an integer, got True"),
    ],
    ids=["value_nan", "value_inf", "value_negative", "hi_inf", "lo_nan", "lo_text", "size_float", "size_bool"],
)
def test_grid_rejects_a_bad_input_naming_it(make, message):
    # a NaN or inf grid value would be fitted (inf as a failed grid point) instead of refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_observed_occurrence_prob_hand_value():
    om = ParamPair(np.zeros(2), np.zeros(2))
    assert observed_occurrence_prob(om, 1.0, np.zeros(2)) == pytest.approx(0.25, abs=1e-15)


def test_observed_occurrence_prob_no_missingness_limit():
    om = ParamPair(np.zeros(2), np.array([0.7, 0.0]))
    x = np.array([1.0, 0.0])
    from scipy.special import expit

    assert observed_occurrence_prob(om, 1e9, x) == pytest.approx(expit(0.7), abs=1e-6)


def test_observed_occurrence_prob_monotone_in_lambda():
    om = ParamPair(np.array([0.3]), np.array([-0.2]))
    x = np.ones(1)
    q = [observed_occurrence_prob(om, lam, x) for lam in (0.1, 1.0, 10.0)]
    assert q[0] < q[1] < q[2]


def test_fit_pu_omm_selects_near_true_lambda():
    sim = make_datasets(SimConfig(setting="correct", n=10000, p=10, lambda_eps_true=0.24, seed=11, n_test=10))
    train = sim.train.observed_only()
    cfg = FitConfig(radius=default_radius(10), tol=1e-6)
    model = fit_pu_omm(train, make_lambda_grid(), cfg)
    grid = make_lambda_grid().values
    nearest = grid[np.argmin(np.abs(np.log(grid) - np.log(0.24)))]
    picked = np.where(np.isclose(grid, model.lambda_hat))[0][0]
    near = np.where(np.isclose(grid, nearest))[0][0]
    assert abs(picked - near) <= 1

    from puomm.selection import fit_at_lambda

    true_model = fit_at_lambda(train, 0.24, cfg)
    rmse_sel = np.linalg.norm(model.theta - sim.theta0)
    rmse_true = np.linalg.norm(true_model.theta - sim.theta0)
    assert rmse_sel <= 1.1 * rmse_true


def test_fit_pu_omm_single_value_grid(rng):
    ds = random_dataset(rng, 300, 3)
    model = fit_pu_omm(ds, LambdaGrid(np.array([0.5])), FitConfig(radius=10.0, max_iter=200))
    assert model.lambda_hat == 0.5
    assert len(model.selection_scores) == 1


def test_fit_pu_omm_tie_breaks_to_first(rng):
    ds = random_dataset(rng, 200, 3)
    model = fit_pu_omm(ds, LambdaGrid(np.array([0.7, 0.7])), FitConfig(radius=10.0, max_iter=200))
    assert len(model.selection_scores) == 2
    assert model.selection_scores[0][1] == model.selection_scores[1][1]
    assert model.lambda_hat == 0.7


def test_fit_pu_omm_winner_has_minimum_score(rng):
    ds = random_dataset(rng, 400, 3)
    model = fit_pu_omm(ds, make_lambda_grid(6, 0.1, 10.0), FitConfig(radius=10.0, max_iter=500))
    briers = [s for _, s in model.selection_scores]
    assert min(briers) == dict(model.selection_scores)[model.lambda_hat]
    assert len(model.selection_scores) == 6


def test_selection_brier_invariant_to_row_permutation(rng):
    ds = random_dataset(rng, 500, 3)
    om = ParamPair(rng.standard_normal(3), rng.standard_normal(3))
    v = (ds.z > 0).astype(float)
    q = observed_occurrence_prob(om, 0.4, ds.x)
    perm = rng.permutation(ds.n)
    brier_a = np.mean((q - v) ** 2)
    brier_b = np.mean((q[perm] - v[perm]) ** 2)
    assert brier_a == pytest.approx(brier_b, rel=1e-12)


def test_all_grid_fits_failing_raises_with_details(rng):
    # two finite recorded sizes near the float maximum overflow the
    # log-likelihood at the start point, so every fit fails; the error
    # lists each grid value
    x = rng.standard_normal((20, 2))
    z = np.abs(x[:, 0])
    z[[3, 7]] = 1e308
    ds = Dataset(x=x, z=z)
    with pytest.raises(RuntimeError, match="every grid fit failed") as exc:
        fit_pu_omm(ds, LambdaGrid(np.array([0.5, 2.0])), FitConfig(radius=5.0, max_iter=10))
    assert "lambda=0.5: " in str(exc.value) and "lambda=2.0: " in str(exc.value)


@pytest.mark.parametrize("max_iter, lambda_hat, converged", [(500, 1.0, True), (5, 0.02, False)])
def test_selection_prefers_converged_grid_fits(max_iter, lambda_hat, converged):
    # no recorded positives: at lambda=0.02 the fit is still moving after 500
    # iterations, with the lowest Brier score of the three; at lambda=1 it
    # converges in 116.  With 5 iterations none converges, and all compete.
    ds = Dataset(x=np.random.default_rng(0).standard_normal((500, 3)), z=np.zeros(500))
    model = fit_pu_omm(ds, LambdaGrid([0.02, 1.0, 50.0]), FitConfig(radius=default_radius(3), max_iter=max_iter))
    assert model.lambda_hat == lambda_hat
    assert model.fit.converged is converged
    scores = dict(model.selection_scores)
    assert list(scores) == [0.02, 1.0, 50.0] and all(np.isfinite(list(scores.values())))
    if converged:
        assert model.fit.iterations == 116
        assert scores[1.0] == pytest.approx(0.0621, abs=1e-4)
        assert scores[0.02] < scores[1.0]


def test_boundary_selection_at_grid_max_under_no_missingness():
    # data generated with essentially certain detection: the largest
    # detection rate on the grid gives the best recorded-occurrence fit
    sim = make_datasets(SimConfig(setting="correct", n=4000, p=4, lambda_eps_true=1e6, seed=5, n_test=10))
    cfg = FitConfig(radius=default_radius(4), tol=1e-6)
    model = fit_pu_omm(sim.train.observed_only(), make_lambda_grid(5, 0.02, 50.0), cfg)
    assert model.lambda_hat == pytest.approx(50.0, rel=1e-12)
