"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  The heavy multi-trial criteria share module-scoped fixtures;
the full module takes under a minute on a 2-core machine.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from puomm.baselines import fit_exponential_glm, fit_logistic, fit_observed_mixture, fit_oracle
from puomm.dataio import write_dataset_csv
from puomm.experiment import ExperimentConfig, run_experiment
from puomm.metrics import evaluate_trial
from puomm.model import DetectionParam, ParamPair, make_objective, phi
from puomm.optimizer import FitConfig
from puomm.selection import default_radius, fit_at_lambda, fit_pu_omm, make_lambda_grid
from puomm.simulate import SimConfig, apply_missingness, gen_latent, make_datasets

from conftest import (
    accepted_iterates,
    central_differences,
    objective_points,
    random_dataset,
    reference_loss_and_gradient,
)


def _passed(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {text}")


# -----------------------------------------------------------------------
# criterion 1: the optimizer's analytic gradient vs central finite differences
# -----------------------------------------------------------------------


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)


def test_criterion_1_gradient_matches_finite_differences():
    # the closures optimizer.fit runs: derivatives against fourth-order
    # differences of loss (accurate enough to certify 1e-6 even where the
    # loss is large), then against the per-row reference right after a
    # Hessian at the same point, as a Newton step reads their shared terms
    start = time.time()
    rng = np.random.default_rng(101)
    worst = worst_after_hessian = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(20, 201))
        lam = float(np.exp(rng.uniform(np.log(0.02), np.log(50.0))))
        ds = random_dataset(rng, n, p, detect_rate=lam)
        om = ParamPair(rng.standard_normal(p) * 0.8, rng.standard_normal(p) * 0.8)
        d = DetectionParam(lam)
        loss, derivatives = make_objective(ds, d)
        w = om.as_vector()
        _, g, hessian = derivatives(w)
        rel = _rel_err(g, central_differences(loss, w, 1e-4, order=4))
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-6
        hessian()
        g_after_hessian = derivatives(w)[1]
        rel = _rel_err(g_after_hessian, reference_loss_and_gradient(om, ds, d)[1])
        worst_after_hessian = max(worst_after_hessian, float(rel.max()))
        assert rel.max() < 1e-6
    elapsed = time.time() - start
    assert elapsed < 10.0
    _passed(
        1,
        f"50 draws, worst per-coordinate relative error {worst:.2e} against differences of the loss and "
        f"{worst_after_hessian:.2e} against the per-row reference after a Hessian (< 1e-6), {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------
# criterion 2: closed-form detection marginal
# -----------------------------------------------------------------------


def test_criterion_2_phi_closed_form():
    start = time.time()
    rng = np.random.default_rng(102)
    worst_quad = 0.0
    worst_sigma = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 6))
        x = rng.standard_normal(p)
        beta = rng.standard_normal(p) * 0.8
        lam = float(np.exp(rng.uniform(np.log(0.02), np.log(50.0))))
        d = DetectionParam(lam)
        rate = np.exp(-x @ beta)
        integral, _ = quad(lambda y: (-np.expm1(-lam * y)) * rate * np.exp(-rate * y), 0, np.inf)
        val = float(phi(x, beta, d))
        worst_quad = max(worst_quad, abs(val - integral))
        assert abs(val - integral) < 1e-8
        sigma_form = float(expit(x @ beta + np.log(lam)))
        worst_sigma = max(worst_sigma, abs(val - sigma_form))
        assert abs(val - sigma_form) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    _passed(2, f"quadrature gap {worst_quad:.2e} (< 1e-8), closed-form gap {worst_sigma:.2e} (< 1e-12), {elapsed:.1f}s")


# -----------------------------------------------------------------------
# criterion 3: conditional-moment identity by Monte Carlo
# -----------------------------------------------------------------------


def test_criterion_3_recorded_mass_conditional_moment():
    start = time.time()
    rng = np.random.default_rng(103)
    p, lam, draws = 10, 0.24, 1_000_000
    beta0 = rng.standard_normal(p) * np.sqrt(9.0 / p)
    theta0 = rng.standard_normal(p) * np.sqrt(9.0 / p)
    for k in range(10):
        x = rng.standard_normal(p) * 0.4
        tiles = np.tile(x, (draws, 1))
        _, y = gen_latent(tiles, beta0, theta0, "correct", rng)
        _, z = apply_missingness(y, "correct", lam, 3.0, rng)
        uz = z * (z > 0)
        a = x @ beta0 + np.log(lam)
        closed = expit(x @ theta0) * expit(a) * np.exp(x @ beta0) * (2.0 - expit(a))
        se = uz.std(ddof=1) / np.sqrt(draws)
        assert abs(uz.mean() - closed) < 4.0 * se, f"x draw {k}: {uz.mean()} vs {closed} (se {se})"
    elapsed = time.time() - start
    assert elapsed < 60.0
    _passed(3, f"10 feature draws, 1e6 simulated rows each, all within 4 standard errors, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# criteria 4 + 5: error scaling in n and optimizer trajectory properties
# -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaling_fits():
    start = time.time()
    out = {2500: [], 10000: []}
    for trial in range(10):
        for n in (2500, 10000):
            sim = make_datasets(
                SimConfig(setting="correct", n=n, p=10, lambda_eps_true=0.24, seed=400 + trial, n_test=10)
            )
            cfg = FitConfig(radius=default_radius(10), tol=1e-8)
            with objective_points() as (points, losses):
                model = fit_at_lambda(sim.train.observed_only(), 0.24, cfg)
            omega0 = np.concatenate([sim.beta0, sim.theta0])
            err = float(np.linalg.norm(model.fit.omega_hat.as_vector() - omega0))
            iterates, accepted = accepted_iterates(points, losses, model.fit)
            out[n].append((err, model.fit, iterates, accepted, points["loss"], cfg.radius))
    return out, time.time() - start


def test_criterion_4_error_scaling(scaling_fits):
    fits, elapsed = scaling_fits
    mean_small = np.mean([e for e, *_ in fits[2500]])
    mean_large = np.mean([e for e, *_ in fits[10000]])
    assert elapsed < 600.0
    assert mean_large < 0.7 * mean_small, f"{mean_large} vs 0.7 * {mean_small}"
    _passed(4, f"mean error {mean_small:.4f} at n=2500 vs {mean_large:.4f} at n=10000 "
               f"(ratio {mean_large / mean_small:.3f} < 0.7), {elapsed:.0f}s")


def test_criterion_5_optimizer_trajectories(scaling_fits):
    fits, _ = scaling_fits
    checked = 0
    for n in (2500, 10000):
        for _err, res, iterates, losses, trial_points, radius in fits[n]:
            assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
            assert len(iterates) == res.iterations + 1
            norms = np.linalg.norm(np.vstack([iterates, trial_points]), axis=1)
            assert np.all(norms <= radius + 1e-12)
            dist = np.linalg.norm(iterates - iterates[-1], axis=1)[:-1]
            tail = dist[-20:]
            assert np.all(np.diff(tail) < 0), "tail distances must decay monotonically"
            assert np.all(tail[1:] / tail[:-1] <= 0.999)
            checked += 1
    _passed(5, f"{checked} fits: monotone loss, iterates inside the ball, geometric tail decay")


# -----------------------------------------------------------------------
# criteria 6 + 7: method ordering and detection-rate selection robustness
# -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ordering_trials():
    start = time.time()
    rows = []
    for trial in range(10):
        sim = make_datasets(
            SimConfig(setting="correct", n=10000, p=10, lambda_eps_true=0.24, seed=600 + trial, n_test=20000)
        )
        train = sim.train.observed_only()
        cfg = FitConfig(radius=default_radius(10), tol=1e-6)
        models = {
            "oracle": fit_oracle(sim.train),
            "pu_omm": fit_pu_omm(train, make_lambda_grid(), cfg),
            "pu_omm_true_lambda": fit_at_lambda(train, 0.24, cfg),
            "logistic": fit_observed_mixture(train, "gamma"),
        }
        for name, model in models.items():
            rows.append(evaluate_trial(name, model, sim.test, truth=(sim.beta0, sim.theta0), trial_id=trial))
    return rows, time.time() - start


def test_criterion_6_method_ordering(ordering_trials):
    rows, elapsed = ordering_trials
    mean = lambda name, attr: np.mean([getattr(r, attr) for r in rows if r.method_name == name])
    rmse_oracle = mean("oracle", "rmse_theta")
    rmse_pu = mean("pu_omm", "rmse_theta")
    rmse_logistic = mean("logistic", "rmse_theta")
    brier_pu = mean("pu_omm", "brier")
    brier_logistic = mean("logistic", "brier")
    assert elapsed < 900.0
    assert rmse_oracle < rmse_pu < rmse_logistic
    assert brier_pu < brier_logistic
    _passed(6, f"mean RMSE(theta): oracle {rmse_oracle:.3f} < pu_omm {rmse_pu:.3f} < logistic {rmse_logistic:.3f}; "
               f"Brier {brier_pu:.4f} < {brier_logistic:.4f}, {elapsed:.0f}s")


def test_criterion_7_selected_lambda_close_to_true(ordering_trials):
    rows, _ = ordering_trials
    mean = lambda name: np.mean([r.rmse_theta for r in rows if r.method_name == name])
    selected, true = mean("pu_omm"), mean("pu_omm_true_lambda")
    assert abs(selected - true) <= 0.15 * true, f"{selected} vs {true}"
    _passed(7, f"mean RMSE(theta) selected {selected:.4f} vs true-rate {true:.4f} "
               f"(gap {abs(selected - true) / true:.1%} <= 15%)")


# -----------------------------------------------------------------------
# criterion 8: reduction to the fully observed two-part fit
# -----------------------------------------------------------------------


def test_criterion_8_no_missingness_reduction():
    # detection is certain in the data; fitting at the top of a grid that
    # reaches the no-missingness regime must reproduce the oracle stages
    lam_hi = 1e6
    sim = make_datasets(SimConfig(setting="correct", n=20000, p=10, lambda_eps_true=lam_hi, seed=800, n_test=10))
    train = sim.train
    grid = make_lambda_grid(20, 1 / 50, lam_hi)
    cfg = FitConfig(radius=default_radius(10), tol=1e-8)
    model = fit_at_lambda(train.observed_only(), float(grid.values[-1]), cfg)

    u = (train.y > 0).astype(float)
    theta_oracle, _, _ = fit_logistic(train.x, u)
    beta_oracle, _ = fit_exponential_glm(train.x[train.y > 0], train.y[train.y > 0])
    d_theta = float(np.linalg.norm(model.theta - theta_oracle))
    d_beta = float(np.linalg.norm(model.beta - beta_oracle))
    assert d_theta < 0.05, d_theta
    assert d_beta < 0.05, d_beta
    _passed(8, f"||theta - oracle logistic|| = {d_theta:.2e}, ||beta - oracle exponential|| = {d_beta:.2e} (< 0.05)")


# -----------------------------------------------------------------------
# criterion 9: misspecified settings complete and keep the Brier edge
# -----------------------------------------------------------------------


def test_criterion_9_misspecification_smoke(tmp_path):
    cfg = ExperimentConfig(
        mode="simulation",
        methods=["pu_omm", "logistic_gamma"],
        trials=5,
        base_seed=900,
        output_dir=str(tmp_path / "misspec"),
        settings=[
            SimConfig(setting="lognormal", n=1, p=10, lambda_eps_true=0.24, n_test=20000),
            SimConfig(setting="threshold", n=1, p=10, tau=3.0, n_test=20000),
        ],
        n_values=[10000],
        fit=FitConfig(tol=1e-6),
    )
    long_path, _ = run_experiment(cfg)
    rows = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    assert all(r[6] == "ok" for r in rows), "optimizer failure recorded"
    for setting in ("lognormal", "threshold"):
        briers = {
            method: np.mean(
                [float(r[5]) for r in rows if r[0] == setting and r[3] == method and r[4] == "brier"]
            )
            for method in ("pu_omm", "logistic_gamma")
        }
        assert briers["pu_omm"] <= briers["logistic_gamma"], (setting, briers)
    _passed(9, "lognormal and threshold settings: all fits ok, recorded-occurrence model keeps the Brier edge")


def test_criterion_9b_real_data_pipeline_end_to_end(tmp_path):
    # stand-in with the motivating dataset's shape (15846 rows, 43 features)
    sim = make_datasets(SimConfig(setting="correct", n=15846, p=43, lambda_eps_true=0.24, seed=901, n_test=10))
    csv_path = tmp_path / "standin.csv"
    write_dataset_csv(sim.train.observed_only(), csv_path)
    cfg = ExperimentConfig(
        mode="real_data",
        methods=["pu_omm", "logistic_gamma", "logistic_lognormal"],
        trials=2,
        base_seed=902,
        output_dir=str(tmp_path / "real"),
        input_csv=str(csv_path),
        split_fraction=0.9,
        grid=make_lambda_grid(5),
        fit=FitConfig(tol=1e-4),
    )
    long_path, summary_path = run_experiment(cfg)
    rows = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    assert all(r[6] == "ok" for r in rows)
    assert {r[3] for r in rows} == {"pu_omm", "logistic_gamma", "logistic_lognormal"}
    assert summary_path.exists()
    _passed(9, "real-data pipeline (15846 x 43 stand-in, 90/10 splits) runs end to end")


# -----------------------------------------------------------------------
# criterion 10: byte determinism of experiment outputs
# -----------------------------------------------------------------------


def test_criterion_10_experiment_determinism(tmp_path):
    base = {
        "mode": "simulation",
        "methods": ["oracle", "pu_omm", "logistic_gamma"],
        "n_values": [1500],
        "trials": 2,
        "base_seed": 1000,
        "settings": [{"setting": "correct", "p": 4, "lambda_eps_true": 0.24, "n_test": 500}],
        "grid": {"size": 4, "lo": 0.02, "hi": 50.0},
        "fit": {"tol": 1e-6},
    }
    outputs = []
    for run in ("one", "two"):
        cfg = ExperimentConfig.from_dict({**base, "output_dir": str(tmp_path / run)})
        long_path, summary_path = run_experiment(cfg)
        outputs.append((long_path.read_bytes(), summary_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    _passed(10, "repeated experiment runs produce byte-identical long and summary CSVs")
