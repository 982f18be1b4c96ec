import numpy as np
import pytest

from puomm import optimizer
from puomm.model import Dataset, DetectionParam, ParamPair, make_objective, neg_log_likelihood
from puomm.optimizer import FitConfig, fit, project_l2_ball
from puomm.selection import default_radius
from puomm.simulate import SimConfig, make_datasets

from conftest import random_dataset


def test_project_interior_point_unchanged():
    v = np.array([3.0, 4.0])
    assert np.array_equal(project_l2_ball(v, 10.0), v)


def test_project_scales_to_boundary():
    assert np.allclose(project_l2_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])


def test_project_zero_vector():
    assert np.array_equal(project_l2_ball(np.zeros(3), 2.5), np.zeros(3))


def test_project_huge_entries_without_overflow():
    # the plain sum of squares overflows past ~1e154 and would project onto zero
    assert np.allclose(project_l2_ball(np.array([1e300, 1e300]), 1.0), [np.sqrt(0.5)] * 2)


def test_fit_recovers_parameters_on_assumed_model():
    sim = make_datasets(SimConfig(setting="correct", n=5000, p=10, lambda_eps_true=0.24, seed=7, n_test=10))
    cfg = FitConfig(radius=default_radius(10))
    res = fit(sim.train.observed_only(), DetectionParam(0.24), cfg)
    omega0 = np.concatenate([sim.beta0, sim.theta0])
    assert res.converged
    assert np.linalg.norm(res.omega_hat.as_vector() - omega0) < np.linalg.norm(omega0)


def test_fit_loss_monotone_and_iterates_in_ball(rng):
    ds = random_dataset(rng, 400, 4)
    cfg = FitConfig(radius=default_radius(4), max_iter=300, record_iterates=True)
    res = fit(ds, DetectionParam(0.24), cfg)
    losses = [t[1] for t in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    norms = np.linalg.norm(res.iterates, axis=1)
    assert np.all(norms <= cfg.radius + 1e-12)


def _all_positive_case(rng):
    """All z > 0 with certain detection: theta wants +inf, the ball caps it."""
    n, p = 300, 3
    x = rng.standard_normal((n, p))
    z = rng.exponential(1.0, n) + 0.05
    ds = Dataset(x=np.hstack([np.ones((n, 1)), x]), z=z)
    return ds, DetectionParam(1e9), FitConfig(radius=default_radius(p + 1), max_iter=2000, tol=1e-10)


def test_fit_all_positive_boundary_behavior(rng):
    ds, d, cfg = _all_positive_case(rng)
    res = fit(ds, d, cfg)
    losses = [t[1] for t in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    assert res.omega_hat.norm() <= cfg.radius + 1e-12
    # the occurrence block keeps growing toward the boundary
    assert np.linalg.norm(res.omega_hat.theta) > 1.0


def test_fit_all_positive_converges_on_the_sphere(rng):
    # the optimum lies on the sphere, where Newton steps on the
    # ball-constrained model converge and PGD alone stalls
    ds, d, cfg = _all_positive_case(rng)
    res = fit(ds, d, cfg)
    w = res.omega_hat.as_vector()
    _, loss_and_grad = make_objective(ds, d)
    stationarity = np.linalg.norm(w - project_l2_ball(w - loss_and_grad(w)[1], cfg.radius))
    assert res.converged
    assert abs(res.omega_hat.norm() - cfg.radius) <= 1e-9
    assert stationarity <= 1e-8


def test_fit_pgd_warm_up_keeps_the_interior_minimum():
    # PGD from zero settles in an interior minimum (loss 1.02858, norm 4.4);
    # Newton steps taken from the start jump to a worse one on the sphere
    sim = make_datasets(SimConfig(setting="threshold", n=5000, p=10, seed=1, n_test=10))
    cfg = FitConfig(radius=default_radius(10))
    res = fit(sim.train.observed_only(), DetectionParam(0.02), cfg)
    assert res.converged
    assert res.omega_hat.norm() < cfg.radius - 1.0
    assert res.final_loss < 1.0287


def test_fit_huge_tol_stops_immediately(rng):
    ds = random_dataset(rng, 100, 3)
    cfg = FitConfig(radius=10.0, tol=1e9)
    res = fit(ds, DetectionParam(0.24), cfg)
    assert res.converged
    assert res.iterations == 1


def test_fit_max_iter_exhaustion_is_not_an_error(rng):
    ds = random_dataset(rng, 200, 3)
    cfg = FitConfig(radius=10.0, max_iter=3, tol=1e-14)
    res = fit(ds, DetectionParam(0.24), cfg)
    assert not res.converged
    assert res.iterations == 3


def test_fit_deterministic(rng):
    ds = random_dataset(rng, 300, 3)
    cfg = FitConfig(radius=10.0, max_iter=200)
    r1 = fit(ds, DetectionParam(0.24), cfg)
    r2 = fit(ds, DetectionParam(0.24), cfg)
    assert np.array_equal(r1.omega_hat.as_vector(), r2.omega_hat.as_vector())
    assert r1.trace == r2.trace
    assert r1.final_loss == r2.final_loss


def test_fit_final_loss_matches_public_evaluation(rng):
    ds = random_dataset(rng, 150, 3)
    cfg = FitConfig(radius=10.0, max_iter=100)
    res = fit(ds, DetectionParam(0.4), cfg)
    assert res.final_loss == pytest.approx(neg_log_likelihood(res.omega_hat, ds, DetectionParam(0.4)), rel=1e-12)


def test_fit_rejects_initial_point_outside_ball(rng):
    ds = random_dataset(rng, 50, 2)
    with pytest.raises(ValueError):
        fit(ds, DetectionParam(0.24), FitConfig(radius=0.5), ParamPair(np.ones(2), np.ones(2)))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(radius=-1.0)
    with pytest.raises(ValueError):
        FitConfig(radius=1.0, backtrack_factor=1.5)
    with pytest.raises(ValueError):
        FitConfig(radius=1.0, armijo_c=0.0)


def test_fit_gets_its_objective_from_the_module_attribute(rng, monkeypatch):
    # the benchmark's tracer counts objective calls by replacing
    # optimizer.make_objective with a wrapper of this shape
    built, calls = [], {"loss": 0, "loss_and_grad": 0}
    orig = optimizer.make_objective

    def counting(data, d):
        out = orig(data, d)
        built.append(out)

        def counted(kind, f):
            def call(w):
                calls[kind] += 1
                return f(w)

            return call

        loss, loss_and_grad = out
        return counted("loss", loss), counted("loss_and_grad", loss_and_grad)

    monkeypatch.setattr(optimizer, "make_objective", counting)
    res = fit(random_dataset(rng, 200, 3), DetectionParam(0.5), FitConfig(radius=default_radius(3), tol=1e-6))
    assert res.converged
    assert len(built) == 1
    assert isinstance(built[0], tuple) and len(built[0]) == 2 and all(callable(f) for f in built[0])
    assert calls["loss"] > 0 and calls["loss_and_grad"] > 0
