import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puomm import model, optimizer, special
from puomm.model import Dataset, DetectionParam, make_objective
from puomm.optimizer import FitConfig, fit, project_l2_ball
from puomm.selection import default_radius, fit_pu_omm, make_lambda_grid
from puomm.simulate import SimConfig, make_datasets

from conftest import accepted_iterates, objective_points, random_dataset, z_pattern_datasets


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
    # every point the objective sees, rejected trial points included, lies in the ball
    ds = random_dataset(rng, 400, 4)
    cfg = FitConfig(radius=default_radius(4), max_iter=300)
    with objective_points() as (points, losses):
        res = fit(ds, DetectionParam(0.24), cfg)
    _, accepted = accepted_iterates(points, losses, res)
    assert all(b <= a + 1e-15 for a, b in zip(accepted, accepted[1:]))
    assert len(points["loss"]) >= res.iterations >= 1  # one trial point or more per iteration
    norms = np.linalg.norm(points["loss"] + points["derivatives"], axis=1)
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
    with objective_points() as (points, losses):
        res = fit(ds, d, cfg)
    _, accepted = accepted_iterates(points, losses, res)
    assert all(b <= a + 1e-15 for a, b in zip(accepted, accepted[1:]))
    assert res.omega_hat.norm() <= cfg.radius + 1e-12
    # the occurrence block keeps growing toward the boundary
    assert np.linalg.norm(res.omega_hat.theta) > 1.0


def test_fit_all_positive_converges_on_the_sphere(rng):
    # the optimum lies on the sphere, where Newton steps on the
    # ball-constrained model converge and PGD alone stalls
    ds, d, cfg = _all_positive_case(rng)
    res = fit(ds, d, cfg)
    w = res.omega_hat.as_vector()
    _, derivatives = make_objective(ds, d)
    stationarity = np.linalg.norm(w - project_l2_ball(w - derivatives(w)[1], cfg.radius))
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
    runs = []
    for _ in range(2):
        with objective_points() as (points, losses):
            res = fit(ds, DetectionParam(0.24), cfg)
        runs.append((res, points, losses))
    (r1, points1, losses1), (r2, points2, losses2) = runs
    assert np.array_equal(r1.omega_hat.as_vector(), r2.omega_hat.as_vector())
    # the same calls, at the same points, returning the same losses
    for kind in points1:
        assert np.array_equal(points1[kind], points2[kind]) and losses1[kind] == losses2[kind]
    assert (r1.iterations, r1.final_loss) == (r2.iterations, r2.final_loss)


def test_fit_final_loss_matches_public_evaluation(rng):
    ds = random_dataset(rng, 150, 3)
    cfg = FitConfig(radius=10.0, max_iter=100)
    res = fit(ds, DetectionParam(0.4), cfg)
    loss, _ = make_objective(ds, DetectionParam(0.4))
    assert res.final_loss == pytest.approx(loss(res.omega_hat.as_vector()), rel=1e-12)


def test_a_fit_config_without_a_radius_fits_in_the_ball_of_radius_5_sqrt_p(rng):
    # records exactly where x_1 > 0: the occurrence coefficients diverge, so the fit ends on the sphere
    x = rng.standard_normal((200, 2))
    ds = Dataset(x=x, z=np.where(x[:, 0] > 0, rng.exponential(1.0, 200), 0.0))
    got = fit(ds, DetectionParam(0.5), FitConfig())
    assert got.omega_hat.norm() == pytest.approx(5 * math.sqrt(2), rel=1e-12)
    expected = fit(ds, DetectionParam(0.5), FitConfig(radius=5 * math.sqrt(ds.p)))
    assert np.array_equal(got.omega_hat.as_vector(), expected.omega_hat.as_vector())
    assert (got.converged, got.iterations, got.final_loss) == (expected.converged, expected.iterations, expected.final_loss)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(radius=-1.0)
    with pytest.raises(ValueError):
        FitConfig(radius=1.0, tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(radius=1.0, max_iter=0)
    with pytest.raises(ValueError, match="^radius must be a finite positive real, got nan$"):
        FitConfig(radius=float("nan"))
    with pytest.raises(ValueError, match="^tol must be a finite positive real, got nan$"):
        FitConfig(radius=1.0, tol=float("nan"))
    with pytest.raises(ValueError, match="^max_iter must be an integer, got 2.5$"):
        FitConfig(radius=1.0, max_iter=2.5)
    cfg = FitConfig(radius=1.0, max_iter=np.int64(5))
    assert cfg.max_iter == 5 and type(cfg.max_iter) is int


def test_fit_rejects_a_pgd_trial_step_whose_loss_overflows():
    # one feature on a scale of hundreds: the full first PGD step overflows the
    # loss to +inf, and the search must shrink the step instead of failing
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 3)) * [1, 1, 400]
    z = np.where(rng.random(2000) < 0.3, rng.exponential(2.0, 2000), 0)
    ds = Dataset(x, z)
    cfg = FitConfig(radius=default_radius(3))
    loss, derivatives = make_objective(ds, DetectionParam(0.5))
    grad = derivatives(np.zeros(6))[1]
    assert loss(project_l2_ball(-grad, cfg.radius)) == math.inf  # the full first step from zero
    with objective_points() as (points, _):
        res = fit(ds, DetectionParam(0.5), cfg)
    assert res.converged
    # the first iterate is a PGD step of some eta = INIT_STEP * BACKTRACK_FACTOR^k < INIT_STEP
    etas = [optimizer.INIT_STEP * optimizer.BACKTRACK_FACTOR**k for k in range(1, 54)]
    assert any(np.array_equal(points["derivatives"][1], project_l2_ball(-eta * grad, cfg.radius)) for eta in etas)
    assert res.final_loss == pytest.approx(0.957360, abs=1e-6)


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


@pytest.fixture(scope="module")
def sweep_like():
    # the shape of the benchmark's solver workload: n=5000, coefficient variance 0.02
    sim = make_datasets(SimConfig(setting="correct", n=5000, p=10, param_scale=0.02, seed=3, n_test=10))
    return sim.train.observed_only(), DetectionParam(0.24), FitConfig(radius=default_radius(10))


def test_fit_reuses_the_hessian_after_short_newton_steps(sweep_like, monkeypatch):
    counts = {"hessians": 0, "newton_steps": 0}
    hessian, newton_step = model._RowTerms.hessian, optimizer._newton_step

    def counting_hessian(state):
        counts["hessians"] += 1
        return hessian(state)

    def counting_newton_step(*args):
        step = newton_step(*args)
        counts["newton_steps"] += step is not None
        return step

    monkeypatch.setattr(model._RowTerms, "hessian", counting_hessian)
    monkeypatch.setattr(optimizer, "_newton_step", counting_newton_step)
    assert fit(*sweep_like).converged
    assert 0 < counts["hessians"] < counts["newton_steps"]


def test_fit_builds_one_row_terms_state_and_its_hessians_recompute_no_row_terms(sweep_like, monkeypatch):
    built, passes, hessian_passes = [], [], []
    make_objective = optimizer.make_objective

    class CountingRowTerms(model._RowTerms):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    def counting_make_objective(data, d):
        loss, derivatives = make_objective(data, d)

        def counted(w):
            value, grad, hessian = derivatives(w)

            def call():
                before = len(passes)
                h = hessian()
                hessian_passes.append(len(passes) - before)
                return h

            return value, grad, call

        return loss, counted

    monkeypatch.setattr(model, "_RowTerms", CountingRowTerms)
    monkeypatch.setattr(model, "expit_pair", lambda v: passes.append(1) or special.expit_pair(v))
    monkeypatch.setattr(optimizer, "make_objective", counting_make_objective)
    assert fit(*sweep_like).converged
    assert len(built) == 1
    assert hessian_passes and not any(hessian_passes)


def test_two_threads_fitting_one_dataset_get_the_serial_result(sweep_like):
    # each fit owns its row-terms state, so two fits of one Dataset at one
    # rate running at once, racing to make its row split too, agree with a
    # serial fit bit for bit
    drawn, d, cfg = sweep_like
    ds = Dataset(x=drawn.x, z=drawn.z)  # its row split is not made yet
    start, results = threading.Barrier(2), [None, None]

    def run(i):
        start.wait(timeout=30)
        results[i] = fit(ds, d, cfg)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    serial = fit(ds, d, cfg)
    for res in results:
        assert res.omega_hat.as_vector().tobytes() == serial.omega_hat.as_vector().tobytes()
        assert (res.converged, res.iterations, res.final_loss) == (serial.converged, serial.iterations, serial.final_loss)


def test_fit_without_hessian_reuse_reaches_the_same_point(sweep_like, monkeypatch):
    lazy = fit(*sweep_like)
    monkeypatch.setattr(optimizer, "HESSIAN_REUSE", 0.0)
    fresh = fit(*sweep_like)
    assert lazy.converged and fresh.converged
    assert np.linalg.norm(lazy.omega_hat.as_vector() - fresh.omega_hat.as_vector()) <= 1e-9


# datasets from the assumed model, or with every row recorded, one, none or a random share
_GRID_END_DATASETS = st.one_of(
    st.builds(
        lambda seed, n, p: random_dataset(np.random.default_rng(seed), n, p),
        st.integers(0, 2**32 - 1),
        st.integers(20, 300),
        st.integers(1, 4),
    ),
    z_pattern_datasets(),
)


@settings(max_examples=80, deadline=None)
@given(
    ds=_GRID_END_DATASETS,
    lam=st.sampled_from([0.02, 50.0]),  # the ends of the default grid
    max_iter=st.integers(1, 200),
)
def test_fit_at_the_grid_ends_is_monotone_in_the_ball_and_reports_exhaustion(ds, lam, max_iter):
    cfg = FitConfig(radius=default_radius(ds.p), max_iter=max_iter)
    with objective_points() as (points, losses):
        res = fit(ds, DetectionParam(lam), cfg)
    iterates, accepted = accepted_iterates(points, losses, res)
    assert all(b <= a + 1e-15 for a, b in zip(accepted, accepted[1:]))
    assert np.all(np.linalg.norm(points["loss"] + points["derivatives"], axis=1) <= cfg.radius + 1e-12)
    assert len(iterates) == len(accepted) == res.iterations + 1 <= max_iter + 1
    move = iterates[-1] - iterates[max(len(iterates) - 2, 0)]
    last_change = math.sqrt(move.dot(move))  # the optimizer's own arithmetic
    if res.converged:
        assert res.iterations >= 1 and last_change <= cfg.tol
    if res.iterations == max_iter and last_change > cfg.tol:
        assert not res.converged


def test_default_grid_keeps_the_interior_basin_on_threshold_data():
    # PGD picks the basin before Newton takes over; Newton steps from the
    # first PGD step on land this dataset's fit at the grid's low end on a
    # worse minimum near the sphere (norm 15.4, loss 0.50651)
    sim = make_datasets(SimConfig(setting="threshold", n=10000, p=10, seed=2, n_test=10))
    train, grid = sim.train.observed_only(), make_lambda_grid()
    cfg = FitConfig(radius=default_radius(10))
    model = fit_pu_omm(train, grid, cfg)
    assert model.lambda_hat == grid.values[5]
    assert model.omega_hat.norm() < cfg.radius - 1.0
    low_end = fit(train, DetectionParam(grid.values[0]), cfg)
    assert low_end.converged
    assert low_end.omega_hat.norm() < cfg.radius - 1.0
    assert low_end.final_loss < 0.4930
