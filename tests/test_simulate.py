import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from puomm import simulate
from puomm.simulate import (
    SimConfig,
    Setting,
    apply_missingness,
    ar_covariance,
    gen_design,
    gen_latent,
    gen_params,
    make_datasets,
)


def test_gen_design_covariance_monte_carlo():
    rng = np.random.default_rng(1)
    x = gen_design(100_000, 3, 0.2, rng)
    cov = np.cov(x, rowvar=False)
    assert cov[0, 1] == pytest.approx(0.2, abs=0.01)
    assert cov[0, 2] == pytest.approx(0.04, abs=0.01)
    assert cov[0, 0] == pytest.approx(1.0, abs=0.02)


def test_gen_design_independent_when_rho_zero():
    rng = np.random.default_rng(2)
    x = gen_design(100_000, 3, 0.0, rng)
    cov = np.cov(x, rowvar=False)
    assert abs(cov[0, 1]) < 0.01
    assert abs(cov[1, 2]) < 0.01


def test_gen_design_deterministic_for_fixed_seed():
    a = gen_design(50, 4, 0.2, np.random.default_rng(5))
    b = gen_design(50, 4, 0.2, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_gen_params_variance():
    rng = np.random.default_rng(3)
    draws = np.array([gen_params(10, 0.9, rng)[0] for _ in range(10_000)])
    assert draws.var() == pytest.approx(0.9, rel=0.02)


def test_gen_params_zero_scale():
    beta0, theta0 = gen_params(5, 0.0, np.random.default_rng(0))
    assert np.array_equal(beta0, np.zeros(5))
    assert np.array_equal(theta0, np.zeros(5))


def test_gen_params_pairs_uncorrelated():
    rng = np.random.default_rng(4)
    pairs = [gen_params(1, 1.0, rng) for _ in range(100_000)]
    b = np.array([p[0][0] for p in pairs])
    t = np.array([p[1][0] for p in pairs])
    assert abs(np.corrcoef(b, t)[0, 1]) < 0.01


def test_gen_latent_exponential_mean():
    rng = np.random.default_rng(6)
    x = np.tile([[1.0]], (100_000, 1))
    u, y = gen_latent(x, np.array([1.0]), np.array([5.0]), Setting.CORRECT, rng)
    mean_pos = y[u > 0].mean()
    assert mean_pos == pytest.approx(np.e, rel=0.02)


def test_gen_latent_lognormal_log_mean():
    rng = np.random.default_rng(7)
    x = np.tile([[0.4]], (100_000, 1))
    u, y = gen_latent(x, np.array([1.0]), np.array([5.0]), Setting.LOGNORMAL, rng)
    assert np.log(y[u > 0]).mean() == pytest.approx(0.4, abs=0.02)


def test_gen_latent_vanishing_occurrence():
    rng = np.random.default_rng(8)
    x = np.tile([[1.0]], (1000, 1))
    u, y = gen_latent(x, np.array([0.0]), np.array([-50.0]), Setting.CORRECT, rng)
    assert not u.any()
    assert not y.any()


def test_apply_missingness_zero_magnitude():
    r, z = apply_missingness(0.0, Setting.CORRECT, 0.24, 3.0, np.random.default_rng(0))
    assert (r, z) == (0.0, 0.0)


def test_apply_missingness_threshold_rule():
    rng = np.random.default_rng(0)
    r, z = apply_missingness(2.9, Setting.THRESHOLD, 0.24, 3.0, rng)
    assert (r, z) == (0.0, 0.0)
    r, z = apply_missingness(3.1, Setting.THRESHOLD, 0.24, 3.0, rng)
    assert (r, z) == (1.0, 3.1)


def test_apply_missingness_detection_rate_monte_carlo():
    rng = np.random.default_rng(9)
    y = np.full(100_000, np.log(2.0) / 0.24)
    r, _ = apply_missingness(y, Setting.CORRECT, 0.24, 3.0, rng)
    assert r.mean() == pytest.approx(0.5, abs=0.01)


def test_apply_missingness_monotone_in_magnitude_bins():
    rng = np.random.default_rng(10)
    y = rng.exponential(2.0, 100_000)
    r, _ = apply_missingness(y, Setting.CORRECT, 0.5, 3.0, rng)
    bins = np.quantile(y, np.linspace(0, 1, 11))
    rates = [r[(y >= lo) & (y < hi)].mean() for lo, hi in zip(bins, bins[1:])]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_make_datasets_stream_separation():
    small = make_datasets(SimConfig(setting="correct", n=5000, seed=42, n_test=100))
    large = make_datasets(SimConfig(setting="correct", n=10000, seed=42, n_test=100))
    assert np.array_equal(small.beta0, large.beta0)
    assert np.array_equal(small.theta0, large.theta0)
    assert np.array_equal(small.train.x, large.train.x[:5000])


def test_make_datasets_pseudo_negatives_exist():
    sim = make_datasets(SimConfig(setting="correct", n=5000, lambda_eps_true=0.24, seed=1, n_test=100))
    hidden = (sim.train.u > 0) & (sim.train.z == 0)
    assert hidden.mean() > 0


def test_make_datasets_threshold_marks_exactly_above_tau():
    sim = make_datasets(SimConfig(setting="threshold", n=5000, tau=3.0, seed=2, n_test=100))
    z = sim.train.z
    y = sim.train.y
    assert z[z > 0].min() >= 3.0
    assert np.array_equal(z > 0, y >= 3.0)


def test_make_datasets_latent_bookkeeping():
    sim = make_datasets(SimConfig(setting="lognormal", n=2000, seed=3, n_test=500))
    for ds in (sim.train, sim.test):
        pos = ds.z > 0
        assert np.array_equal(ds.z[pos], ds.y[pos])
        assert np.array_equal(ds.u, (ds.y > 0).astype(float))


def test_make_datasets_bit_identical():
    cfg = SimConfig(setting="correct", n=1000, seed=11, n_test=200)
    a, b = make_datasets(cfg), make_datasets(cfg)
    assert np.array_equal(a.train.x, b.train.x)
    assert np.array_equal(a.train.z, b.train.z)
    assert np.array_equal(a.test.y, b.test.y)
    assert np.array_equal(a.beta0, b.beta0)


_SHARED = SimConfig(setting="correct", n=300, p=4, n_test=200, seed=13)


def test_make_datasets_shares_one_read_only_design_across_settings():
    a = make_datasets(_SHARED)
    b = make_datasets(replace(_SHARED, setting="lognormal", lambda_eps_true=0.5, param_scale=0.3))
    assert b.train.x is a.train.x and b.test.x is a.test.x
    children = np.random.SeedSequence(13).spawn(5)
    fresh_train = gen_design(300, 4, 0.2, np.random.default_rng(children[simulate._S_DESIGN]))
    fresh_test = gen_design(200, 4, 0.2, np.random.default_rng(children[simulate._S_TEST].spawn(3)[0]))
    assert np.array_equal(a.train.x, fresh_train) and np.array_equal(a.test.x, fresh_test)
    for x in (a.train.x, a.test.x):
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 1.0
    assert not np.array_equal(a.train.z, b.train.z)  # only the design is shared


@pytest.mark.parametrize(
    "change, train_shared, test_shared",
    [
        ({"n": 301}, False, True),
        ({"n_test": 201}, True, False),
        ({"p": 5}, False, False),
        ({"rho": 0.3}, False, False),
        ({"seed": 14}, False, False),
    ],
)
def test_make_datasets_draws_its_own_design_for_another_key(change, train_shared, test_shared):
    a = make_datasets(_SHARED)
    b = make_datasets(replace(_SHARED, **change))
    assert (b.train.x is a.train.x) == train_shared
    assert (b.test.x is a.test.x) == test_shared


def test_no_design_outlives_its_datasets():
    sim = make_datasets(_SHARED)
    key = ("test", 13, 200, 4, 0.2)
    assert simulate._DESIGNS[key] is sim.test.x
    test = sim.test
    del sim
    assert key in simulate._DESIGNS  # test still holds it
    del test
    assert key not in simulate._DESIGNS


def test_threads_racing_for_one_design_all_get_the_fresh_draw():
    # a race may draw a design twice; every caller must still get the same values, read-only
    cfg = replace(_SHARED, seed=21)
    children = np.random.SeedSequence(21).spawn(5)
    fresh = gen_design(300, 4, 0.2, np.random.default_rng(children[simulate._S_DESIGN]))
    results = [None] * 6
    start = threading.Barrier(len(results))

    def work(k):
        start.wait(timeout=10)
        results[k] = make_datasets(cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for sim in results:
        assert np.array_equal(sim.train.x, fresh) and not sim.train.x.flags.writeable
        assert np.array_equal(sim.train.z, results[0].train.z)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(setting="correct", n=0)
    with pytest.raises(ValueError):
        SimConfig(setting="correct", n=10, lambda_eps_true=-1.0)
    with pytest.raises(ValueError):
        SimConfig(setting="threshold", n=10, tau=0.0)
    assert SimConfig(setting="threshold", n=10, lambda_eps_true=-1.0).setting is Setting.THRESHOLD
    assert SimConfig(setting="correct", n=10, param_scale=None).scale == 0.9  # None means 9/p


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("p", 10.0, "p must be an integer, got 10.0"),
        ("n", "500", "n must be an integer, got '500'"),
        ("n_test", 2.5, "n_test must be an integer, got 2.5"),
        ("seed", None, "seed must be an integer, got None"),
        ("p", 0, "p must be >= 1, got 0"),
        ("n_test", 0, "n_test must be >= 1, got 0"),
        ("rho", 1.0, r"rho must lie in \(-1, 1\), got 1.0"),
        ("rho", -1.5, r"rho must lie in \(-1, 1\), got -1.5"),
        ("rho", float("nan"), r"rho must lie in \(-1, 1\), got nan"),
        ("param_scale", -1.0, "param_scale must be positive, got -1.0"),
        ("param_scale", 0.0, "param_scale must be positive, got 0.0"),
    ],
)
def test_sim_config_names_the_bad_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimConfig(**{"setting": "correct", "n": 10, field: value})


def test_sim_config_stores_integer_fields_as_int():
    cfg = SimConfig(setting="correct", n=np.int64(40), p=np.int32(3), seed=np.uint8(7), n_test=np.int64(5))
    assert [type(v) for v in (cfg.n, cfg.p, cfg.seed, cfg.n_test)] == [int] * 4


def test_ar_covariance_cholesky_exists():
    for rho in (-0.9, 0.0, 0.5, 0.99):
        np.linalg.cholesky(ar_covariance(6, rho))
