import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

from puomm.model import (
    Dataset,
    DetectionParam,
    NumericalError,
    ObservedSample,
    ParamPair,
    detection_prob,
    gradient,
    magnitude_density,
    make_hessian,
    make_objective,
    mixture_link,
    mixture_link_partials,
    neg_log_likelihood,
    occurrence_prob,
    per_sample_loss,
    phi,
    sigmoid,
)
from puomm.selection import default_radius

from conftest import central_diff_gradient, random_dataset


def test_sigmoid_symmetry_point():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_reflection_identity():
    assert sigmoid(3.7) == pytest.approx(1.0 - sigmoid(-3.7), abs=1e-15)


def test_sigmoid_saturates_without_overflow():
    with np.errstate(over="raise"):
        assert sigmoid(500.0) == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(-700.0) >= 0.0


def test_occurrence_prob_zero_inputs():
    theta = np.array([1.2, -0.5])
    assert occurrence_prob(np.zeros(2), theta) == 0.5
    assert occurrence_prob(np.array([0.3, 4.0]), np.zeros(2)) == 0.5


def test_occurrence_prob_log3():
    # sigma(log 3) = 3/4 by hand
    assert occurrence_prob(np.array([np.log(3.0)]), np.array([1.0])) == pytest.approx(0.75, abs=1e-15)


def test_occurrence_prob_dim_mismatch():
    with pytest.raises(ValueError):
        occurrence_prob(np.zeros(3), np.zeros(2))


def test_magnitude_density_unit_rate():
    assert magnitude_density(1.0, np.zeros(2), np.zeros(2)) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_magnitude_density_integrates_to_one():
    x, beta = np.array([1.3]), np.array([1.0])
    total, _ = quad(lambda t: magnitude_density(t, x, beta), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_magnitude_density_mean_matches_log_link():
    x, beta = np.array([-0.5]), np.array([1.0])
    mean, _ = quad(lambda t: t * magnitude_density(t, x, beta), 0, np.inf)
    assert mean == pytest.approx(np.exp(-0.5), rel=1e-9)


def test_magnitude_density_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        magnitude_density(0.0, np.zeros(1), np.zeros(1))


def test_detection_prob_at_zero():
    assert detection_prob(0.0, DetectionParam(0.24)) == 0.0


def test_detection_prob_half_point():
    y = np.log(2.0) / 0.24
    assert detection_prob(y, DetectionParam(0.24)) == pytest.approx(0.5, abs=1e-15)


def test_detection_prob_no_missingness_limit():
    assert detection_prob(1.0, DetectionParam(1e6)) == pytest.approx(1.0, abs=1e-6)


def test_detection_prob_monotone_and_rejects_negative():
    d = DetectionParam(0.7)
    ys = np.linspace(0, 10, 50)
    vals = detection_prob(ys, d)
    assert np.all(np.diff(vals) >= 0)
    with pytest.raises(ValueError):
        detection_prob(-0.1, d)


def test_phi_hand_value():
    # 0.24 / (0.24 + 1) at x.beta = 0
    assert phi(np.zeros(3), np.zeros(3), DetectionParam(0.24)) == pytest.approx(0.24 / 1.24, abs=1e-15)


def test_phi_no_missingness_limit():
    assert phi(np.zeros(2), np.zeros(2), DetectionParam(1e9)) == pytest.approx(1.0, abs=1e-8)


def test_phi_two_closed_forms_agree(rng):
    for _ in range(50):
        x = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        lam = float(np.exp(rng.uniform(-4, 4)))
        direct = lam / (lam + np.exp(-x @ beta))
        assert phi(x, beta, DetectionParam(lam)) == pytest.approx(direct, abs=1e-12)


def test_phi_matches_quadrature():
    x, beta = np.array([0.7]), np.array([1.0])
    d = DetectionParam(0.24)
    integral, _ = quad(
        lambda y: detection_prob(y, d) * magnitude_density(y, x, beta), 0, np.inf
    )
    assert phi(x, beta, d) == pytest.approx(integral, abs=1e-8)


def test_per_sample_loss_zero_branch():
    s = ObservedSample(x=np.zeros(3), z=0.0)
    om = ParamPair(np.zeros(3), np.zeros(3))
    assert per_sample_loss(om, s, DetectionParam(1.0)) == pytest.approx(np.log(0.75), abs=1e-12)


def test_per_sample_loss_positive_branch():
    s = ObservedSample(x=np.array([1.0, 0.0]), z=1.0)
    om = ParamPair(np.zeros(2), np.zeros(2))
    assert per_sample_loss(om, s, DetectionParam(1.0)) == pytest.approx(-1.0 - np.log(2.0), abs=1e-12)


def test_per_sample_loss_no_missingness_limit(rng):
    # z = 0 branch collapses to log(1 - p1) when detection is certain
    x = rng.standard_normal(4)
    om = ParamPair(rng.standard_normal(4) * 0.5, rng.standard_normal(4) * 0.5)
    s = ObservedSample(x=x, z=0.0)
    val = per_sample_loss(om, s, DetectionParam(1e9))
    assert val == pytest.approx(np.log1p(-expit(x @ om.theta)), abs=1e-6)


def test_neg_log_likelihood_single_sample_negation():
    ds = Dataset(x=np.zeros((1, 3)), z=np.zeros(1))
    om = ParamPair(np.zeros(3), np.zeros(3))
    assert neg_log_likelihood(om, ds, DetectionParam(1.0)) == pytest.approx(0.2876820724517809, abs=1e-12)


def test_neg_log_likelihood_mean_invariance(rng):
    ds = random_dataset(rng, 40, 3)
    om = ParamPair(rng.standard_normal(3), rng.standard_normal(3))
    d = DetectionParam(0.5)
    doubled = Dataset(x=np.vstack([ds.x, ds.x]), z=np.concatenate([ds.z, ds.z]))
    assert neg_log_likelihood(om, doubled, d) == pytest.approx(neg_log_likelihood(om, ds, d), rel=1e-12)


def test_neg_log_likelihood_additivity(rng):
    ds = random_dataset(rng, 3, 2)
    om = ParamPair(rng.standard_normal(2), rng.standard_normal(2))
    d = DetectionParam(0.9)
    per = [per_sample_loss(om, ds.row(i), d) for i in range(3)]
    assert neg_log_likelihood(om, ds, d) == pytest.approx(-sum(per) / 3, rel=1e-12)


def test_neg_log_likelihood_rejects_empty():
    om = ParamPair(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        neg_log_likelihood(om, Dataset(x=np.zeros((0, 2)), z=np.zeros(0)), DetectionParam(1.0))


def test_mixture_link_hand_value():
    assert mixture_link(0.0, 0.0) == pytest.approx(-np.log(3.0), abs=1e-12)


def test_mixture_link_saturated_first_argument():
    # sigma(50) ~ 1, so h collapses to the logit of sigma(b)
    assert mixture_link(50.0, 0.3) == pytest.approx(0.3, abs=1e-6)


def test_mixture_link_symmetry():
    assert mixture_link(1.2, -0.4) == pytest.approx(mixture_link(-0.4, 1.2), abs=1e-14)


def test_mixture_link_sigmoid_identity(rng):
    for _ in range(20):
        a, b = rng.uniform(-8, 8, size=2)
        assert sigmoid(mixture_link(a, b)) == pytest.approx(sigmoid(a) * sigmoid(b), rel=1e-12)


def test_mixture_link_partials_hand_value():
    h1, h2 = mixture_link_partials(0.0, 0.0)
    assert h1 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert h2 == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_mixture_link_partials_swap():
    h1, _ = mixture_link_partials(0.9, -1.1)
    _, h2 = mixture_link_partials(-1.1, 0.9)
    assert h1 == pytest.approx(h2, abs=1e-15)


def test_mixture_link_partials_bounded(rng):
    a, b = rng.uniform(-30, 30, size=(2, 100))
    h1, h2 = mixture_link_partials(a, b)
    assert np.all((h1 >= 0) & (h1 <= 1))
    assert np.all((h2 >= 0) & (h2 <= 1))


def test_mixture_link_partials_match_finite_differences():
    a, b, step = 1.5, 0.2, 1e-5
    h1, h2 = mixture_link_partials(a, b)
    fd1 = (mixture_link(a + step, b) - mixture_link(a - step, b)) / (2 * step)
    fd2 = (mixture_link(a, b + step) - mixture_link(a, b - step)) / (2 * step)
    assert h1 == pytest.approx(fd1, abs=1e-6)
    assert h2 == pytest.approx(fd2, abs=1e-6)


def test_gradient_matches_finite_differences(rng):
    ds = random_dataset(rng, 60, 5)
    om = ParamPair(rng.standard_normal(5) * 0.8, rng.standard_normal(5) * 0.8)
    d = DetectionParam(0.24)
    g = gradient(om, ds, d)
    fd = central_diff_gradient(om, ds, d)
    assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def _criterion_1_draws():
    """The 50 (data, parameter, detection rate) draws of acceptance criterion 1."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(20, 201))
        lam = float(np.exp(rng.uniform(np.log(0.02), np.log(50.0))))
        ds = random_dataset(rng, n, p, detect_rate=lam)
        om = ParamPair(rng.standard_normal(p) * 0.8, rng.standard_normal(p) * 0.8)
        yield ds, om, DetectionParam(lam)


def _rel_err(a, b, floor=1e-3):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def test_make_objective_matches_public_loss_and_gradient():
    for ds, om, d in _criterion_1_draws():
        loss, loss_and_grad = make_objective(ds, d)
        w = om.as_vector()
        value, g = loss_and_grad(w)
        expected = neg_log_likelihood(om, ds, d)
        assert loss(w) == value
        assert abs(value - expected) <= 1e-10 * abs(expected)
        assert _rel_err(g, gradient(om, ds, d)).max() < 1e-10


def _fd_derivative(f, w, scale=1.0):
    """Fourth-order central differences of f, column by column, in steps 1e-3 / scale."""
    step = 1e-3 / scale
    cols = []
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = step
        cols.append((-f(w + 2 * e) + 8 * f(w + e) - 8 * f(w - e) + f(w - 2 * e)) / (12 * step))
    return np.array(cols).T


def test_make_hessian_matches_finite_differences_of_the_gradient():
    for ds, om, d in _criterion_1_draws():
        _, loss_and_grad = make_objective(ds, d)
        w = om.as_vector()
        h = make_hessian(ds, d)(w)
        fd = _fd_derivative(lambda v: loss_and_grad(v)[1], w)
        assert _rel_err(h, fd).max() < 1e-6
        assert np.abs(h - h.T).max() <= 1e-12


@st.composite
def _objective_cases(draw, reach=(0.0, 700.0)):
    """A dataset, a point inside the search ball and lambda at a grid end.

    The features are scaled so that the largest |x.beta| or |x.theta| over
    the rows equals a value drawn from the reach interval, whatever the
    point's norm.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    lam = draw(st.sampled_from([0.02, 50.0]))
    x = rng.standard_normal((n, p))
    z = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])), rng.exponential(1.0, n), 0.0)
    w = rng.standard_normal(2 * p)
    w *= default_radius(p) * rng.random() / np.linalg.norm(w)
    peak = np.abs(w.reshape(2, p) @ x.T).max()
    if peak > 0:
        x *= draw(st.floats(*reach)) / peak
    return Dataset(x=x, z=z), w, DetectionParam(lam)


@settings(max_examples=200, deadline=None)
@given(_objective_cases())
def test_objective_is_finite_or_raises_at_extreme_predictors(case):
    # no overflow warning either: the suite turns warnings into errors
    ds, w, d = case
    loss, loss_and_grad = make_objective(ds, d)
    try:
        value = loss(w)
    except NumericalError:
        with pytest.raises(NumericalError):
            loss_and_grad(w)
        return
    assert np.isfinite(value)
    try:
        value_g, g = loss_and_grad(w)
    except NumericalError:
        return
    assert value_g == value
    assert np.isfinite(g).all()


@settings(max_examples=60, deadline=None)
@given(_objective_cases(reach=(0.5, 10.0)))
def test_objective_derivatives_match_finite_differences(case):
    # beyond |x.w| ~ 10 the differences lose digits to the cancellation in
    # 1 - q, not the analytic derivatives (worst seen here: 1e-8 relative)
    ds, w, d = case
    loss, loss_and_grad = make_objective(ds, d)
    hess = make_hessian(ds, d)
    scale = np.abs(ds.x).max()
    g, h = loss_and_grad(w)[1], hess(w)
    fd_g = _fd_derivative(lambda v: np.array([loss(v)]), w, scale)[0]
    fd_h = _fd_derivative(lambda v: loss_and_grad(v)[1], w, scale)
    assert np.abs(g - fd_g).max() <= 1e-6 * np.abs(fd_g).max() + 1e-12
    assert np.abs(h - fd_h).max() <= 1e-6 * np.abs(fd_h).max() + 1e-12
    assert np.abs(h - h.T).max() <= 1e-12 * np.abs(h).max()


@settings(max_examples=60, deadline=None)
@given(_objective_cases(reach=(0.5, 30.0)), _objective_cases(reach=(0.5, 30.0)))
def test_objective_memo_never_serves_a_mutated_point(case, other):
    # evaluate w1, overwrite that same array with w2, evaluate again:
    # the values must be those of fresh closures at w2
    ds, w1, d = case
    w2 = np.resize(other[1], w1.size)
    loss, loss_and_grad = make_objective(ds, d)
    hess = make_hessian(ds, d)
    w = w1.copy()
    for f in (loss, loss_and_grad, hess):
        f(w)
    w[:] = w2
    fresh_loss, fresh_loss_and_grad = make_objective(ds, d)
    value, g = loss_and_grad(w)
    expected_value, expected_g = fresh_loss_and_grad(w2)
    assert loss(w) == value == expected_value == fresh_loss(w2)
    assert np.array_equal(g, expected_g)
    assert np.array_equal(hess(w), make_hessian(ds, d)(w2))


def test_gradient_theta_block_all_positive(rng):
    # every z > 0: the theta block is the logistic score with all-ones labels
    n, p = 30, 3
    x = rng.standard_normal((n, p))
    z = rng.exponential(1.0, n) + 0.05
    ds = Dataset(x=x, z=z)
    om = ParamPair(rng.standard_normal(p) * 0.5, rng.standard_normal(p) * 0.5)
    g = gradient(om, ds, DetectionParam(0.24))
    expected = -(x.T @ (1.0 - expit(x @ om.theta))) / n
    assert np.allclose(g[p:], expected, atol=1e-12)
    fd = central_diff_gradient(om, ds, DetectionParam(0.24))
    assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_gradient_beta_block_no_missingness(rng):
    # with certain detection, the beta block reduces to the exponential-GLM score
    n, p = 50, 3
    x = rng.standard_normal((n, p))
    u = rng.random(n) < 0.6
    z = np.where(u, rng.exponential(1.0, n) + 0.01, 0.0)
    ds = Dataset(x=x, z=z)
    om = ParamPair(rng.standard_normal(p) * 0.4, rng.standard_normal(p) * 0.4)
    g = gradient(om, ds, DetectionParam(1e9))
    score = -(x.T @ (u * (np.exp(-x @ om.beta) * z - 1.0))) / n
    assert np.allclose(g[:p], score, atol=1e-6)


def test_loss_decreases_along_negative_gradient(rng):
    ds = random_dataset(rng, 80, 4)
    d = DetectionParam(0.4)
    for _ in range(100):
        om = ParamPair(rng.standard_normal(4), rng.standard_normal(4))
        g = gradient(om, ds, d)
        base = neg_log_likelihood(om, ds, d)
        stepped = ParamPair.from_vector(om.as_vector() - 1e-7 * g)
        assert neg_log_likelihood(stepped, ds, d) <= base + 1e-14


def test_observed_occurrence_prob_in_unit_interval_and_monotone(rng):
    from puomm.selection import observed_occurrence_prob

    om = ParamPair(np.array([0.3]), np.array([1.0]))
    lam = 0.8
    qs = [observed_occurrence_prob(ParamPair(om.beta, np.array([t])), lam, np.ones(1)) for t in np.linspace(-5, 5, 30)]
    qs = np.array(qs, dtype=float)
    assert np.all((qs > 0) & (qs < 1))
    assert np.all(np.diff(qs) > 0)


def test_per_sample_loss_nonfinite_carries_index():
    # gigantic magnitude with a huge negative linear predictor overflows exp
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    z = np.array([0.0, 1e308])
    ds = Dataset(x=x, z=z)
    om = ParamPair(np.array([-710.0, 0.0]), np.zeros(2))
    with pytest.raises(NumericalError) as exc:
        neg_log_likelihood(om, ds, DetectionParam(1.0))
    assert exc.value.index == 1


def test_neg_log_likelihood_sum_overflow_raises():
    # every term is finite, their sum is not
    ds = Dataset(x=np.zeros((3, 1)), z=np.array([1e308, 1e308, 0.0]))
    with pytest.raises(NumericalError, match="non-finite log-likelihood sum"):
        neg_log_likelihood(ParamPair.zeros(1), ds, DetectionParam(1.0))


def test_gradient_product_overflow_raises():
    # finite weights times features of 1e300 overflow the products over rows
    ds = Dataset(x=np.array([[1e300], [1e300], [0.0]]), z=np.array([1e10, 1e10, 0.0]))
    with pytest.raises(NumericalError, match="non-finite gradient sum"):
        gradient(ParamPair.zeros(1), ds, DetectionParam(1.0))


def test_param_pair_validation():
    with pytest.raises(ValueError):
        ParamPair(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        ParamPair(np.array([np.inf]), np.array([0.0]))
    om = ParamPair(np.arange(3.0), np.arange(3.0) + 3)
    assert np.array_equal(ParamPair.from_vector(om.as_vector()).beta, om.beta)


@pytest.mark.parametrize(
    "x, z, message",
    [
        ([[0.0, 1.0], [2.0, np.nan]], [0.0, 1.0], r"x must be finite \(row 1\)"),
        ([[np.inf, 1.0]], [0.0], r"x must be finite \(row 0\)"),
        ([[0.0], [1.0], [2.0]], [0.0, 1.0, np.nan], r"z must be finite \(row 2\)"),
        ([[0.0], [1.0]], [-np.inf, 1.0], r"z must be finite \(row 0\)"),
    ],
)
def test_dataset_rejects_non_finite_values_naming_the_row(x, z, message):
    with pytest.raises(ValueError, match=message):
        Dataset(x=x, z=z)


@pytest.mark.parametrize("name", ["y", "u", "r"])
def test_dataset_rejects_latent_column_of_wrong_length(name):
    cols = {"y": np.zeros(3), "u": np.zeros(3), "r": np.zeros(3)}
    cols[name] = np.zeros(2)
    with pytest.raises(ValueError, match=f"^{name} must be a length-n vector"):
        Dataset(x=np.zeros((3, 1)), z=np.zeros(3), **cols)
