import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, log_expit

from puomm import special
from puomm.model import (
    Dataset,
    _Q_MAX,
    _RowTerms,
    DetectionParam,
    ParamPair,
    make_objective,
    phi,
)
from puomm.selection import default_radius, observed_occurrence_prob
from puomm.simulate import Setting, apply_missingness

from conftest import (
    assert_read_only,
    central_differences,
    pu_model,
    random_dataset,
    reference_loss_and_gradient,
    tables_with_bad_cells,
    z_pattern_datasets,
)


def _loss_at(omega, ds, d):
    """make_objective's loss at omega."""
    return make_objective(ds, d)[0](omega.as_vector())


def _loss_and_grad_at(omega, ds, d):
    """make_objective's loss and gradient at omega."""
    return make_objective(ds, d)[1](omega.as_vector())[:2]


# The likelihood's logistic function is special.expit.


def test_sigmoid_symmetry_point():
    assert special.expit(0.0) == 0.5


def test_sigmoid_reflection_identity():
    assert special.expit(3.7) == pytest.approx(1.0 - special.expit(-3.7), abs=1e-15)


def test_sigmoid_saturates_without_overflow():
    with np.errstate(over="raise"):
        assert special.expit(500.0) == pytest.approx(1.0, abs=1e-15)
        assert special.expit(-700.0) >= 0.0


# P(event | x) = expit(x.theta), as PuOmmModel.occurrence_prob gives it for a fitted model.


def test_occurrence_prob_zero_inputs():
    assert pu_model(np.zeros(2), [1.2, -0.5]).occurrence_prob(np.zeros(2)) == 0.5
    assert pu_model(np.zeros(2), np.zeros(2)).occurrence_prob(np.array([0.3, 4.0])) == 0.5


def test_occurrence_prob_log3():
    # sigma(log 3) = 3/4 by hand
    assert pu_model([0.0], [1.0]).occurrence_prob(np.array([np.log(3.0)])) == pytest.approx(0.75, abs=1e-15)


def test_occurrence_prob_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        observed_occurrence_prob(ParamPair(np.zeros(2), np.zeros(2)), 0.5, np.zeros(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        phi(np.zeros(3), np.zeros(2), DetectionParam(0.5))


def _recorded_row_density(t, x, beta, theta):
    """Likelihood of one row recorded at size t > 0: the magnitude density g(t | x) times expit(x.theta)."""
    ds = Dataset(x=np.atleast_2d(x), z=np.array([t]))
    return np.exp(-_loss_at(ParamPair(beta, theta), ds, DetectionParam(1.0)))


def test_magnitude_density_unit_rate():
    # x.beta = 0: the exponential density at t = 1 is exp(-1)
    x, beta, theta = np.array([1.0, 0.0]), np.array([0.0, 0.7]), np.array([0.4, -2.0])
    assert _recorded_row_density(1.0, x, beta, theta) == pytest.approx(np.exp(-1.0) * expit(0.4), rel=1e-14)


def test_magnitude_density_integrates_to_one():
    x, beta, theta = np.array([1.3]), np.array([1.0]), np.array([0.2])
    total, _ = quad(lambda t: _recorded_row_density(t, x, beta, theta), 0, np.inf)
    assert total / expit(1.3 * 0.2) == pytest.approx(1.0, abs=1e-9)


def test_magnitude_density_mean_matches_log_link():
    # the mean event size is exp(x.beta), the conditional mean that PuOmmModel.size_mean reports
    x, beta, theta = np.array([-0.5]), np.array([1.0]), np.array([0.0])
    mean, _ = quad(lambda t: t * _recorded_row_density(t, x, beta, theta), 0, np.inf)
    assert mean / expit(0.0) == pytest.approx(np.exp(-0.5), rel=1e-9)
    assert pu_model(beta, theta).size_mean(x) == pytest.approx(np.exp(-0.5), rel=1e-15)


def test_magnitude_density_rejects_nonpositive_t():
    # z = 0 is an unrecorded row; a negative size is rejected with its row
    with pytest.raises(ValueError, match=r"z must be nonnegative \(row 1\)"):
        Dataset(x=np.zeros((2, 1)), z=np.array([0.0, -1.0]))


# The detection curve 1 - exp(-lambda_eps y) is drawn by the simulator; the
# likelihood sees it only through phi.


def test_detection_prob_no_missingness_limit():
    y = np.ones(1000)
    r, z = apply_missingness(y, Setting.CORRECT, 1e6, 3.0, np.random.default_rng(0))
    assert r.all() and np.array_equal(z, y)


def test_detection_prob_monotone_and_rejects_negative():
    # on the same uniforms, a larger event is recorded wherever a smaller one is
    ys = np.linspace(0, 10, 50)
    low, _ = apply_missingness(ys, Setting.CORRECT, 0.7, 3.0, np.random.default_rng(1))
    high, _ = apply_missingness(ys + 0.5, Setting.CORRECT, 0.7, 3.0, np.random.default_rng(1))
    assert np.all(low <= high)
    with pytest.raises(ValueError):
        apply_missingness(np.array([-0.1]), Setting.CORRECT, 0.7, 3.0, np.random.default_rng(0))


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
    rate = np.exp(-x @ beta)
    integral, _ = quad(lambda y: -np.expm1(-0.24 * y) * rate * np.exp(-rate * y), 0, np.inf)
    assert phi(x, beta, d) == pytest.approx(integral, abs=1e-8)


# The per-sample loss is make_objective's loss on a one-row dataset.


def test_per_sample_loss_zero_branch():
    ds = Dataset(x=np.zeros((1, 3)), z=np.zeros(1))
    om = ParamPair(np.zeros(3), np.zeros(3))
    assert -_loss_at(om, ds, DetectionParam(1.0)) == pytest.approx(np.log(0.75), abs=1e-12)


def test_per_sample_loss_positive_branch():
    ds = Dataset(x=np.array([[1.0, 0.0]]), z=np.ones(1))
    om = ParamPair(np.zeros(2), np.zeros(2))
    assert -_loss_at(om, ds, DetectionParam(1.0)) == pytest.approx(-1.0 - np.log(2.0), abs=1e-12)


def test_per_sample_loss_no_missingness_limit(rng):
    # z = 0 branch collapses to log(1 - p1) when detection is certain
    x = rng.standard_normal(4)
    om = ParamPair(rng.standard_normal(4) * 0.5, rng.standard_normal(4) * 0.5)
    val = -_loss_at(om, Dataset(x=x[None, :], z=np.zeros(1)), DetectionParam(1e9))
    assert val == pytest.approx(np.log1p(-expit(x @ om.theta)), abs=1e-6)


def test_neg_log_likelihood_single_sample_negation():
    ds = Dataset(x=np.zeros((1, 3)), z=np.zeros(1))
    om = ParamPair(np.zeros(3), np.zeros(3))
    assert _loss_at(om, ds, DetectionParam(1.0)) == pytest.approx(0.2876820724517809, abs=1e-12)


def test_neg_log_likelihood_mean_invariance(rng):
    ds = random_dataset(rng, 40, 3)
    om = ParamPair(rng.standard_normal(3), rng.standard_normal(3))
    d = DetectionParam(0.5)
    doubled = Dataset(x=np.vstack([ds.x, ds.x]), z=np.concatenate([ds.z, ds.z]))
    assert _loss_at(om, doubled, d) == pytest.approx(_loss_at(om, ds, d), rel=1e-12)


def test_neg_log_likelihood_additivity(rng):
    ds = random_dataset(rng, 3, 2)
    om = ParamPair(rng.standard_normal(2), rng.standard_normal(2))
    d = DetectionParam(0.9)
    per = [-_loss_at(om, ds.subset([i]), d) for i in range(3)]
    assert _loss_at(om, ds, d) == pytest.approx(-sum(per) / 3, rel=1e-12)


def test_neg_log_likelihood_rejects_empty():
    with pytest.raises(ValueError, match="at least one sample"):
        make_objective(Dataset(x=np.zeros((0, 2)), z=np.zeros(0)), DetectionParam(1.0))


def _zero_row(a, b):
    """Loss and gradient of one unrecorded row at x = 1 and lambda_eps = 1, where a = beta and b = theta.

    The row's log-likelihood is log(1 - expit(a) expit(b)) = log expit(-h)
    for the mixture link h(a, b) = logit(expit(a) expit(b)); its gradient
    is expit(h) times the partials of h.
    """
    ds, om, d = Dataset(x=np.ones((1, 1)), z=np.zeros(1)), ParamPair([a], [b]), DetectionParam(1.0)
    return _loss_and_grad_at(om, ds, d)


def _link_prob(a, b):
    """expit(h(a, b)), recovered from the zero row's loss -log(1 - expit(h))."""
    return -np.expm1(-_zero_row(a, b)[0])


def test_mixture_link_hand_value():
    # h(0, 0) = -log 3, so expit(h) = 1/4
    assert _link_prob(0.0, 0.0) == pytest.approx(0.25, abs=1e-15)


def test_mixture_link_saturated_first_argument():
    # expit(50) ~ 1, so h collapses to b
    assert _link_prob(50.0, 0.3) == pytest.approx(expit(0.3), abs=1e-6)


def test_mixture_link_symmetry():
    assert _zero_row(1.2, -0.4)[0] == pytest.approx(_zero_row(-0.4, 1.2)[0], abs=1e-14)


def test_mixture_link_sigmoid_identity(rng):
    for _ in range(20):
        a, b = rng.uniform(-8, 8, size=2)
        assert _link_prob(a, b) == pytest.approx(expit(a) * expit(b), rel=1e-12)


def test_mixture_link_partials_hand_value():
    # at a = b = 0 both partials of h are 2/3, and expit(h) = 1/4
    assert _zero_row(0.0, 0.0)[1] == pytest.approx([1 / 6, 1 / 6], abs=1e-15)


def test_mixture_link_partials_swap():
    assert _zero_row(0.9, -1.1)[1][0] == pytest.approx(_zero_row(-1.1, 0.9)[1][1], abs=1e-15)


def test_mixture_link_partials_bounded(rng):
    # a zero row's score in either linear predictor lies in [0, 1]
    for a, b in rng.uniform(-30, 30, size=(100, 2)):
        g = _zero_row(a, b)[1]
        assert np.all((g >= 0) & (g <= 1))


def test_mixture_link_partials_match_finite_differences():
    a, b, step = 1.5, 0.2, 1e-5
    fd1 = (_zero_row(a + step, b)[0] - _zero_row(a - step, b)[0]) / (2 * step)
    fd2 = (_zero_row(a, b + step)[0] - _zero_row(a, b - step)[0]) / (2 * step)
    assert _zero_row(a, b)[1] == pytest.approx([fd1, fd2], abs=1e-6)


def test_gradient_matches_finite_differences(rng):
    ds = random_dataset(rng, 60, 5)
    om = ParamPair(rng.standard_normal(5) * 0.8, rng.standard_normal(5) * 0.8)
    loss, derivatives = make_objective(ds, DetectionParam(0.24))
    w = om.as_vector()
    g = derivatives(w)[1]
    fd = central_differences(loss, w, 1e-6, order=2)
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


def test_make_objective_matches_its_own_state_and_the_row_reference():
    # the closures read the same terms as a state built on its own, and both match the per-row reference
    for ds, om, d in _criterion_1_draws():
        loss, derivatives = make_objective(ds, d)
        w = om.as_vector()
        value, g, _ = derivatives(w)
        direct = _RowTerms(ds, d).at(w.copy())
        assert loss(w) == value == direct.loss()
        assert np.array_equal(g, direct.loss_and_grad()[1])
        expected, expected_g = reference_loss_and_gradient(om, ds, d)
        assert abs(value - expected) <= 1e-10 * abs(expected)
        assert _rel_err(g, expected_g).max() < 1e-10


def test_hessian_matches_finite_differences_of_the_gradient():
    for ds, om, d in _criterion_1_draws():
        _, derivatives = make_objective(ds, d)
        w = om.as_vector()
        h = derivatives(w)[2]()
        fd = central_differences(lambda v: derivatives(v)[1], w, 1e-3, order=4)
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


@st.composite
def _z_pattern_cases(draw):
    """A z_pattern_datasets dataset, lambda at a grid end and a point with extreme predictors.

    The largest |x.beta| or |x.theta| over the rows is drawn from 600 to
    2000.  Past about 709, exp(-x.beta) overflows on a recorded row, and
    the log-likelihood total is not finite.
    """
    ds = draw(z_pattern_datasets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal(2 * ds.p)
    peak = np.abs(w.reshape(2, ds.p) @ ds.x.T).max()
    if peak > 0:
        w *= draw(st.floats(600.0, 2000.0)) / peak
    return ds, w, DetectionParam(draw(st.sampled_from([0.02, 50.0])))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_objective_cases(), _z_pattern_cases()))
def test_objective_is_finite_or_raises_at_extreme_predictors(case):
    # the loss is finite or exactly +inf, never NaN or -inf, and the
    # gradient call raises wherever the loss is +inf; no overflow warning
    # either: the suite turns warnings into errors
    ds, w, d = case
    loss, derivatives = make_objective(ds, d)
    value = loss(w)
    assert math.isfinite(value) or value == math.inf
    if value == math.inf:
        with pytest.raises(ValueError, match="^non-finite log-likelihood sum$"):
            derivatives(w)
        return
    try:
        value_g, g, _ = derivatives(w)
    except ValueError as exc:
        assert str(exc) == "non-finite gradient sum"
        return
    assert value_g == value
    assert np.isfinite(g).all()


def _close(got, ref, k, scale=None):
    """|got - ref| <= k eps scale (scale |ref| by default), or within the smallest subnormal."""
    scale = np.abs(ref) if scale is None else scale
    return np.abs(got - ref) <= k * np.finfo(float).eps * scale + np.spacing(0.0)


def _reference_row_terms(s: _RowTerms, w: np.ndarray) -> dict:
    """The kept row terms from scipy.special at the state's own linear predictors."""
    coef = w.reshape(2, s.p)
    an, bn = coef @ s.XnT
    an = an + s.loglam
    xbp, bp = coef @ s.XpT
    qn = np.minimum(expit(an) * expit(bn), _Q_MAX)
    ref = {
        "sig_an": expit(an), "comp_an": expit(-an), "sig_bn": expit(bn), "comp_bn": expit(-bn),
        "qn": qn, "ell_n": np.log1p(-qn), "sig_bp": expit(bp), "comp_bp": expit(-bp),
        "ell_p": -xbp - np.exp(-xbp) * s.zp + log_expit(bp),
    }
    return ref, np.maximum(np.abs(an), np.abs(bn)) <= 700.0, np.abs(bp) <= 700.0, xbp, bp


@settings(max_examples=200, deadline=None)
@given(_objective_cases())
def test_row_terms_match_scipy_where_predictors_are_within_the_clip(case):
    # each sigmoid is one rounding of scipy's, q a product of two of them,
    # and log(1 - q) inherits q's error scaled by q / (1 - q)
    ds, w, d = case
    s = _RowTerms(ds, d).at(w)
    ref, ok_n, ok_p, xbp, bp = _reference_row_terms(s, w)
    for name in ("sig_an", "comp_an", "sig_bn", "comp_bn", "sig_bp", "comp_bp"):
        got = getattr(s, name)
        assert ((got >= 0) & (got <= 1)).all()
        ok = ok_p if name.endswith("p") else ok_n
        assert _close(got[ok], ref[name][ok], 4).all(), name
    qn = ref["qn"][ok_n]
    assert _close(s.qn[ok_n], qn, 9).all()
    assert _close(s.ell_n[ok_n], ref["ell_n"][ok_n], 2, np.abs(ref["ell_n"][ok_n]) + 5 * qn / (1 - qn)).all()
    terms = np.abs(xbp) + np.exp(-xbp) * s.zp + np.abs(log_expit(bp))
    assert _close(s.ell_p[ok_p], ref["ell_p"][ok_p], 4, terms[ok_p]).all()


def test_recorded_rows_keep_the_exact_log_sigmoid_past_the_clip():
    # expit_pair(b) stops at its value at b = -700, so log(sig_bp) would read
    # -700 there; ell_p takes log expit(b) from log_expit, exact in both tails
    ds, d = Dataset(x=[[1.0], [2.0], [-1.5]], z=[1.0, 0.5, 0.0]), DetectionParam(0.24)
    w = np.array([0.1, -800.0])
    s = _RowTerms(ds, d).at(w)
    ref, _, ok_p, _, bp = _reference_row_terms(s, w)
    assert (bp < -700.0).all() and not ok_p.any()
    assert np.allclose(s.ell_p, ref["ell_p"], rtol=4 * np.finfo(float).eps, atol=0.0)
    assert np.isfinite(s.loss())


@settings(max_examples=60, deadline=None)
@given(_objective_cases(reach=(0.5, 10.0)))
def test_objective_derivatives_match_finite_differences(case):
    # beyond |x.w| ~ 10 the differences lose digits to the cancellation in
    # 1 - q, not the analytic derivatives (worst seen here: 1e-8 relative)
    ds, w, d = case
    loss, derivatives = make_objective(ds, d)
    scale = np.abs(ds.x).max()
    _, g, hessian = derivatives(w)
    h = hessian()
    fd_g = central_differences(loss, w, 1e-3 / scale, order=4)
    fd_h = central_differences(lambda v: derivatives(v)[1], w, 1e-3 / scale, order=4)
    assert np.abs(g - fd_g).max() <= 1e-6 * np.abs(fd_g).max() + 1e-12
    assert np.abs(h - fd_h).max() <= 1e-6 * np.abs(fd_h).max() + 1e-12
    assert np.abs(h - h.T).max() <= 1e-12 * np.abs(h).max()


@settings(max_examples=60, deadline=None)
@given(_objective_cases(reach=(0.5, 30.0)), _objective_cases(reach=(0.5, 30.0)))
def test_objective_memo_never_serves_a_mutated_point(case, other):
    # evaluate w1, overwrite that same array with w2, evaluate again: the
    # values must be those of a state of its own at w2, and the Hessian
    # callable handed out at w1 must still give the Hessian at w1
    ds, w1, d = case
    w2 = np.resize(other[1], w1.size)
    loss, derivatives = make_objective(ds, d)
    w = w1.copy()
    loss(w)
    hessian_at_w1 = derivatives(w)[2]
    hessian_at_w1()
    w[:] = w2
    ref = _RowTerms(ds, d).at(w2.copy())
    try:
        ref.loss_and_grad()
    except ValueError as expected:
        # w2 comes from another case, so x.w2 may overflow: the kept closures
        # must then give the reference's loss and raise what it raises at w2
        assert loss(w) == ref.loss()
        with pytest.raises(ValueError) as got:
            derivatives(w)
        assert str(got.value) == str(expected)
    else:
        value, g, hessian = derivatives(w)
        expected_value, expected_g = ref.loss_and_grad()
        assert loss(w) == value == expected_value == ref.loss()
        assert np.array_equal(g, expected_g)
        assert np.array_equal(hessian(), ref.hessian())
    assert np.array_equal(hessian_at_w1(), _RowTerms(ds, d).at(w1.copy()).hessian())


def reference_block_hessian(s: _RowTerms) -> np.ndarray:
    """The Hessian of a state at its point, its four blocks joined by np.block and then scaled."""
    XnT, XpT = s.XnT, s.XpT
    one_minus = 1.0 - s.qn
    fa, fb = s.qn / one_minus * s.comp_an, s.qn / one_minus * s.comp_bn
    h_bb = (XnT * (fa * (s.comp_an - s.sig_an + fa))) @ XnT.T + (XpT * (s.ratep * s.zp)) @ XpT.T
    h_tt = (XnT * (fb * (s.comp_bn - s.sig_bn + fb))) @ XnT.T + (XpT * (s.sig_bp * s.comp_bp)) @ XpT.T
    h_bt = (XnT * (fa * s.comp_bn / one_minus)) @ XnT.T
    return np.block([[h_bb, h_bt], [h_bt.T, h_tt]]) / s.n


def test_the_hessian_callable_reads_the_row_terms_hessian():
    # the callable's Hessian is a directly built state's, and the in-place build keeps every bit
    for ds, om, d in _criterion_1_draws():
        w = om.as_vector()
        direct = _RowTerms(ds, d).at(w)
        h = make_objective(ds, d)[1](w)[2]()
        assert np.array_equal(h, direct.hessian())
        assert h.tobytes() == reference_block_hessian(direct).tobytes()


def test_hessian_after_loss_and_grad_recomputes_no_row_terms(rng, monkeypatch):
    passes = []
    monkeypatch.setattr("puomm.model.expit_pair", lambda v: passes.append(1) or special.expit_pair(v))
    ds, d = random_dataset(rng, 80, 3), DetectionParam(0.24)
    loss, derivatives = make_objective(ds, d)
    w = rng.standard_normal(6) * 0.3
    hessian = derivatives(w)[2]
    done = len(passes)
    assert done > 0
    h = hessian()
    assert len(passes) == done
    loss(w + 0.1)  # the state moves on, so the callable recomputes its point's terms
    assert np.array_equal(hessian(), h)
    assert len(passes) > done


def test_no_state_remains_once_the_closures_are_dropped(rng):
    ds, d = random_dataset(rng, 30, 2), DetectionParam(0.24)
    loss, derivatives = make_objective(ds, d)
    hessian = derivatives(np.full(4, 0.1))[2]
    dataset, features = weakref.ref(ds), weakref.ref(ds._row_split[1])
    del ds
    assert dataset() is None  # the closures hold the row blocks, not the Dataset
    del loss, derivatives
    assert features() is not None  # the Hessian callable still reads them
    del hessian
    assert features() is None


def _state_values(state: _RowTerms) -> tuple:
    """A state's loss, gradient and Hessian at its point, as bytes."""
    value, g = state.loss_and_grad()
    return value, g.tobytes(), state.hessian().tobytes()


def test_states_of_one_dataset_share_its_split_and_match_states_on_a_copy(rng):
    ds = random_dataset(rng, 120, 3)
    w = rng.standard_normal(6) * 0.4
    states = [_RowTerms(ds, DetectionParam(lam)) for lam in (0.24, 2.0)]
    names = ("XpT", "XnT", "zp")
    assert len(ds._row_split) == len(names)
    for name, part in zip(names, ds._row_split):
        assert getattr(states[0], name) is part is getattr(states[1], name), name
    for state in states:
        copy = Dataset(x=ds.x.copy(), z=ds.z.copy())
        fresh = _RowTerms(copy, DetectionParam(np.exp(state.loglam)))
        assert fresh.XnT is not state.XnT
        assert _state_values(state.at(w)) == _state_values(fresh.at(w.copy()))


def test_a_split_goes_with_its_dataset(rng):
    ds = random_dataset(rng, 30, 2)
    make_objective(ds, DetectionParam(0.24))[0](np.zeros(4))
    dataset, features = weakref.ref(ds), weakref.ref(ds._row_split[1])
    del ds
    assert dataset() is None and features() is None


def test_writing_into_a_fitted_dataset_raises(rng):
    # kept row splits, states and logistic stages stay valid because no write gets through
    drawn = random_dataset(rng, 200, 2)
    x, z = drawn.x.copy(), drawn.z.copy()  # writable arrays of the caller's own
    ds, d = Dataset(x=x, z=z), DetectionParam(0.24)
    loss, _ = make_objective(ds, d)
    w = np.full(4, 0.1)
    before = loss(w)
    for target in (x, z, ds.x, ds.z, ds.observed_only().z):
        with pytest.raises(ValueError, match="read-only"):
            target[target > 0] *= 3.0
    assert make_objective(ds, d)[0](w) == before
    assert before == make_objective(Dataset(x=x.copy(), z=z.copy()), d)[0](w)


def test_every_way_of_building_a_dataset_gives_arrays_that_refuse_writes(rng):
    n = 12
    ds = Dataset(x=rng.standard_normal((n, 2)), z=np.zeros(n), y=np.ones(n), u=np.ones(n), r=np.zeros(n))
    for built in (ds, ds.observed_only(), ds.subset(np.arange(0, n, 2)), ds.with_intercept()):
        assert_read_only(built)
    assert ds.observed_only().x is ds.x  # shared, not copied


def test_a_callers_float_array_becomes_read_only_and_a_converted_one_stays_writable(rng):
    x, z, counts = rng.standard_normal((5, 2)), np.zeros(5), np.arange(5)
    ds = Dataset(x=x, z=z, y=counts)
    assert ds.x is x and ds.z is z  # float64 arrays are taken without a copy
    with pytest.raises(ValueError, match="read-only"):
        z[0] = 1.0
    assert ds.y is not counts and not ds.y.flags.writeable
    counts[0] = 7  # an int array was converted into a new array
    assert ds.y[0] == 0.0
    bad = np.array([1.0, -1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        Dataset(x=np.zeros((2, 1)), z=bad)
    bad[1] = 1.0  # a rejected array is left as it was


def test_datasets_compare_by_identity(rng):
    ds = random_dataset(rng, 10, 2)
    same_arrays = Dataset(x=ds.x, z=ds.z)
    assert ds == ds and ds != same_arrays
    assert len({ds, same_arrays, ds}) == 2


@settings(max_examples=60, deadline=None)
@given(_objective_cases(reach=(0.5, 30.0)), st.data())
def test_row_terms_recompute_after_an_in_place_change_and_between_signed_zeros(case, data):
    # each step changes the caller's array in place; a recomputation makes new term arrays
    ds, w, d = case
    k = data.draw(st.integers(0, w.size - 1))
    w = w.copy()
    w[k] = 0.0
    state = _RowTerms(ds, d)
    for change in ("first point", "0.0 to -0.0", "add 0.25"):
        if change == "0.0 to -0.0":
            w[k] = -0.0  # == 0.0, but a point with other bytes
        elif change == "add 0.25":
            w[k] += 0.25
        before = getattr(state, "qn", None)
        state.at(w)
        assert state.qn is not before, change
        kept = state.qn
        state.at(w.copy())  # the same bytes: the terms are kept
        assert state.qn is kept, change
        fresh = _RowTerms(Dataset(x=ds.x.copy(), z=ds.z.copy()), d).at(w.copy())
        for name in ("sig_an", "comp_an", "sig_bn", "comp_bn", "qn", "sig_bp", "comp_bp", "ratep", "ell_n", "ell_p"):
            assert getattr(state, name).tobytes() == getattr(fresh, name).tobytes(), (change, name)


def test_gradient_theta_block_all_positive(rng):
    # every z > 0: the theta block is the logistic score with all-ones labels
    n, p = 30, 3
    x = rng.standard_normal((n, p))
    z = rng.exponential(1.0, n) + 0.05
    ds = Dataset(x=x, z=z)
    om = ParamPair(rng.standard_normal(p) * 0.5, rng.standard_normal(p) * 0.5)
    loss, derivatives = make_objective(ds, DetectionParam(0.24))
    w = om.as_vector()
    g = derivatives(w)[1]
    expected = -(x.T @ (1.0 - expit(x @ om.theta))) / n
    assert np.allclose(g[p:], expected, atol=1e-12)
    fd = central_differences(loss, w, 1e-6, order=2)
    assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_gradient_beta_block_no_missingness(rng):
    # with certain detection, the beta block reduces to the exponential-GLM score
    n, p = 50, 3
    x = rng.standard_normal((n, p))
    u = rng.random(n) < 0.6
    z = np.where(u, rng.exponential(1.0, n) + 0.01, 0.0)
    ds = Dataset(x=x, z=z)
    om = ParamPair(rng.standard_normal(p) * 0.4, rng.standard_normal(p) * 0.4)
    g = _loss_and_grad_at(om, ds, DetectionParam(1e9))[1]
    score = -(x.T @ (u * (np.exp(-x @ om.beta) * z - 1.0))) / n
    assert np.allclose(g[:p], score, atol=1e-6)


def test_loss_decreases_along_negative_gradient(rng):
    ds = random_dataset(rng, 80, 4)
    loss, derivatives = make_objective(ds, DetectionParam(0.4))
    for _ in range(100):
        w = ParamPair(rng.standard_normal(4), rng.standard_normal(4)).as_vector()
        base, g, _ = derivatives(w)
        assert loss(w - 1e-7 * g) <= base + 1e-14


def test_observed_occurrence_prob_in_unit_interval_and_monotone(rng):
    from puomm.selection import observed_occurrence_prob

    om = ParamPair(np.array([0.3]), np.array([1.0]))
    lam = 0.8
    qs = [observed_occurrence_prob(ParamPair(om.beta, np.array([t])), lam, np.ones(1)) for t in np.linspace(-5, 5, 30)]
    qs = np.array(qs, dtype=float)
    assert np.all((qs > 0) & (qs < 1))
    assert np.all(np.diff(qs) > 0)


def test_neg_log_likelihood_sum_overflow_raises():
    # every term is finite, their sum is not: the loss reads +inf, and the
    # gradient call raises, as at the start point of a grid fit
    ds = Dataset(x=np.zeros((3, 1)), z=np.array([1e308, 1e308, 0.0]))
    assert _loss_at(ParamPair.zeros(1), ds, DetectionParam(1.0)) == math.inf
    with pytest.raises(ValueError, match="^non-finite log-likelihood sum$"):
        _loss_and_grad_at(ParamPair.zeros(1), ds, DetectionParam(1.0))


def test_gradient_product_overflow_raises():
    # finite weights times features of 1e300 overflow the products over rows
    ds = Dataset(x=np.array([[1e300], [1e300], [0.0]]), z=np.array([1e10, 1e10, 0.0]))
    with pytest.raises(ValueError, match="non-finite gradient sum"):
        _loss_and_grad_at(ParamPair.zeros(1), ds, DetectionParam(1.0))


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


def reference_row_blocks(data: Dataset) -> dict:
    """The recorded and zero row blocks, feature-major, selected by boolean masks."""
    pos = data.z > 0
    xt = data.x.T
    return {
        "XpT": np.ascontiguousarray(xt[:, pos]),
        "XnT": np.ascontiguousarray(xt[:, ~pos]),
        "zp": data.z[pos],
    }


@settings(max_examples=100, deadline=None)
@given(z_pattern_datasets())
def test_row_terms_blocks_match_the_boolean_mask_reference(ds):
    state = _RowTerms(ds, DetectionParam(0.24))
    for name, expected in reference_row_blocks(ds).items():
        got = getattr(state, name)
        assert got.shape == expected.shape and got.dtype == expected.dtype, name
        assert got.flags.c_contiguous == expected.flags.c_contiguous, name
        assert got.tobytes() == expected.tobytes(), name


def reference_dataset_error(x: np.ndarray, z: np.ndarray) -> str | None:
    """The message Dataset raises for (x, z): x's first non-finite row, then z's, then z's first negative."""
    for name, bad in (("x", ~np.isfinite(x).all(axis=1)), ("z", ~np.isfinite(z))):
        if bad.any():
            return f"{name} must be finite (row {np.flatnonzero(bad)[0]})"
    if (z < 0).any():
        return f"z must be nonnegative (row {np.flatnonzero(z < 0)[0]})"
    return None


@settings(max_examples=150, deadline=None)
@given(tables_with_bad_cells())
def test_dataset_names_the_first_bad_row(table):
    x, z = table
    with pytest.raises(ValueError, match=f"^{re.escape(reference_dataset_error(x, z))}$"):
        Dataset(x=x, z=z)
