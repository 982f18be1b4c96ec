import numpy as np
import pytest
import scipy.special as sp

from puomm.special import EXPIT_CLIP, digamma, expit, expit_pair, log_expit, trigamma


def _ulps(a, b):
    return np.abs(a - b) / np.spacing(np.abs(b))


def _logistic_grid():
    """The 4-ulp test's inputs: dense to +-700, log-spaced down to 1e-300, both signs."""
    x = np.concatenate([np.linspace(-700.0, 700.0, 200001), np.geomspace(1e-300, 700.0, 2001)])
    return np.concatenate([x, -x])


@pytest.mark.parametrize("fn, ref", [(expit, sp.expit), (log_expit, sp.log_expit)])
def test_logistic_functions_match_scipy_to_4_ulp(fn, ref):
    x = _logistic_grid()
    assert _ulps(fn(x), ref(x)).max() <= 4
    for v in (0.0, np.inf, -np.inf):
        assert fn(v) == ref(v)


def test_logistic_functions_return_scalars_for_scalars():
    assert isinstance(expit(0.3), np.float64)
    assert isinstance(log_expit(0.3), np.float64)
    assert expit(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("fn, ref", [(digamma, sp.digamma), (trigamma, lambda t: sp.polygamma(1, t))])
def test_polygamma_functions_match_scipy(fn, ref):
    # dense around the digamma root 1.4616, log-spaced over the whole range
    x = np.concatenate([np.geomspace(1e-3, 1e6, 20001), np.linspace(0.5, 3.0, 2001)])
    expected = ref(x)
    assert (np.abs(fn(x) - expected) / np.maximum(1.0, np.abs(expected))).max() <= 1e-13


def test_expit_pair_matches_scipy_to_4_ulp_and_saturates_past_the_clip():
    x = _logistic_grid()
    sig, comp = expit_pair(x)
    assert _ulps(sig, sp.expit(x)).max() <= 4
    assert _ulps(comp, sp.expit(-x)).max() <= 4
    # the pair sums to 1 within machine epsilon
    assert np.abs(sig + comp - 1.0).max() <= np.finfo(float).eps
    edge_sig, edge_comp = expit_pair(np.array([EXPIT_CLIP, -EXPIT_CLIP]))
    far = np.array([700.5, 1e308, np.inf])
    with np.errstate(all="raise"):
        for sign in (1.0, -1.0):
            far_sig, far_comp = expit_pair(sign * far)
            assert np.isfinite(far_sig).all() and np.isfinite(far_comp).all()
            k = 0 if sign > 0 else 1
            assert (far_sig == edge_sig[k]).all() and (far_comp == edge_comp[k]).all()
    assert all(isinstance(v, np.float64) for v in expit_pair(0.3))
    assert all(isinstance(v, np.float64) for v in expit_pair(-np.inf))


def _expit_by_where(x):
    """expit's formula with a temporary per step, the reference for its in-place form."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def test_expit_in_place_is_bit_identical_to_the_where_formula():
    x = np.concatenate([_logistic_grid(), [0.0, -0.0, 750.0, -750.0, np.inf, -np.inf, np.nan]])
    assert np.array_equal(expit(x), _expit_by_where(x), equal_nan=True)
    assert np.array_equal(expit(x[::3]), _expit_by_where(x[::3]), equal_nan=True)
