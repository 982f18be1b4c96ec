import numpy as np
import pytest
import scipy.special as sp

from puomm.special import digamma, expit, expit_pair, log_expit, trigamma


def _ulps(a, b):
    return np.abs(a - b) / np.spacing(np.abs(b))


@pytest.mark.parametrize("fn, ref", [(expit, sp.expit), (log_expit, sp.log_expit)])
def test_logistic_functions_match_scipy_to_4_ulp(fn, ref):
    x = np.concatenate([np.linspace(-700.0, 700.0, 200001), np.geomspace(1e-300, 700.0, 2001)])
    x = np.concatenate([x, -x])
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


def test_expit_pair_is_bit_identical_to_two_expit_calls():
    x = np.concatenate([np.linspace(-750.0, 750.0, 300001), [0.0, -0.0, np.inf, -np.inf]])
    up, down, e = expit_pair(x)
    assert up.tobytes() == expit(x).tobytes()
    assert down.tobytes() == expit(-x).tobytes()
    assert e.tobytes() == np.exp(-np.abs(x)).tobytes()
    assert all(isinstance(v, np.float64) for v in expit_pair(-0.0))
