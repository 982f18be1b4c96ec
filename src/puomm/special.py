"""The few special functions the package needs, in plain numpy.

expit and log_expit use the same branch-per-sign arithmetic as the usual
C implementations, so they never overflow and keep their relative accuracy
in both tails.  expit_pair, the likelihood's sigmoid pair, takes no sign
branch: with e = exp(-clip(x, -EXPIT_CLIP, EXPIT_CLIP)) it returns
1/(1 + e) and e/(1 + e) as e * (1/(1 + e)).  The clip keeps e finite, so
nothing overflows; each output is within 4 ulp of the exact sigmoid for
|x| <= EXPIT_CLIP, and past it both stay at their values at +-EXPIT_CLIP
(a tail of ~1e-304 instead of a subnormal or zero).

digamma and trigamma shift the argument up by SHIFT with the recurrences
psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) + 1/x^2, then sum the
asymptotic (Bernoulli) series, whose truncation error at x >= SHIFT is
below 1e-16 relative.  Both are meant for x > 0, where the package uses
them (Gamma shapes).

Each function takes a scalar or an array and returns a numpy scalar for
a scalar argument, like a ufunc.
"""

from __future__ import annotations

import numpy as np

SHIFT = 10
# |x| past which expit_pair's exp argument is clipped; exp(700) ~ 1e304 is finite.
EXPIT_CLIP = 700.0

# B_2k / (2k) for k = 1..7, the digamma series coefficients of x^-2k.
_DIGAMMA_COEF = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
# B_2k for k = 1..7, the trigamma series coefficients of x^-(2k+1).
_TRIGAMMA_COEF = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), overflow-free for any float.

    It is where(x >= 0, 1, e) / (1 + e) with e = exp(-|x|), computed in
    place in e's buffer beside one for the denominator, so a long x costs
    two temporaries.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    den = out + 1.0
    np.copyto(out, 1.0, where=x >= 0)
    np.divide(out, den, out=out)
    return out[()]


def expit_pair(x):
    """(expit(x), expit(-x)) from one clipped exp and no sign test.

    With e = exp(-clip(x, -EXPIT_CLIP, EXPIT_CLIP)), expit(x) = 1/(1 + e)
    and expit(-x) = e expit(x).  Both are within 4 ulp of the exact values
    for |x| <= EXPIT_CLIP, they never exceed 1, and past the clip they
    equal their values at +-EXPIT_CLIP; no warning is raised for any input.
    """
    x = np.asarray(x, dtype=float)
    # minimum and maximum are np.clip's arithmetic without its Python-level wrapper
    e = np.exp(-np.minimum(np.maximum(x, -EXPIT_CLIP), EXPIT_CLIP))
    sig = 1.0 / (1.0 + e)
    return sig[()], (e * sig)[()]


def log_expit(x):
    """log(expit(x)) = min(x, 0) - log1p(exp(-|x|)), accurate in both tails."""
    x = np.asarray(x, dtype=float)
    return (np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x))))[()]


def _series(coefs, inv_sq):
    """Horner sum of c_0 + c_1 t + c_2 t^2 + ... at t = inv_sq."""
    acc = np.zeros_like(inv_sq)
    for c in reversed(coefs):
        acc = acc * inv_sq + c
    return acc


def digamma(x):
    """psi(x) = d/dx log Gamma(x), for x > 0."""
    x = np.asarray(x, dtype=float)
    shift = sum(1.0 / (x + j) for j in range(SHIFT))
    y = x + SHIFT
    inv_sq = 1.0 / (y * y)
    return (np.log(y) - 0.5 / y - inv_sq * _series(_DIGAMMA_COEF, inv_sq) - shift)[()]


def trigamma(x):
    """psi'(x), the derivative of digamma, for x > 0."""
    x = np.asarray(x, dtype=float)
    shift = sum(1.0 / (x + j) ** 2 for j in range(SHIFT))
    y = x + SHIFT
    inv_sq = 1.0 / (y * y)
    return (1.0 / y + 0.5 * inv_sq + inv_sq / y * _series(_TRIGAMMA_COEF, inv_sq) + shift)[()]
