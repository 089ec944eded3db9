"""Closed-form Gaussian-trigonometric integrals.

All formulas evaluate integrals of the family

    int_0^inf exp(-x z^2) z^{2n} trig(a z) trig(b z) dz,   Re(x) > 0,

either through the g_n binomial-Hermite sum or through the Hermite cosine
moment F.  The two routes are analytically equal; g_n carries b^{-k} terms
that cancel analytically but not numerically, so small |b| switches to the
F route (threshold EPS_SWITCH, chosen by a cancellation sweep).

Functions broadcast over numpy arrays in a and b (x and n stay scalar).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .foundation import binomial, scalar_or_array, sqrt_principal
from .hermite import hermite_all, hermite_eval

SQRT_PI = math.sqrt(math.pi)
GN_ORDER_CAP = 16
# |b|^2 >= EPS_SWITCH * |x| selects the g_n route in coscos/sinsin.
EPS_SWITCH = 1e-2


def _as_complex_array(v):
    return np.asarray(v, dtype=complex)


def _check_order(n: int) -> None:
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > GN_ORDER_CAP:
        raise DomainError(f"n capped at {GN_ORDER_CAP}")


def _check_gaussian_param(x: complex) -> complex:
    x = complex(x)
    if not (x.real > 0):
        raise DomainError("Gaussian decay parameter needs Re(x) > 0")
    return x


def f_cosine_moment(n: int, a, x):
    """int_0^inf exp(-x z^2) z^{2n} cos(a z) dz.

    Evaluates ((-1)^n / 2) sqrt(pi) 4^{-n} x^{-(n+1/2)} e^{-a^2/(4x)}
    H_{2n}(a / sqrt(4x)).  The 4^{-n} factor is a ledgered correction: the
    printed form of this moment omits it and is off by 4^n (at n=1, a=0, x=1
    the printed value is sqrt(pi), the integral is sqrt(pi)/4).
    """
    _check_order(n)
    x = _check_gaussian_param(x)
    av = _as_complex_array(a)
    rx = sqrt_principal(x)
    val = ((-1) ** n / 2.0) * SQRT_PI * 4.0 ** (-n) * x ** (-(n + 0.5)) \
        * np.exp(-av * av / (4.0 * x)) * hermite_eval(2 * n, av / (2.0 * rx))
    return scalar_or_array(val, a)


def f_cosine_moment_printed(n: int, a, x):
    """The uncorrected printed form (no 4^{-n}); kept for ledger evidence."""
    return f_cosine_moment(n, a, x) * 4.0**n


def _base_trig_product(a, b, x, sign: float):
    """The n=0 seed formula; sign=+1 for cos*cos, -1 for sin*sin."""
    x = _check_gaussian_param(x)
    av, bv = _as_complex_array(a), _as_complex_array(b)
    pref = 0.25 * sqrt_principal(math.pi / x)
    val = pref * (np.exp(-((av - bv) ** 2) / (4.0 * x)) + sign * np.exp(-((av + bv) ** 2) / (4.0 * x)))
    return scalar_or_array(val, a, b)


def base_coscos(a, b, x):
    """int_0^inf e^{-x z^2} cos(az) cos(bz) dz, the n=0 seed formula."""
    return _base_trig_product(a, b, x, +1.0)


def base_sinsin(a, b, x):
    """int_0^inf e^{-x z^2} sin(az) sin(bz) dz, the n=0 seed formula."""
    return _base_trig_product(a, b, x, -1.0)


def g_n(n: int, a, b, x):
    """The binomial-Hermite building block of the z^{2n} trig-product integrals:

    g_n(a,b,x) = (ib/2x)^{2n} (1/4) sqrt(pi/x) e^{-(a-b)^2/(4x)}
                 sum_{k=0}^{2n} C(2n,k) (-sqrt(x)/b)^k H_k(a/sqrt(4x))

    so that coscos = g_n(a,b,x) + g_n(a,-b,x) and sinsin = the difference
    (one exponent: e^{ab/(2x)} alone can overflow where the product underflows).
    Requires b != 0 (negative powers of b); small |b| callers use the F route.
    """
    _check_order(n)
    x = _check_gaussian_param(x)
    av, bv = _as_complex_array(a), _as_complex_array(b)
    if np.any(bv == 0):
        raise DomainError("g_n requires b != 0; use f_cosine_moment for b = 0")
    rx = sqrt_principal(x)
    hk = hermite_all(2 * n, av / (2.0 * rx))
    ratio = -rx / bv
    acc = np.zeros(np.broadcast(av, bv).shape, dtype=complex)
    term = np.ones_like(acc)
    for k in range(2 * n + 1):
        acc = acc + binomial(2 * n, k) * term * hk[k]
        term = term * ratio
    pref = (1j * bv / (2.0 * x)) ** (2 * n) * 0.25 * sqrt_principal(math.pi / x)
    val = pref * np.exp(-((av - bv) ** 2) / (4.0 * x)) * acc
    return scalar_or_array(val, a, b)


def _trig_product(n: int, a, b, x, sign: float):
    """Shared coscos/sinsin dispatcher; sign=+1 for cos*cos, -1 for sin*sin."""
    _check_order(n)
    x = _check_gaussian_param(x)
    av, bv = np.broadcast_arrays(_as_complex_array(a), _as_complex_array(b))
    small = np.abs(bv) ** 2 < EPS_SWITCH * abs(x)
    out = np.empty(av.shape, dtype=complex)
    if np.any(small):
        ap, bp = av[small], bv[small]
        out[small] = 0.5 * (f_cosine_moment(n, ap - bp, x)
                            + sign * f_cosine_moment(n, ap + bp, x))
    if np.any(~small):
        ap, bp = av[~small], bv[~small]
        out[~small] = g_n(n, ap, bp, x) + sign * g_n(n, ap, -bp, x)
    return scalar_or_array(out, a, b)


def coscos(n: int, a, b, x):
    """int_0^inf e^{-x z^2} z^{2n} cos(az) cos(bz) dz."""
    return _trig_product(n, a, b, x, +1.0)


def sinsin(n: int, a, b, x):
    """int_0^inf e^{-x z^2} z^{2n} sin(az) sin(bz) dz."""
    return _trig_product(n, a, b, x, -1.0)


def gr_hermite_cos(n: int, a: float, beta: float) -> float:
    """int_0^inf e^{-a z^2} H_{2n}(sqrt(a) z) cos(sqrt(2) beta z) dz.

    Closed form ((-1)^n 2^{n-1} / a^{n+1/2}) sqrt(pi) beta^{2n} e^{-beta^2/(2a)}.
    """
    _check_order(n)
    if not (a > 0):
        raise DomainError("a must be positive")
    return ((-1) ** n * 2.0 ** (n - 1) / a ** (n + 0.5)) * SQRT_PI * beta ** (2 * n) \
        * math.exp(-beta * beta / (2.0 * a))


def gr_hermite_sin(n: int, a: float, beta: float) -> float:
    """int_0^inf e^{-a z^2} H_{2n+1}(sqrt(a) z) sin(sqrt(2) beta z) dz.

    Closed form ((-1)^n 2^{n-1/2} / a^{n+1}) sqrt(pi) beta^{2n+1} e^{-beta^2/(2a)}.
    """
    _check_order(n)
    if not (a > 0):
        raise DomainError("a must be positive")
    return ((-1) ** n * 2.0 ** (n - 0.5) / a ** (n + 1)) * SQRT_PI * beta ** (2 * n + 1) \
        * math.exp(-beta * beta / (2.0 * a))
