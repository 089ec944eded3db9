"""Physicists' Hermite polynomials and the derivative machinery built on them.

H_{k+1}(z) = 2 z H_k(z) - 2 k H_{k-1}(z), H_0 = 1, H_1 = 2z.  The recurrence is
stable in double precision up to order 64 on the argument ranges used here.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError
from .foundation import binomial, scalar_or_array, sqrt_principal

HERMITE_ORDER_CAP = 64


def _recurrence(n: int, z) -> list:
    """[H_0(z), ..., H_n(z)] as complex arrays of z's shape, by the recurrence."""
    if n < 0:
        raise DomainError("Hermite order must be >= 0")
    if n > HERMITE_ORDER_CAP:
        raise CapacityError(f"Hermite order capped at {HERMITE_ORDER_CAP}, got {n}")
    zz = np.asarray(z, dtype=complex)
    out = [np.ones_like(zz)]
    if n >= 1:
        out.append(2.0 * zz)
    for k in range(1, n):
        out.append(2.0 * zz * out[k] - 2.0 * k * out[k - 1])
    return out


def hermite_eval(n: int, z):
    """H_n(z) for scalar or ndarray argument (real or complex)."""
    h = _recurrence(n, z)[-1]
    return scalar_or_array(h, z)


# Its own function, not an alias of _recurrence: the perfbench tracer finds
# a public function by identity and would wrap every alias with it.
def hermite_all(n: int, z):
    """[H_0(z), ..., H_n(z)] in one recurrence pass; z scalar or ndarray."""
    return _recurrence(n, z)


def gaussian_derivative(m: int, a: complex, z):
    """d^m/dz^m exp(-a z^2) = a^{m/2} (-1)^m exp(-a z^2) H_m(sqrt(a) z).

    Principal branch of sqrt(a); the two sqrt(a) occurrences share the branch,
    so the result is branch-independent.
    """
    if m < 0:
        raise DomainError("derivative order must be >= 0")
    if m > HERMITE_ORDER_CAP:
        raise CapacityError(f"order capped at {HERMITE_ORDER_CAP}, got {m}")
    ra = sqrt_principal(a)
    zz = np.asarray(z, dtype=complex)
    val = ra**m * (-1) ** m * np.exp(-a * zz * zz) * hermite_eval(m, ra * zz)
    return scalar_or_array(val, z)


def shifted_argument_identity(n: int, a: float, b: float, x: float):
    """Both sides of the shifted-argument Hermite identity, plus their ratio.

    lhs = H_{2n}((a+b)/sqrt(4x)) + e^{ab/x} H_{2n}((a-b)/sqrt(4x))
    rhs = (b^2/2x)^n sum_k C(2n,k) H_k(a/sqrt(4x)) (sqrt(x)/b)^k [(-1)^k e^{ab/x} + 1]

    The rhs is evaluated exactly as printed in the source identity; the ratio
    lhs/rhs is constant in (a, b, x) for each n and equals 2^n (the printed
    (b^2/2x)^n should read (b^2/x)^n).  The per-n constant is recorded in the
    correction ledger.
    """
    if b == 0:
        raise DomainError("b must be nonzero (b appears in negative powers)")
    if not (x > 0):
        raise DomainError("x must be positive")
    s = math.sqrt(4.0 * x)
    eab = math.exp(a * b / x)
    lhs = hermite_eval(2 * n, (a + b) / s).real + eab * hermite_eval(2 * n, (a - b) / s).real
    hk = hermite_all(2 * n, a / s)
    total = 0.0
    for k in range(2 * n + 1):
        total += (
            binomial(2 * n, k)
            * hk[k].real
            * (math.sqrt(x) / b) ** k
            * ((-1) ** k * eab + 1.0)
        )
    rhs = (b * b / (2.0 * x)) ** n * total
    return lhs, rhs, lhs / rhs


def shifted_identity_ratio_constant(n: int) -> float:
    """The reconciled proportionality constant kappa(n) = 2^n."""
    return float(2**n)
