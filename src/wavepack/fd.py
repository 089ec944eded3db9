"""Central finite differences with Richardson extrapolation.

Used as an independent derivative oracle (validating analytic derivative
formulas) and as the fallback derivative for amplitudes without closed-form
derivatives.
"""
from __future__ import annotations

from .errors import DomainError
from .foundation import binomial
from .quadrature import neville_extrapolate


def central_difference(f, x, n: int, h: float):
    """Plain n-th central difference of f at x with step h (O(h^2) accurate).

    Uses the symmetric binomial stencil; odd orders sit on half-integer
    offsets, even orders on integer offsets.
    """
    if n == 0:
        return f(x)
    acc = 0.0 + 0.0j
    for k in range(n + 1):
        acc += (-1) ** k * binomial(n, k) * f(x + (n / 2.0 - k) * h)
    return acc / h**n


def derivative(f, x, n: int, h0: float | None = None, levels: int = 4):
    """n-th derivative of f at x by Richardson extrapolation of central stencils.

    The stencil at steps h0, h0/2, ..., h0/2^(levels-1) has an error series in
    even powers of h, so its values are extrapolated polynomially in h^2 to
    h = 0 by `quadrature.neville_extrapolate` (the same table as eliminating
    h^2, h^4, ... in turn).
    """
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    if n == 0:
        return f(x)
    if h0 is None:
        # balance truncation O(h^2) against roundoff O(eps/h^n)
        h0 = (2.22e-16) ** (1.0 / (n + 2.0)) * 4.0
    steps = [h0 * 0.5**k for k in range(levels)]
    value, _ = neville_extrapolate([h * h for h in steps],
                                   [central_difference(f, x, n, h) for h in steps])
    return value
