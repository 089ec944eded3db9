"""Central finite differences with Richardson extrapolation.

Used as an independent derivative oracle (validating analytic derivative
formulas) and as the fallback derivative for amplitudes without closed-form
derivatives.
"""
from __future__ import annotations

from .errors import DomainError
from .foundation import binomial


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
    """n-th derivative of f at x by step-halving Richardson on central stencils."""
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    if n == 0:
        return f(x)
    if h0 is None:
        # balance truncation O(h^2) against roundoff O(eps/h^n)
        h0 = (2.22e-16) ** (1.0 / (n + 2.0)) * 4.0
    vals = []
    h = h0
    for _ in range(levels):
        vals.append(central_difference(f, x, n, h))
        h *= 0.5
    # central stencils have even-power error series; eliminate h^2, h^4, ...
    for j in range(1, len(vals)):
        factor = 4.0**j
        for i in range(len(vals) - 1, j - 1, -1):
            vals[i] = (factor * vals[i] - vals[i - 1]) / (factor - 1.0)
    return vals[-1]
