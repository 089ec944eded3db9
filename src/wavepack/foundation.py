"""Complex arithmetic conventions, the scalar-or-array return convention, unit
reduction, combinatorial helpers, the series result record and the package's
one series accelerator, one series truncation and one line search.

Everything downstream works in the reduced time tau = t*hbar/(2m); physical
(t, hbar, m) appear only at the API boundary.  Fractional powers of complex
numbers always use the principal branch, implemented once here.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

BINOMIAL_N_CAP = 128


def require_finite(z: complex, what: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite {what}: {z!r}")
    return z


@dataclass(frozen=True)
class PhysicalConfig:
    """Physical constants entering the evolution phase exp(-i hbar z^2 t / 2m).

    The default is natural units hbar=1, mass=1/2, for which tau == t.
    """

    hbar: float = 1.0
    mass: float = 0.5

    def __post_init__(self) -> None:
        if not (self.hbar > 0):
            raise DomainError("hbar must be positive")
        if not (self.mass > 0):
            raise DomainError("mass must be positive")


NATURAL_UNITS = PhysicalConfig()


@dataclass(frozen=True, slots=True)
class SeriesEval:
    """A truncated series: value, terms summed, tail estimate, and whether the
    terms started to grow before the truncation point.  `tail_estimate` is
    the truncation term alone; `roundoff_estimate`, where a sum sets it, is
    the rounding of the summed terms, to be added to it."""

    value: complex
    terms_used: int
    tail_estimate: float
    diverging: bool = False
    roundoff_estimate: float = 0.0


def sum_to_smallest_term(prefactor: float, terms, N: int, grow_from: int = 1) -> SeriesEval:
    """prefactor * sum_{n<=N} terms(n), stopped before the first term (from
    n = grow_from on) larger than its predecessor: optimal truncation of an
    asymptotic series.  The tail estimate is the first omitted term; growth
    above the rounding floor sets `diverging`.

    Use it for divergent asymptotic series, where the error is smallest at
    the smallest term and summing on makes it worse.  Convergent alternating
    series belong to `alternating_series_cvz`, which accelerates them
    instead of truncating.
    """
    acc = 0j
    last_mag = math.inf
    tail = 0.0
    used = 0
    diverging = False
    for n in range(N + 1):
        t = terms(n)
        mag = abs(t)
        if n >= grow_from and mag > last_mag:
            tail = mag
            # growth at the rounding floor is noise, not divergence
            diverging = mag > 1e-15 * (1.0 + abs(acc))
            break
        acc += t
        last_mag = mag
        used = n + 1
        tail = mag
    return SeriesEval(value=prefactor * acc, terms_used=used,
                      tail_estimate=abs(prefactor) * tail, diverging=diverging)


@functools.cache
def _cvz_weights(n: int) -> np.ndarray:
    """Weights c_k/d of Cohen, Rodriguez Villegas and Zagier (Exp. Math. 9, 2000)."""
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c, weights = -1.0, -d, []
    for k in range(n):
        c = b - c
        weights.append(c / d)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    weights = np.array(weights)
    weights.flags.writeable = False      # shared by every caller through the cache
    return weights


def alternating_series_cvz(terms) -> np.ndarray:
    """sum_{k>=0} (-1)^k a_k from terms[..., k] = a_k, k < n, one sum per row;
    n is the length of the last axis, and the weights are built once per n.
    Added in order (a BLAS dot product of these sign-alternating products
    lost up to 8.7e-15 relative, against 3.0e-15 in order).

    Use it for convergent alternating series whose terms are totally monotone
    (moments of a positive measure on [0, 1]); there the error is about
    5.83^-n.  Terms that rise before they fall need more: the zeta tails use
    n = 32 (n = 24 is 5.0e-12 off on the Glaisher terms at x = 0.05, n = 32
    within 1.4e-16), and the exact packet of `amplitudes.PoleExpansion` 40
    (n = 32 misses the Glaisher transform at x = 0.01, tau = 0, by 1.7e-14).
    Divergent asymptotic series belong to `sum_to_smallest_term` instead.
    """
    terms = np.asarray(terms)
    return np.cumsum(terms * _cvz_weights(terms.shape[-1]), axis=-1)[..., -1]


def golden_section_min(fn, lo: float, hi: float, iters: int) -> float:
    """Midpoint of the final bracket of a golden-section search for min fn on [lo, hi]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fdv = fn(c), fn(d)
    for _ in range(iters):
        if fc < fdv:
            b, d, fdv = d, c, fc
            c = b - g * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fdv
            d = a + g * (b - a)
            fdv = fn(d)
    return 0.5 * (a + b)


def reduced_time(t: complex, cfg: PhysicalConfig = NATURAL_UNITS) -> complex:
    """Map physical time to the dimensionless reduced time tau = t*hbar/(2m)."""
    return require_finite(complex(t) * cfg.hbar / (2.0 * cfg.mass), "reduced time")


def check_tau(tau: complex) -> complex:
    """tau as a complex; DomainError where Im(tau) > 1e-12.  The packet
    integral converges on the closed lower half-plane, and this one rule,
    with its allowance for rounding, holds at every entry point (`psi`, the
    oracle and the exact pole resummation)."""
    tau = complex(tau)
    if tau.imag > 1e-12:
        raise DomainError(f"Im(tau) must be <= 0, got {tau.imag:.3g}")
    return tau


def scalar_or_array(val, *inputs):
    """val as a Python complex when every input is a scalar (Python or numpy),
    else val unchanged: scalar arguments give a complex, arrays an array."""
    for i in inputs:
        if not np.isscalar(i):
            return val
    return complex(val)


def sqrt_principal(z: complex) -> complex:
    """Principal square root: w^2 = z with Re(w) >= 0, and Im(w) >= 0 on the cut.

    cmath.sqrt already implements this branch (cut along the negative real
    axis); wrapped here so the convention is named and tested in one place.
    """
    return cmath.sqrt(z)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient with a hard cap at n=128."""
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"binomial requires 0 <= k <= n, got ({n}, {k})")
    if n > BINOMIAL_N_CAP:
        raise CapacityError(f"binomial capped at n <= {BINOMIAL_N_CAP}, got {n}")
    return math.comb(n, k)
