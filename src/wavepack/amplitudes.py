"""The momentum amplitudes phi(z): one frozen class per family.

`Gaussian`, `Sech`, `Glaisher` and `Custom` are built through the `Amplitude`
constructors or the `AMPLITUDE_FAMILIES` table.  Each is callable on scalars
and node arrays and carries `decay` (the tail bound handed to the quadrature
oracle), `parity` and `z0`, plus the optional capabilities listed on
`Amplitude`; callers dispatch on those capabilities, not on the family.

The sech amplitude (at z0 = 0) and the Glaisher kernel are alternating sums
of Lorentzians over their poles, each declared once as a `PoleExpansion`.
Their transforms, the transform derivatives of the heat series, the theta
series and the exact erfc resummations of the packet all follow from that
declaration.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from .foundation import (SeriesEval, alternating_series_cvz, check_tau, scalar_or_array,
                         sqrt_principal, sum_to_smallest_term)
from .hermite import gaussian_derivative, hermite_eval
from .quadrature import DecayBound

GLAISHER_SQRT_ARG = math.pi / (2.0 * math.sqrt(2.0))  # c(z) = this * sqrt(|z|)

# Pole sums stop at the first term past the peak below this fraction of
# 1 + |partial sum| (an alternating series with falling terms is within its
# first omitted term), and raise rather than sum more than MAX_POLE_TERMS terms.
POLE_TERM_FLOOR = 1e-18
MAX_POLE_TERMS = 250_000
PACKET_POLES = 40       # poles summed by the exact packet, `PoleExpansion.packet_exact`


def glaisher_kernel(z):
    """The corrected Glaisher kernel, evaluated stably for large arguments."""
    c = GLAISHER_SQRT_ARG * np.sqrt(np.abs(np.asarray(z, dtype=float)))
    small = c < 200.0
    cs = np.where(small, c, 0.0)
    with np.errstate(over="ignore"):
        out = np.where(small,
                       np.cosh(cs) * np.cos(cs) / (np.cosh(2 * cs) + np.cos(2 * cs)),
                       np.exp(-c) * np.cos(c))
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# pole expansions


# Weideman's rational approximation of the Faddeeva function (SIAM J. Numer.
# Anal. 31, 1994), N = 40, for Im z >= 0:
#   w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)),  Z = (L + iz) / (L - iz),
# with L = sqrt(N / sqrt(2)).  The coefficients of p, highest degree first, are
# Weideman's FFT formula evaluated once; the tests recompute them.  Written out,
# they keep numpy.fft out of the import.  N = 32 misses scipy's wofz by 3e-13.
_WEIDEMAN_L = math.sqrt(40.0 / math.sqrt(2.0))
_WEIDEMAN_P = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006, 0.5266528988277086,
    0.8472174576593815, 1.2563815675765133, 1.7253830848179779, 2.201513794878312,
    2.6160541527618597, 2.899624509389705,
)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _faddeeva(z) -> np.ndarray:
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) on a complex array.

    Weideman's N = 40 approximation in the closed upper half-plane (at most
    1.0e-15 relative off mpmath over a seeded sample out to |z| = 1e4, where
    scipy's wofz is up to 1.4e-14 off); below it, the reflection
    w(z) = 2 e^{-z^2} - w(-z), which overflows where w does.
    """
    z = np.asarray(z, dtype=complex)
    lower = z.imag < 0.0
    iz = 1j * np.where(lower, -z, z)
    d = _WEIDEMAN_L - iz
    big_z = (_WEIDEMAN_L + iz) / d
    p = np.full(z.shape, _WEIDEMAN_P[0], dtype=complex)
    for coeff in _WEIDEMAN_P[1:]:
        p *= big_z
        p += coeff
    w = 2.0 * p / (d * d) + _INV_SQRT_PI / d
    if lower.any():
        zl = z[lower]
        w[lower] = 2.0 * np.exp(-zl * zl) - w[lower]
    return w


@np.errstate(under="ignore")     # far poles underflow to 0: their value in doubles
def _lorentz_gauss_cosine(mu: np.ndarray, x: complex, s: complex) -> np.ndarray:
    """Jc(mu) = int_0^inf cos(xz) e^{-s z^2} / (mu^2 + z^2) dz, Re(s) >= 0, at
    an array of poles mu > 0.

    Stable erfc formulation via the Faddeeva function:
      (pi/(4 mu)) [ e^{-x^2/(4s)} w(i w+) + T- ],  w+- = mu sqrt(s) +- x/(2 sqrt(s)),
    where T- = e^{-x^2/(4s)} w(i w-) if Re(w-) >= 0, else the reflection
    2 e^{s mu^2 - mu x} - e^{-x^2/(4s)} w(-i w-); the reflection term is
    exactly the theta-series term, and the w() parts are the defect.  All the
    w() arguments go to one `_faddeeva` call; for real x they lie in its upper
    half-plane.  The reflection exponential is taken only on the poles with
    Re(w-) < 0: on the others it can overflow.
    Jc is even in x, and the forms above take the decaying branch e^{-mu x}
    only for Re(x) >= 0, so x is reflected into that half-plane first.
    """
    if x.real < 0:
        x = -x
    if s == 0:
        # plain Lorentzian cosine transform
        return (math.pi / (2.0 * mu)) * np.exp(-mu * x)
    rs = cmath.sqrt(s)
    shift = x / (2.0 * rs)
    wp = mu * rs + shift
    wm = mu * rs - shift
    core = cmath.exp(-x * x / (4.0 * s))
    reflect = wm.real < 0.0
    w = core * _faddeeva(np.concatenate([1j * wp, np.where(reflect, -1j * wm, 1j * wm)]))
    tp, tm = w[:mu.size], w[mu.size:]
    mr = mu[reflect]
    tm[reflect] = 2.0 * np.exp(s * mr * mr - mr * x) - tm[reflect]
    return (math.pi / (4.0 * mu)) * (tp + tm)


@dataclass(frozen=True)
class PoleExpansion:
    """phi(z) = C sum_k (-1)^k nu^p / (mu_k^2 + z^2), nu = 2k+1, mu_k = c nu^q.

    Each Lorentzian has the half-line cosine transform (pi/(2 mu)) e^{-mu w}
    and packet integral `_lorentz_gauss_cosine`, so the transform, its even
    derivatives, the theta series and the exact packet are alternating sums
    over the same poles.  The family constant stays outside every sum: the
    transform-derivative sums cancel deeply, and folding a constant into
    each term changes their rounding.  The exact packet sums its first
    PACKET_POLES = 40 terms with `alternating_series_cvz`, so n = 40: with
    n = 32 the Glaisher packet at tau = 0 misses G(x) by 1.7e-14.
    """

    C: float
    p: int
    c: float
    q: int

    @property
    def theta_prefactor(self) -> float:
        """C pi/(2c): the constant of the transform and theta-series sums."""
        return self.C * math.pi / (2.0 * self.c)

    def transform_series(self, n: int, a: float) -> SeriesEval:
        """d^{2n}/da^{2n} of the half-line cosine transform at a > 0:

            (C pi/(2c)) sum_k (-1)^k nu^{p-q} mu_k^{2n} e^{-mu_k a}.

        The terms fall monotonically once mu_k a > 2n + (p-q)/q, so the sum
        stops at the first such term below POLE_TERM_FLOOR (1 + |sum|),
        which bounds the tail.  A sum that would need more than
        MAX_POLE_TERMS terms, or whose term overflows the float range (deep
        derivatives at small a), raises NonConvergenceError instead of
        returning a partial sum.
        """
        if not (a > 0):
            raise DomainError("pole-series transforms need a > 0")
        p, c, q = self.p, self.c, self.q
        falling = 2 * n + (p - q) / q
        acc = 0.0
        for k in range(MAX_POLE_TERMS):
            nu = 2 * k + 1
            mu = c * nu**q
            try:
                term = (-1.0) ** k * (nu ** (p - q) * mu ** (2 * n)) * math.exp(-mu * a)
            except OverflowError:
                raise NonConvergenceError(
                    f"pole series at a={a:.3g}, n={n}: term {k} overflows the float range"
                ) from None
            acc += term
            if k >= 3 and mu * a > falling and abs(term) < POLE_TERM_FLOOR * (1.0 + abs(acc)):
                break
        else:
            raise NonConvergenceError(
                f"pole series at a={a:.3g}, n={n} needs more than {MAX_POLE_TERMS} terms")
        pref = self.theta_prefactor
        return SeriesEval(value=complex(pref * acc), terms_used=k + 1,
                          tail_estimate=abs(pref * term))

    def theta_series(self, x: float, tau: complex, N: int) -> SeriesEval:
        """(C pi/(2c)) sum_{n<=N} (-1)^n nu^{p-q} exp(-mu_n x + i mu_n^2 tau).

        Each term is the reflection term of one pole's erfc closed form, so
        the series is the x -> infty / tau -> 0 end of `packet_exact`.
        Summation stops before the first growing term.
        """
        if not (x > 0):
            raise DomainError("theta series needs x > 0 for convergence")
        tau = complex(tau)
        p, c, q = self.p, self.c, self.q

        def term(n: int) -> complex:
            nu = 2 * n + 1
            return (-1.0) ** n * (nu ** (p - q)
                                  * cmath.exp(-c * nu**q * x + 1j * c * c * nu**q * nu**q * tau))

        return sum_to_smallest_term(self.theta_prefactor, term, N)

    def packet_exact(self, x: complex, tau: complex) -> complex:
        """Exact int_0^inf cos(xz) phi(z) e^{-i tau z^2} dz for Im(tau) <= 0:
        C sum_k (-1)^k nu^p Jc(mu_k), each Lorentz factor in erfc closed form.

        The first PACKET_POLES poles are evaluated as one array and summed by
        `alternating_series_cvz`, whose n is that term count.  40, not the
        zeta tails' 32: at tau = 0 the Glaisher terms rise before they fall,
        and n = 32 misses the transform G(x) at x = 0.01 by 1.7e-14.
        """
        s = 1j * check_tau(tau)
        nu = np.arange(1.0, 2.0 * PACKET_POLES, 2.0)
        terms = nu**self.p * _lorentz_gauss_cosine(self.c * nu**self.q, x, s)
        return self.C * complex(alternating_series_cvz(terms))


def sech_poles(beta: float) -> PoleExpansion:
    """sech(beta z) = (pi/beta^2) sum_k (-1)^k nu / ((nu c)^2 + z^2), c = pi/(2 beta)."""
    return PoleExpansion(C=math.pi / beta**2, p=1, c=math.pi / (2.0 * beta), q=1)


# K(z) = (2/pi) sum_k (-1)^k nu^3 / (nu^4 + z^2).  c is the integer 1, so the
# pole positions nu^2 and the powers of the transform-derivative terms stay
# exact integers.
GLAISHER_POLES = PoleExpansion(C=2.0 / math.pi, p=3, c=1, q=2)


# ---------------------------------------------------------------------------
# amplitude families

_SECH_POLY_CACHE: dict[int, np.ndarray] = {0: np.array([1.0])}


def _sech_poly(k: int) -> np.ndarray:
    """P_k with d^k/du^k sech(u) = sech(u) P_k(tanh(u)); coefficients low-first.

    Recurrence P_{k+1}(v) = (1 - v^2) P_k'(v) - v P_k(v).
    """
    if k not in _SECH_POLY_CACHE:
        p = _sech_poly(k - 1)
        dp = np.polynomial.polynomial.polyder(p)
        term1 = np.polynomial.polynomial.polysub(dp, np.polynomial.polynomial.polymul([0.0, 0.0, 1.0], dp))
        term2 = np.polynomial.polynomial.polymul([0.0, 1.0], p)
        _SECH_POLY_CACHE[k] = np.polynomial.polynomial.polysub(term1, term2)
    return _SECH_POLY_CACHE[k]


class Amplitude:
    """Momentum amplitude phi(z): the protocol.

    The class attributes below are the optional capabilities, None where a
    family lacks one.  The transform capabilities describe the even member
    (z0 = 0), so callers check `parity` first.  An amplitude without
    `derivative` gets finite differences up to order 8.  Declared bounds hold
    at every parameter; none is guessed, so subclass to declare one.
    `Amplitude.gaussian`, `.sech`, `.glaisher` and `.custom` are the family
    classes themselves.
    """

    z0 = 0.0
    derivative = None                    # (k, z) -> d^k phi / dz^k
    closed_psi = None                    # (x, tau) -> closed-form packet
    cosine_transform = None              # (w) -> phibar_c(w) = int_0^inf phi cos(zw) dz
    cosine_transform_derivative = None   # (n, a) -> d^{2n} phibar_c / da^{2n}
    transform_decay = None               # DecayBound of phibar_c (of phibar_s, if odd)
    poles = None                         # PoleExpansion

    @property
    def parity(self) -> str:
        """even | odd | none."""
        return "even" if self.z0 == 0 else "none"


@dataclass(frozen=True)
class Gaussian(Amplitude):
    """exp(-alpha (z - z0)^2), Re(alpha) > 0."""

    alpha: complex = 1.0
    z0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not (self.alpha.real > 0):
            raise DomainError("gaussian amplitude needs Re(alpha) > 0")

    @property
    def decay(self) -> DecayBound:
        return DecayBound(rate=self.alpha.real / 2.0, power=2.0,
                          scale=math.exp(self.alpha.real * self.z0 * self.z0))

    @property
    def transform_decay(self) -> DecayBound:
        # |phibar_c(w)| = (1/2) |sqrt(pi/alpha)| exp(-w^2 Re(1/(4 alpha)))
        rr = self.alpha.real / (4.0 * abs(self.alpha) ** 2)
        return DecayBound(rate=rr / 2.0, power=2.0, scale=max(2.0, abs(self.cosine_transform(0.0))))

    def __call__(self, z):
        return scalar_or_array(np.exp(-self.alpha * (np.asarray(z, dtype=complex) - self.z0) ** 2), z)

    def derivative(self, k: int, z):
        return scalar_or_array(gaussian_derivative(k, self.alpha,
                                                   np.asarray(z, dtype=complex) - self.z0), z)

    def closed_psi(self, x: complex, tau: complex) -> complex:
        """Complete-the-square closed form of the packet."""
        s = self.alpha + 1j * tau
        pref = cmath.exp(1j * self.z0 * x - 1j * tau * self.z0**2)
        return pref * sqrt_principal(math.pi / s) * cmath.exp(-((x - 2 * tau * self.z0) ** 2) / (4.0 * s))

    def cosine_transform(self, w):
        """(1/2) sqrt(pi/alpha) e^{-w^2/(4 alpha)}."""
        return 0.5 * sqrt_principal(math.pi / self.alpha) * np.exp(-w * w / (4.0 * self.alpha))

    def cosine_transform_derivative(self, n: int, a: float) -> complex:
        al = self.alpha
        c = 1.0 / (4.0 * al)
        return complex(0.5 * sqrt_principal(math.pi / al) * c**n
                       * cmath.exp(-c * a * a) * hermite_eval(2 * n, sqrt_principal(c) * a))


class _PoleFamily(Amplitude):
    """An amplitude whose `poles` give the transform derivatives."""

    def cosine_transform_derivative(self, n: int, a: float) -> complex:
        return self.poles.transform_series(n, a).value


@dataclass(frozen=True)
class Sech(_PoleFamily):
    """sech(beta (z - z0)), beta > 0; a pole expansion at z0 = 0."""

    beta: float
    z0: float = 0.0

    def __post_init__(self) -> None:
        if not (self.beta > 0):
            raise DomainError("sech amplitude needs beta > 0")

    @property
    def decay(self) -> DecayBound:
        return DecayBound(rate=self.beta, power=1.0, scale=2.0 * math.exp(self.beta * abs(self.z0)))

    @property
    def transform_decay(self) -> DecayBound:
        c = math.pi / (2.0 * self.beta)       # c sech(c w) <= 2c exp(-c w)
        return DecayBound(rate=c, power=1.0, scale=max(4.0, 2.0 * c))

    @property
    def poles(self) -> PoleExpansion | None:
        return sech_poles(self.beta) if self.z0 == 0 else None

    def __call__(self, z):
        return scalar_or_array(1.0 / np.cosh(self.beta * (np.asarray(z, dtype=complex) - self.z0)), z)

    def derivative(self, k: int, z):
        u = self.beta * (np.asarray(z, dtype=complex) - self.z0)
        return scalar_or_array(self.beta**k / np.cosh(u)
                               * np.polynomial.polynomial.polyval(np.tanh(u), _sech_poly(k)), z)

    def cosine_transform(self, w):
        """c sech(c w), c = pi/(2 beta)."""
        c = math.pi / (2.0 * self.beta)
        return c / np.cosh(c * w)


@dataclass(frozen=True)
class Glaisher(_PoleFamily):
    """The Glaisher kernel K(z) = cosh(c) cos(c) / (cosh(2c) + cos(2c)),
    c = (pi/2) sqrt(|z|/2); real arguments only.

    Its half-line cosine transform is the theta series G(x) = sum_{n>=0}
    (-1)^n (2n+1) exp(-(2n+1)^2 x).  The 2c in the denominator is a ledgered
    correction of the catalogue source, which prints cosh(c)+cos(c); both
    forms agree at z=0 (value 1/2) but only the 2c kernel transforms to G.
    """

    decay = DecayBound(rate=GLAISHER_SQRT_ARG, power=0.5, scale=4.0, onset=2.0)
    transform_decay = DecayBound(rate=1.0, power=1.0, scale=2.0, onset=0.5)
    poles = GLAISHER_POLES

    def __call__(self, z):
        if np.iscomplexobj(z) and np.any(np.asarray(z).imag != 0):
            raise DomainError("glaisher kernel is defined on the real line")
        return scalar_or_array(np.asarray(glaisher_kernel(np.real(z)), dtype=complex), z)

    def cosine_transform(self, w):
        """The theta series G(w), w > 0."""
        if np.any(w <= 0):
            raise DomainError("glaisher transform series needs w > 0")
        g = [GLAISHER_POLES.transform_series(0, a).value for a in np.ravel(w)]
        return np.reshape(np.asarray(g, dtype=complex), np.shape(w))


@dataclass(frozen=True)
class Custom(Amplitude):
    """A user-supplied callable with declared parity and tail bound; decay=None
    sends it down the oracle's regularized path.  The decay of phi does not
    bound its transform's, so it declares no `transform_decay`."""

    fn: object
    parity: str = "none"
    decay: DecayBound | None = None

    def __call__(self, z):
        return scalar_or_array(np.asarray(self.fn(np.asarray(z, dtype=complex)), dtype=complex), z)


Amplitude.gaussian, Amplitude.sech, Amplitude.glaisher, Amplitude.custom = (
    Gaussian, Sech, Glaisher, Custom)

# family name -> constructor from a mapping of its parameters (CLI flags or
# catalogue-case parameters)
AMPLITUDE_FAMILIES = {
    "gaussian": lambda p: Amplitude.gaussian(p.get("alpha", 1.0), p.get("z0", 0.0)),
    "sech": lambda p: Amplitude.sech(float(p["beta"]), p.get("z0", 0.0)),
    "glaisher": lambda p: Amplitude.glaisher(),
}
