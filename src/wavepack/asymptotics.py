"""Series representations of the packet: integration-by-parts expansion with
explicit remainder, the transform-derivative (heat) series, and the
exponential (theta) series for the sech and Glaisher amplitudes.

The theta series carry reconciled constants (ledgered): for the sech packet

    int_0^inf cos(xz) sech(beta z) e^{-i tau z^2} dz
        ~ (pi/beta) sum_n (-1)^n exp(-(2n+1) c x + i c^2 (2n+1)^2 tau),

with c = pi/(2 beta); the printed source uses prefactor pi/(2 beta) and no c
in the x-exponent (valid only at beta = pi/2).  For the Glaisher kernel

    int_0^inf cos(xz) K(z) e^{-i tau z^2} dz
        ~ sum_n (-1)^n (2n+1) exp(-(2n+1)^2 x + i (2n+1)^4 tau),

where the printed quartic phase coefficient 1/4 is reconciled to 1.

Both series are the tau -> 0 / x -> infty ends of exact resummations provided
here through the pole expansions of the amplitudes (`amplitudes.PoleExpansion`)
and the Faddeeva function (`sech_packet_exact`, `glaisher_packet_exact`); the
series terms are the erfc -> (2, 0) limits of the exact Lorentz-Gauss
integrals.  The series are NOT valid as large-tau approximations at fixed x:
for Im(tau) < 0 they diverge term-by-term, and on the real tau axis the defect
is the stationary phase contribution ~ tau^{-1/2} phi(x/(2 tau)).  The test
suite records this.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import GLAISHER_POLES, Amplitude
from .errors import DomainError
from .foundation import SeriesEval, golden_section_min, sum_to_smallest_term
from .quadrature import integrate_decaying, integrate_interval, psi_oracle


@dataclass(frozen=True)
class IbpExpansion:
    boundary_terms: tuple
    remainder: complex
    order: int

    @property
    def total(self) -> complex:
        return sum(self.boundary_terms, 0j) + self.remainder


def ibp_expansion(derivs, a: float, b: float, x: float, n: int,
                  tol: float = 1e-11) -> IbpExpansion:
    """n-fold integration by parts of I(x) = int_a^b e^{ixz} f(z) dz.

    `derivs(k, z)` returns f^{(k)}(z) for vectorized z.  Boundary terms are
    (i/x)^{k+1} (e^{iax} f^{(k)}(a) - e^{ibx} f^{(k)}(b)) for k < n; the
    remainder is (i/x)^n int_a^b e^{ixz} f^{(n)}(z) dz by quadrature, so the
    reconstruction identity sum + remainder = I(x) holds to quadrature
    tolerance; an unconverged remainder raises NonConvergenceError.
    """
    if not (x > 0):
        raise DomainError("x must be positive")
    if n < 0 or n > 8:
        raise DomainError("expansion order capped at 8")
    terms = []
    for k in range(n):
        fa = complex(np.asarray(derivs(k, np.array([a]))).item())
        fb = complex(np.asarray(derivs(k, np.array([b]))).item())
        terms.append((1j / x) ** (k + 1) * (cmath.exp(1j * a * x) * fa
                                            - cmath.exp(1j * b * x) * fb))

    def f(z):
        zz = np.asarray(z, dtype=float)
        return np.asarray(derivs(n, zz), dtype=complex) * np.exp(1j * x * zz)

    r = integrate_interval(f, a, b, tol=tol, osc_freq=abs(x)).checked("ibp remainder quadrature")
    remainder = (1j / x) ** n * r.value
    return IbpExpansion(boundary_terms=tuple(terms), remainder=remainder, order=n)


def heat_series(amp: Amplitude, x: float, tau: complex, N: int = 40) -> SeriesEval:
    """Small-tau series psi(x, tau) = 2 sum_n (i tau)^n / n! d^{2n} phibar_c(x).

    Returns the FULL packet value (the factor 2 relative to the half-line
    integral is the documented convention; the printed series equals psi/2).
    Terms are summed while they decrease; growth beyond n > 2 sets the
    diverging flag, and the tail estimate is the first omitted term.
    """
    if amp.parity != "even":
        raise DomainError("heat series requires an even amplitude")
    transform_derivative = amp.cosine_transform_derivative
    if transform_derivative is None:
        raise DomainError("no analytic transform-derivative catalogue for this amplitude")
    tau = complex(tau)
    return sum_to_smallest_term(
        2.0, lambda n: (1j * tau) ** n / math.factorial(n) * transform_derivative(n, x), N,
        grow_from=3)


def sech_theta_series(beta: float, x: float, tau: complex, N: int = 80) -> SeriesEval:
    """(pi/beta) sum_n (-1)^n exp(-(2n+1) c x + i c^2 (2n+1)^2 tau), c = pi/(2 beta).

    The half-line packet value int_0^inf cos(xz) sech(beta z) e^{-i tau z^2} dz
    in its x -> infty / tau -> 0 regime.  For Im(tau) < 0 the terms eventually
    grow (|exp(i c^2 nu^2 tau)| = exp(|Im tau| c^2 nu^2)); summation then stops
    at the smallest term and the diverging flag is set.
    """
    if N > 200:
        raise DomainError("N capped at 200")
    return Amplitude.sech(beta).poles.theta_series(x, tau, N)


def glaisher_large_t_series(x: float, tau: complex, N: int = 80) -> SeriesEval:
    """sum_n (-1)^n (2n+1) exp(-(2n+1)^2 x + i (2n+1)^4 tau).

    The half-line Glaisher packet int_0^inf cos(xz) K(z) e^{-i tau z^2} dz in
    its tau -> 0 regime (prefactor C_g = 1, quartic phase q = 1; the printed
    phase coefficient 1/4 is reconciled by the damped-axis oracle).
    """
    if N > 100:
        raise DomainError("N capped at 100")
    return GLAISHER_POLES.theta_series(x, tau, N)


def calibrate_sech_theta_constants(beta: float, x1: float = 2.0, x2: float = 3.0):
    """Pin (C_s, c) of the sech theta series from oracle data at tau = 0.

    At tau = 0 the half-line packet is exactly C_s * Sigma(c, x) with
    Sigma(c, x) = sum (-1)^n e^{-(2n+1) c x} = 1/(2 cosh(c x)); the decay
    scale c solves ln(Sigma(c,x1)/Sigma(c,x2)) = ln(I1/I2) (monotone in c;
    golden-section search on the absolute defect), and C_s follows by
    division.  Lands on (pi/beta, pi/(2 beta)).
    """
    amp = Amplitude.sech(beta)
    i1 = psi_oracle(amp, x1, 0.0, tol=1e-12).checked("sech calibration oracle").value.real / 2.0
    i2 = psi_oracle(amp, x2, 0.0, tol=1e-12).checked("sech calibration oracle").value.real / 2.0
    target = math.log(i1 / i2)
    c = golden_section_min(lambda c: abs(math.log(math.cosh(c * x2) / math.cosh(c * x1)) - target),
                           0.05, 8.0, 80)
    return 2.0 * i1 * math.cosh(c * x1), c


def calibrate_glaisher_quartic_phase(x: float = 1.0, sigma: float = 0.01) -> float:
    """Pin the quartic phase coefficient q from the damped-axis oracle.

    At tau = -i sigma the half-line packet is real and the model
    M(q) = sum (-1)^n (2n+1) e^{-(2n+1)^2 x + q (2n+1)^4 sigma} is monotone
    increasing in q, so a golden-section search on |M(q) - oracle value|
    pins q.  Lands on q = 1 (the printed coefficient is 1/4).
    """
    ref = psi_oracle(Amplitude.glaisher(), x, -1j * sigma,
                     tol=1e-12).checked("Glaisher calibration oracle").value.real / 2.0

    def model(q: float) -> float:
        # exp(i nu^4 tau) at tau = -i q sigma is exp(q nu^4 sigma)
        return GLAISHER_POLES.theta_series(x, -1j * q * sigma, 39).value.real

    return golden_section_min(lambda q: abs(model(q) - ref), 0.0, 2.0, 80)


# The Glaisher kernel's frequency allowance 0.3/sqrt(max(z, 0.01)) on z >= 0,
# as a convex majorant: the chords of the convex 0.3/sqrt(z) between the nodes
# z = 0.01 4^j, j = 0..5 (each lies above it between its nodes), and its value
# at the last node.
_GLAISHER_NODES = [(z, 0.3 / math.sqrt(z)) for z in (0.01 * 4.0**j for j in range(6))]
_GLAISHER_CHORDS = tuple(
    (g0 - (g1 - g0) / (z1 - z0) * z0, (g1 - g0) / (z1 - z0))
    for (z0, g0), (z1, g1) in zip(_GLAISHER_NODES, _GLAISHER_NODES[1:])) + ((_GLAISHER_NODES[-1][1], 0.0),)


def glaisher_theta_integral(x: float, tol: float = 1e-9):
    """The Glaisher transform pair: (integral, series) for int_0^inf K cos(xz) dz.

    The integral side is evaluated by the oracle (the corrected kernel decays
    like exp(-c sqrt(z)), so the decaying path applies; the regularized path
    reproduces it and is exercised in the tests).  Its panels are sized by
    |x| + 0.3/sqrt(max(z, 0.01)), declared through the convex majorant
    `_GLAISHER_CHORDS`: the chords of 0.3/sqrt(z) between z = 0.01 4^j,
    j = 0..5, and the constant at the last node.  The series side is G(x).
    The printed pair carries a spurious 1/2 on the integral; the reconciled
    pair has none (ledgered).
    """
    if not (x > 0):
        raise DomainError("x must be positive")
    amp = Amplitude.glaisher()

    def f(z):
        zz = np.asarray(z, dtype=float)
        return np.asarray(amp(zz), dtype=complex) * np.cos(x * zz)

    r = integrate_decaying(f, (0.0, math.inf), tol=tol, decay=amp.decay,
                           osc_freq=[(abs(x) + c, s) for c, s in _GLAISHER_CHORDS])
    series = glaisher_series_g(x)
    return r, series


def glaisher_series_g(x: float) -> SeriesEval:
    """G(x) = sum (-1)^n (2n+1) exp(-(2n+1)^2 x) with tail bound."""
    if not (x > 0):
        raise DomainError("x must be positive")
    return GLAISHER_POLES.transform_series(0, x)


def sech_packet_exact(beta: float, x: complex, tau: complex) -> complex:
    """Exact int_0^inf cos(xz) sech(beta z) e^{-i tau z^2} dz via partial fractions.

    sech(beta z) = (pi/beta^2) sum_k (-1)^k (2k+1) / ((2k+1)^2 c^2 + z^2) with
    c = pi/(2 beta); each Lorentz factor integrates to an erfc closed form.
    Valid for Im(tau) <= 0 (and tau=0 by continuity); independent of the
    adaptive quadrature path, so the two cross-validate.
    """
    return Amplitude.sech(beta).poles.packet_exact(x, tau)


def glaisher_packet_exact(x: complex, tau: complex) -> complex:
    """Exact int_0^inf cos(xz) K(z) e^{-i tau z^2} dz via partial fractions.

    K(z) = (2/pi) sum_k (-1)^k (2k+1)^3 / ((2k+1)^4 + z^2); the quartic phase
    exp(i (2n+1)^4 tau) of the theta series appears exactly in each term's
    e^{s mu^2} factor with mu = (2n+1)^2, pinning q = 1.
    """
    return GLAISHER_POLES.packet_exact(x, tau)
