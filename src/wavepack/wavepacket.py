"""Wave-packet evaluation for a catalogue of momentum amplitudes.

psi(x, t) = int phi(z) exp(i z x - i tau z^2) dz with tau = t hbar/(2m).

The catalogue holds the Gaussian, the sech packet, and the Glaisher kernel

    K(z) = cosh(c) cos(c) / (cosh(2c) + cos(2c)),  c = (pi/2) sqrt(|z|/2),

whose half-line cosine transform is the alternating theta series
G(x) = sum_{n>=0} (-1)^n (2n+1) exp(-(2n+1)^2 x).  The 2c in the denominator
is a ledgered correction of the catalogue source, which prints cosh(c)+cos(c);
both forms agree at z=0 (value 1/2) but only the 2c kernel transforms to G.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fd
from .closedform import coscos, sinsin
from .errors import DomainError, NonConvergenceError, UnsupportedMethodError
from .foundation import NATURAL_UNITS, PhysicalConfig, reduced_time, sqrt_principal
from .hermite import gaussian_derivative, hermite_all
from .quadrature import (DEFAULT_SCHEDULE, DecayBound, QuadratureResult,
                         integrate_decaying, neville_extrapolate, psi_oracle)

# Parseval constant for bare half-line transforms: int_0^inf f g = c_P int_0^inf fc gc.
PARSEVAL_CONSTANT = 2.0 / math.pi
GLAISHER_SQRT_ARG = math.pi / (2.0 * math.sqrt(2.0))  # c(z) = this * sqrt(|z|)


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


@dataclass(frozen=True)
class Amplitude:
    """Momentum amplitude phi(z): catalogue entry or user-supplied callable.

    `decay` is the tail bound handed to the quadrature oracle; custom callables
    must declare one (or None to force the regularized path).
    """

    kind: str                     # gaussian | sech | glaisher | custom
    parity: str                   # even | odd | none
    decay: DecayBound | None
    max_analytic_derivative: int
    alpha: complex = 0.0 + 0.0j   # gaussian width
    beta: float = 0.0             # sech scale
    z0: float = 0.0
    fn: object = None

    @staticmethod
    def gaussian(alpha=1.0, z0: float = 0.0) -> "Amplitude":
        alpha = complex(alpha)
        if not (alpha.real > 0):
            raise DomainError("gaussian amplitude needs Re(alpha) > 0")
        scale = math.exp(alpha.real * z0 * z0)
        return Amplitude(kind="gaussian", parity="even" if z0 == 0 else "none",
                         decay=DecayBound(rate=alpha.real / 2.0, power=2.0, scale=scale),
                         max_analytic_derivative=64, alpha=alpha, z0=z0)

    @staticmethod
    def sech(beta: float, z0: float = 0.0) -> "Amplitude":
        if not (beta > 0):
            raise DomainError("sech amplitude needs beta > 0")
        return Amplitude(kind="sech", parity="even" if z0 == 0 else "none",
                         decay=DecayBound(rate=beta, power=1.0,
                                          scale=2.0 * math.exp(beta * abs(z0))),
                         max_analytic_derivative=64, beta=beta, z0=z0)

    @staticmethod
    def glaisher() -> "Amplitude":
        return Amplitude(kind="glaisher", parity="even",
                         decay=DecayBound(rate=GLAISHER_SQRT_ARG, power=0.5,
                                          scale=4.0, onset=2.0),
                         max_analytic_derivative=0)

    @staticmethod
    def custom(fn, parity: str = "none", decay: DecayBound | None = None,
               max_analytic_derivative: int = 0) -> "Amplitude":
        return Amplitude(kind="custom", parity=parity, decay=decay,
                         max_analytic_derivative=max_analytic_derivative, fn=fn)

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        if self.kind == "gaussian":
            val = np.exp(-self.alpha * (zz - self.z0) ** 2)
        elif self.kind == "sech":
            val = 1.0 / np.cosh(self.beta * (zz - self.z0))
        elif self.kind == "glaisher":
            if np.iscomplexobj(z) and np.any(np.asarray(z).imag != 0):
                raise DomainError("glaisher kernel is defined on the real line")
            val = np.asarray(glaisher_kernel(np.real(zz)), dtype=complex)
        else:
            val = np.asarray(self.fn(zz), dtype=complex)
        if np.isscalar(z) or isinstance(z, (int, float, complex)):
            return complex(val)
        return val


@dataclass(frozen=True)
class WaveValue:
    psi: complex
    method: str       # closed | quadrature | heat_series | theta_series
    error_estimate: float


def amplitude_eval(amp: Amplitude, z):
    """phi(z); thin functional wrapper over Amplitude.__call__."""
    return amp(z)


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


def amplitude_derivative(amp: Amplitude, k: int, z):
    """d^k phi / dz^k: analytic for Gaussian and sech, Richardson FD otherwise."""
    if k < 0:
        raise DomainError("derivative order must be >= 0")
    if k == 0:
        return amp(z)
    if amp.kind == "gaussian":
        zz = np.asarray(z, dtype=complex) - amp.z0
        val = gaussian_derivative(k, amp.alpha, zz)
        return complex(val) if np.isscalar(z) or isinstance(z, (int, float, complex)) else val
    if amp.kind == "sech":
        u = amp.beta * (np.asarray(z, dtype=complex) - amp.z0)
        v = np.tanh(u)
        val = amp.beta**k / np.cosh(u) * np.polynomial.polynomial.polyval(v, _sech_poly(k))
        return complex(val) if np.isscalar(z) or isinstance(z, (int, float, complex)) else val
    if k > max(amp.max_analytic_derivative, 8):
        raise DomainError(f"derivative order {k} beyond this amplitude's capability")
    scalar = np.isscalar(z) or isinstance(z, (int, float, complex))
    zs = [z] if scalar else list(np.asarray(z, dtype=float))
    vals = [fd.derivative(lambda u: amp(complex(u)), float(np.real(zv)), k, h0=0.05 * (k + 1), levels=4)
            for zv in zs]
    return vals[0] if scalar else np.asarray(vals, dtype=complex)


def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if tau.imag > 1e-12:
        raise DomainError("Im(reduced time) must be <= 0")
    return tau


def gaussian_closed_psi(amp: Amplitude, x, tau) -> complex:
    """Complete-the-square closed form of the Gaussian packet."""
    if amp.kind != "gaussian":
        raise UnsupportedMethodError("closed form available for gaussian amplitudes only")
    tau = _check_tau(tau)
    x = complex(x)
    s = amp.alpha + 1j * tau
    pref = cmath.exp(1j * amp.z0 * x - 1j * tau * amp.z0**2)
    return pref * sqrt_principal(math.pi / s) * cmath.exp(-((x - 2 * tau * amp.z0) ** 2) / (4.0 * s))


def psi(amp: Amplitude, x, t, cfg: PhysicalConfig = NATURAL_UNITS,
        method: str = "auto", tol: float = 1e-10) -> WaveValue:
    """Evaluate the packet at (x, t) by the requested method.

    Methods: closed (Gaussian only), quadrature (the oracle), heat (small-tau
    series over transform derivatives), theta (large-x exponential series for
    the sech and Glaisher amplitudes).
    """
    tau = _check_tau(reduced_time(t, cfg))
    if method == "auto":
        method = "closed" if amp.kind == "gaussian" else "quadrature"
    if method == "closed":
        val = gaussian_closed_psi(amp, x, tau)
        return WaveValue(psi=val, method="closed", error_estimate=1e-13 * max(1.0, abs(val)))
    if method == "quadrature":
        r = psi_oracle(amp, x, tau, tol=tol)
        if not r.converged:
            raise NonConvergenceError(f"psi quadrature did not converge: {r}")
        return WaveValue(psi=r.value, method="quadrature", error_estimate=r.abs_error_estimate)
    if method == "heat":
        from . import asymptotics
        if amp.parity != "even":
            raise UnsupportedMethodError("heat series requires an even amplitude")
        se = asymptotics.heat_series(amp, float(np.real(x)), tau, N=40)
        return WaveValue(psi=se.value, method="heat_series", error_estimate=se.tail_estimate)
    if method == "theta":
        from . import asymptotics
        xr = float(np.real(x))
        if xr <= 0:
            raise DomainError("theta series requires x > 0")
        if amp.kind == "sech" and amp.z0 == 0.0:
            se = asymptotics.sech_theta_series(amp.beta, xr, tau, N=80)
        elif amp.kind == "glaisher":
            se = asymptotics.glaisher_large_t_series(xr, tau, N=80)
        else:
            raise UnsupportedMethodError("theta series available for sech/glaisher only")
        return WaveValue(psi=2.0 * se.value, method="theta_series",
                         error_estimate=2.0 * se.tail_estimate)
    raise UnsupportedMethodError(f"unknown method {method!r}")


def _poly_damped(decay: DecayBound, degree: int) -> DecayBound:
    """Fold a |z|^degree factor into a decay bound by halving the rate."""
    if degree == 0:
        return decay
    r2 = decay.rate / 2.0
    zstar = (degree / (r2 * decay.power)) ** (1.0 / decay.power)
    bump = zstar**degree
    return DecayBound(rate=r2, power=decay.power, scale=decay.scale * max(bump, 1.0),
                      onset=max(decay.onset, zstar))


def _halfline_moment_quadrature(amp: Amplitude, n: int, x: float, tau: complex,
                                trig: str, tol: float) -> QuadratureResult:
    """int_0^inf phi(z) z^n trig(zx) exp(-i tau z^2) dz by the oracle."""
    tau = _check_tau(tau)
    tf = np.cos if trig == "cos" else np.sin

    def f(z):
        zz = np.asarray(z, dtype=float)
        return (np.asarray(amp(zz), dtype=complex) * zz**n * tf(zz * x)
                * np.exp(-1j * tau * zz * zz))

    base = amp.decay
    if base is None and tau.imag < 0:
        base = DecayBound(rate=-tau.imag, power=2.0, scale=1.0)
    if base is None:
        raise DomainError("half-line moments need decay or Im(tau) < 0")
    if tau.imag < 0 and base.power < 2.0:
        alt = DecayBound(rate=-tau.imag, power=2.0, scale=base.scale)
        base = min(base, alt, key=lambda d: d.truncation_point(tol / 10.0))
    eff = _poly_damped(base, n)
    return integrate_decaying(f, (0.0, math.inf), tol=tol, decay=eff,
                              osc_freq=lambda z: abs(x) + 2.0 * abs(tau) * abs(z))


def psi_x_derivative(amp: Amplitude, n: int, x, t, cfg: PhysicalConfig = NATURAL_UNITS,
                     tol: float = 1e-10) -> WaveValue:
    """n-th spatial derivative of psi for a parity-definite amplitude (n even).

    Even phi:  2 (-1)^{n/2} int_0^inf phi z^n cos(zx) e^{-i tau z^2} dz;
    odd phi:   2 i (-1)^{n/2} int_0^inf phi z^n sin(zx) e^{-i tau z^2} dz.
    """
    if amp.parity not in ("even", "odd"):
        raise UnsupportedMethodError("psi_x_derivative needs a parity-definite amplitude")
    if n % 2 != 0:
        raise UnsupportedMethodError("only even derivative orders are exposed")
    if n > 8:
        raise DomainError("derivative order capped at 8")
    tau = _check_tau(reduced_time(t, cfg))
    sign = (-1.0) ** (n // 2)
    if amp.parity == "even":
        r = _halfline_moment_quadrature(amp, n, float(x), tau, "cos", tol)
        pref = 2.0 * sign
    else:
        r = _halfline_moment_quadrature(amp, n, float(x), tau, "sin", tol)
        pref = 2.0j * sign
    if not r.converged:
        raise NonConvergenceError(f"derivative quadrature did not converge: {r}")
    return WaveValue(psi=pref * r.value, method="quadrature",
                     error_estimate=2.0 * r.abs_error_estimate)


def fourier_cosine_transform(amp: Amplitude, w, tol: float = 1e-11):
    """Bare half-line cosine transform int_0^inf phi(z) cos(zw) dz.

    Catalogue closed forms: Gaussian -> (1/2) sqrt(pi/alpha) e^{-w^2/(4 alpha)};
    sech -> (pi/(2 beta)) sech(pi w /(2 beta)); Glaisher kernel -> the theta
    series G(w).  Other even amplitudes fall back to quadrature.
    """
    if amp.parity != "even":
        raise DomainError("cosine transform defined for even amplitudes")
    wv = np.asarray(w, dtype=float)
    scalar = np.isscalar(w) or isinstance(w, (int, float))
    if amp.kind == "gaussian":
        val = 0.5 * sqrt_principal(math.pi / amp.alpha) * np.exp(-wv * wv / (4.0 * amp.alpha))
    elif amp.kind == "sech":
        c = math.pi / (2.0 * amp.beta)
        val = (math.pi / (2.0 * amp.beta)) / np.cosh(c * wv)
    elif amp.kind == "glaisher":
        if np.any(wv <= 0):
            raise DomainError("glaisher transform series needs w > 0")
        val = _theta_g(wv)
    else:
        vals = []
        for wi in np.atleast_1d(wv):
            r = integrate_decaying(lambda z: np.asarray(amp(z), dtype=complex) * np.cos(z * wi),
                                   (0.0, math.inf), tol=tol, decay=amp.decay,
                                   osc_freq=lambda z: abs(wi))
            vals.append(r.value)
        val = np.asarray(vals) if not scalar else vals[0]
    return complex(np.asarray(val, dtype=complex)) if scalar else np.asarray(val, dtype=complex)


def fourier_sine_transform(amp: Amplitude, w, tol: float = 1e-11):
    """Bare half-line sine transform int_0^inf phi(z) sin(zw) dz (odd amplitudes)."""
    if amp.parity != "odd":
        raise DomainError("sine transform defined for odd amplitudes")
    wv = np.atleast_1d(np.asarray(w, dtype=float))
    vals = []
    for wi in wv:
        r = integrate_decaying(lambda z: np.asarray(amp(z), dtype=complex) * np.sin(z * wi),
                               (0.0, math.inf), tol=tol, decay=amp.decay,
                               osc_freq=lambda z: abs(wi))
        vals.append(r.value)
    if np.isscalar(w) or isinstance(w, (int, float)):
        return vals[0]
    return np.asarray(vals, dtype=complex)


def _theta_g(x):
    """G(x) = sum (-1)^n (2n+1) exp(-(2n+1)^2 x), elementwise for x > 0."""
    xv = np.asarray(x, dtype=float)
    out = np.zeros_like(xv)
    for n in range(0, 200):
        nu = 2 * n + 1
        term = (-1.0) ** n * nu * np.exp(-nu * nu * xv)
        out = out + term
        if np.all(np.abs(term) < 1e-18 * (1.0 + np.abs(out))):
            break
    return out


def parseval_transformed_derivative(amp: Amplitude, n: int, x, t,
                                    cfg: PhysicalConfig = NATURAL_UNITS,
                                    tol: float = 1e-9) -> WaveValue:
    """The transform-side representation of psi_x_derivative.

    Parseval for bare half-line cosine transforms turns

        int_0^inf phi(z) [z^n trig(zx) e^{-i tau z^2}] dz

    into c_P int_0^inf phibar(w) T_n(x, w; i tau) dw, where T_n is the closed
    coscos/sinsin form with the Gaussian slot carrying i tau and the trig slots
    carrying (x, w), and c_P = 2/pi.  The printed source puts the position
    variable in the Gaussian slot; only this assignment reproduces the
    defining integral (ledgered).  Im(tau) < 0 uses the direct path; real tau
    shifts the Gaussian slot by each delta in the default schedule and
    extrapolates.
    """
    if amp.parity not in ("even", "odd"):
        raise UnsupportedMethodError("parity-definite amplitudes only")
    if n % 2 != 0:
        raise UnsupportedMethodError("only even derivative orders are exposed")
    tau = _check_tau(reduced_time(t, cfg))
    m = n // 2
    x = float(x)

    even = amp.parity == "even"
    tr_closed = coscos if even else sinsin
    transform = fourier_cosine_transform if even else fourier_sine_transform

    def outer(s) -> QuadratureResult:
        def f(w):
            wv = np.asarray(w, dtype=float)
            return (np.asarray(transform(amp, wv), dtype=complex)
                    * np.asarray(tr_closed(m, x, wv, s), dtype=complex))

        if amp.kind == "gaussian":
            # |phibar_c(w)| ~ exp(-w^2 Re(1/(4 alpha)))
            rr = amp.alpha.real / (4.0 * abs(amp.alpha) ** 2)
            tdec = DecayBound(rate=rr / 2.0, power=2.0, scale=2.0)
        elif amp.kind == "sech":
            tdec = DecayBound(rate=math.pi / (2.0 * amp.beta), power=1.0, scale=4.0)
        elif amp.kind == "glaisher":
            tdec = DecayBound(rate=1.0, power=1.0, scale=2.0, onset=0.5)
        elif amp.decay is not None and amp.decay.power >= 2.0:
            tdec = DecayBound(rate=1.0 / (4.0 * amp.decay.rate), power=2.0, scale=4.0)
        else:
            raise UnsupportedMethodError("no transform decay model for this amplitude")
        kern = 0.5 * abs(sqrt_principal(math.pi / s)) + 1.0
        tdec = DecayBound(rate=tdec.rate, power=tdec.power,
                          scale=tdec.scale * kern, onset=tdec.onset)
        return integrate_decaying(f, (0.0, math.inf), tol=tol / 4.0, decay=tdec,
                                  osc_freq=None)

    sign = (-1.0) ** m
    pref = 2.0 * sign if even else 2.0j * sign
    if tau.imag < -1e-12:
        r = outer(1j * tau)
        if not r.converged:
            raise NonConvergenceError(f"outer Parseval quadrature: {r}")
        return WaveValue(psi=pref * PARSEVAL_CONSTANT * r.value, method="quadrature",
                         error_estimate=2.0 * PARSEVAL_CONSTANT * r.abs_error_estimate)
    deltas = list(DEFAULT_SCHEDULE.delta_values[:5])
    vals = [outer(1j * tau + d).value for d in deltas]
    val, res = neville_extrapolate(deltas, vals)
    return WaveValue(psi=pref * PARSEVAL_CONSTANT * val, method="quadrature",
                     error_estimate=2.0 * PARSEVAL_CONSTANT * res)


def calibrate_parseval_constant(amp: Amplitude | None = None, n: int = 0,
                                x: float = 0.7, t: complex = -0.5j) -> float:
    """Fit the bare-transform Parseval constant from one direct/transform pair.

    The transform-side outer integral O satisfies direct = c_P * pref * O;
    dividing the direct derivative by the representation (whose built-in
    constant cancels exactly) recovers c_P from the oracle.  Lands on 2/pi.
    """
    if amp is None:
        amp = Amplitude.gaussian(1.0)
    direct = psi_x_derivative(amp, n, x, t, tol=1e-11).psi
    rep = parseval_transformed_derivative(amp, n, x, t, tol=1e-10).psi
    return PARSEVAL_CONSTANT * (direct / rep).real


def calibrate_self_reciprocal_phase(t: complex = 1.0 - 0.4j,
                                    xs=(0.4, 0.9, 1.4, 1.9),
                                    lo: float = 0.05, hi: float = 0.6,
                                    iters: int = 80) -> float:
    """Pin the quadratic phase coefficient of the self-reciprocal law by the
    constancy-of-ratio sweep.

    With rhs(p) = lambda (pi i tau)^{-1/2} e^{i p x^2 / tau} psi(x/(2 tau),
    -1/(4 tau)), the spread of psi(x,tau)/rhs(p) over an x-grid vanishes only
    at the true coefficient; golden-section search lands on p = 1/4.  All
    quadratures are hoisted out of the search (p enters through the phase
    only), so the calibration costs one sweep.
    """
    amp = self_reciprocal_scaled_sech()
    tau = _check_tau(reduced_time(t))
    lam = complex(fourier_cosine_transform(amp, 1e-9)) / complex(amp(1e-9))
    lhs = []
    dual = []
    for x in xs:
        lhs.append(psi_oracle(amp, x, tau, tol=1e-10).value)
        dual.append(psi_oracle(amp, x / (2.0 * tau), -1.0 / (4.0 * tau), tol=1e-10).value)
    pref = lam / sqrt_principal(math.pi * 1j * tau)

    def spread(p: float) -> float:
        ratios = [lv / (pref * cmath.exp(1j * p * x * x / tau) * dv)
                  for x, lv, dv in zip(xs, lhs, dual)]
        mean = sum(ratios) / len(ratios)
        return max(abs(r - mean) for r in ratios)

    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fdv = spread(c), spread(d)
    for _ in range(iters):
        if fc < fdv:
            b, d, fdv = d, c, fc
            c = b - g * (b - a)
            fc = spread(c)
        else:
            a, c, fc = c, d, fdv
            d = a + g * (b - a)
            fdv = spread(d)
    return 0.5 * (a + b)


def calibrate_self_reciprocal_scale(lo: float = 1.0, hi: float = 1.6,
                                    grid_pts: int = 41, iters: int = 60) -> float:
    """Sech scale s minimizing the self-reciprocality defect of sech(s z).

    Minimizes max_w |sqrt(2/pi) * (pi/(2s)) sech(pi w/(2s)) - sech(s w)| on a
    w-grid (the symmetric transform convention, under which an exactly
    self-reciprocal sech scale exists).  Golden-section search; the minimizer
    is sqrt(pi/2) analytically, and the calibration lands on it numerically.
    """
    ws = np.linspace(0.0, 4.0, grid_pts)

    def defect(s: float) -> float:
        tr = math.sqrt(2.0 / math.pi) * (math.pi / (2.0 * s)) / np.cosh(math.pi * ws / (2.0 * s))
        return float(np.max(np.abs(tr - 1.0 / np.cosh(s * ws))))

    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fdv = defect(c), defect(d)
    for _ in range(iters):
        if fc < fdv:
            b, d, fdv = d, c, fc
            c = b - g * (b - a)
            fc = defect(c)
        else:
            a, c, fc = c, d, fdv
            d = a + g * (b - a)
            fdv = defect(d)
    return 0.5 * (a + b)


def self_reciprocal_scaled_sech() -> Amplitude:
    """The calibrated self-reciprocal amplitude sech(s* z), s* = sqrt(pi/2)."""
    return Amplitude.sech(calibrate_self_reciprocal_scale())


def self_reciprocal_check(amp: Amplitude, x, t, cfg: PhysicalConfig = NATURAL_UNITS,
                          tol: float = 1e-10):
    """Both sides of the self-reciprocal transformation law, plus their ratio.

    Reconciled form (the printed phase and argument map are dimensionally
    garbled; this form is pinned by the oracle sweep and ledgered):

        psi(x, tau) = lambda (pi i tau)^{-1/2} e^{i x^2/(4 tau)}
                      psi(x/(2 tau), -1/(4 tau)),

    where lambda = phibar_c/phi for the self-reciprocal amplitude.  Returns
    (lhs, rhs, lhs/rhs); the ratio is 1 for a calibrated amplitude and is
    constant in x for any scaled version.
    """
    tau = _check_tau(reduced_time(t, cfg))
    if tau.imag >= 0:
        raise DomainError("self-reciprocal check needs Im(tau) < 0")
    x = complex(x)
    lam = complex(fourier_cosine_transform(amp, 1e-9)) / complex(amp(1e-9))
    lhs_r = psi_oracle(amp, x, tau, tol=tol)
    dual_tau = -1.0 / (4.0 * tau)
    dual_x = x / (2.0 * tau)
    rhs_r = psi_oracle(amp, dual_x, dual_tau, tol=tol)
    if not (lhs_r.converged and rhs_r.converged):
        raise NonConvergenceError("self-reciprocal quadrature did not converge")
    pref = lam / sqrt_principal(math.pi * 1j * tau) * cmath.exp(1j * x * x / (4.0 * tau))
    rhs = pref * rhs_r.value
    return lhs_r.value, rhs, lhs_r.value / rhs


def hermite_weighted_expansion(amp: Amplitude, n: int, x, t,
                               cfg: PhysicalConfig = NATURAL_UNITS,
                               tol: float = 1e-10) -> WaveValue:
    """The Hermite-weighted rearrangement of psi obtained by n-fold parts.

    (i/x)^n int e^{ixz - i tau z^2} sum_k C(n,k) (sqrt(i tau))^k (-1)^k
    H_k(sqrt(i tau) z) phi^{(n-k)}(z) dz, with principal sqrt(i tau).  Equal to
    psi for amplitudes vanishing at infinity; this is an exact identity, not an
    asymptotic.
    """
    if x == 0:
        raise DomainError("the x^{-n} prefactor needs x != 0")
    if n < 0 or n > 8:
        raise DomainError("expansion order capped at 8")
    tau = _check_tau(reduced_time(t, cfg))
    x = float(x)
    from .foundation import binomial
    rt = sqrt_principal(1j * tau)

    def f(z):
        zz = np.asarray(z, dtype=complex)
        hs = hermite_all(n, rt * zz)
        acc = np.zeros_like(zz)
        for k in range(n + 1):
            acc = acc + (binomial(n, k) * (rt**k) * ((-1) ** k) * hs[k]
                         * np.asarray(amplitude_derivative(amp, n - k, zz), dtype=complex))
        return acc * np.exp(1j * x * zz - 1j * tau * zz * zz)

    base = amp.decay
    if base is None:
        raise DomainError("expansion quadrature needs a decaying amplitude")
    if tau.imag < 0 and base.power < 2.0:
        alt = DecayBound(rate=-tau.imag, power=2.0, scale=base.scale)
        base = min(base, alt, key=lambda d: d.truncation_point(tol / 10.0))
    scale_bump = (1.0 + abs(rt)) ** n * 4.0**n
    eff = _poly_damped(DecayBound(rate=base.rate, power=base.power,
                                  scale=base.scale * scale_bump, onset=base.onset), n)
    r = integrate_decaying(f, (-math.inf, math.inf), tol=tol, decay=eff,
                           osc_freq=lambda z: abs(x) + 2.0 * abs(tau) * abs(z))
    if not r.converged:
        raise NonConvergenceError(f"expansion quadrature did not converge: {r}")
    val = (1j / x) ** n * r.value
    return WaveValue(psi=val, method="quadrature", error_estimate=r.abs_error_estimate)


def schrodinger_residual_of(psi_fn, x: float, t: complex,
                            cfg: PhysicalConfig = NATURAL_UNITS,
                            h_x: float = 1e-3, h_t: float = 1e-3) -> float:
    """|i hbar D_t psi + (hbar^2/2m) D_xx psi| with central stencils.

    psi_fn(x, t) -> complex.  The t stencil steps along the real direction, so
    Im(t) < 0 keeps all five evaluations in the convergent half-plane.
    """
    d_t = (psi_fn(x, t + h_t) - psi_fn(x, t - h_t)) / (2.0 * h_t)
    d_xx = (psi_fn(x + h_x, t) - 2.0 * psi_fn(x, t) + psi_fn(x - h_x, t)) / (h_x * h_x)
    return abs(1j * cfg.hbar * d_t + cfg.hbar**2 / (2.0 * cfg.mass) * d_xx)


def schrodinger_residual(amp: Amplitude, x: float, t: complex,
                         cfg: PhysicalConfig = NATURAL_UNITS,
                         h_x: float = 1e-3, h_t: float = 1e-3,
                         method: str = "auto") -> float:
    """Free-Schrodinger PDE residual of the evaluated packet at (x, t)."""
    def psi_fn(xx, tt):
        return psi(amp, xx, tt, cfg, method=method).psi

    return schrodinger_residual_of(psi_fn, x, t, cfg, h_x=h_x, h_t=h_t)


def position_norm_squared(amp: Amplitude, t: complex, cfg: PhysicalConfig = NATURAL_UNITS,
                          half_width: float = 25.0, step: float = 0.1,
                          method: str = "auto", tol: float = 1e-8) -> float:
    """int |psi(x,t)|^2 dx over [-L, L] by composite Simpson on a uniform grid.

    The truncation L must be chosen by the caller so the packet mass outside
    is below the comparison tolerance.  The Gaussian uses its closed form.
    Other amplitudes under method "auto" or "quadrature" take one batched
    quadrature over the whole grid (each node within tol); the series methods
    evaluate psi node by node.
    """
    npts = 2 * int(half_width / step) + 1
    xs = np.linspace(-half_width, half_width, npts)
    if amp.kind == "gaussian":
        tau = reduced_time(t, cfg)
        vals = np.array([abs(gaussian_closed_psi(amp, xx, tau)) ** 2 for xx in xs])
    elif method in ("auto", "quadrature"):
        r = psi_oracle(amp, xs, _check_tau(reduced_time(t, cfg)), tol=tol)
        if not r.converged:
            raise NonConvergenceError(
                f"batched psi quadrature did not converge: worst error "
                f"{float(np.max(r.abs_error_estimate)):.3e} > tol {tol:.1e} "
                f"after {r.evaluations} evaluations")
        vals = np.abs(r.value) ** 2
    else:
        vals = np.array([abs(psi(amp, float(xx), t, cfg, method=method, tol=tol).psi) ** 2
                         for xx in xs])
    h = xs[1] - xs[0]
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, vals))
