"""Wave-packet evaluation for the amplitude families of `amplitudes`.

psi(x, t) = int phi(z) exp(i z x - i tau z^2) dz with tau = t hbar/(2m).

Every entry point dispatches on the amplitude's capabilities (closed form,
analytic derivative, transform and its decay, pole expansion, strip bound),
with the quadrature oracle where one is missing; `psi` and
`position_norm_squared` read one ordered table of paths, `PSI_PATHS`.  The
oracle side of the packet, its x-derivatives, the bare transforms and the
Hermite expansion is `quadrature.chirp_integral`; this module supplies only
their weights.  The layers only some entry points need (`asymptotics`,
`closedform`, `fd`) are read as `wavepack.<module>` attributes when called,
so evaluating a packet loads none of them.
"""
from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import wavepack

from .amplitudes import Amplitude, glaisher_kernel  # noqa: F401  (glaisher_kernel re-exported)
from .errors import DomainError, UnsupportedMethodError
from .foundation import (NATURAL_UNITS, PhysicalConfig, binomial, check_tau, golden_section_min,
                         reduced_time, scalar_or_array, sqrt_principal)
from .hermite import hermite_all
from .quadrature import (QuadratureResult, chirp_integral, chirp_trapezoid, integrate_decaying,
                         psi_oracle, regularized_limit)

# Parseval constant for bare half-line transforms: int_0^inf f g = c_P int_0^inf fc gc.
PARSEVAL_CONSTANT = 2.0 / math.pi
# Highest derivative order of the finite-difference fallback for amplitudes
# without an analytic derivative.
_FD_MAX_ORDER = 8


@dataclass(frozen=True, slots=True)
class WaveValue:
    psi: complex
    method: str       # the `label` of the PSI_PATHS entry that evaluated it
    error_estimate: float


def amplitude_derivative(amp: Amplitude, k: int, z):
    """d^k phi / dz^k: the amplitude's analytic derivative, else Richardson FD
    up to order _FD_MAX_ORDER, taken at real z, over a whole node array at once."""
    if k < 0:
        raise DomainError("derivative order must be >= 0")
    if k == 0:
        return amp(z)
    if amp.derivative is not None:
        return amp.derivative(k, z)
    if k > _FD_MAX_ORDER:
        raise DomainError(f"derivative order {k} beyond this amplitude's capability")
    return scalar_or_array(wavepack.fd.derivative(lambda u: amp(u + 0j), np.real(z), k,
                                                  h0=0.05 * (k + 1), levels=4), z)


def gaussian_closed_psi(amp: Amplitude, x, tau) -> complex:
    """Closed form of the packet, for amplitudes that have one (the Gaussian)."""
    if amp.closed_psi is None:
        raise UnsupportedMethodError("closed form available for gaussian amplitudes only")
    return amp.closed_psi(complex(x), check_tau(tau))


def _real_x(x) -> float:
    if complex(x).imag != 0:
        raise DomainError(f"the series paths need a real x, not {x!r}")
    return complex(x).real


def _node_by_node(evaluate):
    """A scalar evaluator that takes the norm grid one node at a time."""
    def on_x(amp, x, tau, tol):
        if not isinstance(x, np.ndarray):
            return evaluate(amp, x, tau, tol)
        return tuple(map(np.array, zip(*(evaluate(amp, xx, tau, tol) for xx in x))))
    return on_x


# The evaluators of PSI_PATHS, (amp, x, tau, tol) -> (psi at x, error estimate),
# read the functions they call as module globals when they run.
def _checked(r: QuadratureResult, what: str):
    r = r.checked(what)
    return r.value, r.abs_error_estimate


def _closed(amp, x, tau, tol):
    val = gaussian_closed_psi(amp, x, tau)
    return val, 1e-13 * max(1.0, abs(val))


def _heat(amp, x, tau, tol):
    se = wavepack.asymptotics.heat_series(amp, _real_x(x), tau, N=40)
    return se.value, se.tail_estimate


def _theta(amp, x, tau, tol):
    se = amp.poles.theta_series(_real_x(x), tau, N=80)
    return 2.0 * se.value, 2.0 * se.tail_estimate


@dataclass(frozen=True, slots=True)
class PsiPath:
    name: str
    label: str              # the WaveValue.method it reports
    applies: Callable       # (amp, x, tau) -> bool, x a scalar or the norm grid (an array)
    evaluate: Callable      # (amp, x, tau, tol) -> (psi at x, error estimate)
    refusal: str = ""       # why a caller naming it is refused where it does not apply
    by_name: bool = True    # False: taken by "auto" only


# "auto" takes the first path that applies.  quadrature applies everywhere, so
# the series after it (heat: small tau, from the transform derivatives; theta:
# large x, from the poles) are taken by name only.
PSI_PATHS = (
    PsiPath("closed", "closed", lambda amp, x, tau: amp.closed_psi is not None,
            _node_by_node(_closed), "closed form available for gaussian amplitudes only"),
    PsiPath("trapezoid", "trapezoid", lambda amp, x, tau: isinstance(x, np.ndarray)
            and amp.strip is not None and amp.strip.finite_mass(tau),
            lambda amp, xs, tau, tol: _checked(chirp_trapezoid(amp, xs, tau, tol=tol),
                                               "trapezoid psi sum"), by_name=False),
    PsiPath("quadrature", "quadrature", lambda amp, x, tau: True,
            lambda amp, x, tau, tol: _checked(psi_oracle(amp, x, tau, tol=tol), "psi quadrature")),
    PsiPath("heat", "heat_series", lambda amp, x, tau: amp.parity == "even"
            and amp.cosine_transform_derivative is not None,
            _node_by_node(_heat), "heat series requires an even amplitude with transform "
                                  "derivatives"),
    PsiPath("theta", "theta_series", lambda amp, x, tau: amp.poles is not None,
            _node_by_node(_theta), "theta series available for sech/glaisher only"),
)


def _psi_path(amp: Amplitude, x, tau: complex, method: str) -> PsiPath:
    """The path of PSI_PATHS for `method`: under "auto" the first that applies,
    else the one so named, which must apply."""
    for path in PSI_PATHS:
        if method == "auto" and path.applies(amp, x, tau):
            return path
        if method == path.name and path.by_name:
            if not path.applies(amp, x, tau):
                raise UnsupportedMethodError(path.refusal)
            return path
    raise UnsupportedMethodError(f"unknown method {method!r}")


def psi(amp: Amplitude, x, t, cfg: PhysicalConfig = NATURAL_UNITS,
        method: str = "auto", tol: float = 1e-10) -> WaveValue:
    """The packet at (x, t) by `method`: "auto" or a path of `PSI_PATHS` by name."""
    tau = check_tau(reduced_time(t, cfg))
    path = _psi_path(amp, x, tau, method)
    value, estimate = path.evaluate(amp, x, tau, tol)
    return WaveValue(psi=value, method=path.label, error_estimate=estimate)


def _derivative_form(amp: Amplitude, n: int):
    """(even, 2 (-1)^{n/2} or 2i (-1)^{n/2}): the half-line form of d^n psi/dx^n,
    which needs a parity-definite amplitude and an even n."""
    if amp.parity not in ("even", "odd"):
        raise UnsupportedMethodError("the derivative form needs a parity-definite amplitude")
    if n % 2 != 0:
        raise UnsupportedMethodError("only even derivative orders are exposed")
    sign = (-1.0) ** (n // 2)
    return (True, 2.0 * sign) if amp.parity == "even" else (False, 2.0j * sign)


def psi_x_derivative(amp: Amplitude, n: int, x, t, cfg: PhysicalConfig = NATURAL_UNITS,
                     tol: float = 1e-10) -> WaveValue:
    """n-th spatial derivative of psi for a parity-definite amplitude (n even).

    Even phi:  2 (-1)^{n/2} int_0^inf phi z^n cos(zx) e^{-i tau z^2} dz;
    odd phi:   2 i (-1)^{n/2} int_0^inf phi z^n sin(zx) e^{-i tau z^2} dz.
    """
    even, pref = _derivative_form(amp, n)
    if n > 8:
        raise DomainError("derivative order capped at 8")
    tau = check_tau(reduced_time(t, cfg))
    r = chirp_integral(amp, float(x), tau, tol, n=n,
                       trig=np.cos if even else np.sin).checked("half-line quadrature")
    return WaveValue(psi=pref * r.value, method="quadrature",
                     error_estimate=2.0 * r.abs_error_estimate)


def fourier_cosine_transform(amp: Amplitude, w, tol: float = 1e-11):
    """Bare half-line cosine transform int_0^inf phi(z) cos(zw) dz.

    The amplitude's own transform where it has one: Gaussian ->
    (1/2) sqrt(pi/alpha) e^{-w^2/(4 alpha)}; sech -> (pi/(2 beta))
    sech(pi w /(2 beta)); Glaisher kernel -> the theta series G(w).  Other
    even amplitudes fall back to quadrature, one panel set for all of w.
    """
    if amp.parity != "even":
        raise DomainError("cosine transform defined for even amplitudes")
    if amp.cosine_transform is None:
        r = chirp_integral(amp, w, 0j, tol, trig=np.cos).checked("half-line quadrature")
        return scalar_or_array(r.value, w)
    val = amp.cosine_transform(np.asarray(w, dtype=float))
    return scalar_or_array(np.asarray(val, dtype=complex), w)


def fourier_sine_transform(amp: Amplitude, w, tol: float = 1e-11):
    """Bare half-line sine transform int_0^inf phi(z) sin(zw) dz (odd amplitudes),
    by quadrature, one panel set for all of w."""
    if amp.parity != "odd":
        raise DomainError("sine transform defined for odd amplitudes")
    r = chirp_integral(amp, w, 0j, tol, trig=np.sin).checked("half-line quadrature")
    return scalar_or_array(r.value, w)


def parseval_transformed_derivative(amp: Amplitude, n: int, x, t,
                                    cfg: PhysicalConfig = NATURAL_UNITS,
                                    tol: float = 1e-9) -> WaveValue:
    """The transform-side representation of psi_x_derivative.

    Parseval for bare half-line cosine transforms turns

        int_0^inf phi(z) [z^n trig(zx) e^{-i tau z^2}] dz

    into c_P int_0^inf phibar(w) T_m(x, w; s) dw, m = n/2, c_P = 2/pi, where
    T_m is the coscos/sinsin integral with the Gaussian slot carrying s = i tau
    and the trig slots carrying (x, w), evaluated as (F(x-w) +- F(x+w))/2 from
    the cosine moment F (the g_n route cancels at small Re(s)).  The printed
    source puts the position variable in the Gaussian slot; only this
    assignment reproduces the defining integral (ledgered).  Im(tau) < 0 uses
    the direct path; real tau shifts the Gaussian slot by each damping
    strength delta of `quadrature.regularized_limit`, which extrapolates to
    delta = 0.  Each outer quadrature gets tol/4; an unconverged outer
    quadrature or an unsettled or unconverged limit raises NonConvergenceError.

    Tail bound: for real x and w the trig products are at most 1, so |T_m| <=
    int_0^inf e^{-Re(s) z^2} z^{2m} dz = Gamma(m+1/2) / (2 Re(s)^{m+1/2}); that
    constant times the declared `transform_decay` (else UnsupportedMethodError)
    bounds the outer integrand, and grows at real tau as delta = Re(s) falls.

    Resolution: F(x -+ w) carries e^{-q (x -+ w)^2} with q = 1/(4s), a
    Gaussian peak of width 1/sqrt(Re q) at w = +-x (2 sqrt(delta) at tau = 0)
    under the phase -Im(q) (x -+ w)^2, whose frequency in w is
    2 |Im q| |x -+ w| <= 2 |Im q| (|x| + w).  The outer quadrature takes
    2 |Im q| (|x| + w) + sqrt(Re q) as its oscillation frequency, so its
    starting panels are no wider than a few peak widths and cannot step over
    the peak.
    """
    even, pref = _derivative_form(amp, n)
    tdec = amp.transform_decay
    if tdec is None:
        raise UnsupportedMethodError("no declared transform decay for this amplitude")
    tau = check_tau(reduced_time(t, cfg))
    m = n // 2
    x = float(x)
    sign = 1.0 if even else -1.0
    transform = fourier_cosine_transform if even else fourier_sine_transform
    moment = wavepack.closedform.f_cosine_moment

    def outer(s) -> QuadratureResult:
        def f(w):
            t_m = 0.5 * (moment(m, x - w, s) + sign * moment(m, x + w, s))
            return transform(amp, w) * t_m

        kernel = math.gamma(m + 0.5) / (2.0 * s.real ** (m + 0.5))
        q = 1.0 / (4.0 * s)
        return integrate_decaying(f, (0.0, math.inf), tol=tol / 4.0,
                                  decay=tdec.times_const(kernel),
                                  osc_freq=((2.0 * abs(q.imag) * abs(x) + math.sqrt(q.real),
                                             2.0 * abs(q.imag)),))

    if tau.imag < -1e-12:
        r = outer(1j * tau)
    else:
        r = regularized_limit(lambda d: outer(1j * tau + d), tol)
    r = r.checked("Parseval transform-side quadrature")
    return WaveValue(psi=pref * PARSEVAL_CONSTANT * r.value, method="quadrature",
                     error_estimate=2.0 * PARSEVAL_CONSTANT * r.abs_error_estimate)


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
    at the true coefficient; golden-section search lands on p = 1/4.  The
    ratios of `self_reciprocal_check`, which carries p = 1/4, are taken once,
    and the sweep divides each by e^{i (p - 1/4) x^2 / tau}, so the
    calibration costs one check per x.
    """
    amp = self_reciprocal_scaled_sech()
    tau = check_tau(reduced_time(t))
    ratios = [self_reciprocal_check(amp, x, t)[2] for x in xs]

    def spread(p: float) -> float:
        swept = [r * cmath.exp(-1j * (p - 0.25) * x * x / tau) for x, r in zip(xs, ratios)]
        mean = sum(swept) / len(swept)
        return max(abs(r - mean) for r in swept)

    return golden_section_min(spread, lo, hi, iters)


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

    return golden_section_min(defect, lo, hi, iters)


@functools.cache
def self_reciprocal_scaled_sech() -> Amplitude:
    """The calibrated self-reciprocal amplitude sech(s* z), s* = sqrt(pi/2); calibrated once."""
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
    tau = check_tau(reduced_time(t, cfg))
    if tau.imag >= 0:
        raise DomainError("self-reciprocal check needs Im(tau) < 0")
    x = complex(x)
    lam = complex(fourier_cosine_transform(amp, 1e-9)) / complex(amp(1e-9))
    lhs = psi_oracle(amp, x, tau, tol=tol).checked("self-reciprocal lhs quadrature").value
    dual = psi_oracle(amp, x / (2.0 * tau), -1.0 / (4.0 * tau),
                      tol=tol).checked("self-reciprocal rhs quadrature").value
    pref = lam / sqrt_principal(math.pi * 1j * tau) * cmath.exp(1j * x * x / (4.0 * tau))
    rhs = pref * dual
    return lhs, rhs, lhs / rhs


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
    tau = check_tau(reduced_time(t, cfg))
    x = float(x)
    rt = sqrt_principal(1j * tau)

    def hermite_sum(zz):
        hs = hermite_all(n, rt * zz)
        acc = np.zeros_like(zz)
        for k in range(n + 1):
            acc = acc + (binomial(n, k) * (rt**k) * ((-1) ** k) * hs[k]
                         * np.asarray(amplitude_derivative(amp, n - k, zz), dtype=complex))
        return acc

    # the sum is bounded by (1 + |sqrt(i tau)|)^n 4^n |z|^n times the decay of phi
    r = chirp_integral(amp, x, tau, tol, n=n, weight=hermite_sum,
                       scale=(1.0 + abs(rt)) ** n * 4.0**n).checked("expansion quadrature")
    pref = (1j / x) ** n
    return WaveValue(psi=pref * r.value, method="quadrature",
                     error_estimate=abs(pref) * r.abs_error_estimate)


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
    """int |psi(x,t)|^2 dx over [-L, L] by composite Simpson, step half_width/n.

    L = half_width, chosen by the caller so the packet mass outside is below
    the comparison tolerance, must be a multiple of `step` (within a few ulps
    of the quotient, so 1.2 and 0.1 give 25 nodes); else DomainError.

    Fold by parity: phi(-z) = +-phi(z) gives psi(-x) = +-psi(x), so |psi|^2 is
    even.  An even or odd amplitude (its declared `parity`) is evaluated on
    x = 0, step, ..., L only and reflected onto x < 0 before the Simpson
    weights apply; any other is evaluated on all 2 L/step + 1 nodes.

    The values come from the path of `PSI_PATHS` that `method` picks, as in
    `psi`, with x the evaluated grid.  The strip trapezoid and the batched
    oracle take the grid in one call, each node within tol, through an
    exp(i z x) table of two factors of about sqrt(npts) columns, so each
    node's psi is taken at a point within a few ulps of max |x| of it.
    """
    if not 0 < step <= half_width < math.inf:
        raise DomainError("the grid needs 0 < step <= half_width < inf")
    ratio = half_width / step
    if abs(ratio - round(ratio)) > 4 * math.ulp(ratio):
        raise DomainError(f"half_width {half_width} is not a multiple of step {step}")
    n = round(ratio)
    folded = amp.parity in ("even", "odd")
    xs = np.linspace(0.0 if folded else -half_width, half_width, n + 1 if folded else 2 * n + 1)
    tau = check_tau(reduced_time(t, cfg))
    values, _ = _psi_path(amp, xs, tau, method).evaluate(amp, xs, tau, tol)
    vals = np.abs(values) ** 2
    if folded:
        vals = np.concatenate((vals[:0:-1], vals))
    w = np.ones(2 * n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(half_width / n / 3.0 * np.dot(w, vals))
