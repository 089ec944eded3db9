"""Tail bounds derived from declared decay.

`DecayBound.times_poly`, `DecayBound.times_exp_growth` and
`DecayBound.times_const` fold a polynomial factor, an exponential growth and a
constant into a declared bound, and `packet_decay` picks the bound of a packet
integrand.  Each derived bound must dominate the product it stands for past
its onset, or the oracle truncates too early; each declared bound must hold at
every parameter value of its family.  The same holds for a declared
`StripBound` on its strip, and for the strip mass `StripBound.log_mass` that
`chirp_trapezoid` derives from it: it must dominate the integral of the packet
integrand along every line of the strip.
"""
import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wavepack import quadrature, registry, wavepacket
from wavepack.amplitudes import GLAISHER_SQRT_ARG, Amplitude
from wavepack.errors import DomainError
from wavepack.quadrature import DecayBound, QuadratureResult, packet_decay


def _grid_past(onset: float, far: float) -> np.ndarray:
    """Linear near the onset, geometric out to far."""
    lo = max(onset, 1e-6)
    return np.unique(np.concatenate([np.linspace(lo, lo + 10.0, 2001),
                                     np.geomspace(lo, max(far, 10.0 * lo), 2001)]))


def _log_bound(d: DecayBound, z):
    return math.log(d.scale) - d.rate * z**d.power


@settings(max_examples=300, deadline=None)
@given(rate=st.floats(0.05, 5.0), power=st.sampled_from([0.5, 1.0, 2.0]),
       scale=st.floats(0.1, 10.0), onset=st.floats(0.0, 5.0), n=st.integers(0, 16),
       g=st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
def test_derived_bound_dominates_the_product(rate, power, scale, onset, n, g):
    base = DecayBound(rate=rate, power=power, scale=scale, onset=onset)
    grown = base.times_exp_growth(g)
    assume(grown is not None)
    derived = grown.times_poly(n)
    assert derived.onset >= onset
    z = _grid_past(derived.onset, 1e3 * derived.truncation_point(1e-12))
    # scale exp(-rate z^power) z^n exp(g z), in logs so nothing overflows
    log_product = _log_bound(base, z) + n * np.log(z) + g * z
    log_derived = _log_bound(derived, z)
    assert np.all(log_product <= log_derived + 1e-12 * (1.0 + np.abs(log_derived)))


def test_times_exp_growth_keeps_or_refuses():
    d = DecayBound(rate=1.0, power=1.0, scale=2.0)
    assert d.times_exp_growth(0.0) is d
    assert d.times_exp_growth(1.0) is None
    assert DecayBound(rate=1.0, power=0.5).times_exp_growth(0.1) is None
    assert d.times_poly(0) is d


def test_times_poly_dominates_high_power_times_gaussian():
    d = DecayBound(rate=1.0).times_poly(16)
    z = _grid_past(d.onset, 30.0)
    assert np.all(z**16 * np.exp(-z * z) <= d.scale * np.exp(-d.rate * z**d.power))


@pytest.mark.parametrize("which", ["cos", "sin"])
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("a,b,x", [(1.0, 0.5, 1.0), (1.0 + 0.5j, 0.7 - 0.3j, 1.5 + 0.2j)])
def test_trig_oracle_bound_dominates_its_integrand(monkeypatch, which, n, a, b, x):
    seen = {}

    def capture(f, domain, tol, decay, osc_freq):
        seen.update(f=f, decay=decay)
        return QuadratureResult(0j, 0.0, 0, True)

    monkeypatch.setattr(registry, "integrate_decaying", capture)
    registry._trig_oracle(n, a, b, x, which)
    f, d = seen["f"], seen["decay"]
    z = _grid_past(d.onset, 40.0)
    assert np.all(np.abs(f(z)) <= d.scale * np.exp(-d.rate * z**d.power) * (1 + 1e-12))


AMPLITUDES = [Amplitude.gaussian(1.0), Amplitude.gaussian(0.7 + 0.2j, 0.5),
              Amplitude.sech(1.3), Amplitude.sech(0.8, -0.4), Amplitude.glaisher()]


@pytest.mark.parametrize("grow", [0.0, 0.4])
@pytest.mark.parametrize("tau", [0.7, 0.0, 0.5 - 0.3j, 2.0 - 1.5j])
@pytest.mark.parametrize("amp", AMPLITUDES, ids=lambda a: type(a).__name__)
def test_packet_decay_dominates_the_packet_integrand(amp, tau, grow):
    d = packet_decay(amp, tau, 1e-11, grow)
    if grow > 0 and complex(tau).imag == 0 and amp.decay.power < 1:
        assert d is None        # the Glaisher decay cannot absorb growth
        return
    z = _grid_past(d.onset, 2.0 * d.truncation_point(1e-11))
    bound = d.scale * np.exp(-d.rate * z**d.power)
    for side in (z, -z):
        got = np.abs(amp(side)) * np.exp(complex(tau).imag * z * z + grow * z)
        assert np.all(got <= bound * (1 + 1e-12))


def test_packet_decay_without_declared_decay():
    # no amplitude is built without a declared decay, so the damping bound
    # exp(Im(tau) z^2) carries that decay's scale, never a guessed one
    with pytest.raises(DomainError, match="declared decay"):
        Amplitude.custom(lambda z: np.cos(z), parity="even")
    decay = DecayBound(rate=0.5, power=1.0, scale=3.0)
    amp = Amplitude.custom(lambda z: 3.0 * np.exp(-0.5 * np.abs(z)), parity="even", decay=decay)
    assert packet_decay(amp, 0.5, 1e-11) is decay
    assert packet_decay(amp, 0.5, 1e-11, grow=0.6) is None
    d = packet_decay(amp, 0.5 - 0.25j, 1e-11)
    assert (d.rate, d.power, d.scale) == (0.25, 2.0, 3.0)


@pytest.mark.parametrize("a,beta", [(1.0, 1.0), (2.0, 1.5), (0.8, 0.6), (0.3, 2.0), (5.0, 0.2)])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 6, 7, 12, 17, 24, 32, 33])
def test_gr_oracle_bound_dominates_its_integrand(monkeypatch, order, a, beta):
    seen = {}

    def capture(f, domain, tol, decay, osc_freq):
        seen.update(f=f, decay=decay)
        return QuadratureResult(0j, 0.0, 0, True)

    monkeypatch.setattr(registry, "integrate_decaying", capture)
    registry._gr_oracle(a, beta, order, np.cos if order % 2 == 0 else np.sin)
    f, d = seen["f"], seen["decay"]
    z = _grid_past(d.onset, 2.0 * d.truncation_point(1e-12))
    assert np.all(np.abs(f(z)) <= d.scale * np.exp(-d.rate * z**d.power) * (1 + 1e-12))


def _unit_transform(amp, w):
    # stands in for the transform: exactly its declared bound exp(-w)
    return np.exp(-np.asarray(w, dtype=float))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 4), x=st.floats(-8.0, 8.0), tau_re=st.floats(-3.0, 3.0),
       damping=st.one_of(st.just(0.0), st.floats(0.02, 2.0)),
       parity=st.sampled_from(["even", "odd"]))
def test_parseval_bound_dominates_its_integrand(m, x, tau_re, damping, parity):
    # with a transform equal to its bound exp(-w), the outer integrand is
    # exp(-w) T_m(x, w; s), so this checks the kernel bound on |coscos| and
    # |sinsin| at s = i tau, or at i tau + delta for each damping strength
    amp = type("UnitTransform", (Amplitude,),
               {"parity": parity, "transform_decay": DecayBound(rate=1.0, power=1.0)})()
    seen = []

    def capture(f, domain, tol, decay, osc_freq=None):
        seen.append((f, decay))
        return QuadratureResult(0j, 0.0, 0, True)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavepacket, "integrate_decaying", capture)
        mp.setattr(wavepacket, "fourier_cosine_transform", _unit_transform)
        mp.setattr(wavepacket, "fourier_sine_transform", _unit_transform)
        wavepacket.parseval_transformed_derivative(amp, 2 * m, x, tau_re - 1j * damping)
    assert len(seen) == (1 if damping else 7)
    for f, d in seen:
        w = _grid_past(d.onset, 2.0 * d.truncation_point(1e-12))
        assert np.all(np.abs(f(w)) <= d.scale * np.exp(-d.rate * w**d.power) * (1 + 1e-12))


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.2, 5.0), z0=st.floats(-2.0, 2.0), frac=st.floats(0.0, 0.999),
       side=st.floats(-1.0, 1.0))
def test_sech_strip_bound_dominates_on_the_strip(beta, z0, frac, side):
    # |sech(beta (u + iy - z0))| <= scale(a) exp(-rate |u - center|) for
    # |y| <= a < a_max = pi/(2 beta), out to where sech underflows
    amp = Amplitude.sech(beta, z0)
    strip = amp.strip
    assert (strip.a_max, strip.rate, strip.center) == (math.pi / (2.0 * beta), beta, z0)
    a = frac * strip.a_max
    u = z0 + np.concatenate([np.linspace(-2.0, 2.0, 401), np.linspace(-700.0, 700.0, 2801)]) / beta
    got = np.abs(amp(u + 1j * side * a))
    assert np.all(got <= strip.scale(a) * np.exp(-strip.rate * np.abs(u - strip.center))
                  * (1 + 1e-12))


def _glaisher_partial_fractions(z: complex) -> complex:
    """K(z) = (1/pi) sum_n (-1)^n nu [1/(nu^2 + iz) + 1/(nu^2 - iz)], nu = 2n + 1,
    summed by mpmath: independent of the kernel code, and valid off the line."""
    iz = 1j * mpmath.mpc(z)
    return complex(mpmath.nsum(lambda n: (-1) ** int(n) * (2 * n + 1)
                               * (1 / ((2 * n + 1) ** 2 + iz) + 1 / ((2 * n + 1) ** 2 - iz)),
                               [0, mpmath.inf]) / mpmath.pi)


def _glaisher_on_the_strip(z: np.ndarray) -> np.ndarray:
    """K at complex z by the one-formula kernel in c = GLAISHER_SQRT_ARG sqrt(z):
    K is a function of z^2, so Re(z) >= 0 is taken, where |e^{-c}| <= 1."""
    z = np.where(z.real < 0, -z, z)
    c = GLAISHER_SQRT_ARG * np.sqrt(z)
    e = np.exp(-c)
    e2 = e * e
    return e * (1.0 + e2) * np.cos(c) / (1.0 + e2 * e2 + 2.0 * e2 * np.cos(2.0 * c))


@pytest.mark.parametrize("z", [0.0, 0.5, 3.0, -7.0, 40.0, 250.0, 0.3 + 0.9j, 5.0 - 0.99j,
                               -20.0 + 0.5j, 200.0 + 0.7j, 0.01 - 0.999j])
def test_glaisher_references_agree(z):
    # the mpmath partial fractions are the kernel on the line, and the strip
    # formula of the mass test below is the partial fractions off it
    ref = _glaisher_partial_fractions(z)
    on_strip = complex(_glaisher_on_the_strip(np.array([z]))[0])
    assert abs(on_strip - ref) <= 1e-13 * max(abs(ref), 1.0)
    if complex(z).imag == 0:
        assert abs(Amplitude.glaisher()(complex(z).real) - ref) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 0.999), side=st.floats(-1.0, 1.0),
       u=st.one_of(st.floats(-2.0, 2.0), st.floats(-300.0, 300.0)))
def test_glaisher_strip_bound_dominates_on_the_strip(frac, side, u):
    # |K(u + iy)| <= scale(a) for |y| <= a < a_max = 1, the poles +-i, and
    # no decay along the strip is claimed (rate 0)
    strip = Amplitude.glaisher().strip
    assert (strip.a_max, strip.rate, strip.center) == (1.0, 0.0, 0.0)
    a = frac * strip.a_max
    assert abs(_glaisher_partial_fractions(complex(u, side * a))) <= strip.scale(a)


def _line_mass(phi, tau: complex, y: float, reach: float) -> float:
    """int |phi(u + iy) exp(-i tau (u + iy)^2)| du over |u| <= reach, by a
    trapezoid sum fine enough for the peaks of the strips tested."""
    u = np.linspace(-reach, reach, 200_001)
    z = u + 1j * y
    with np.errstate(over="ignore", under="ignore"):
        g = np.abs(phi(z)) * np.exp((-1j * tau * z * z).real)
    return float(np.sum(g) - 0.5 * (g[0] + g[-1])) * (u[1] - u[0])


def _assert_mass_dominates(amp, phi, tau: complex, frac: float, side: float):
    strip = amp.strip
    a = frac * strip.a_max
    k, d = strip.rate - 2.0 * abs(tau.real) * a, -tau.imag
    # past |u| = |center| + 2 max(-k, 0)/d + min(12/sqrt(d), 120/k) the
    # integrand is below e^{-100} of its peak
    fall = min(12.0 / math.sqrt(d), 120.0 / k) if k > 0 else 12.0 / math.sqrt(d)
    reach = abs(strip.center) + 2.0 * max(-k, 0.0) / d + fall + 10.0
    got = _line_mass(phi, tau, side * a, reach)
    assert got <= math.exp(strip.log_mass(a, tau)) * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.8, 2.0), z0=st.one_of(st.just(0.0), st.floats(-0.8, 0.8)),
       tau_re=st.floats(0.0, 1.2), damping=st.floats(0.02, 0.5), frac=st.floats(0.01, 0.95),
       side=st.floats(-1.0, 1.0))
def test_damped_sech_strip_mass_dominates_the_line_integral(beta, z0, tau_re, damping, frac,
                                                            side):
    # the damped M(a) keeps e^{Im(tau) u^2}; both branches k >= 0 and k < 0,
    # centred and shifted
    amp = Amplitude.sech(beta, z0)
    _assert_mass_dominates(amp, amp, complex(tau_re, -damping), frac, side)


@settings(max_examples=25, deadline=None)
@given(tau_re=st.floats(0.0, 1.2), damping=st.floats(0.02, 0.5), frac=st.floats(0.01, 0.95),
       side=st.floats(-1.0, 1.0))
def test_damped_glaisher_strip_mass_dominates_the_line_integral(tau_re, damping, frac, side):
    _assert_mass_dominates(Amplitude.glaisher(), _glaisher_on_the_strip,
                           complex(tau_re, -damping), frac, side)


@pytest.mark.parametrize("damping", [1e-4, 1e-7])
def test_weakly_damped_mass_takes_the_erfcx_bound(damping):
    # k/(2 sqrt d) >= 25: the bound 1/(t sqrt(pi)) stands for erfcx, and the
    # mass tends to the undamped one, 2 scale/k, times the e^{d a^2} both carry
    amp, tau, a = Amplitude.sech(2.0), complex(0.3, -damping), 0.2
    strip = amp.strip
    undamped = strip.log_mass(a, complex(tau.real, 0.0)) + damping * a * a
    assert (strip.rate - 0.6 * a) / (2.0 * math.sqrt(damping)) >= 25.0
    assert undamped - 1e-3 <= strip.log_mass(a, tau) <= undamped + 1e-12
    _assert_mass_dominates(amp, amp, tau, a / strip.a_max, 1.0)


@pytest.mark.parametrize("k,d", [(2.0, 0.5), (0.3, 0.02), (-1.5, 0.1), (-4.0, 0.02),
                                 (40.0, 0.5), (1e-3, 1e-9)])
def test_strip_mass_integral_is_the_closed_form(k, d):
    # with scale 1 and center 0 the mass is e^{d a^2} int e^{-k|v| - d v^2} dv,
    # k = rate - 2 |Re tau| a: the erfc closed form (and past t = 25 its
    # erfcx bound, within 1/(2 t^2)) against a fine trapezoid sum
    a, tau_re = 0.5, 1.0
    strip = quadrature.StripBound(a_max=10.0, rate=k + 2.0 * tau_re * a, center=0.0,
                                  scale=lambda a: 1.0)
    got = math.exp(strip.log_mass(a, complex(tau_re, -d)) - d * a * a)
    reach = 2.0 * max(-k, 0.0) / d + (min(12.0 / math.sqrt(d), 60.0 / k) if k > 0
                                      else 12.0 / math.sqrt(d))
    v = np.linspace(0.0, reach, 2_000_001)
    g = np.exp(-k * v - d * v * v)
    want = 2.0 * float(np.sum(g) - 0.5 * (g[0] + g[-1])) * (v[1] - v[0])
    t = k / (2.0 * math.sqrt(d))
    assert want * (1 - 1e-9) <= got <= want * (1 + (0.5 / t**2 if t >= 25.0 else 1e-9))


def test_strip_mass_is_infinite_without_decay_or_damping():
    strip = Amplitude.glaisher().strip
    assert not strip.finite_mass(0.5 + 0j) and strip.finite_mass(0.5 - 1e-3j)
    assert strip.log_mass(0.5, 0.5 + 0j) == math.inf
    assert Amplitude.sech(1.0).strip.finite_mass(0.5 + 0j)


def _assert_transform_bound(amp):
    d = amp.transform_decay
    w = _grid_past(max(d.onset, 1e-3), 2.0 * d.truncation_point(1e-12))
    got = np.abs(np.asarray(amp.cosine_transform(w), dtype=complex))
    assert np.all(got <= d.scale * np.exp(-d.rate * w**d.power) * (1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(0.3, 4.0))
def test_sech_transform_bound_holds(beta):
    _assert_transform_bound(Amplitude.sech(beta))


@settings(max_examples=60, deadline=None)
@given(modulus=st.floats(0.05, 5.0), phase=st.floats(-1.5, 1.5))
def test_gaussian_transform_bound_holds(modulus, phase):
    _assert_transform_bound(Amplitude.gaussian(modulus * complex(math.cos(phase), math.sin(phase))))


def test_glaisher_transform_bound_holds():
    _assert_transform_bound(Amplitude.glaisher())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
@pytest.mark.parametrize("amp,x,tau", [
    (Amplitude.gaussian(1.0), 2.0, 0.5 - 0.1j), (Amplitude.sech(math.pi), 3.0, 1.0 - 0.2j),
    (Amplitude.gaussian(1.0), 1.0, 0.5 - 0.1j)], ids=["gauss-x2", "sech-x3", "gauss-x1"])
def test_hermite_expansion_bound_dominates_its_integrand(monkeypatch, amp, x, tau, n):
    # the declared constant (1 + |sqrt(i tau)|)^n 4^n on the packet bound, at
    # the catalogue's expansion points and up to the order cap
    seen = {}

    def capture(f, domain, tol, decay, budget, osc_freq):
        seen.update(f=f, decay=decay)
        return QuadratureResult(0j, 0.0, 0, True)

    monkeypatch.setattr(quadrature, "integrate_decaying", capture)
    wavepacket.hermite_weighted_expansion(amp, n, x, tau)
    f, d = seen["f"], seen["decay"]
    z = _grid_past(d.onset, 2.0 * d.truncation_point(1e-12))
    bound = d.scale * np.exp(-d.rate * z**d.power)
    for side in (z, -z):
        assert np.all(np.abs(f(side)) <= bound * (1 + 1e-12))


def _sector_points(Z: float, theta: float, reach: float):
    """Points of both sectors |Re z| >= Z, |Im z| <= (|Re z| - Z) tan theta:
    u = |Re z| - Z linear near the corner and geometric out to reach, five
    heights across each sector (both edges among them), both signs of Re z.
    Returns z and its u."""
    u = np.concatenate([np.linspace(0.0, 2.0, 201), np.geomspace(2.0, reach, 201)])
    uu, vv = np.meshgrid(u, np.linspace(-1.0, 1.0, 5))
    y = vv * uu * math.tan(theta)
    z = np.concatenate([(Z + uu + 1j * y).ravel(), (-(Z + uu) + 1j * y).ravel()])
    return z, np.concatenate([uu.ravel(), uu.ravel()])


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.3, 3.0), z0=st.floats(-3.0, 3.0), theta=st.floats(1e-3, math.pi / 4),
       extra=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
def test_sech_sector_bound_dominates_on_both_sectors(beta, z0, theta, extra):
    # |sech(beta (z - z0))| <= M(Z, theta) exp(-beta (|Re z| - Z)) for every
    # Z >= z_min, out to where the bound is e^{-600}
    amp = Amplitude.sech(beta, z0)
    sector = amp.sector
    assert (sector.rate, sector.z_min) == (beta, abs(z0) + 1.0 / beta)
    Z = sector.z_min + extra
    M = sector.scale(Z, theta)
    z, u = _sector_points(Z, theta, 600.0 / beta)
    with np.errstate(over="ignore"):        # cosh overflows to inf far out: 1/inf = 0 is right
        got = np.abs(amp(z))
    assert np.all(got <= M * np.exp(-sector.rate * u) * (1 + 1e-12))


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.3, 3.0), b=st.floats(-2.0, 2.0), z0=st.floats(-3.0, 3.0),
       theta=st.floats(1e-3, math.pi / 4), extra=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
def test_gaussian_sector_bound_dominates_on_both_sectors(a, b, z0, theta, extra):
    # complex alpha = a + ib: a bound where a (1 - t^2) >= 2 |b| t, t = tan theta,
    # and None elsewhere; compared in logs, -Re(alpha (z - z0)^2) against
    # log M - rate (|Re z| - Z)
    alpha = complex(a, b)
    sector = Amplitude.gaussian(alpha, z0).sector
    assert (sector.rate, sector.z_min) == (a / 2.0, abs(z0) + 1.0)
    Z = sector.z_min + extra
    M = sector.scale(Z, theta)
    t = math.tan(theta)
    assert (M is None) == (a * (1.0 - t * t) < 2.0 * abs(b) * t)
    assume(M is not None)
    z, u = _sector_points(Z, theta, 60.0)
    log_got = (-alpha * (z - z0) ** 2).real
    log_bound = math.log(M) - sector.rate * u
    assert np.all(log_got <= log_bound + 1e-12 * (1.0 + np.abs(log_bound)))


def test_gaussian_sector_refusal_is_needed():
    # alpha = 1 + 0.5i at theta = pi/4 (a real tau): along one edge of the
    # sector |phi| grows like exp(|b| u^2), so no M exp(-rate u) bounds it
    amp = Amplitude.gaussian(1.0 + 0.5j)
    theta = math.pi / 4
    assert amp.sector.scale(amp.sector.z_min, theta) is None
    z, _ = _sector_points(amp.sector.z_min, theta, 20.0)
    assert np.max(np.abs(amp(z))) > 1e100


@pytest.mark.parametrize("beta,alpha,z0,theta,extra", [(0.3, 0.3, 0.0, math.pi / 4, 0.0),
                                                       (3.0, 3.0 - 0.6j, -3.0, 0.1, 0.0),
                                                       (1.0, 1.0 + 0.2j, 2.5, math.pi / 8, 1.5)])
def test_sector_bounds_against_mpmath(beta, alpha, z0, theta, extra):
    # at the corner, on both edges and on the axis of each sector, by mpmath
    # at 30 digits: independent of the numpy kernels
    families = [(Amplitude.sech(beta, z0), lambda z: mpmath.sech(beta * (z - z0))),
                (Amplitude.gaussian(alpha, z0), lambda z: mpmath.exp(-alpha * (z - z0) ** 2))]
    with mpmath.workdps(30):
        for amp, exact in families:
            sector = amp.sector
            Z = sector.z_min + extra
            M = sector.scale(Z, theta)
            for u in (0.0, 0.5, 3.0, 20.0):
                for v in (-1.0, 0.0, 1.0):
                    for side in (-1.0, 1.0):
                        z = mpmath.mpc(side * (Z + u), v * u * math.tan(theta))
                        assert abs(exact(z)) <= M * math.exp(-sector.rate * u) * (1 + 1e-14)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["sech", "gaussian"]), p=st.floats(0.3, 3.0),
       z0=st.floats(-3.0, 3.0), x=st.floats(-10.0, 10.0),
       tau_re=st.floats(0.02, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       damping=st.one_of(st.just(0.0), st.floats(0.01, 2.0)), lg=st.floats(-13.0, -6.0))
def test_ray_tails_bound_the_packet_integrand_past_the_rays(family, p, z0, x, tau_re, sign,
                                                           damping, lg):
    # the tail bound of each ray of the rotated contour, from the sector bound
    # and the chirp's modulus, against |phi(z) e^{i x z - i tau z^2}| summed
    # past the ray's end by a fine trapezoid sum
    amp = Amplitude.sech(p, z0) if family == "sech" else Amplitude.gaussian(p, z0)
    tau, eps = complex(sign * tau_re, -damping), 10.0**lg
    got = quadrature._rotated_contour(amp.sector, x, tau, None, eps, math.inf)
    assume(got is not None)
    pieces, tails = got
    segment, rays = pieces[0], pieces[1:]
    Z = segment.b
    assert segment.a == -Z and tails <= 2.0 * eps
    # both rays leave along e^{-i theta}, theta = atan2(Re tau, -Im tau)/2
    d = cmath.exp(-0.5j * math.atan2(tau.real, -tau.imag))
    assert all(r.direction == d for r in rays)
    mass = 0.0
    for side in (-1.0, 1.0):
        ray = [r for r in rays if r.origin == side * Z]
        S = (ray[0].b - ray[0].a) if ray else 0.0     # S = 0: the whole ray is within eps
        s = S + np.linspace(0.0, 12.0 / math.sqrt(abs(tau)) + 60.0 / p, 400_001)
        z = side * Z + side * d * s
        with np.errstate(over="ignore", under="ignore"):
            g = np.abs(amp(z)) * np.exp((1j * x * z - 1j * tau * z * z).real)
        mass += float(np.sum(g) - 0.5 * (g[0] + g[-1])) * (s[1] - s[0])
    assert mass <= tails * (1 + 1e-6)
