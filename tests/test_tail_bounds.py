"""Tail bounds derived from declared decay.

`DecayBound.times_poly`, `DecayBound.times_exp_growth` and
`DecayBound.times_const` fold a polynomial factor, an exponential growth and a
constant into a declared bound, and `packet_decay` picks the bound of a packet
integrand.  Each derived bound must dominate the product it stands for past
its onset, or the oracle truncates too early; each declared bound must hold at
every parameter value of its family.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wavepack import quadrature, registry, wavepacket
from wavepack.amplitudes import Amplitude
from wavepack.quadrature import DecayBound, QuadratureResult, packet_decay


def _grid_past(onset: float, far: float) -> np.ndarray:
    """Linear near the onset, geometric out to far."""
    lo = max(onset, 1e-6)
    return np.unique(np.concatenate([np.linspace(lo, lo + 10.0, 2001),
                                     np.geomspace(lo, max(far, 10.0 * lo), 2001)]))


def _log_bound(d: DecayBound, z):
    return math.log(d.scale) - d.rate * z**d.power


@settings(max_examples=300, deadline=None)
@given(rate=st.floats(0.05, 5.0), power=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
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
    amp = Amplitude.custom(lambda z: np.cos(z), parity="even")
    assert packet_decay(amp, 0.5, 1e-11) is None
    assert packet_decay(amp, 0.5, 1e-11, grow=0.3) is None
    d = packet_decay(amp, 0.5 - 0.25j, 1e-11)
    assert (d.rate, d.power, d.scale) == (0.25, 2.0, 1.0)


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
