"""Tail bounds derived from declared decay.

`DecayBound.times_poly` and `DecayBound.times_exp_growth` fold a polynomial
factor and an exponential growth into a declared bound, and `packet_decay`
picks the bound of a packet integrand.  Each derived bound must dominate the
product it stands for past its onset, or the oracle truncates too early.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wavepack import registry
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
