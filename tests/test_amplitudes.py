"""Amplitude families, capability dispatch and the pole-expansion routine."""
import math

import numpy as np
import pytest

from wavepack.amplitudes import (AMPLITUDE_FAMILIES, GLAISHER_POLES, MAX_POLE_TERMS,
                                 PACKET_POLES, Amplitude, glaisher_kernel, sech_poles)
from wavepack.asymptotics import glaisher_packet_exact, glaisher_series_g, heat_series
from wavepack.errors import DomainError, NonConvergenceError, UnsupportedMethodError
from wavepack.foundation import alternating_series_cvz
from wavepack.quadrature import DecayBound
from wavepack.registry import _amp_from_params
from wavepack.wavepacket import fourier_cosine_transform, psi

CAPABILITIES = ("derivative", "closed_psi", "cosine_transform",
                "cosine_transform_derivative", "transform_decay", "poles")


def _custom():
    return Amplitude.custom(lambda z: np.exp(-np.asarray(z) ** 4), parity="even",
                            decay=DecayBound(rate=0.5, power=1.0, scale=2.0))


class TestFamilies:
    def test_capabilities_per_family(self):
        have = {name: {cap for cap in CAPABILITIES if getattr(amp, cap) is not None}
                for name, amp in [("gaussian", Amplitude.gaussian(1.0)),
                                  ("sech", Amplitude.sech(1.0)),
                                  ("glaisher", Amplitude.glaisher()),
                                  ("custom", _custom())]}
        assert have["gaussian"] == set(CAPABILITIES) - {"poles"}
        assert have["sech"] == set(CAPABILITIES) - {"closed_psi"}
        assert have["glaisher"] == {"cosine_transform", "cosine_transform_derivative",
                                    "transform_decay", "poles"}
        assert have["custom"] == set()

    def test_every_family_has_z0(self):
        assert Amplitude.glaisher().z0 == 0.0
        assert _custom().z0 == 0.0
        assert Amplitude.sech(1.0, z0=0.3).z0 == 0.3

    def test_shifted_sech_has_no_pole_expansion(self):
        assert Amplitude.sech(1.0).poles == sech_poles(1.0)
        assert Amplitude.sech(1.0, z0=0.3).poles is None
        with pytest.raises(UnsupportedMethodError):
            psi(Amplitude.sech(1.0, z0=0.3), 1.0, 0.0, method="theta")

    def test_scalar_and_array_calls(self):
        for amp in (Amplitude.gaussian(1.2), Amplitude.sech(0.8, z0=0.1),
                    Amplitude.glaisher(), _custom()):
            zs = np.array([0.0, 0.5, 2.0])
            arr = amp(zs)
            assert isinstance(amp(0.5), complex)
            assert arr.shape == (3,) and arr.dtype == complex
            assert abs(arr[1] - amp(0.5)) == 0.0

    def test_custom_without_transform_capabilities(self):
        amp = _custom()
        with pytest.raises(DomainError):
            heat_series(amp, 1.0, 0.01)
        # a custom amplitude declares no transform decay
        assert amp.transform_decay is None

    def test_shared_constructor_table(self):
        assert list(AMPLITUDE_FAMILIES) == ["gaussian", "sech", "glaisher"]
        assert _amp_from_params({"amplitude": "sech", "beta": 2.0, "z0": 0.5}) == \
            AMPLITUDE_FAMILIES["sech"]({"beta": 2.0, "z0": 0.5})
        assert _amp_from_params({"amplitude": "gaussian", "alpha": [1.0, 0.5]}).alpha == 1 + 0.5j
        with pytest.raises(DomainError):
            _amp_from_params({"amplitude": "lorentzian"})


class TestPoleExpansion:
    @pytest.mark.parametrize("name,poles,phi", [
        ("sech b=1", sech_poles(1.0), lambda z: 1.0 / math.cosh(z)),
        ("sech b=pi/2", sech_poles(math.pi / 2), lambda z: 1.0 / math.cosh(math.pi / 2 * z)),
        ("glaisher", GLAISHER_POLES, glaisher_kernel),
    ])
    def test_declaration_reproduces_the_amplitude(self, name, poles, phi):
        # the accelerator and pole count of the exact packet
        nu = np.arange(1.0, 2.0 * PACKET_POLES, 2.0)
        for z in (0.0, 0.7, 2.5):
            val = poles.C * alternating_series_cvz(
                nu**poles.p / ((poles.c * nu**poles.q) ** 2 + z * z))
            assert abs(val - phi(z)) <= 1e-12

    def test_transform_and_its_second_derivative(self):
        # phibar_c(a) = (pi/(2 beta)) sech(c a), c = pi/(2 beta); its second
        # derivative is c^2 phibar_c(a) (1 - 2 sech^2(c a))
        beta = 1.3
        c = math.pi / (2 * beta)
        amp = Amplitude.sech(beta)
        for a in (0.2, 1.0, 3.0):
            f0 = math.pi / (2 * beta) / math.cosh(c * a)
            assert abs(amp.cosine_transform_derivative(0, a) - f0) <= 1e-14
            f2 = c * c * f0 * (1 - 2 / math.cosh(c * a) ** 2)
            assert abs(amp.cosine_transform_derivative(1, a) - f2) <= 1e-13

    @pytest.mark.parametrize("beta", [1.0, math.pi / 2])
    def test_sech_transform_near_zero_is_not_truncated(self, beta):
        # about 2e4 terms at a = 1e-3; a fixed 4000-term cap was 3e-4 off here
        a = 1e-3
        exact = math.pi / (2 * beta) / math.cosh(math.pi * a / (2 * beta))
        assert abs(Amplitude.sech(beta).cosine_transform_derivative(0, a) - exact) <= 1e-10

    def test_glaisher_transform_near_zero_on_both_paths(self):
        # G(x) -> 0 as x -> 0; a fixed 200- or 400-term cap returned 0.645 / -40.4
        assert abs(glaisher_series_g(1e-5).value) <= 1e-10
        assert abs(fourier_cosine_transform(Amplitude.glaisher(), 1e-5)) <= 1e-10

    def test_past_the_ceiling_raises(self):
        with pytest.raises(NonConvergenceError):
            Amplitude.sech(1.0).cosine_transform_derivative(0, 1e-7)
        with pytest.raises(NonConvergenceError):
            GLAISHER_POLES.transform_series(0, 1e-14)

    def test_deep_derivatives_stop_relative_to_the_sum(self):
        # the 80th transform derivative at a = 0.05 has terms near 1e223; an
        # absolute floor would run nu^161 past the float range
        se = heat_series(Amplitude.glaisher(), 0.05, 1e-6, N=40)
        assert se.terms_used == 41
        assert abs(se.value - 2 * glaisher_packet_exact(0.05, 1e-6)) <= 1e-12

    def test_term_count_follows_the_bound(self):
        se = sech_poles(1.0).transform_series(0, 1e-3)
        assert 1000 < se.terms_used < MAX_POLE_TERMS
        assert se.tail_estimate <= 1e-17
        assert glaisher_series_g(1.0).terms_used < 10
