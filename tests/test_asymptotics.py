import cmath
import math

import numpy as np
import pytest

from wavepack import asymptotics
from wavepack.asymptotics import (calibrate_glaisher_quartic_phase,
                                  calibrate_sech_theta_constants, glaisher_large_t_series,
                                  glaisher_packet_exact, glaisher_series_g,
                                  glaisher_theta_integral, heat_series,
                                  ibp_expansion, sech_packet_exact,
                                  sech_theta_series)
from wavepack.errors import DomainError, NonConvergenceError
from wavepack.hermite import gaussian_derivative
from wavepack.quadrature import integrate_interval, psi_oracle
from wavepack.wavepacket import Amplitude, gaussian_closed_psi

SQRT_PI = math.sqrt(math.pi)


def direct_oscillatory(derivs, a, b, x):
    def f(z):
        zz = np.asarray(z, dtype=float)
        return np.asarray(derivs(0, zz), dtype=complex) * np.exp(1j * x * zz)

    return integrate_interval(f, a, b, tol=1e-12, osc_freq=abs(x)).value


class TestIbpExpansion:
    def test_constant_integrand(self):
        derivs = lambda k, z: (np.ones_like(np.asarray(z, dtype=float))
                               if k == 0 else np.zeros_like(np.asarray(z, dtype=float)))
        e = ibp_expansion(derivs, 0.0, 2.0, 3.0, 1)
        assert abs(e.remainder) < 1e-13
        expected = (1j / 3.0) * (1.0 - cmath.exp(6j))
        assert abs(e.boundary_terms[0] - expected) < 1e-13

    def test_order_zero_is_direct_integral(self):
        derivs = lambda k, z: gaussian_derivative(k, 1.0, np.asarray(z))
        e = ibp_expansion(derivs, 0.0, 2.0, 5.0, 0)
        assert e.boundary_terms == ()
        assert abs(e.remainder - direct_oscillatory(derivs, 0.0, 2.0, 5.0)) < 1e-11

    def test_reconstruction_identity(self):
        derivs = lambda k, z: gaussian_derivative(k, 1.0, np.asarray(z))
        direct = direct_oscillatory(derivs, 0.0, 2.0, 10.0)
        for n in (1, 2, 3, 5):
            e = ibp_expansion(derivs, 0.0, 2.0, 10.0, n)
            assert abs(e.total - direct) <= 1e-9

    def test_remainder_decay(self):
        derivs = lambda k, z: gaussian_derivative(k, 1.0, np.asarray(z))
        n = 3
        scaled = []
        for x in (10.0, 20.0, 40.0, 80.0):
            e = ibp_expansion(derivs, 0.0, 2.0, x, n)
            scaled.append(abs(e.remainder) * x**n)
        assert all(b <= a * (1 + 1e-9) for a, b in zip(scaled, scaled[1:]))

    def test_unconverged_remainder_raises(self):
        # f^(k) = 1/sqrt|z - 1/3| is singular inside [0, 2]: the remainder
        # quadrature ends unconverged (estimate 1.2e-8 against tol 1e-11)
        derivs = lambda k, z: 1.0 / np.sqrt(np.abs(np.asarray(z, dtype=float) - 1.0 / 3.0))
        with pytest.raises(NonConvergenceError, match="ibp remainder"):
            ibp_expansion(derivs, 0.0, 2.0, 3.0, 1)

    def test_domain(self):
        derivs = lambda k, z: np.zeros_like(np.asarray(z, dtype=float))
        with pytest.raises(DomainError):
            ibp_expansion(derivs, 0.0, 1.0, -2.0, 1)


class TestHeatSeries:
    def test_tau_zero_gives_full_transform(self):
        amp = Amplitude.sech(math.pi / 2)
        se = heat_series(amp, 1.0, 0.0)
        # full packet is 2 * phibar_c(x) = 2 (pi/(2 beta)) sech(pi/(2 beta) x)
        expected = 2.0 * (math.pi / math.pi) / math.cosh(1.0)
        assert abs(se.value - expected) <= 1e-12

    def test_gaussian_converges_inside_radius(self):
        amp = Amplitude.gaussian(1.0)
        tau = 0.1 - 0.05j
        se = heat_series(amp, 1.0, tau, N=25)
        assert not se.diverging
        exact = gaussian_closed_psi(amp, 1.0, tau)
        assert abs(se.value - exact) <= 1e-10

    def test_truncation_stability(self):
        amp = Amplitude.gaussian(1.0)
        tau = 0.1 - 0.05j
        a = heat_series(amp, 1.0, tau, N=20)
        b = heat_series(amp, 1.0, tau, N=25)
        assert abs(a.value - b.value) <= max(a.tail_estimate, 1e-14)

    def test_sech_is_divergent_asymptotic(self):
        # the transform has poles at distance pi/(2c) from the real axis, so
        # the tau-series has radius zero; optimal truncation is ~7e-7 here
        amp = Amplitude.sech(math.pi / 2)
        tau = 0.05 - 0.02j
        se = heat_series(amp, 1.0, tau, N=40)
        assert se.diverging
        exact = psi_oracle(amp, 1.0, tau, tol=1e-12).value
        assert abs(se.value - exact) <= 5e-6
        assert abs(se.value - exact) <= 3.0 * se.tail_estimate

    def test_sech_floor_at_larger_tau(self):
        # measured optimal-truncation floor ~2e-2 at tau = 0.2 - 0.1i: the
        # printed claim of series validity at fixed x as tau grows is false
        amp = Amplitude.sech(math.pi / 2)
        tau = 0.2 - 0.1j
        se = heat_series(amp, 1.0, tau, N=40)
        exact = psi_oracle(amp, 1.0, tau, tol=1e-12).value
        gap = abs(se.value - exact)
        assert se.diverging
        assert 1e-3 <= gap <= 1e-1

    def test_parity_required(self):
        with pytest.raises(DomainError):
            heat_series(Amplitude.gaussian(1.0, z0=1.0), 1.0, 0.1j - 0.1)

    @pytest.mark.parametrize("x,tau", [(0.7, 0.1 - 0.05j), (0.0, 0.1 - 0.05j), (0.7, 0.02)])
    def test_gaussian_past_the_hermite_cap_raises_nonconvergence(self, x, tau):
        # the terms still fall at n = 33, whose transform derivative needs
        # Hermite order 66 > 64: the series did not settle, not a usage error
        with pytest.raises(NonConvergenceError, match=r"n=33.*capped at 64"):
            heat_series(Amplitude.gaussian(1.0), x, tau, N=40)

    @pytest.mark.parametrize("x", [0.005, 0.01, 0.02])
    def test_glaisher_overflow_raises_nonconvergence(self, x):
        # the exact-integer terms nu^(4n+1) of deep transform derivatives
        # leave the float range before the series reaches its smallest term
        with pytest.raises(NonConvergenceError, match=r"a=.*n=\d+"):
            heat_series(Amplitude.glaisher(), x, 1e-8)


class TestSechTheta:
    def test_leading_term_structure_large_x(self):
        beta = math.pi / 2
        se = sech_theta_series(beta, 20.0, 1.0)
        lead = (math.pi / beta) * cmath.exp(-20.0 + 1j * 1.0)
        assert abs(se.value - lead) <= 1e-9 * abs(lead)

    def test_matches_integral_in_valid_regime(self):
        # tau/x -> 0 regime; frozen defect measurements: 1.8e-13 (pi/2, x=2,
        # tau=0.05), 3.4e-17 (beta=1, x=4, tau=0.05)
        for (beta, x, tau, tol) in [(math.pi / 2, 2.0, 0.05, 1e-10),
                                    (1.0, 4.0, 0.05, 1e-10),
                                    (math.pi / 2, 1.0, 0.0, 1e-12)]:
            se = sech_theta_series(beta, x, tau, N=80)
            amp = Amplitude.sech(beta)
            ref = psi_oracle(amp, x, tau, tol=1e-12).value / 2.0
            assert abs(se.value - ref) <= tol

    def test_beta_scaling_of_x_exponent(self):
        # the x-exponent carries c = pi/(2 beta); at beta=1 the printed
        # unscaled form would be off by e^{(1-c)x} ~ e^{-2.3} at x=4
        se = sech_theta_series(1.0, 4.0, 0.0, N=80)
        amp = Amplitude.sech(1.0)
        ref = psi_oracle(amp, 4.0, 0.0, tol=1e-12).value / 2.0
        assert abs(se.value - ref) <= 1e-10
        printed_form = (math.pi / 2.0) * sum(
            (-1) ** n * math.exp(-(2 * n + 1) * 4.0) for n in range(40))
        assert abs(printed_form - ref) > 1e-2 * abs(ref)

    def test_divergence_flag_for_damped_tau(self):
        se = sech_theta_series(math.pi / 2, 1.0, 1.0 - 0.2j, N=80)
        assert se.diverging
        assert se.terms_used <= 3

    def test_domain(self):
        with pytest.raises(DomainError):
            sech_theta_series(math.pi / 2, 0.0, 1.0)
        with pytest.raises(DomainError):
            sech_theta_series(-1.0, 1.0, 1.0)


class TestGlaisherTheta:
    def test_series_value_anchor(self):
        se = glaisher_series_g(1.0)
        assert abs(se.value - 0.3675092118282790) <= 1e-12
        assert se.tail_estimate < 1e-9

    def test_single_term_dominance_large_x(self):
        se = glaisher_series_g(10.0)
        assert abs(se.value - math.exp(-10.0)) <= 1e-12

    def test_transform_pair(self):
        for x in (0.5, 1.0, 2.0):
            r, se = glaisher_theta_integral(x, tol=1e-9)
            assert r.converged
            assert abs(r.value - se.value) <= 1e-7

    def test_quartic_series_tau_zero_reduces_to_pair(self):
        se = glaisher_large_t_series(1.0, 0.0)
        assert abs(se.value - glaisher_series_g(1.0).value) <= 1e-14

    def test_quartic_series_damped_axis(self):
        # frozen measurements: 4.6e-11 at (x=1, tau=-0.01i); 3.4e-8 at
        # (x=2, tau=-0.05i)
        for (x, tau, tol) in [(1.0, -0.01j, 1e-9), (2.0, -0.05j, 1e-6)]:
            se = glaisher_large_t_series(x, tau, N=80)
            ref = psi_oracle(Amplitude.glaisher(), x, tau, tol=1e-11).value / 2.0
            assert abs(se.value - ref) <= tol

    def test_quartic_phase_pins_q(self):
        # q = 1/4 (the printed coefficient) misses by ~1e-3 where q = 1 hits 5e-11
        x, tau = 1.0, -0.01j
        ref = psi_oracle(Amplitude.glaisher(), x, tau, tol=1e-11).value / 2.0
        good = glaisher_large_t_series(x, tau, N=80).value
        bad = sum((-1) ** n * (2 * n + 1)
                  * cmath.exp(-(2 * n + 1) ** 2 * x + 0.25j * (2 * n + 1) ** 4 * tau)
                  for n in range(10))
        assert abs(good - ref) < 1e-9
        assert abs(bad - ref) > 1e-4


class TestConstantCalibration:
    def test_sech_theta_constants_pinned_by_oracle(self):
        for beta in (1.0, math.pi / 2):
            cs, c = calibrate_sech_theta_constants(beta)
            assert abs(cs - math.pi / beta) <= 1e-10
            assert abs(c - math.pi / (2 * beta)) <= 1e-10

    def test_quartic_phase_pinned_by_oracle(self):
        q = calibrate_glaisher_quartic_phase()
        assert abs(q - 1.0) <= 1e-6
        assert abs(q - 0.25) > 0.5  # the printed coefficient is excluded

    @pytest.mark.parametrize("calibrate", [lambda: calibrate_sech_theta_constants(1.0),
                                           calibrate_glaisher_quartic_phase],
                             ids=["sech", "glaisher"])
    def test_an_unconverged_oracle_raises(self, unconverged, calibrate):
        unconverged(asymptotics, "psi_oracle")
        with pytest.raises(NonConvergenceError, match="calibration oracle"):
            calibrate()


class TestExactResummations:
    @pytest.mark.parametrize("x,tau", [(1.0, 2.0), (1.0, 1.0 - 0.2j), (2.0, 0.5),
                                       (1.0, -0.05j)])
    def test_sech_partial_fraction_erfc(self, x, tau):
        beta = math.pi / 2
        exact = sech_packet_exact(beta, x, tau)
        ref = psi_oracle(Amplitude.sech(beta), x, tau, tol=1e-12).value / 2.0
        assert abs(exact - ref) <= 1e-10

    @pytest.mark.parametrize("x,tau", [(1.0, 0.0), (1.0, -0.02j), (2.0, 2.0 - 0.5j),
                                       (1.0, 8.0 - 0.2j)])
    def test_glaisher_partial_fraction_erfc(self, x, tau):
        exact = glaisher_packet_exact(x, tau)
        ref = psi_oracle(Amplitude.glaisher(), x, tau, tol=1e-11).value / 2.0
        assert abs(exact - ref) <= 1e-9

    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.5 - 0.2j])
    def test_exact_packets_are_even_in_x(self, tau):
        # cos(xz) is even in x; at tau = 0 the e^{-mu x} branch used to
        # overflow for x < 0
        for x in (0.7, 3.0):
            for exact in (lambda xx: sech_packet_exact(1.0, xx, tau),
                          lambda xx: glaisher_packet_exact(xx, tau)):
                right, left = exact(x), exact(-x)
                assert cmath.isfinite(left)
                assert abs(left - right) <= 1e-14 * max(1.0, abs(right))

    # tau = 0, where the terms (pi/2) nu e^{-nu^2 x} of the Glaisher sum rise
    # before they fall at small x: the resummation must still land on the
    # transform itself
    @pytest.mark.parametrize("beta", [0.6, 1.0, math.pi / 2, 3.0])
    def test_sech_exact_at_tau_zero_is_the_transform(self, beta):
        for x in (0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 2.0, -0.05):
            transform = math.pi / (2 * beta) / math.cosh(math.pi * x / (2 * beta))
            assert abs(sech_packet_exact(beta, x, 0.0) - transform) <= 1e-14

    @pytest.mark.parametrize("x", [0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 2.0])
    def test_glaisher_exact_at_tau_zero_is_the_theta_series(self, x):
        assert abs(glaisher_packet_exact(x, 0.0) - glaisher_series_g(x).value) <= 1e-14

    def test_sech_exact_at_negative_x_matches_oracle(self):
        ref = psi_oracle(Amplitude.sech(1.0), -3.0, 0.0, tol=1e-12).value / 2.0
        assert abs(sech_packet_exact(1.0, -3.0, 0) - ref) <= 1e-10

    def test_theta_series_is_the_erfc_limit(self):
        # as tau -> 0 along the damped axis the exact form approaches the series
        x = 2.0
        for sig, tol in [(0.05, 1e-7), (0.02, 1e-11)]:
            exact = glaisher_packet_exact(x, -1j * sig)
            series = glaisher_large_t_series(x, -1j * sig, N=60).value
            assert abs(exact - series) <= tol
