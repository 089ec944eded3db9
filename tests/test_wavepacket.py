import cmath
import dataclasses
import math

import numpy as np
import pytest

from wavepack import fd, quadrature, wavepacket
from wavepack.asymptotics import sech_packet_exact
from wavepack.errors import DomainError, NonConvergenceError, UnsupportedMethodError
from wavepack.foundation import PhysicalConfig
from wavepack.hermite import hermite_eval
from wavepack.quadrature import DecayBound, chirp_trapezoid, psi_oracle
from wavepack.wavepacket import (Amplitude, amplitude_derivative,
                                 calibrate_self_reciprocal_phase,
                                 calibrate_self_reciprocal_scale,
                                 fourier_cosine_transform, fourier_sine_transform,
                                 gaussian_closed_psi, glaisher_kernel,
                                 hermite_weighted_expansion,
                                 parseval_transformed_derivative, position_norm_squared,
                                 psi, psi_x_derivative, schrodinger_residual,
                                 schrodinger_residual_of, self_reciprocal_check,
                                 self_reciprocal_scaled_sech)

SQRT_PI = math.sqrt(math.pi)
# z e^{-z^2}, odd, with a declared tail bound: |z| e^{-z^2} <= 2 e^{-z^2/2}
_ODD_CUSTOM = Amplitude.custom(lambda z: z * np.exp(-np.asarray(z) ** 2), parity="odd",
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))


class TestAmplitudes:
    def test_values(self):
        assert Amplitude.gaussian(1.0)(0.0) == 1.0
        assert Amplitude.sech(math.pi)(0.0) == 1.0
        assert abs(Amplitude.glaisher()(0.0) - 0.5) < 1e-12

    def test_glaisher_kernel_shape(self):
        # even extension, decaying like exp(-c sqrt(z))
        assert glaisher_kernel(3.0) == glaisher_kernel(-3.0)
        assert abs(glaisher_kernel(400.0)) < 5e-9
        # transform anchor: K's half-line cosine transform at w=1 is G(1)
        assert abs(fourier_cosine_transform(Amplitude.glaisher(), 1.0)
                   - 0.3675092118282790) < 1e-12

    def test_decay_declarations_are_valid_bounds(self):
        rng = np.random.default_rng(2)
        for amp in [Amplitude.gaussian(1.3, 0.4), Amplitude.sech(2.0, -0.3),
                    Amplitude.glaisher()]:
            for _ in range(200):
                z = rng.uniform(amp.decay.onset, amp.decay.onset + 30)
                bound = amp.decay.scale * math.exp(-amp.decay.rate * abs(z) ** amp.decay.power)
                assert abs(amp(z)) <= bound * (1 + 1e-12)

    def test_parity_rules(self):
        assert Amplitude.gaussian(1.0).parity == "even"
        assert Amplitude.gaussian(1.0, z0=0.5).parity == "none"
        assert Amplitude.sech(1.0).parity == "even"

    def test_custom(self):
        amp = Amplitude.custom(lambda z: z * np.exp(-z**2), parity="odd",
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        assert abs(amp(0.5) - 0.5 * math.exp(-0.25)) < 1e-15


class TestAmplitudeDerivative:
    def test_gaussian(self):
        assert abs(amplitude_derivative(Amplitude.gaussian(1.0), 1, 1.0)
                   + 2 * math.exp(-1)) < 1e-14

    def test_sech_parity_and_curvature(self):
        amp = Amplitude.sech(1.0)
        assert abs(amplitude_derivative(amp, 1, 0.0)) < 1e-15
        # d^2/dz^2 sech(z) at 0 = -1 (sech''(z) = sech(z) - 2 sech^3(z))
        assert abs(amplitude_derivative(amp, 2, 0.0) + 1.0) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sech_against_finite_differences(self, k):
        # FD truncation degrades with order (poles at distance pi/2.6 cap the
        # usable stencil width), hence the looser tolerance at k=5
        tol = 1e-6 if k <= 4 else 5e-5
        amp = Amplitude.sech(1.3, z0=0.2)
        for z in (0.0, 0.7, -1.1):
            an = amplitude_derivative(amp, k, z)
            num = fd.derivative(lambda u: 1 / np.cosh(1.3 * (u - 0.2)), z, k,
                                h0=0.3, levels=6)
            assert abs(an - num) <= tol * max(1.0, abs(an))

    def test_fd_fallback_for_glaisher(self):
        amp = Amplitude.glaisher()
        val = amplitude_derivative(amp, 2, 1.5)
        num = fd.derivative(lambda u: glaisher_kernel(u), 1.5, 2, h0=0.05, levels=4)
        assert abs(val - num) <= 1e-6 * max(1.0, abs(num))

    def test_capacity(self):
        amp = Amplitude.glaisher()
        with pytest.raises(DomainError):
            amplitude_derivative(amp, 9, 0.5)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("amp", [Amplitude.glaisher(), Amplitude.custom(
        lambda z: np.exp(-z**2), parity="even", decay=DecayBound(rate=0.5))],
        ids=["glaisher", "custom"])
    def test_fd_fallback_over_a_node_array(self, amp, k):
        zs = np.linspace(0.3, 3.1, 11)
        loop = np.array([fd.derivative(lambda u: amp(complex(u)), float(z), k,
                                       h0=0.05 * (k + 1), levels=4) for z in zs])
        got = amplitude_derivative(amp, k, zs)
        assert got.shape == zs.shape
        assert np.max(np.abs(got - loop)) <= 1e-15 * np.max(np.abs(loop))


class TestPsi:
    def test_trivial_values(self):
        assert abs(psi(Amplitude.gaussian(1.0), 0.0, 0.0).psi - SQRT_PI) < 1e-12
        wv = psi(Amplitude.sech(math.pi), 0.0, 0.0, method="quadrature")
        assert abs(wv.psi - 1.0) < 1e-9

    def test_closed_vs_quadrature(self):
        amp = Amplitude.gaussian(1.0)
        expected = cmath.sqrt(math.pi / (1 + 1j)) * cmath.exp(-1 / (4 * (1 + 1j)))
        closed = psi(amp, 1.0, 1.0, method="closed")
        quad = psi(amp, 1.0, 1.0, method="quadrature", tol=1e-11)
        assert abs(closed.psi - expected) < 1e-12
        assert abs(closed.psi - quad.psi) < 1e-9

    def test_shifted_gaussian_closed_matches_quadrature(self):
        amp = Amplitude.gaussian(1.5 + 0.2j, z0=0.7)
        for (x, t) in [(0.5, 0.8 - 0.3j), (2.0, 0.1 - 0.05j)]:
            closed = psi(amp, x, t, method="closed")
            quad = psi(amp, x, t, method="quadrature", tol=1e-11)
            assert abs(closed.psi - quad.psi) <= 1e-9 * max(1.0, abs(closed.psi))

    def test_physical_units(self):
        # hbar/2m = 2, so t = 0.5 matches tau = 1 in natural units
        cfg = PhysicalConfig(hbar=2.0, mass=0.5)
        amp = Amplitude.gaussian(1.0)
        a = psi(amp, 1.0, 0.5, cfg)
        b = psi(amp, 1.0, 1.0)
        assert abs(a.psi - b.psi) < 1e-12

    def test_parity_even(self):
        amp = Amplitude.sech(math.pi / 2)
        for t in (0.3 - 0.2j, 1.0 - 0.5j):
            p1 = psi(amp, 1.3, t, method="quadrature", tol=1e-11).psi
            p2 = psi(amp, -1.3, t, method="quadrature", tol=1e-11).psi
            assert abs(p1 - p2) <= 1e-10 * max(1.0, abs(p1))

    def test_parity_odd(self):
        amp = Amplitude.custom(lambda z: z * np.exp(-z**2), parity="odd",
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        p1 = psi(amp, 0.9, 0.5 - 0.2j, method="quadrature", tol=1e-11).psi
        p2 = psi(amp, -0.9, 0.5 - 0.2j, method="quadrature", tol=1e-11).psi
        assert abs(p1 + p2) <= 1e-10 * max(1.0, abs(p1))

    def test_unsupported_method(self):
        with pytest.raises(UnsupportedMethodError):
            psi(Amplitude.sech(1.0), 1.0, 0.0, method="closed")
        with pytest.raises(UnsupportedMethodError):
            psi(Amplitude.gaussian(1.0), 1.0, 0.0, method="theta")

    @pytest.mark.parametrize("amp,method", [
        (Amplitude.sech(1.0), "heat"), (Amplitude.sech(1.0), "theta"),
        (Amplitude.glaisher(), "heat"), (Amplitude.glaisher(), "theta"),
    ], ids=["sech-heat", "sech-theta", "glaisher-heat", "glaisher-theta"])
    def test_series_paths_refuse_a_complex_x(self, amp, method):
        # the series sum at real x; taking Re x would return psi at x = 1
        # (2.9311 - 0.1437i on the heat path) for the 1.2146 - 0.5369i at 1 + 0.5i
        with pytest.raises(DomainError):
            psi(amp, 1.0 + 0.5j, 0.5 - 0.2j, method=method)
        assert psi(amp, 1.0 + 0j, 0.5 - 0.2j, method=method).psi == psi(
            amp, 1.0, 0.5 - 0.2j, method=method).psi

    @pytest.mark.parametrize("amp", [Amplitude.sech(1.0), Amplitude.sech(1.5, 0.3),
                                     Amplitude.glaisher()],
                             ids=["sech", "shifted-sech", "glaisher"])
    def test_a_single_x_never_takes_the_trapezoid(self, monkeypatch, amp):
        # the strip trapezoid serves the norm grid only: at one x, "auto" is
        # the scalar oracle even where the strip mass is finite
        monkeypatch.setattr(wavepacket, "chirp_trapezoid", None)    # must not be called
        tau = 0.55 - 0.2j
        assert amp.strip.finite_mass(tau)
        wv = psi(amp, 1.3, tau)
        assert (wv.psi, wv.method) == (psi_oracle(amp, 1.3, tau, tol=1e-10).value, "quadrature")

    def test_upper_half_plane_rejected(self):
        with pytest.raises(DomainError):
            psi(Amplitude.gaussian(1.0), 0.0, 1j)


class TestPlancherel:
    def test_norm_t_independent_gaussian(self):
        amp = Amplitude.gaussian(1.0)
        target = 2 * math.pi * math.sqrt(math.pi / 2)   # 2 pi int |phi|^2
        norms = [position_norm_squared(amp, t, half_width=20.0, step=0.05)
                 for t in (0.0, 0.5, 1.0)]
        for nv in norms:
            assert abs(nv - target) / target <= 1e-4

    @pytest.mark.parametrize("tau", [0.45 - 0.15j, 0.55 - 0.2j, 0.7 - 0.25j])
    def test_norm_glaisher_damped(self, tau):
        # the damping e^{2 Im(tau) z^2} is not unitary: Plancherel gives
        # 2 pi int |K(z)|^2 e^{2 Im(tau) z^2} dz, here by the composite
        # Simpson rule on [-20, 20] (the weight is below 1e-52 past it)
        z = np.linspace(-20.0, 20.0, 40_001)
        f = np.abs(Amplitude.glaisher()(z)) ** 2 * np.exp(2.0 * tau.imag * z * z)
        w = np.ones(z.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        target = 2.0 * math.pi * (z[1] - z[0]) / 3.0 * np.dot(w, f)
        nv = position_norm_squared(Amplitude.glaisher(), tau, half_width=20.0, step=0.1, tol=1e-8)
        assert abs(nv - target) / target <= 1e-4

    def test_norm_t_independent_sech(self):
        amp = Amplitude.sech(math.pi / 2)
        target = 2 * math.pi * (4 / math.pi)            # 2 pi int sech^2(pi z/2)
        norms = [position_norm_squared(amp, t, half_width=22.0, step=0.1, tol=1e-8)
                 for t in (0.0, 0.5, 1.0)]
        for nv in norms:
            assert abs(nv - target) / target <= 1e-4


class TestTransforms:
    def test_closed_forms(self):
        assert abs(fourier_cosine_transform(Amplitude.sech(1.0), 0.0) - math.pi / 2) < 1e-14
        assert abs(fourier_cosine_transform(Amplitude.gaussian(1.0), 0.0) - SQRT_PI / 2) < 1e-14

    def test_parity_enforced(self):
        with pytest.raises(DomainError):
            fourier_cosine_transform(Amplitude.gaussian(1.0, z0=1.0), 1.0)
        with pytest.raises(DomainError):
            fourier_sine_transform(Amplitude.sech(1.0), 1.0)

    def test_sine_transform_odd_gaussian(self):
        # int_0^inf z e^{-z^2} sin(wz) dz = (sqrt(pi)/4) w e^{-w^2/4}
        amp = Amplitude.custom(lambda z: z * np.exp(-z**2), parity="odd",
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        for w in (0.5, 1.0, 2.0):
            got = fourier_sine_transform(amp, w)
            expected = SQRT_PI / 4 * w * math.exp(-w * w / 4)
            assert abs(got - expected) <= 1e-10

    @pytest.mark.parametrize("transform,parity,fn", [
        (fourier_cosine_transform, "even", lambda z: np.exp(-z**2)),
        (fourier_sine_transform, "odd", lambda z: z * np.exp(-z**2))])
    def test_quadrature_fallback_honours_converged(self, monkeypatch, transform, parity, fn):
        amp = Amplitude.custom(fn, parity=parity,
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        real = quadrature.integrate_decaying
        monkeypatch.setattr(quadrature, "integrate_decaying", lambda *a, **k: dataclasses.replace(
            real(*a, **k), converged=False))
        with pytest.raises(NonConvergenceError):
            transform(amp, 1.0)
        with pytest.raises(NonConvergenceError):
            transform(amp, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("transform,parity,fn", [
        (fourier_cosine_transform, "even", lambda z: np.exp(-z**2)),
        (fourier_sine_transform, "odd", lambda z: z * np.exp(-z**2))])
    def test_quadrature_fallback_is_one_panel_set(self, monkeypatch, transform, parity, fn):
        amp = Amplitude.custom(fn, parity=parity,
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        ws = np.linspace(0.0, 6.0, 13)
        scalar = [transform(amp, float(w)) for w in ws]
        real = quadrature.integrate_decaying
        calls = []
        monkeypatch.setattr(quadrature, "integrate_decaying",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        got = transform(amp, ws)
        assert len(calls) == 1
        assert np.all(np.abs(got - scalar) <= 1e-11)

    def test_quadrature_fallback_even_custom(self):
        amp = Amplitude.custom(lambda z: np.exp(-np.asarray(z) ** 4), parity="even",
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        got = fourier_cosine_transform(amp, 0.0)
        # Gamma(5/4) = int_0^inf e^{-z^4} dz
        assert abs(got - 0.9064024770554770) <= 1e-9


class TestPsiXDerivative:
    def test_n0_equals_psi(self):
        amp = Amplitude.sech(math.pi / 2)
        d0 = psi_x_derivative(amp, 0, 0.7, 0.5 - 0.2j)
        p = psi(amp, 0.7, 0.5 - 0.2j, method="quadrature", tol=1e-11)
        assert abs(d0.psi - p.psi) <= 1e-9

    def test_gaussian_second_derivative_anchor(self):
        # psi(x, 0) = sqrt(pi) exp(-x^2/4); second derivative at 0 is -sqrt(pi)/2
        amp = Amplitude.gaussian(1.0)
        d2 = psi_x_derivative(amp, 2, 0.0, 0.0)
        assert abs(d2.psi + SQRT_PI / 2) <= 1e-9

    def test_matches_fd_of_closed_form(self):
        amp = Amplitude.gaussian(1.0)
        t = 0.4 - 0.1j
        tau = t  # natural units
        for x in (0.3, 1.1):
            d2 = psi_x_derivative(amp, 2, x, t)
            num = fd.derivative(lambda u: gaussian_closed_psi(amp, u, tau), x, 2,
                                h0=0.05, levels=4)
            assert abs(d2.psi - num) <= 1e-6 * max(1.0, abs(num))

    def test_sech_fd_cross_check(self):
        amp = Amplitude.sech(math.pi)
        t = 0.2 - 0.05j
        x = 0.5
        d2 = psi_x_derivative(amp, 2, x, t)
        num = fd.derivative(lambda u: psi(amp, float(u), t, method="quadrature",
                                          tol=1e-12).psi, x, 2, h0=0.02, levels=3)
        assert abs(d2.psi - num) <= 1e-6 * max(1.0, abs(num))

    def test_odd_amplitude_sine_route(self):
        amp = Amplitude.custom(lambda z: z * np.exp(-z**2), parity="odd",
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        d0 = psi_x_derivative(amp, 0, 0.8, 0.3 - 0.1j)
        p = psi(amp, 0.8, 0.3 - 0.1j, method="quadrature", tol=1e-11)
        assert abs(d0.psi - p.psi) <= 1e-9

    @pytest.mark.parametrize("t", [0.5 - 0.1j, 1.0 - 0.5j, 0.3])
    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
    def test_gaussian_within_estimate(self, n, t):
        # d^n/dx^n sqrt(pi/s) e^{-x^2/(4s)} = sqrt(pi/s) (-1/sqrt(4s))^n H_n(x/sqrt(4s))
        # e^{-x^2/(4s)}, s = 1 + i tau: the times_poly(n) bound up to the order cap
        amp = Amplitude.gaussian(1.0)
        s = 1.0 + 1j * t
        r4s = cmath.sqrt(4.0 * s)
        for x in (0.0, 0.7, 2.0, 4.0):
            exact = (cmath.sqrt(math.pi / s) * (-1.0 / r4s) ** n * hermite_eval(n, x / r4s)
                     * cmath.exp(-x * x / (4.0 * s)))
            d = psi_x_derivative(amp, n, x, t)
            assert abs(d.psi - exact) <= d.error_estimate

    def test_restrictions(self):
        amp = Amplitude.gaussian(1.0)
        with pytest.raises(UnsupportedMethodError):
            psi_x_derivative(amp, 1, 0.0, 0.0)
        with pytest.raises(UnsupportedMethodError):
            psi_x_derivative(Amplitude.gaussian(1.0, z0=1.0), 2, 0.0, 0.0)


class _OddGaussian(Amplitude):
    """z e^{-z^2}, declaring the bound of its sine transform (sqrt(pi)/4) w e^{-w^2/4}."""

    parity = "odd"
    decay = DecayBound(rate=0.5, power=2.0, scale=2.0)
    transform_decay = DecayBound(rate=0.25, scale=SQRT_PI / 4).times_poly(1)

    def __call__(self, z):
        return z * np.exp(-np.asarray(z) ** 2)


class TestParseval:
    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("ampname", ["gauss", "sech"])
    def test_transform_representation_equals_direct(self, n, ampname):
        amp = Amplitude.gaussian(1.0) if ampname == "gauss" else Amplitude.sech(math.pi / 2)
        t = 1.0 - 0.2j if n else 0.0 - 0.5j
        lhs = parseval_transformed_derivative(amp, n, 0.8, t)
        rhs = psi_x_derivative(amp, n, 0.8, t, tol=1e-11)
        assert abs(lhs.psi - rhs.psi) <= 1e-7 * max(1.0, abs(rhs.psi))

    def test_real_tau_regularized_route(self):
        amp = Amplitude.gaussian(1.0)
        lhs = parseval_transformed_derivative(amp, 0, 0.5, 0.4)
        rhs = psi_x_derivative(amp, 0, 0.5, 0.4, tol=1e-11)
        assert abs(lhs.psi - rhs.psi) <= 1e-6 * max(1.0, abs(rhs.psi))

    @pytest.mark.parametrize("t", [0.4, 0.4 - 0.3j])
    def test_unconverged_outer_quadrature_raises(self, monkeypatch, t):
        real = wavepacket.integrate_decaying
        monkeypatch.setattr(wavepacket, "integrate_decaying", lambda *a, **k: dataclasses.replace(
            real(*a, **k), converged=False))
        with pytest.raises(NonConvergenceError):
            parseval_transformed_derivative(Amplitude.gaussian(1.0), 0, 0.5, t)

    def test_unsettled_limit_at_real_tau_raises(self, monkeypatch):
        # seeded 1e-6 noise on every damped value keeps the
        # extrapolation residuals from settling
        rng = np.random.default_rng(5)
        real = wavepacket.integrate_decaying

        def noisy(*args, **kwargs):
            r = real(*args, **kwargs)
            return dataclasses.replace(r, value=r.value + 1e-6 * rng.standard_normal())

        monkeypatch.setattr(wavepacket, "integrate_decaying", noisy)
        with pytest.raises(NonConvergenceError):
            parseval_transformed_derivative(Amplitude.gaussian(1.0), 0, 0.5, 0.4)

    def test_within_its_estimate_at_a_narrow_sech(self):
        # at m = 2 and real tau the kernel bound grows like delta^{-5/2}; a
        # smaller constant truncates the outer integral too early
        amp = Amplitude.sech(0.7)
        lhs = parseval_transformed_derivative(amp, 4, 1.0, 1.0)
        rhs = psi_x_derivative(amp, 4, 1.0, 1.0)
        assert abs(lhs.psi - rhs.psi) <= lhs.error_estimate + rhs.error_estimate

    def test_outer_panels_resolve_the_kernel_peak_at_tau_zero(self):
        # at tau = 0 the kernel is a peak of width ~sqrt(delta) at w = x; eight
        # unresolved starting panels stepped over it at the smallest strengths
        amp = Amplitude.sech(math.pi / 2)
        lhs = parseval_transformed_derivative(amp, 0, 2.0, 0.0)
        rhs = psi_x_derivative(amp, 0, 2.0, 0.0, tol=1e-11)
        assert abs(lhs.psi - rhs.psi) <= lhs.error_estimate + rhs.error_estimate
        assert abs(lhs.psi - rhs.psi) <= 1e-11

    def test_unsettled_limit_raises_without_spending_the_budget(self, monkeypatch):
        real = wavepacket.integrate_decaying
        evaluations = []

        def counted(*args, **kwargs):
            r = real(*args, **kwargs)
            evaluations.append(r.evaluations)
            return r

        monkeypatch.setattr(wavepacket, "integrate_decaying", counted)
        with pytest.raises(NonConvergenceError):
            parseval_transformed_derivative(Amplitude.gaussian(1.0), 4, 2.0, 0.0)
        assert sum(evaluations) < 100_000

    def test_custom_declares_no_transform_bound(self):
        # a declared decay of phi, loose or not, bounds nothing about its transform
        amp = Amplitude.custom(lambda z: np.exp(-z**2), parity="even",
                               decay=DecayBound(rate=0.25, power=2.0, scale=1.0))
        with pytest.raises(UnsupportedMethodError):
            parseval_transformed_derivative(amp, 2, 1.0, 0.5 - 0.3j)

    def test_odd_amplitude_sine_parseval(self):
        amp = _OddGaussian()
        lhs = parseval_transformed_derivative(amp, 0, 0.9, 0.5 - 0.3j)
        rhs = psi_x_derivative(amp, 0, 0.9, 0.5 - 0.3j, tol=1e-11)
        assert abs(lhs.psi - rhs.psi) <= 1e-7 * max(1.0, abs(rhs.psi))


class TestConstantCalibration:
    def test_parseval_constant_pinned_by_oracle(self):
        from wavepack.wavepacket import calibrate_parseval_constant
        cp1 = calibrate_parseval_constant()
        cp2 = calibrate_parseval_constant(Amplitude.sech(math.pi / 2), n=2,
                                          x=1.0, t=1.0 - 0.2j)
        assert abs(cp1 - 2.0 / math.pi) <= 1e-9
        assert abs(cp2 - 2.0 / math.pi) <= 1e-8  # same constant, all amps and n

    def test_self_reciprocal_phase_pinned_by_sweep(self):
        p = calibrate_self_reciprocal_phase()
        assert abs(p - 0.25) <= 1e-6

    def test_self_reciprocal_phase_raises_on_an_unconverged_oracle(self, unconverged):
        unconverged(wavepacket, "psi_oracle")
        with pytest.raises(NonConvergenceError, match="self-reciprocal"):
            calibrate_self_reciprocal_phase()


class TestSelfReciprocal:
    def test_calibration_lands_on_sqrt_pi_over_2(self):
        s = calibrate_self_reciprocal_scale()
        assert abs(s - math.sqrt(math.pi / 2)) < 1e-7

    def test_calibrates_once(self, monkeypatch):
        real = wavepacket.calibrate_self_reciprocal_scale
        calls = []
        monkeypatch.setattr(wavepacket, "calibrate_self_reciprocal_scale",
                            lambda: calls.append(1) or real())
        assert self_reciprocal_scaled_sech() == self_reciprocal_scaled_sech()
        assert len(calls) <= 1

    def test_ratio_is_one_for_calibrated_amplitude(self):
        amp = self_reciprocal_scaled_sech()
        lhs, rhs, ratio = self_reciprocal_check(amp, 0.5, 1.0 - 0.3j)
        assert abs(ratio - 1.0) <= 1e-6

    def test_ratio_constant_in_x(self):
        amp = self_reciprocal_scaled_sech()
        ratios = [self_reciprocal_check(amp, x, 0.7 - 0.5j)[2]
                  for x in (0.2, 0.8, 1.4, 2.0)]
        spread = max(abs(r - ratios[0]) for r in ratios)
        assert spread <= 1e-6

    def test_needs_damping(self):
        amp = self_reciprocal_scaled_sech()
        with pytest.raises(DomainError):
            self_reciprocal_check(amp, 0.5, 1.0)

    def test_pure_damping_time_gives_real_sides(self):
        # at tau = -i both sides are damped cosine transforms, hence real-positive
        amp = self_reciprocal_scaled_sech()
        lhs, rhs, ratio = self_reciprocal_check(amp, 0.8, -1.0j)
        assert abs(lhs.imag) <= 1e-9 * abs(lhs)
        assert abs(rhs.imag) <= 1e-9 * abs(rhs)
        assert lhs.real > 0 and rhs.real > 0
        assert abs(ratio - 1.0) <= 1e-6


class TestHermiteExpansion:
    def test_n0_is_psi(self):
        amp = Amplitude.gaussian(1.0)
        e = hermite_weighted_expansion(amp, 0, 1.5, 0.5 - 0.1j)
        p = psi(amp, 1.5, 0.5 - 0.1j, method="quadrature", tol=1e-11)
        assert abs(e.psi - p.psi) <= 1e-9

    @pytest.mark.parametrize("n,x", [(1, 2.0), (2, 3.0), (3, 1.0)])
    def test_rearrangement_identity(self, n, x):
        amp = Amplitude.gaussian(1.0)
        e = hermite_weighted_expansion(amp, n, x, 0.5 - 0.1j)
        p = psi(amp, x, 0.5 - 0.1j, method="quadrature", tol=1e-11)
        assert abs(e.psi - p.psi) <= 1e-7 * max(1.0, abs(p.psi))

    def test_sech_amplitude(self):
        amp = Amplitude.sech(math.pi)
        e = hermite_weighted_expansion(amp, 2, 3.0, 1.0 - 0.2j)
        p = psi(amp, 3.0, 1.0 - 0.2j, method="quadrature", tol=1e-11)
        assert abs(e.psi - p.psi) <= 1e-6 * max(1.0, abs(p.psi))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_estimate_carries_the_prefactor(self, n):
        # the (i/x)^n prefactor scales the quadrature's estimate by |x|^-n too
        amp = Amplitude.gaussian(1.0)
        for x in (0.2, 0.5, 1.0, 2.0):
            e = hermite_weighted_expansion(amp, n, x, 0.5 - 0.1j, tol=1e-11)
            assert abs(e.psi - gaussian_closed_psi(amp, x, 0.5 - 0.1j)) <= e.error_estimate

    def test_x_zero_rejected(self):
        with pytest.raises(DomainError):
            hermite_weighted_expansion(Amplitude.gaussian(1.0), 1, 0.0, 0.5 - 0.1j)


class TestSchrodingerResidual:
    def test_closed_form_satisfies_pde(self):
        res = schrodinger_residual(Amplitude.gaussian(1.0), 0.7, 0.8 - 0.4j, h_x=1e-3, h_t=1e-3)
        assert res <= 1e-5

    def test_second_order_reduction(self):
        amp = Amplitude.gaussian(1.0)
        r1 = schrodinger_residual(amp, 0.7, 0.8 - 0.4j, h_x=2e-3, h_t=2e-3)
        r2 = schrodinger_residual(amp, 0.7, 0.8 - 0.4j, h_x=1e-3, h_t=1e-3)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_negative_control(self):
        res = schrodinger_residual_of(lambda x, t: cmath.exp(1j * x), 0.5, 1.0 - 0.5j)
        assert res > 0.5  # hbar^2/2m = 1 in natural units


class TestPlancherelMethods:
    def test_gaussian_quadrature_takes_the_batched_oracle(self, monkeypatch):
        amp = Amplitude.gaussian(1.0)
        closed = position_norm_squared(amp, 0.5, half_width=20.0, step=0.1)
        calls = []
        real_oracle = wavepacket.psi_oracle

        def counting_oracle(*args, **kwargs):
            calls.append(np.ndim(args[1]))
            return real_oracle(*args, **kwargs)

        monkeypatch.setattr(wavepacket, "psi_oracle", counting_oracle)
        quad = position_norm_squared(amp, 0.5, half_width=20.0, step=0.1, method="quadrature")
        assert calls == [1]                  # one batched call over the x-grid
        assert abs(quad - closed) <= 1e-8 * closed

    @pytest.mark.parametrize("amp", [Amplitude.gaussian(1.0), Amplitude.sech(1.0)])
    def test_unknown_method_raises(self, amp):
        with pytest.raises(UnsupportedMethodError):
            position_norm_squared(amp, 0.5, method="nosuch")

    @staticmethod
    def _recorded_grids(monkeypatch, name="psi_oracle"):
        # the x-grids `position_norm_squared` hands to wavepacket.<name>
        grids = []
        real = getattr(wavepacket, name)

        def recording(amp, x, *args, **kwargs):
            grids.append(np.array(x))
            return real(amp, x, *args, **kwargs)

        monkeypatch.setattr(wavepacket, name, recording)
        return grids

    @staticmethod
    def _simpson(xs, psis):
        w = np.ones(xs.size)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return (xs[1] - xs[0]) / 3.0 * np.dot(w, np.abs(psis) ** 2)

    def test_grid_keeps_its_step_when_the_quotient_rounds_down(self, monkeypatch):
        # 1.2 / 0.1 is 11.999999999999998, and truncating it gave 23 nodes on
        # the full grid of a shifted sech and would give 12 on the half grid
        # of an even one
        grids = self._recorded_grids(monkeypatch)
        position_norm_squared(Amplitude.sech(1.5, 0.3), 0.5 - 0.2j, half_width=1.2, step=0.1,
                              method="quadrature")
        position_norm_squared(Amplitude.sech(1.5), 0.5 - 0.2j, half_width=1.2, step=0.1,
                              method="quadrature")
        full, half = grids
        assert full.size == 25 and full[0] == -1.2 and full[-1] == 1.2
        assert half.size == 13 and half[0] == 0.0 and half[-1] == 1.2
        for xs in grids:
            assert np.allclose(np.diff(xs), 0.1, rtol=1e-12, atol=0.0)

    def test_trapezoid_grid_keeps_its_step_when_the_quotient_rounds_down(self, monkeypatch):
        grids = self._recorded_grids(monkeypatch, "chirp_trapezoid")
        position_norm_squared(Amplitude.sech(1.5, 0.3), 0.5 - 0.2j, half_width=1.2, step=0.1)
        position_norm_squared(Amplitude.sech(1.5), 0.5 - 0.2j, half_width=1.2, step=0.1)
        full, half = grids
        assert full.size == 25 and full[0] == -1.2 and full[-1] == 1.2
        assert half.size == 13 and half[0] == 0.0 and half[-1] == 1.2
        for xs in grids:
            assert np.allclose(np.diff(xs), 0.1, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("amp,tau", [
        (Amplitude.sech(1.5), 0.55),
        (Amplitude.glaisher(), 0.55 - 0.2j),
        (_ODD_CUSTOM, 0.55),
        (Amplitude.gaussian(1.0), 0.55),
    ], ids=["sech", "glaisher", "odd-custom", "gaussian-closed"])
    def test_folded_norm_equals_the_full_grid_sum(self, amp, tau):
        # |psi|^2 is even for an even or odd phi, so the half grid reflected
        # gives the Simpson sum of the whole grid
        xs = np.linspace(-20.0, 20.0, 401)
        if amp.closed_psi is not None:
            psis = np.array([gaussian_closed_psi(amp, x, tau) for x in xs])
            method = "closed"
        else:
            psis = psi_oracle(amp, xs, tau, tol=1e-8).checked("full grid").value
            method = "quadrature"
        full = self._simpson(xs, psis)
        folded = position_norm_squared(amp, tau, half_width=20.0, step=0.1, method=method)
        assert abs(folded - full) <= 1e-12 * full

    @pytest.mark.parametrize("tau", [0.55, 0.55 - 0.2j])
    def test_folded_trapezoid_norm_equals_the_full_grid_sum(self, tau):
        amp = Amplitude.sech(1.5)
        xs = np.linspace(-20.0, 20.0, 401)
        full = self._simpson(xs, chirp_trapezoid(amp, xs, tau, tol=1e-8).checked("full grid").value)
        folded = position_norm_squared(amp, tau, half_width=20.0, step=0.1)
        assert abs(folded - full) <= 1e-12 * full

    @pytest.mark.parametrize("amp,size,lo", [
        (Amplitude.sech(1.5), 201, 0.0),
        (Amplitude.glaisher(), 201, 0.0),
        (_ODD_CUSTOM, 201, 0.0),
        (Amplitude.sech(1.5, 0.3), 401, -20.0),
    ], ids=["even-sech", "even-glaisher", "odd-custom", "shifted-sech"])
    def test_only_a_parity_definite_amplitude_is_folded(self, monkeypatch, amp, size, lo):
        grids = self._recorded_grids(monkeypatch)
        position_norm_squared(amp, 0.55 - 0.2j, half_width=20.0, step=0.1, method="quadrature")
        (xs,) = grids
        assert xs.size == size and xs[0] == lo and xs[-1] == 20.0

    @pytest.mark.parametrize("amp,size,lo", [
        (Amplitude.sech(1.5), 201, 0.0),
        (Amplitude.sech(1.5, 0.3), 401, -20.0),
    ], ids=["even-sech", "shifted-sech"])
    def test_only_a_parity_definite_amplitude_is_folded_on_the_trapezoid_path(
            self, monkeypatch, amp, size, lo):
        grids = self._recorded_grids(monkeypatch, "chirp_trapezoid")
        position_norm_squared(amp, 0.55 - 0.2j, half_width=20.0, step=0.1)
        (xs,) = grids
        assert xs.size == size and xs[0] == lo and xs[-1] == 20.0

    @pytest.mark.parametrize("amp,method", [
        (Amplitude.sech(1.5), "trapezoid"), (Amplitude.sech(1.5, 0.3), "trapezoid"),
        (Amplitude.glaisher(), "trapezoid"), (Amplitude.gaussian(1.0), "closed"),
    ], ids=["sech", "shifted-sech", "glaisher", "gaussian"])
    def test_auto_takes_the_trapezoid_sum_where_a_strip_is_declared(self, monkeypatch, amp,
                                                                      method):
        taken = []
        for name in ("chirp_trapezoid", "psi_oracle", "gaussian_closed_psi"):
            def spy(*args, _name=name, _real=getattr(wavepacket, name), **kwargs):
                taken.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(wavepacket, name, spy)
        position_norm_squared(amp, 0.55 - 0.2j, half_width=2.0, step=0.1)
        expected = {"trapezoid": "chirp_trapezoid", "quadrature": "psi_oracle",
                    "closed": "gaussian_closed_psi"}[method]
        assert set(taken) == {expected}

    def test_auto_takes_the_oracle_where_the_strip_mass_is_infinite(self, monkeypatch):
        # Glaisher's strip carries no decay (rate 0), so at real tau its mass
        # is infinite and "auto" falls back to the batched oracle; the spy
        # stops there instead of running the slow real-tau oracle
        class Taken(Exception):
            pass

        def spy(*args, **kwargs):
            raise Taken

        monkeypatch.setattr(wavepacket, "psi_oracle", spy)
        monkeypatch.setattr(wavepacket, "chirp_trapezoid", None)    # must not be called
        with pytest.raises(Taken):
            position_norm_squared(Amplitude.glaisher(), 0.55, half_width=2.0, step=0.1)

    @pytest.mark.parametrize("amp,tau", [(Amplitude.sech(1.5), 0.55),
                                         (Amplitude.glaisher(), 0.55 - 0.2j),
                                         (_ODD_CUSTOM, 0.55 - 0.2j)],
                             ids=["sech", "glaisher", "odd-custom"])
    @pytest.mark.parametrize("x", [0.3, 1.7, 4.2])
    def test_modulus_is_even_in_x(self, amp, tau, x):
        plus, minus = psi_oracle(amp, x, tau), psi_oracle(amp, -x, tau)
        assert abs(abs(plus.value) - abs(minus.value)) <= (plus.abs_error_estimate
                                                           + minus.abs_error_estimate)

    @pytest.mark.parametrize("half_width,step", [(1.25, 0.1), (20.0, 0.3), (0.05, 0.1),
                                                 (1.0, 0.0), (1.0, -0.1), (math.inf, 0.1)])
    def test_grid_refuses_a_half_width_off_the_step(self, half_width, step):
        with pytest.raises(DomainError):
            position_norm_squared(Amplitude.sech(1.5), 0.5, half_width=half_width, step=step)


class TestOneTauDomain:
    # psi, the oracle and the exact pole resummation keep one rule: Im(tau)
    # up to 1e-12 is rounding and accepted, anything above it is refused
    @pytest.mark.parametrize("x", [0.3, 1.0, 3.0])
    def test_a_rounding_im_tau_is_accepted_by_all_three(self, x):
        tau = 0.5 + 1e-13j
        amp = Amplitude.sech(1.0)
        r = psi_oracle(amp, x, tau)
        assert abs(psi(amp, x, tau).psi - r.value) <= r.abs_error_estimate
        assert abs(2.0 * sech_packet_exact(1.0, x, tau) - r.value) <= r.abs_error_estimate

    @pytest.mark.parametrize("evaluate", [
        lambda tau: psi(Amplitude.sech(1.0), 1.0, tau),
        lambda tau: psi_oracle(Amplitude.sech(1.0), 1.0, tau),
        lambda tau: sech_packet_exact(1.0, 1.0, tau),
    ], ids=["psi", "psi_oracle", "packet_exact"])
    def test_a_positive_im_tau_is_refused_by_all_three(self, evaluate):
        with pytest.raises(DomainError):
            evaluate(0.5 + 1e-11j)
