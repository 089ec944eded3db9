"""The in-package special functions against mpmath and scipy.

`amplitudes._faddeeva` (Weideman's rational approximation of w(z)),
`quadrature._upper_gamma` (through `DecayBound.tail_integral`) and
`zeta._hurwitz_zeta` replace scipy.special at run time; mpmath and scipy stay
test dependencies and serve as the references here, as they do for the exact
packet that sums the Faddeeva values over the poles.
"""
import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from scipy.special import gamma, gammaincc

from wavepack import amplitudes
from wavepack.amplitudes import GLAISHER_POLES, PACKET_POLES, _faddeeva, sech_poles
from wavepack.asymptotics import glaisher_packet_exact, sech_packet_exact
from wavepack.quadrature import DecayBound
from wavepack.zeta import _hurwitz_zeta, _power_tails


def _mp_faddeeva(z: complex) -> complex:
    with mpmath.workdps(30):
        zz = mpmath.mpc(z)
        return complex(mpmath.exp(-zz * zz) * mpmath.erfc(-1j * zz))


def _max_rel_error_vs_mpmath(z) -> float:
    z = np.asarray(z, dtype=complex)
    ref = np.array([_mp_faddeeva(v) for v in z])
    return float(np.max(np.abs(_faddeeva(z) - ref) / np.abs(ref)))


class TestFaddeeva:
    def test_upper_half_plane_against_mpmath(self):
        # z = iu with Re(u) >= 0 and |u| in [1e-4, 1e4]; 800 of the 2,500 u lie
        # within 0.05 rad of the imaginary axis, where z nears the real axis
        rng = np.random.default_rng(20260)
        r = 10.0 ** rng.uniform(-4.0, 4.0, 2500)
        angle = np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, 1700),
                                rng.choice([-1.0, 1.0], 800)
                                * (np.pi / 2 - rng.uniform(0.0, 0.05, 800))])
        z = 1j * r * np.exp(1j * angle)
        assert np.all(z.imag >= 0.0)
        assert _max_rel_error_vs_mpmath(z) <= 1e-14

    def test_where_scipy_misses(self):
        # scipy's wofz is 1.1e-14 off mpmath at this point
        assert _max_rel_error_vs_mpmath([1j * (0.0869 + 7.665j)]) <= 1e-16

    def test_lower_half_plane_by_reflection(self):
        # near the zeros of w in the lower half-plane the two reflection terms
        # 2 e^{-z^2} and w(-z) cancel, so the error is measured on the larger
        rng = np.random.default_rng(20261)
        z = 10.0 ** rng.uniform(-3.0, math.log10(5.0), 600) * np.exp(1j * rng.uniform(-np.pi, 0.0, 600))
        ref = np.array([_mp_faddeeva(v) for v in z])
        scale = np.maximum(np.abs(ref), 2.0 * np.abs(np.exp(-z * z)))
        assert np.max(np.abs(_faddeeva(z) - ref) / scale) <= 1e-14

    def test_packet_arguments_against_mpmath(self, monkeypatch):
        # every w() argument `packet_exact` makes at the criterion-10/12 points
        # and over the psi-scatter ranges of the benchmark
        seen = []

        def spy(z):
            seen.append(np.array(z))
            return _faddeeva(z)

        monkeypatch.setattr(amplitudes, "_faddeeva", spy)
        for beta in (1.0, math.pi / 2):
            for tr in (1.0, 2.0, 4.0, 8.0):
                sech_poles(beta).packet_exact(1.0, complex(tr, -0.2))
        for x in (1.0, 2.0):
            for tr in (2.0, 10.0):
                GLAISHER_POLES.packet_exact(x, complex(tr, -0.5))
        rng = random.Random(7)
        for _ in range(4):
            beta, x = rng.uniform(0.6, 2.0), rng.uniform(0.0, 4.0)
            for tau in (complex(rng.uniform(0.0, 2.0), 0.0),
                        complex(rng.uniform(0.0, 2.0), -rng.uniform(0.01, 0.5))):
                sech_poles(beta).packet_exact(x, tau)
                GLAISHER_POLES.packet_exact(x, tau)
        z = np.concatenate(seen)
        assert z.size == 8 * 80 + 4 * 80 + 8 * 160
        assert np.all(z.imag >= 0.0)       # real x: no reflection inside w
        assert _max_rel_error_vs_mpmath(z) <= 1e-14

    def test_coefficients_are_weidemans_fft_formula(self):
        n = 40
        m = 2 * n
        L = math.sqrt(n / math.sqrt(2.0))
        t = L * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
        f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
        a = (np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m))[1:n + 1][::-1]
        assert amplitudes._WEIDEMAN_L == L
        assert np.max(np.abs(np.array(amplitudes._WEIDEMAN_P) - a)) <= 1e-15

    @pytest.mark.parametrize("poles", [sech_poles(1.0), GLAISHER_POLES], ids=["sech", "glaisher"])
    @pytest.mark.parametrize("tau", [0.05, 0.05 - 0.05j])
    def test_reflected_poles_raise_no_float_error(self, poles, tau):
        # at x = 3 the first poles take the reflection branch and the rest do
        # not; e^{s mu^2 - mu x} on the rest would overflow at the damped tau
        x, s = 3.0, 1j * tau
        mu = poles.c * np.arange(1.0, 2.0 * PACKET_POLES, 2.0) ** poles.q
        reflected = np.count_nonzero((mu * cmath.sqrt(s) - x / (2.0 * cmath.sqrt(s))).real < 0.0)
        assert 0 < reflected < mu.size
        with np.errstate(all="raise"):
            value = poles.packet_exact(x, tau)
        assert cmath.isfinite(value)

    @pytest.mark.parametrize("poles", [sech_poles(1.0), GLAISHER_POLES], ids=["sech", "glaisher"])
    def test_far_poles_underflow_quietly(self, poles):
        # at tau = 0 the far poles' e^{-mu x} underflow to 0, their value in
        # doubles; the sum still equals the transform
        with np.errstate(all="raise"):
            value = poles.packet_exact(3.0, 0.0)
        assert abs(value - poles.transform_series(0, 3.0).value) <= 1e-15


def _mp_packet_exact(poles, x: float, tau: complex) -> complex:
    """C sum_k (-1)^k nu^p Jc(mu_k) at 30 digits, each Jc in its erfc closed form
    (pi/(4 mu)) e^{s mu^2} [e^{-mu x} erfc(mu sqrt(s) - x/(2 sqrt(s)))
    + e^{mu x} erfc(mu sqrt(s) + x/(2 sqrt(s)))], s = i tau, summed by mpmath's
    alternating-series extrapolation."""
    with mpmath.workdps(30):
        x, s = mpmath.mpf(abs(x)), mpmath.mpc(1j * tau)
        rs = mpmath.sqrt(s)

        def lorentz_gauss(mu):
            if s == 0:
                return mpmath.pi / (2 * mu) * mpmath.exp(-mu * x)
            shift = x / (2 * rs)
            return (mpmath.pi / (4 * mu) * mpmath.exp(s * mu * mu)
                    * (mpmath.exp(-mu * x) * mpmath.erfc(mu * rs - shift)
                       + mpmath.exp(mu * x) * mpmath.erfc(mu * rs + shift)))

        def term(k):
            nu = 2 * mpmath.mpf(k) + 1
            return (-1) ** int(k) * nu**poles.p * lorentz_gauss(mpmath.mpf(poles.c) * nu**poles.q)

        return complex(mpmath.mpf(poles.C) * mpmath.nsum(term, [0, mpmath.inf],
                                                         method="alternating"))


def _packet_points():
    """8 seeded (family, beta, x, tau) over the psi-scatter ranges, the
    families alternating; the first at tau = 0, the second at real tau."""
    rng = random.Random(16)
    points = []
    for i in range(8):
        beta, x = rng.uniform(0.6, 2.0), rng.uniform(-4.0, 4.0)
        im = 0.0 if i < 2 else -rng.uniform(0.0, 0.5)
        tau = complex(0.0 if i == 0 else rng.uniform(0.0, 2.0), im)
        points.append(("sech" if i % 2 == 0 else "glaisher", beta, x, tau))
    return points


_PACKET_POINTS = _packet_points()


class TestPacketExact:
    # the CVZ sum over PACKET_POLES poles against a 30-digit sum of the same
    # closed forms over all poles
    @pytest.mark.parametrize("family,beta,x,tau", _PACKET_POINTS,
                             ids=[f"{p[0]}-{i}" for i, p in enumerate(_PACKET_POINTS)])
    def test_against_mpmath(self, family, beta, x, tau):
        if family == "sech":
            value, poles = sech_packet_exact(beta, x, tau), sech_poles(beta)
        else:
            value, poles = glaisher_packet_exact(x, tau), GLAISHER_POLES
        ref = _mp_packet_exact(poles, x, tau)
        assert abs(value - ref) <= 2e-15 * max(1.0, abs(ref))


class TestTailIntegral:
    @pytest.mark.parametrize("power", [2.0, 1.0, 0.5])
    def test_closed_forms_against_mpmath(self, power):
        # scipy's gammaincc * gamma is itself up to 8.7e-14 off here (a = 1/2
        # at u = 700), so mpmath is the reference.  For power 2 the rounding
        # of sqrt(u) moves erfc by up to u eps relative.
        a = 1.0 / power
        for u in np.geomspace(1e-3, 700.0, 120):
            T = float(u) ** a
            uu = T**power
            with mpmath.workdps(40):
                ref = float(a * mpmath.gammainc(a, uu))
            tol = 1e-14 + (uu * np.finfo(float).eps if power == 2.0 else 0.0)
            assert abs(DecayBound(rate=1.0, power=power).tail_integral(T) - ref) <= tol * ref

    @pytest.mark.parametrize("power", [3.0, 1.7, 0.8])
    def test_other_powers_against_scipy(self, power):
        a = 1.0 / power
        for u in np.geomspace(1e-3, 700.0, 400):
            T = float(u) ** a
            uu = T**power
            ref = a * gammaincc(a, uu) * gamma(a)
            assert abs(DecayBound(rate=1.0, power=power).tail_integral(T) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("power", [0.5, 0.8, 1.0, 1.7, 2.0, 3.0])
    def test_tail_falls_with_T(self, power):
        d = DecayBound(rate=0.7, power=power, scale=3.0)
        T = np.geomspace(1e-2, (700.0 / d.rate) ** (1.0 / power), 300)
        tails = np.array([d.tail_integral(t) for t in T])
        assert np.all(np.diff(tails) < 0.0)


class TestHurwitz:
    # a = 65 is the first bose tail index, and 32.5 and 33 lie below it;
    # mpmath's zeta loses about sigma log10(a) digits at large a, so the
    # working precision grows with both
    @pytest.mark.parametrize("a", [32.5, 33.0, 65.0, 400.0])
    def test_against_mpmath(self, a):
        for sigma in np.arange(1.5, 46.0, 1.0):
            self._check(sigma, a)

    # below a = max(sigma, 16) the leading terms are summed directly
    @pytest.mark.parametrize("a", [1.0, 5.5, 32.5])
    def test_small_a_and_large_sigma(self, a):
        for sigma in (1.5, 2.5, 12.5, 20.5, 60.5, 100.5):
            self._check(sigma, a)

    @staticmethod
    def _check(sigma, a):
        with mpmath.workdps(int(sigma * max(math.log10(a), 1.0)) + 40):
            ref = mpmath.zeta(mpmath.mpf(sigma), mpmath.mpf(a))
        assert abs(_hurwitz_zeta(float(sigma), a) - ref) <= 1e-15 * ref

    # j_from = 25 and sigma = 0.5 is the smallest Gaussian-series tail; the
    # transform tails start at 65; mpmath works at sigma log10(j_from) + 40
    # digits, as the terms fall by that many
    @pytest.mark.parametrize("j_from", [25, 65, 66])
    @pytest.mark.parametrize("alternating", [True, False])
    def test_tail_power_sums(self, j_from, alternating):
        # at x = 1 row p of _power_tails(sigma0, ...) is the power sum at
        # sigma0 + p, for p < 40: two calls cover sigma 0.5 (1.5 plain) to 45.5
        first = 0.5 if alternating else 1.5
        for sigma0 in (first, 6.5):
            tails = _power_tails(sigma0, 1.0, j_from, alternating)
            for p, got in enumerate(tails):
                s = mpmath.mpf(sigma0 + p)
                with mpmath.workdps(int(float(s) * math.log10(j_from)) + 40):
                    if alternating:
                        odd, even = (j_from, j_from + 1) if j_from % 2 else (j_from + 1, j_from)
                        ref = 2**-s * (mpmath.zeta(s, mpmath.mpf(odd) / 2)
                                       - mpmath.zeta(s, mpmath.mpf(even) / 2))
                    else:
                        ref = mpmath.zeta(s, j_from)
                tol = 1e-14 if alternating else 1e-15
                assert abs(got - ref) <= tol * abs(ref), (sigma0 + p, got, ref)
