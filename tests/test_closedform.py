import math

import numpy as np
import pytest

from wavepack.closedform import (base_coscos, base_sinsin, coscos,
                                 f_cosine_moment, f_cosine_moment_printed,
                                 g_n, gr_hermite_cos, gr_hermite_sin, sinsin)
from wavepack.errors import DomainError
from wavepack.quadrature import DecayBound, integrate_decaying

SQRT_PI = math.sqrt(math.pi)


def oracle(n, a, b, x, which, tol=1e-11):
    trig = np.cos if which == "cos" else np.sin

    def f(z):
        zz = np.asarray(z, dtype=complex)
        return np.exp(-x * zz**2) * zz ** (2 * n) * trig(a * zz) * trig(b * zz)

    grow = abs(complex(a).imag) + abs(complex(b).imag)
    zstar = 2.0 * grow / complex(x).real + 1.0
    bound = DecayBound(rate=complex(x).real / 2, power=2.0,
                       scale=4.0 * math.exp(grow * zstar) * max(zstar, 2.0) ** (2 * n),
                       onset=zstar)
    r = integrate_decaying(f, (0.0, math.inf), tol=tol, decay=bound,
                           osc_freq=((abs(complex(a).real) + abs(complex(b).real),
                                      2 * abs(complex(x).imag)),))
    assert r.converged
    return r.value


class TestGn:
    def test_n0_examples(self):
        assert abs(g_n(0, 1.0, 1.0, 1.0) - SQRT_PI / 4) < 1e-14
        assert abs(g_n(0, 2.0, 1.0, 1.0) - SQRT_PI / 4 * math.exp(-0.25)) < 1e-14

    def test_symmetry_in_a_b(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(0, 4))
            a = complex(rng.uniform(0.3, 3), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.3, 3), rng.uniform(-1, 1))
            x = complex(rng.uniform(0.5, 3), rng.uniform(-0.8, 0.8))
            va, vb = g_n(n, a, b, x), g_n(n, b, a, x)
            assert abs(va - vb) <= 1e-10 * max(abs(va), 1e-12)

    def test_b_zero_rejected(self):
        with pytest.raises(DomainError):
            g_n(1, 1.0, 0.0, 1.0)

    def test_vanishing_value_underflows_to_zero(self):
        # e^{-(a-b)^2/(4x)} underflows here; split into e^{-(a^2+b^2)/(4x)}
        # e^{ab/(2x)}, the second factor overflows and the product is nan
        x = 0.01 + 0.05j
        assert coscos(0, 2.0, 185.0, x) == 0
        assert sinsin(2, 2.0, 185.0, x) == 0
        assert g_n(1, 2.0, 185.0, x) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            g_n(0, 1.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            g_n(17, 1.0, 1.0, 1.0)


class TestTrigProducts:
    def test_trivial_values(self):
        assert abs(coscos(0, 0.0, 0.0, 1.0) - SQRT_PI / 2) < 1e-14
        assert abs(coscos(1, 0.0, 0.0, 1.0) - SQRT_PI / 4) < 1e-14
        assert abs(sinsin(0, 1.0, 1.0, 1.0) - SQRT_PI / 4 * (1 - math.exp(-1))) < 1e-14
        assert abs(sinsin(3, 1.7, 0.0, 1.0)) < 1e-14

    def test_oracle_equivalence_smoke(self):
        rng = np.random.default_rng(11)
        for i in range(40):
            n = i % 4
            a = complex(rng.uniform(0.2, 4), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.2, 4), rng.uniform(-1, 1))
            x = complex(rng.uniform(0.5, 4), rng.uniform(-1, 1))
            cc = coscos(n, a, b, x)
            ss = sinsin(n, a, b, x)
            occ = oracle(n, a, b, x, "cos")
            oss = oracle(n, a, b, x, "sin")
            assert abs(cc - occ) <= 1e-8 * max(abs(cc), abs(occ), 1e-10)
            assert abs(ss - oss) <= 1e-8 * max(abs(ss), abs(oss), 1e-10)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(0, 4))
            a = complex(rng.uniform(0.1, 4), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.0, 4), rng.uniform(-1, 1))
            x = complex(rng.uniform(0.5, 4), 0.0)
            assert abs(coscos(n, a, b, x) - coscos(n, b, a, x)) <= 1e-10 * max(1e-12, abs(coscos(n, a, b, x)))
            assert abs(sinsin(n, a, b, x) - sinsin(n, b, a, x)) <= 1e-10 * max(1e-12, abs(sinsin(n, a, b, x)))

    def test_angle_addition(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(0, 4))
            a = complex(rng.uniform(0.2, 4), rng.uniform(-0.5, 0.5))
            b = complex(rng.uniform(0.2, 4), rng.uniform(-0.5, 0.5))
            x = complex(rng.uniform(0.5, 4), rng.uniform(-1, 1))
            cc, ss = coscos(n, a, b, x), sinsin(n, a, b, x)
            fm = f_cosine_moment(n, a - b, x)
            fp = f_cosine_moment(n, a + b, x)
            scale = max(abs(fm), abs(fp), 1e-12)
            assert abs(cc + ss - fm) <= 1e-10 * scale
            assert abs(cc - ss - fp) <= 1e-10 * scale

    def test_small_b_continuity(self):
        # approaching b -> 0 must stay consistent with the moment formula limit
        n, a, x = 2, 1.3, 1.1
        limit = 0.5 * (f_cosine_moment(n, a, x) + f_cosine_moment(n, a, x))
        prev_gap = None
        for b in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]:
            val = coscos(n, a, b, x)
            target = 0.5 * (f_cosine_moment(n, a - b, x) + f_cosine_moment(n, a + b, x))
            assert abs(val - target) <= 1e-8 * abs(target)
            gap = abs(val - limit)
            if prev_gap is not None:
                assert gap <= prev_gap + 1e-12
            prev_gap = gap

    def test_array_broadcast(self):
        b = np.array([0.001, 0.5, 2.0])
        vals = coscos(1, 1.2, b, 1.0)
        for i, bb in enumerate(b):
            assert abs(vals[i] - coscos(1, 1.2, float(bb), 1.0)) < 1e-13

    def test_base_forms(self):
        assert abs(base_coscos(0.0, 0.0, 1.0) - SQRT_PI / 2) < 1e-14
        assert abs(base_sinsin(1.3, 0.0, 2.0)) < 1e-15
        assert abs(base_coscos(1.0, 2.0, 1.0) - coscos(0, 1.0, 2.0, 1.0)) < 1e-14
        with pytest.raises(DomainError):
            base_coscos(1.0, 1.0, -0.5)


class TestCosineMoment:
    def test_values(self):
        assert abs(f_cosine_moment(0, 0.0, 1.0) - SQRT_PI / 2) < 1e-14
        assert abs(f_cosine_moment(1, 0.0, 1.0) - SQRT_PI / 4) < 1e-14

    def test_printed_form_fails_by_power_of_four(self):
        corrected = f_cosine_moment(1, 0.0, 1.0)
        printed = f_cosine_moment_printed(1, 0.0, 1.0)
        assert abs(printed / corrected - 4.0) < 1e-12
        assert abs(printed - SQRT_PI) < 1e-13   # the printed value at the anchor

    def test_oracle(self):
        val = f_cosine_moment(2, 1.0, 1.0)
        ora = oracle(2, 1.0, 0.0, 1.0, "cos")
        assert abs(val - ora) <= 1e-9 * abs(val)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_cosine_moment(0, 1.0, -1.0)


class TestHermiteTransforms:
    def test_printed_anchors(self):
        assert abs(gr_hermite_cos(0, 1.0, 1.0) - 0.5 * SQRT_PI * math.exp(-0.5)) < 1e-14
        assert abs(gr_hermite_cos(0, 2.0, 0.0) - 0.5 * math.sqrt(math.pi / 2)) < 1e-14
        assert abs(gr_hermite_sin(0, 1.0, 1.0) - math.sqrt(math.pi / 2) * math.exp(-0.5)) < 1e-14
        assert gr_hermite_sin(2, 1.5, 0.0) == 0.0

    def test_n1_derived_value(self):
        # differentiating the base Gaussian cosine transform twice gives -sqrt(pi) e^{-1/2}
        assert abs(gr_hermite_cos(1, 1.0, 1.0) + SQRT_PI * math.exp(-0.5)) < 1e-14

    def test_reduction_to_moment_at_n0(self):
        # n=0: integral is the plain Gaussian cosine transform
        for (a, beta) in [(1.0, 0.7), (2.0, 1.3)]:
            lhs = gr_hermite_cos(0, a, beta)
            rhs = f_cosine_moment(0, math.sqrt(2.0) * beta, a)
            assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_sine_reduction_at_n0(self):
        # n=0: H_1 = 2 sqrt(a) z, and int z e^{-az^2} sin(wz) dz has the
        # classical closed form (w/(4a)) sqrt(pi/a) e^{-w^2/(4a)}
        for (a, beta) in [(1.0, 0.7), (0.8, 1.5)]:
            w = math.sqrt(2.0) * beta
            lhs = gr_hermite_sin(0, a, beta)
            rhs = 2.0 * math.sqrt(a) * (w / (4 * a)) * math.sqrt(math.pi / a) \
                * math.exp(-w * w / (4 * a))
            assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_domain(self):
        with pytest.raises(DomainError):
            gr_hermite_cos(0, -1.0, 1.0)
        with pytest.raises(DomainError):
            gr_hermite_sin(1, 0.0, 1.0)
