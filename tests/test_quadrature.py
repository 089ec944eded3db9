import cmath
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavepack import quadrature, wavepacket
from wavepack.asymptotics import glaisher_packet_exact
from wavepack.closedform import f_cosine_moment
from wavepack.errors import DomainError, NonConvergenceError
from wavepack.quadrature import (DecayBound, chirp_integral, integrate_decaying,
                                 integrate_interval, integrate_oscillatory_regularized,
                                 neville_extrapolate, packet_decay, psi_oracle)
from wavepack.wavepacket import Amplitude, position_norm_squared, psi

SQRT_PI = math.sqrt(math.pi)


class TestDecayBound:
    def test_gaussian_tail(self):
        d = DecayBound(rate=1.0, power=2.0, scale=1.0)
        T = d.truncation_point(1e-12)
        assert d.tail_integral(T) <= 1e-12
        # exact tail: int_T^inf e^{-z^2} dz = sqrt(pi)/2 erfc(T)
        assert d.tail_integral(5.0) == pytest.approx(SQRT_PI / 2 * math.erfc(5.0), rel=1e-10)

    def test_exponential_and_sqrt_tails(self):
        for power in (1.0, 0.5):
            d = DecayBound(rate=1.3, power=power, scale=2.0)
            T = d.truncation_point(1e-10)
            assert d.tail_integral(T) <= 1e-10
            assert d.tail_integral(2 * T) < d.tail_integral(T)

    def test_validation(self):
        with pytest.raises(DomainError):
            DecayBound(rate=-1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 2.0, 1.5]), st.floats(1e-3, 1e3), st.floats(1e-3, 1e6),
           st.floats(1e-3, 50.0), st.floats(-16.0, -2.0))
    def test_truncation_point_is_the_first_rung_within_eps(self, power, rate, scale, onset, lg):
        d = DecayBound(rate=rate, power=power, scale=scale, onset=onset)
        assert d.truncation_point(10.0**lg) == _linear_truncation_point(d, 10.0**lg)

    def test_too_weak_a_bound_is_refused_after_400_rungs(self):
        d = DecayBound(rate=1.0, power=0.01)
        for search in (d.truncation_point, lambda eps: _linear_truncation_point(d, eps)):
            with pytest.raises(DomainError):
                search(1e-10)

    def test_truncation_point_is_searched_once_per_eps(self, monkeypatch):
        d = DecayBound(rate=1.3, power=1.0, scale=2.0)
        T = d.truncation_point(1e-11)
        monkeypatch.setattr(DecayBound, "tail_integral", lambda self, T: pytest.fail("searched again"))
        assert d.truncation_point(1e-11) == T

    @pytest.mark.parametrize("tau", [0.55, 0.55 - 0.15j], ids=["one-bound", "two-bounds"])
    def test_psi_oracle_searches_each_candidate_bound_once(self, monkeypatch, tau):
        amp, tol = Amplitude.sech(1.5), 1e-10
        candidates = [amp.decay]
        if complex(tau).imag < 0:
            candidates.append(DecayBound(rate=-complex(tau).imag, power=2.0, scale=amp.decay.scale))
        calls = []
        tail = DecayBound.tail_integral
        monkeypatch.setattr(DecayBound, "tail_integral",
                            lambda self, T: calls.append(T) or tail(self, T))
        for d in candidates:
            d.truncation_point(tol / 10.0)
        searches = len(calls)
        calls.clear()
        assert psi_oracle(amp, 0.3, tau, tol=tol).converged
        # one search per candidate, then the winner's tail at its point
        assert len(calls) == searches + 1


def _linear_truncation_point(d, eps):
    """DecayBound.truncation_point as a scan of the ladder T *= 1.25, rung by rung."""
    T = max(1.0, d.onset, (1.0 / d.rate) ** (1.0 / d.power))
    for _ in range(400):
        if d.tail_integral(T) <= eps:
            return T
        T *= 1.25
    raise DomainError("decay bound too weak to truncate the tail")


def _reference_presplit(a, b, lines, depth_cap=None):
    """The presplit as a depth-first walk over integer cells (d, k): from
    depth 3 on, cell k of depth d is a leaf iff not (w > K/omega(m_k)), with
    w = (b - a)/2^d, m_k = a + (k + 1/2) w and omega the lines' maximum (at
    least 0); any cell at depth_cap is a leaf too."""
    K = (15.0 / 8.0) * 2.0 * math.pi

    def omega(m):
        return max([0.0] + [c + s * m for c, s in lines])

    def point(d, j):
        return a if j == 0 else b if j == 2**d else a + j * ((b - a) / 2**d)

    out, stack = [], [(0, 0)]
    while stack:
        d, k = stack.pop()
        w = (b - a) / 2**d
        om = omega(a + (k + 0.5) * w)
        if d == depth_cap or (d >= 3 and not (w > (math.inf if om == 0 else K / om))):
            out.append((point(d, k), point(d, k + 1)))
        else:
            stack += [(d + 1, 2 * k + 1), (d + 1, 2 * k)]
    return out


@st.composite
def _frequency_lines(draw):
    """1-8 lines with slopes in +-[0, 50] and intercepts in [0, 100] on a random interval."""
    line = st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 50.0), st.sampled_from([-1.0, 1.0]))
    lines = draw(st.lists(line.map(lambda t: (t[0], t[1] * t[2])), min_size=1, max_size=8))
    a = draw(st.floats(-30.0, 30.0))
    return a, a + draw(st.floats(0.01, 30.0)), lines


class TestPresplit:
    @settings(max_examples=150, deadline=None)
    @given(_frequency_lines())
    def test_matches_the_depth_first_walk(self, problem):
        a, b, lines = problem
        ref = _reference_presplit(a, b, lines)
        assert quadrature._presplit(a, b, lines, 10 * len(ref)) == ref

    @settings(max_examples=60, deadline=None)
    @given(_frequency_lines(), st.floats(0.0, 1.0))
    def test_a_binding_cap_stops_at_the_deepest_depth_that_fits(self, problem, share):
        a, b, lines = problem
        full = len(_reference_presplit(a, b, lines))
        cap = max(1, int(share * full))
        got = quadrature._presplit(a, b, lines, cap)
        assert len(got) <= cap
        depth = 0
        while len(_reference_presplit(a, b, lines, depth + 1)) <= cap and depth < 60:
            depth += 1
        assert got == _reference_presplit(a, b, lines, depth)

    def test_a_constant_frequency_gives_eight_panels(self):
        # at this T a depth-3 panel's float width exceeds (b - a)/8 by an ulp,
        # which a width-based split took for a panel to halve: 10 panels
        T = 7.9367198736240265
        assert len(quadrature._presplit(-T, T, 0.7417506162696119, 1000)) == 8

    def test_a_callable_frequency_is_refused(self):
        with pytest.raises(TypeError, match=r"\(intercept, slope\) lines"):
            integrate_interval(lambda z: np.cos(np.asarray(z)), 0.0, 1.0, osc_freq=lambda z: 1.0)


class TestIntegrateDecaying:
    def test_gaussian_halfline(self):
        r = integrate_decaying(lambda z: np.exp(-np.asarray(z) ** 2), (0.0, math.inf),
                               tol=1e-12, decay=DecayBound(rate=1.0))
        assert r.converged
        assert abs(r.value - SQRT_PI / 2) <= 1e-12
        assert abs(r.value - SQRT_PI / 2) <= 3 * r.abs_error_estimate
        assert r.evaluations > 0

    def test_gaussian_second_moment(self):
        r = integrate_decaying(lambda z: np.asarray(z) ** 2 * np.exp(-np.asarray(z) ** 2),
                               (0.0, math.inf), tol=1e-12,
                               decay=DecayBound(rate=0.5, power=2.0, scale=1.0))
        assert abs(r.value - SQRT_PI / 4) <= 1e-12

    def test_sech_line(self):
        r = integrate_decaying(lambda z: 1 / np.cosh(math.pi * np.asarray(z)),
                               (-math.inf, math.inf), tol=1e-12,
                               decay=DecayBound(rate=math.pi, power=1.0, scale=2.0))
        assert abs(r.value - 1.0) <= 1e-12

    def test_line_is_one_panel_set(self, monkeypatch):
        spans = []
        real = quadrature.integrate_interval

        def spy(f, a, b, **kwargs):
            spans.append((a, b))
            return real(f, a, b, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_interval", spy)
        # e^{-(z-3)^2} = e^{-z^2/2} e^{-z^2/2 + 6z - 9} <= e^9 e^{-z^2/2}
        decay = DecayBound(rate=0.5, power=2.0, scale=math.exp(9.0))
        r = integrate_decaying(lambda z: np.exp(-(np.asarray(z) - 3.0) ** 2),
                               (-math.inf, math.inf), tol=1e-12, decay=decay)
        T = decay.truncation_point(1e-13)
        assert spans == [(-T, T)]
        assert r.converged and abs(r.value - SQRT_PI) <= r.abs_error_estimate
        # the first bisection keeps z = 0 a panel boundary
        assert 0.0 in {lo for lo, _ in quadrature._presplit(-T, T, None, 1000)}

    def test_finite_domain_rejected(self):
        with pytest.raises(DomainError):
            integrate_decaying(lambda z: np.exp(-np.asarray(z) ** 2), (0.0, 1.0),
                               decay=DecayBound(rate=1.0))

    def test_missing_decay_rejected(self):
        with pytest.raises(DomainError):
            integrate_decaying(lambda z: np.exp(-np.asarray(z) ** 2), (0.0, math.inf))

    def test_budget_exhaustion_is_flagged(self):
        r = integrate_decaying(lambda z: np.cos(40 * np.asarray(z)) * np.exp(-0.01 * np.asarray(z) ** 2),
                               (0.0, math.inf), tol=1e-13,
                               decay=DecayBound(rate=0.01, power=2.0), budget=900)
        assert not r.converged

    def test_budget_doubling_never_hurts(self):
        f = lambda z: np.exp(-np.asarray(z) ** 2) * np.cos(3 * np.asarray(z))
        errs = []
        for budget in (2000, 4000, 8000):
            r = integrate_decaying(f, (0.0, math.inf), tol=2e-13,
                                   decay=DecayBound(rate=1.0), budget=budget)
            errs.append(r.abs_error_estimate)
        assert errs[1] <= errs[0] and errs[2] <= errs[1]


class TestErrorHonesty:
    def test_gaussian_family_sweep(self):
        rng = np.random.default_rng(42)
        bad = 0
        ncases = 300
        for i in range(ncases):
            n = int(rng.integers(0, 4))
            a = float(rng.uniform(0, 3))
            x = float(rng.uniform(0.5, 4))

            def f(z):
                zz = np.asarray(z, dtype=float)
                return zz ** (2 * n) * np.exp(-x * zz**2) * np.cos(a * zz)

            r = integrate_decaying(f, (0.0, math.inf), tol=1e-10,
                                   decay=DecayBound(rate=x / 2, power=2.0,
                                                    scale=4.0 * max(1.0, (2 * n / x) ** n)),
                                   osc_freq=a)
            exact = f_cosine_moment(n, a, x)
            if abs(r.value - exact) > 3 * r.abs_error_estimate:
                bad += 1
        assert bad / ncases <= 0.01

    def test_gaussian_packets_on_the_line(self):
        # the decaying path of psi_oracle over (-inf, inf), against the
        # closed form, with complex alpha, shifted centres and damped tau
        rng = np.random.default_rng(2016)
        ncases = 500
        bad = 0
        for _ in range(ncases):
            amp = Amplitude.gaussian(complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)),
                                     rng.uniform(-1.5, 1.5))
            x = rng.uniform(-4.0, 4.0)
            tau = complex(rng.uniform(-2.0, 2.0), -rng.uniform(0.05, 1.0))
            r = psi_oracle(amp, x, tau, tol=1e-10)
            if abs(r.value - amp.closed_psi(x, tau)) > 3 * r.abs_error_estimate:
                bad += 1
        assert bad / ncases <= 0.01


class TestRegularized:
    def test_noop_on_decaying_integrand(self):
        f = lambda z: np.cos(np.asarray(z)) * np.exp(-np.asarray(z) ** 2)
        direct = integrate_decaying(f, (0.0, math.inf), tol=1e-12, decay=DecayBound(rate=1.0))
        reg = integrate_oscillatory_regularized(f, tol=1e-9)
        assert abs(direct.value - reg.value) <= 1e-10

    def test_divergent_constant_refused(self):
        r = integrate_oscillatory_regularized(lambda z: np.ones_like(np.asarray(z, dtype=float)),
                                              tol=1e-8)
        assert not r.converged

    def test_glaisher_kernel_times_cosine(self):
        # int_0^inf K(z) cos(z) dz = G(1) = 0.36750921182828...
        amp = Amplitude.glaisher()
        f = lambda z: np.asarray(amp(np.asarray(z, dtype=float)), dtype=complex) * np.cos(np.asarray(z))
        r = integrate_oscillatory_regularized(f, tol=1e-8, osc_freq=1.0)
        assert r.converged
        assert abs(r.value - 0.3675092118282790) <= 1e-8

    def test_limit_uses_seven_strengths(self):
        seen = []

        def evaluate(d):
            seen.append(d)
            return quadrature.QuadratureResult(2.0 + 3.0 * d - d * d, 1e-14, 15, True)

        r = quadrature.regularized_limit(evaluate, 1e-10)
        assert seen == [0.01 * 0.5**k for k in range(7)]
        assert r.converged and r.evaluations == 7 * 15
        assert abs(r.value - 2.0) <= 1e-12 and r.abs_error_estimate <= 1e-10

    def test_limit_refuses_an_unconverged_inner_value(self):
        r = quadrature.regularized_limit(
            lambda d: quadrature.QuadratureResult(1.0 + d, 1e-14, 15, d > 0.001), 1e-10)
        assert not r.converged

    def test_neville_exactness_on_polynomial(self):
        xs = [0.4, 0.2, 0.1, 0.05]
        ys = [3.0 - 2.0 * x + 7.0 * x**2 for x in xs]
        val, res = neville_extrapolate(xs, ys)
        assert abs(val - 3.0) < 1e-12
        assert res < 1e-10


class TestPsiOracle:
    def test_gaussian_at_origin(self):
        amp = Amplitude.gaussian(1.0)
        r = psi_oracle(amp, 0.0, 0.0, tol=1e-11)
        assert r.converged
        assert abs(r.value - SQRT_PI) <= 1e-11

    def test_glaisher_at_real_tau(self):
        # one error budget over the whole line reaches tol at x = tau = 1
        wv = psi(Amplitude.glaisher(), 1.0, 1.0, method="quadrature")
        assert abs(wv.psi - 2.0 * glaisher_packet_exact(1.0, 1.0)) <= wv.error_estimate

    def test_gaussian_complete_square(self):
        amp = Amplitude.gaussian(1.0)
        r = psi_oracle(amp, 1.0, 1.0, tol=1e-11)
        expected = cmath.sqrt(math.pi / (1 + 1j)) * cmath.exp(-1 / (4 * (1 + 1j)))
        assert abs(r.value - expected) <= 1e-10

    def test_sech_normalization(self):
        amp = Amplitude.sech(math.pi)
        r = psi_oracle(amp, 0.0, 0.0, tol=1e-11)
        assert abs(r.value - 1.0) <= 1e-10

    def test_imaginary_tau_rejected_in_upper_half(self):
        amp = Amplitude.gaussian(1.0)
        with pytest.raises(DomainError):
            psi_oracle(amp, 0.0, 1j)


class TestChirpIntegral:
    def test_half_line_over_an_x_array(self):
        # int_0^inf e^{-z^2} cos(xz) dz = (sqrt(pi)/2) e^{-x^2/4}, one panel set
        xs = np.array([-1.5, 0.0, 0.4, 2.5])
        r = chirp_integral(Amplitude.gaussian(1.0), xs, 0.0, tol=1e-11, trig=np.cos)
        assert r.converged
        assert np.all(np.abs(r.value - SQRT_PI / 2 * np.exp(-xs * xs / 4)) <= r.abs_error_estimate)
        with pytest.raises(DomainError):
            chirp_integral(Amplitude.gaussian(1.0), 1.2 + 0.5j, 0.0, trig=np.cos)

    def test_moment_is_the_weight_with_its_scale(self):
        # phi z^2 as n = 2, and as a weight bounded by the declared decay times |z|^2
        amp = Amplitude.gaussian(1.0)
        moment = chirp_integral(amp, 0.8, 0.5 - 0.2j, tol=1e-11, n=2)
        weighted = chirp_integral(amp, 0.8, 0.5 - 0.2j, tol=1e-11, n=2,
                                  weight=lambda z: z * z * amp(z))
        assert abs(moment.value - weighted.value) <= 1e-11

    def test_a_missing_bound_is_refused(self):
        bounded = Amplitude.custom(lambda z: np.cos(np.asarray(z)), parity="even")
        for kwargs in ({"n": 2}, {"trig": np.cos}, {"weight": bounded}):
            with pytest.raises(DomainError):
                chirp_integral(bounded, 0.5, 0.3, **kwargs)
        with pytest.raises(DomainError):
            chirp_integral(bounded, 0.5, 0.3 - 0.1j, weight=bounded)


class TestKronrodConstants:
    def test_gauss_rule_is_gauss_legendre_to_the_ulp(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            p7 = lambda t: mp.legendre(7, t)
            start, _ = np.polynomial.legendre.leggauss(7)
            nodes = [mp.findroot(p7, mp.mpf(float(t))) for t in start]
            weights = [2 / ((1 - t * t) * mp.diff(p7, t) ** 2) for t in nodes]
        nodes = np.array([float(t) for t in nodes])
        weights = np.array([float(w) for w in weights])
        gauss_x = quadrature._XGK[quadrature._GAUSS_IDX]
        assert np.all(np.abs(gauss_x - nodes) <= np.spacing(np.abs(nodes)))
        assert np.all(np.abs(quadrature._WG - weights) <= np.spacing(weights))

    def test_kronrod_rule_integrates_degree_22_exactly(self):
        eps = np.finfo(float).eps
        for k in range(23):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = float(np.sum(quadrature._WGK * quadrature._XGK ** k))
            assert abs(got - exact) <= 4 * eps, k


def _columns(r):
    return np.asarray(r.value), np.asarray(r.abs_error_estimate)


class TestVectorIntegrand:
    def test_columns_match_scalar_integrals(self):
        ws = np.array([0.0, 1.5, 4.0])
        f = lambda z: np.exp(-np.asarray(z) ** 2)[:, None] * np.cos(np.multiply.outer(z, ws))
        r = integrate_interval(f, -6.0, 6.0, tol=1e-12)
        assert r.converged and r.value.shape == (3,) and r.abs_error_estimate.shape == (3,)
        for w, v in zip(ws, r.value):
            assert abs(v - SQRT_PI * math.exp(-w * w / 4)) <= 1e-12

    def test_every_column_must_converge(self):
        # a polynomial column that K15 gets exactly, and one that needs far
        # more panels than the budget allows
        f = lambda z: np.stack([np.asarray(z) ** 2,
                                np.cos(60 * np.asarray(z)) * np.exp(-np.asarray(z) ** 2)], axis=1)
        r = integrate_interval(f, -6.0, 6.0, tol=1e-10, budget=600)
        assert abs(r.value[0] - 144.0) <= 1e-12
        assert r.abs_error_estimate[0] <= 1e-10 < r.abs_error_estimate[1]
        assert not r.converged

    def test_refinement_follows_the_worst_column(self):
        # next to a column that every panel integrates exactly, the shared
        # panel set is the one the hard column picks alone
        f1 = lambda z: np.exp(-np.asarray(z) ** 2) * np.cos(3 * np.asarray(z))
        f2 = lambda z: np.stack([np.ones_like(np.asarray(z)), f1(z), f1(z)], axis=1)
        r1 = integrate_interval(f1, -6.0, 6.0, tol=1e-11)
        r2 = integrate_interval(f2, -6.0, 6.0, tol=1e-11)
        assert r1.evaluations == r2.evaluations
        assert abs(r2.value[0] - 12.0) <= 1e-13
        assert np.allclose(r2.value[1:], r1.value, rtol=1e-14, atol=0.0)


_BATCH_X = np.array([-2.5, -0.7, 0.0, 0.4, 1.9, 3.0])
_BATCH_CASES = [
    ("gaussian/real", Amplitude.gaussian(1.2 - 0.3j, 0.4), 0.7),
    ("gaussian/damped", Amplitude.gaussian(1.2 - 0.3j, 0.4), 0.7 - 0.2j),
    ("sech-z0/real", Amplitude.sech(1.3), 0.6),
    ("sech-z0/damped", Amplitude.sech(1.3), 0.6 - 0.2j),
    ("sech-shift/real", Amplitude.sech(1.1, -0.5), 0.6),
    ("sech-shift/damped", Amplitude.sech(1.1, -0.5), 0.6 - 0.2j),
    ("glaisher/real", Amplitude.glaisher(), 0.05),
    ("glaisher/damped", Amplitude.glaisher(), 0.8 - 0.3j),
]

_EVEN_X = np.linspace(-3.0, 3.0, 10)
# (label, amplitude, tau, evaluations on linspace(-20, 20, 401) at tol 1e-8)
_GRID_CASES = [
    ("sech/real", Amplitude.sech(1.5), 0.55, 2280),
    ("sech-shift/damped", Amplitude.sech(1.5, -0.4), 0.55 - 0.15j, 1740),
    ("glaisher/damped", Amplitude.glaisher(), 0.55 - 0.2j, 1170),
]

# integrand calls per grid of the cases above: 60, 44 and 29 with one parent
# per generation and 3 panels per call
_GRID_CALLS = {"sech/real": 17, "sech-shift/damped": 13, "glaisher/damped": 9}


def _direct_table_psi(amp, xs, tau, tol):
    """psi_oracle over an x-array with the unfactored table exp(i z x_k):
    one complex exponential per node and x, on the decaying path or, with no
    tail bound, the regularized one."""
    tau = complex(tau)

    def f(z):
        zz = np.asarray(z, dtype=complex)
        head = np.asarray(amp(zz), dtype=complex) * np.exp(-1j * tau * zz * zz)
        return head[:, None] * np.exp(1j * np.multiply.outer(zz, xs))

    drift, damp = 2.0 * tau.real, 2.0 * abs(tau.imag)
    osc = ((xs.max(), damp - drift), (xs.max(), -damp - drift),
           (-xs.min(), drift + damp), (-xs.min(), drift - damp))

    decay = packet_decay(amp, tau, tol / 10.0)
    if decay is None:
        return integrate_oscillatory_regularized(f, tol=max(tol, 1e-9),
                                                 domain=(-math.inf, math.inf), osc_freq=osc)
    return integrate_decaying(f, domain=(-math.inf, math.inf), tol=tol,
                              decay=decay, osc_freq=osc)


class TestBatchedPsi:
    @pytest.mark.parametrize("label,amp,tau", _BATCH_CASES, ids=[c[0] for c in _BATCH_CASES])
    def test_array_x_matches_scalar_calls(self, label, amp, tau):
        tol = 1e-9
        for xs in (_BATCH_X, _EVEN_X):
            r = psi_oracle(amp, xs, tau, tol=tol)
            vals, errs = _columns(r)
            assert r.converged and vals.shape == xs.shape
            assert np.all(errs <= tol)
            for x, v, e in zip(xs, vals, errs):
                s = psi_oracle(amp, float(x), tau, tol=tol)
                assert s.converged
                assert abs(v - s.value) <= e + s.abs_error_estimate

    @pytest.mark.parametrize("label,amp,tau,evaluations", _GRID_CASES,
                             ids=[c[0] for c in _GRID_CASES])
    def test_factored_table_matches_the_direct_one(self, label, amp, tau, evaluations):
        # the deterministic counts are pinned: a change to refinement fails here
        xs = np.linspace(-20.0, 20.0, 401)
        assert quadrature._phase_block(xs)[0] == 20
        r = psi_oracle(amp, xs, tau, tol=1e-8)
        ref = _direct_table_psi(amp, xs, tau, tol=1e-8)
        assert r.converged and r.evaluations == ref.evaluations == evaluations
        assert np.max(np.abs(r.value - ref.value)) <= 1e-13 * np.max(np.abs(ref.value))

    @pytest.mark.parametrize("xs", [np.array([0.7]), np.linspace(-1.0, 2.0, 2),
                                    np.linspace(-1.0, 2.0, 3), np.linspace(-8.0, 8.0, 400),
                                    np.linspace(-8.0, 8.0, 401), np.linspace(6.0, -4.0, 57)],
                             ids=["n1", "n2", "n3", "n400", "n401", "descending"])
    def test_factored_table_edge_sizes(self, xs):
        amp, tau = Amplitude.sech(1.1, -0.5), 0.6 - 0.2j
        block = quadrature._phase_block(xs)[0]
        assert block == (1 if xs.size < 3 else round(math.sqrt(xs.size)))
        r = psi_oracle(amp, xs, tau, tol=1e-9)
        ref = _direct_table_psi(amp, xs, tau, tol=1e-9)
        assert r.converged and r.evaluations == ref.evaluations
        assert np.max(np.abs(r.value - ref.value)) <= 1e-13 * np.max(np.abs(ref.value))

    @pytest.mark.parametrize("label,amp,tau", [c[:3] for c in _GRID_CASES],
                             ids=[c[0] for c in _GRID_CASES])
    def test_recurrence_on_a_fine_grid(self, label, amp, tau):
        # 2,001 columns: powers up to (e^{izBh})^44 and (e^{izh})^44
        xs = np.linspace(-20.0, 20.0, 2001)
        assert quadrature._phase_block(xs)[0] == 45
        r = psi_oracle(amp, xs, tau, tol=1e-8)
        ref = _direct_table_psi(amp, xs, tau, tol=1e-8)
        assert r.converged and r.evaluations == ref.evaluations
        assert np.max(np.abs(r.value - ref.value)) <= 1e-13 * np.max(np.abs(ref.value))

    @pytest.mark.parametrize("label,amp,tau", [c[:3] for c in _GRID_CASES],
                             ids=[c[0] for c in _GRID_CASES])
    def test_recurrence_where_psi_is_at_round_off(self, label, amp, tau):
        # far from the origin |z x| is large and psi is a cancellation of
        # order 1e-15: both tables round like |z x| eps there
        xs = np.linspace(100.0, 140.0, 401)
        r = psi_oracle(amp, xs, tau, tol=1e-8)
        ref = _direct_table_psi(amp, xs, tau, tol=1e-8)
        assert r.converged and r.evaluations == ref.evaluations
        assert np.max(np.abs(r.value - ref.value)) <= 1e-14

    def test_uneven_grid_keeps_the_direct_table_bitwise(self):
        xs = np.linspace(-20.0, 20.0, 401)
        xs[137] += 1e-9
        assert quadrature._phase_block(xs) == (1, 0.0)
        amp, tau = Amplitude.sech(1.5), 0.55
        r = psi_oracle(amp, xs, tau, tol=1e-8)
        ref = _direct_table_psi(amp, xs, tau, tol=1e-8)
        assert r.evaluations == ref.evaluations
        assert np.array_equal(r.value, ref.value)
        assert np.array_equal(r.abs_error_estimate, ref.abs_error_estimate)

    def test_regularized_path_array_x(self):
        # decay=None at real tau takes the Gaussian-regularized path
        amp = Amplitude.custom(lambda z: np.exp(-np.asarray(z) ** 2), parity="even")
        xs = np.array([-0.8, 1.3])
        r = psi_oracle(amp, xs, 0.5, tol=1e-8)
        vals, errs = _columns(r)
        assert r.converged and np.all(errs <= 1e-8)
        for x, v, e in zip(xs, vals, errs):
            s = psi_oracle(amp, float(x), 0.5, tol=1e-8)
            assert s.converged
            assert abs(v - s.value) <= e + s.abs_error_estimate

    def test_regularized_path_takes_factored_values(self):
        # a slow decay, so the damping of the factors decides the limit
        amp = Amplitude.custom(lambda z: 1.0 / (1.0 + np.asarray(z) ** 2), parity="even")
        xs = np.linspace(-2.0, 2.0, 9)
        assert quadrature._phase_block(xs)[0] == 3
        r = psi_oracle(amp, xs, 0.5, tol=1e-8)
        ref = _direct_table_psi(amp, xs, 0.5, tol=1e-8)
        assert r.converged and ref.converged
        assert np.all(np.abs(r.value - ref.value) <= r.abs_error_estimate + ref.abs_error_estimate)

    def test_grid_calls_store_factors_within_the_cell_cap(self, monkeypatch):
        # every integrand value is the two factors, never the nodes x 401 table
        xs = np.linspace(-20.0, 20.0, 401)
        calls = []   # per _eval_panels call: its panel count and integrand values
        eval_panels = quadrature._eval_panels

        def spy(f, spans, width=0):
            seen = []

            def g(z):
                seen.append(f(z))
                return seen[-1]

            calls.append((len(spans), seen))
            return eval_panels(g, spans, width)

        monkeypatch.setattr(quadrature, "_eval_panels", spy)
        assert psi_oracle(Amplitude.sech(1.5), xs, 0.55, tol=1e-8).converged
        for _, seen in calls:
            for v in seen:
                assert isinstance(v, quadrature.FactoredTable) and v.m == 401
                assert v.left.shape[1] == 21 and v.right.shape[1] == 20
                nodes = len(v.left)
                assert nodes == 15 or v.left.size + v.right.size <= quadrature._CELL_CAP
        presplit_panels, presplit_values = calls[0]
        assert len(presplit_values) < presplit_panels

    @pytest.mark.parametrize("label,amp,tau", [c[:3] for c in _GRID_CASES],
                             ids=[c[0] for c in _GRID_CASES])
    def test_grid_calls_and_generations_follow_the_stored_cells(self, label, amp, tau,
                                                                monkeypatch):
        xs = np.linspace(-20.0, 20.0, 401)
        calls, generations = [], []
        eval_panels = quadrature._eval_panels

        def spy(f, spans, width=0):
            def g(z):
                calls.append(z.size)
                return f(z)

            generations.append(len(spans) // 2)
            return eval_panels(g, spans, width)

        monkeypatch.setattr(quadrature, "_eval_panels", spy)
        assert psi_oracle(amp, xs, tau, tol=1e-8).converged
        assert len(calls) <= _GRID_CALLS[label]
        # generations[0] is the presplit; a factored panel stores 615 cells
        assert max(generations[1:]) > 1

    def test_scalar_call_types_unchanged(self):
        r = psi_oracle(Amplitude.sech(1.0), 0.5, 0.3 - 0.1j, tol=1e-10)
        assert type(r.value) is complex and type(r.abs_error_estimate) is float
        assert type(r.converged) is bool

    def test_array_x_must_be_real_1d(self):
        amp = Amplitude.sech(1.0)
        with pytest.raises(DomainError):
            psi_oracle(amp, np.array([0.5 + 1j, 1.0]), 0.5 - 0.1j)
        with pytest.raises(DomainError):
            psi_oracle(amp, np.zeros((2, 2)), 0.5 - 0.1j)

    def test_starved_budget_is_unconverged(self):
        r = psi_oracle(Amplitude.sech(1.3), _BATCH_X, 0.6, tol=1e-9, budget=600)
        assert not r.converged
        assert np.max(r.abs_error_estimate) > 1e-9

    def test_position_norm_raises_on_unconverged_batch(self, monkeypatch):
        def starved(*args, **kwargs):
            return quadrature.psi_oracle(*args, budget=600, **kwargs)

        monkeypatch.setattr(wavepacket, "psi_oracle", starved)
        with pytest.raises(NonConvergenceError):
            position_norm_squared(Amplitude.sech(1.5), 0.5, half_width=10.0, step=0.1)


def _reference_integrate_interval(f, a, b, tol, budget, osc_freq):
    """The engine as it was before panels were batched: one integrand call per
    15-node panel, and one split per step of the worst panel."""
    def panel(lo, hi):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fv = np.asarray(f(c + h * quadrature._XGK), dtype=complex)
        k15 = h * (quadrature._WGK @ fv)
        err = abs(k15 - h * (quadrature._WG @ fv[np.arange(1, 15, 2)]))
        return k15, err, (err if fv.ndim == 1 else err.max())

    pieces = quadrature._presplit(a, b, osc_freq, max(budget // 15, 4) // 2)
    evals, heap, counter, total, total_err = 0, [], 0, 0j, 0.0
    for lo, hi in pieces:
        val, err, key = panel(lo, hi)
        evals += 15
        heapq.heappush(heap, (-key, counter, lo, hi, val, err))
        counter += 1
        total += val
        total_err += err
    while np.max(total_err) > tol and evals + 30 <= budget:
        _, _, lo, hi, val, err = heapq.heappop(heap)
        if hi - lo < 1e-14 * (b - a):
            break
        mid = 0.5 * (lo + hi)
        v1, e1, k1 = panel(lo, mid)
        v2, e2, k2 = panel(mid, hi)
        evals += 30
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        for child in ((-k1, counter, lo, mid, v1, e1), (-k2, counter + 1, mid, hi, v2, e2)):
            heapq.heappush(heap, child)
        counter += 2
    return quadrature._result(total, total_err, evals, np.max(total_err) <= tol)


@st.composite
def _integration_problems(draw):
    """A Gaussian-damped oscillatory integrand, scalar or with m columns of
    different frequencies, on a random interval with tol and budget."""
    m = draw(st.sampled_from([None, 1, 3, 40]))
    rate = draw(st.floats(0.05, 5.0))
    shift = draw(st.floats(-2.0, 2.0))
    freq = draw(st.floats(0.0, 30.0))
    ws = freq * np.linspace(0.5, 1.0, m or 1)

    def f(z):
        head = np.exp(-rate * (z - shift) ** 2)
        if m is None:
            return head * np.exp(1j * freq * z)
        return head[:, None] * np.exp(1j * np.multiply.outer(z, ws))

    a = draw(st.floats(-6.0, 0.0))
    b = a + draw(st.floats(0.1, 10.0))
    tol = 10.0 ** draw(st.floats(-12.0, -6.0))
    budget = draw(st.one_of(st.integers(60, 600), st.integers(600, 20_000)))
    osc = draw(st.sampled_from([None, freq]))
    return f, a, b, tol, budget, osc


def _same(x, y):
    return type(x) is type(y) and np.array_equal(x, y)


class TestBatchedPanels:
    @settings(max_examples=150, deadline=None)
    @given(_integration_problems())
    def test_one_panel_generations_match_the_sequential_loop_bitwise(self, problem):
        f, a, b, tol, budget, osc = problem
        ref = _reference_integrate_interval(f, a, b, tol, budget, osc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_GENERATION_CAP", 1)
            got = integrate_interval(f, a, b, tol=tol, budget=budget, osc_freq=osc)
        assert _same(got.value, ref.value)
        assert _same(got.abs_error_estimate, ref.abs_error_estimate)
        assert got.evaluations == ref.evaluations and got.converged == ref.converged

    @settings(max_examples=150, deadline=None)
    @given(_integration_problems())
    def test_generations_agree_with_the_sequential_loop(self, problem):
        f, a, b, tol, budget, osc = problem
        ref = _reference_integrate_interval(f, a, b, tol, budget, osc)
        got = integrate_interval(f, a, b, tol=tol, budget=budget, osc_freq=osc)
        assert got.evaluations <= budget
        assert np.all(np.abs(got.value - ref.value)
                      <= got.abs_error_estimate + ref.abs_error_estimate)
        # a generation only takes panels the sequential loop would split too
        assert got.evaluations == ref.evaluations and got.converged == ref.converged


def _spy(m):
    """A Gaussian integrand with m columns (None: scalar) that records the
    node count of every call."""
    sizes = []

    def f(z):
        sizes.append(z.size)
        head = np.exp(-(z - 0.3) ** 2) * np.cos(40.0 * z)
        return head if m is None else head[:, None] * np.linspace(1.0, 2.0, m)

    return f, sizes


def _random_factors(G, B, m, seed):
    """A counting integrand of m < G B columns returned as random smooth
    factors exp(z A) and exp(z C), and the same one as its materialized table."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=G) + 3j * rng.normal(size=G)
    C = rng.normal(size=B) + 3j * rng.normal(size=B)
    calls = []

    def factored(z):
        calls.append(z.size)
        return quadrature.FactoredTable(np.exp(np.multiply.outer(z, A)),
                                        np.exp(np.multiply.outer(z, C)), m)

    def direct(z):
        v = factored(z)
        return (v.left[:, :, None] * v.right[:, None, :]).reshape(z.size, -1)[:, :m]

    return factored, direct, calls


class TestFactoredRule:
    @pytest.mark.parametrize("spans", [[(-0.4, 0.9)], [(-1.0, -0.3), (-0.3, 0.2), (0.2, 1.1)]],
                             ids=["lone-panel", "three-panels"])
    def test_rule_on_factors_matches_the_table(self, spans):
        G, B, m = 7, 5, 32
        factored, direct, calls = _random_factors(G, B, m, seed=len(spans))
        got = quadrature._eval_panels(factored, spans, 0 if len(spans) == 1 else G + B)
        assert calls == [15 * len(spans)] and got[3] == G + B
        ref = quadrature._eval_panels(direct, spans, m)
        for val, err, key, rval, rerr, rkey in zip(*got[:3], *ref[:3]):
            assert val.shape == err.shape == (m,)
            scale = np.max(np.abs(rval))
            assert np.max(np.abs(val - rval)) <= 1e-15 * scale
            assert np.max(np.abs(err - rerr)) <= 1e-15 * scale
            assert abs(key - rkey) <= 1e-15 * scale and key == np.max(err)


class TestCallShapes:
    @pytest.mark.parametrize("m", [None, 3, 40, 401])
    def test_calls_stay_within_the_cell_cap(self, m):
        f, sizes = _spy(m)
        r = integrate_interval(f, -6.0, 6.0, tol=1e-11, osc_freq=40.0)
        assert r.converged and sum(sizes) == r.evaluations
        assert all(n % 15 == 0 for n in sizes)
        assert all(n == 15 or n * (m or 1) <= quadrature._CELL_CAP for n in sizes)

    def test_wide_integrand_gets_one_panel_per_call(self):
        f, sizes = _spy(401)
        integrate_interval(f, -6.0, 6.0, tol=1e-11, osc_freq=40.0)
        assert len(sizes) > 1 and set(sizes) == {15}

    def test_presplit_panels_take_few_calls(self):
        f, sizes = _spy(None)
        osc = 100.0
        P = len(quadrature._presplit(-5.0, 5.0, osc, quadrature.DEFAULT_BUDGET // 15 // 2))
        assert P >= 100
        integrate_interval(f, -5.0, 5.0, tol=1e-11, osc_freq=osc)
        nodes, presplit_calls = 0, 0
        while nodes < 15 * P:
            nodes += sizes[presplit_calls]
            presplit_calls += 1
        assert nodes == 15 * P
        assert presplit_calls <= 1 + math.ceil(15 * P / quadrature._CELL_CAP)

    @pytest.mark.parametrize("m", [None, 40])
    def test_starved_budget(self, m):
        f, sizes = _spy(m)
        r = integrate_interval(f, -6.0, 6.0, tol=1e-12, budget=450, osc_freq=40.0)
        assert r.evaluations == sum(sizes) <= 450
        assert not r.converged
