import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad

from wavepack import fd, zeta
from wavepack.errors import CapacityError, DomainError, NonConvergenceError
from wavepack.quadrature import DecayBound
from wavepack.zeta import (KAPPA0, KAPPA1, LatticeSumSpec,
                           alternating_series_cvz, bose_moment_transform,
                           calibrate_lattice_constants, dirichlet_eta,
                           fermi_moment_transform, gamma_half,
                           glaisher_alternating_gaussian,
                           glaisher_alternating_series, h_term, l_term,
                           lattice_sum, poisson_cosine_check,
                           poisson_correction_sum, transform_moment_sum,
                           zeta_from_lattice, zeta_half_reference)

SQRT_PI = math.sqrt(math.pi)

# independent references (30-digit mpmath, frozen)
ZETA_REFS = {1: 2.612375348685488, 2: 1.341487257250917, 3: 1.126733867317057}
ETA_HALF = 0.6048986434216303
# zeta_from_lattice(m, statistic) for m = 1..6, frozen
ZETA_LATTICE_PINNED = {
    "fermi": [2.612375348685489, 1.3414872572509173, 1.1267338673170564,
              1.0547075107614545, 1.0252045799546858, 1.0120058998885249],
    "bose": [2.6123753486854886, 1.3414872572509176, 1.1267338673170568,
             1.0547075107614543, 1.025204579954686, 1.0120058998885249],
}
# glaisher_alternating_series(b): (value, terms_used, tail_estimate), frozen
GLAISHER_SERIES_PINNED = {
    0.05: (0.6029884834457802, 29, 2.400000009244117e-15),
    0.3: (0.5394374539549662, 31, 2.4000001785607366e-15),
    0.5: (0.4384452206440122, 32, 2.4000002896303125e-15),
    1.0: (0.1518546915227531, 34, 2.4000003485128484e-15),
    1.7: (-0.009001949087390507, 36, 2.400001478709126e-15),
    2.5: (-0.0027424013254361834, 38, 2.4000054722094986e-15),
    4.0: (1.6123754846469884e-05, 63, 4.900109526372437e-15),
    6.0: (5.83917904660447e-07, 123, 1.0900094248775898e-14),
}
# frozen high-precision brute force (direct head + exact expansion remainder)
S_MONO_M1_B1 = -0.962983614865014411


class TestReferences:
    def test_eta_half(self):
        assert abs(dirichlet_eta(0.5) - ETA_HALF) <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zeta_half_reference(self, m):
        assert abs(zeta_half_reference(m) - ZETA_REFS[m]) <= 1e-12

    def test_cvz_geometric_sanity(self):
        # sum (-1)^k 2^{-k} = 2/3
        assert abs(alternating_series_cvz(0.5 ** np.arange(32.0)) - 2.0 / 3.0) <= 1e-14

    def test_gamma_half(self):
        assert abs(gamma_half(0) - SQRT_PI) <= 1e-15
        assert abs(gamma_half(1) - SQRT_PI / 2) <= 1e-15
        assert abs(gamma_half(2) - 0.75 * SQRT_PI) <= 1e-15
        with pytest.raises(CapacityError):
            gamma_half(41)


class TestAlternatingGaussian:
    @pytest.mark.parametrize("b", [0.0, 0.5, 1.0, 2.0])
    def test_pair_agrees(self, b):
        se, integ = glaisher_alternating_gaussian(b)
        assert integ.converged
        assert abs(se.value - integ.value) <= 1e-8

    def test_b_zero_is_eta_half(self):
        se, integ = glaisher_alternating_gaussian(0.0)
        assert abs(se.value - ETA_HALF) <= 1e-13
        assert abs(integ.value - ETA_HALF) <= 1e-10

    def test_series_pinned(self):
        for b, (value, terms_used, tail_estimate) in GLAISHER_SERIES_PINNED.items():
            se = glaisher_alternating_series(b)
            assert abs(se.value - value) <= 1e-15
            assert se.terms_used == terms_used
            assert abs(se.tail_estimate - tail_estimate) <= 1e-15 * tail_estimate

    def test_large_b_both_tiny(self):
        se, integ = glaisher_alternating_gaussian(5.0)
        assert abs(se.value) <= 1e-5
        assert abs(integ.value) <= 1e-5
        assert abs(se.value - integ.value) <= 1e-9


class TestSettledSum:
    @staticmethod
    def _sequential(contribs, scale, floor):
        # the term-by-term loop the array form replaces
        total, small_runs = 0.0, 0
        for q, c in enumerate(contribs):
            total += c
            small_runs = small_runs + 1 if abs(c) < floor * (1.0 + abs(scale)) else 0
            if small_runs >= 2 and q >= 2:
                return total, q, c
        raise NonConvergenceError("unsettled")

    def test_matches_the_sequential_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            contribs = rng.standard_normal(40) * 10.0 ** -rng.integers(0, 25, 40)
            try:
                expected = self._sequential(contribs, 0.3, 1e-17)
            except NonConvergenceError:
                with pytest.raises(NonConvergenceError):
                    zeta._settled_sum(contribs, 0.3, 1e-17, "test")
                continue
            assert zeta._settled_sum(contribs, 0.3, 1e-17, "test") == expected

    def test_unsettled_tail_raises(self):
        with pytest.raises(NonConvergenceError):
            zeta._settled_sum(np.full(40, 1e-3), 0.0, 1e-17, "test")


class TestMomentTerms:
    def test_h_l_sign_structure(self):
        assert h_term(2, 1, 0.7) == -l_term(2, 1, 0.7)
        assert h_term(1, 2, 0.7) == l_term(1, 2, 0.7)

    def test_h_anchor(self):
        # m=1, k=1, b=0: 2^{-2} (sqrt(pi)/2) H_2(0) = -sqrt(pi)/4
        assert abs(h_term(1, 1, 0.0) + SQRT_PI / 4) <= 1e-15

    def test_transform_sum_frozen_brute(self):
        assert abs(transform_moment_sum(1, 1.0, False) - S_MONO_M1_B1) <= 1e-13

    def test_transform_sum_head_tail_split_stability(self):
        # the Hurwitz tail must agree with brute extension of the head
        for (m, b, alt) in [(1, 1.0, True), (2, math.pi, False)]:
            v = transform_moment_sum(m, b, alt)
            assert abs(v - _brute_transform_sum(m, b, alt)) <= 1e-12

    @pytest.mark.parametrize("alt", [True, False])
    @pytest.mark.parametrize("b", [0.5, math.pi, 2 * math.pi])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_transform_sum_matches_brute_reference(self, m, b, alt):
        assert abs(transform_moment_sum(m, b, alt) - _brute_transform_sum(m, b, alt)) <= 1e-12

    @pytest.mark.parametrize("m,k", [(1, 1), (2, 1), (1, 2)])
    def test_moment_transform_vs_quadrature(self, m, k):
        from wavepack.quadrature import integrate_decaying
        b = math.pi * k

        def f(x):
            xx = np.asarray(x, dtype=float)
            return xx ** (2 * m) * np.cos(2 * b * xx) / (np.exp(xx * xx) + 1.0)

        r = integrate_decaying(f, (0.0, math.inf), tol=1e-13,
                               decay=DecayBound(rate=0.5, power=2.0, scale=10.0),
                               osc_freq=2 * b)
        assert abs(r.value.real - fermi_moment_transform(m, b)) <= 1e-13

    def test_bose_moment_transform_vs_quadrature(self):
        from wavepack.quadrature import integrate_decaying
        m, b = 1, math.pi

        def f(x):
            xx = np.asarray(x, dtype=float)
            return xx ** (2 * m) * np.cos(2 * b * xx) / np.expm1(xx * xx)

        r = integrate_decaying(f, (0.0, math.inf), tol=1e-13,
                               decay=DecayBound(rate=0.5, power=2.0, scale=4.0),
                               osc_freq=2 * b)
        assert abs(r.value.real - bose_moment_transform(m, b)) <= 1e-13


def _brute_transform_sum(m, b, alt, J=200_000):
    """sum_{j<=J} (+-1)^{j-1} j^{-m-1/2} e^{-b^2/j} H_{2m}(b/sqrt(j)) plus its
    truncation tail, with numpy's Hermite series in place of wavepack's
    recurrence.  The tail is half the next term when alternating; when
    monotone it is the midpoint-rule integral over j > J in s = 1/j,
    int_0^{1/(J+1/2)} s^{m-3/2} e^{-b^2 s} H_{2m}(b sqrt(s)) ds."""
    coeffs = [0.0] * (2 * m) + [1.0]

    def terms(j):
        return j ** (-m - 0.5) * np.exp(-b * b / j) * hermval(b / np.sqrt(j), coeffs)

    j = np.arange(1, J + 1, dtype=float)
    if alt:
        head = math.fsum((np.where(j % 2 == 1, 1.0, -1.0) * terms(j)).tolist())
        tail = (-1.0) ** J * terms(J + 1.0) / 2.0
    else:
        head = math.fsum(terms(j).tolist())
        tail = quad(lambda u: u ** (m - 1.5) * math.exp(-b * b * u)
                    * hermval(b * math.sqrt(u), coeffs),
                    0.0, 1.0 / (J + 0.5), epsabs=0.0, epsrel=1e-12)[0]
    return head + tail


class TestLatticeSums:
    def test_fermi_m1_value(self):
        # direct summation freeze: 1/(e+1) + 4/(e^4+1) + 9/(e^9+1) + ...
        direct = sum(n * n / (math.exp(n * n) + 1.0) for n in range(1, 10))
        v = lattice_sum(LatticeSumSpec(1, "fermi"))
        assert abs(v.value - direct) <= 1e-15
        assert abs(v.value - 0.3419986133120372) <= 1e-14
        assert v.tail_estimate < 1e-16

    def test_bose_m1_value(self):
        direct = sum(n * n / math.expm1(n * n) for n in range(1, 10))
        v = lattice_sum(LatticeSumSpec(1, "bose"))
        assert abs(v.value - direct) <= 1e-15

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            LatticeSumSpec(0, "bose")
        with pytest.raises(DomainError):
            LatticeSumSpec(1, "boltzmann")

    def test_fermi_bose_summand_identity(self):
        # 1/(y-1) - 1/(y+1) = 2/(y^2-1) termwise
        for m in (1, 2, 3):
            bose = lattice_sum(LatticeSumSpec(m, "bose", n_max=12)).value
            fermi = lattice_sum(LatticeSumSpec(m, "fermi", n_max=12)).value
            double = sum(n ** (2 * m) * 2.0 / math.expm1(2.0 * n * n)
                         for n in range(1, 13))
            assert abs((bose - fermi) - double) <= 1e-14 * max(1.0, bose)


class TestZetaFromLattice:
    @pytest.mark.parametrize("m,stat", [(1, "fermi"), (2, "fermi"), (3, "fermi"),
                                        (1, "bose"), (2, "bose")])
    def test_extraction_matches_reference(self, m, stat):
        zv, corr = zeta_from_lattice(m, stat)
        assert abs(zv - zeta_half_reference(m)) <= 1e-8
        assert corr >= 0.0

    def test_correction_is_small_fraction(self):
        for m in (1, 2, 3):
            zv, corr = zeta_from_lattice(m, "fermi")
            L = lattice_sum(LatticeSumSpec(m, "fermi")).value
            assert corr < 0.2 * L  # exponentially suppressed double sum

    def test_calibration_recovers_frozen_constants(self):
        k0, k1 = calibrate_lattice_constants()
        assert abs(k0 - KAPPA0) <= 1e-9
        assert abs(k1 - KAPPA1) <= 1e-9

    def test_bose_m1_needs_boundary_term(self):
        # without the -f(0)/2 Poisson boundary term the m=1 bose case misses badly
        L = lattice_sum(LatticeSumSpec(1, "bose")).value
        corr = KAPPA1 * poisson_correction_sum(1, "bose")
        wrong = (L - corr) / (KAPPA0 * gamma_half(1))
        right = (L + 0.5 - corr) / (KAPPA0 * gamma_half(1))
        assert abs(right - zeta_half_reference(1)) <= 1e-10
        assert abs(wrong - zeta_half_reference(1)) > 0.1

    @pytest.mark.parametrize("stat", ["bose", "fermi"])
    def test_correction_stops_at_the_round_off_floor(self, monkeypatch, stat):
        # from k = 4 (bose) or 5 (fermi) on, the m = 1 transforms are below
        # the round-off of the lattice sum, so the sum stops before its 8th
        name = f"{stat}_moment_transform"
        real = getattr(zeta, name)
        calls = []
        monkeypatch.setattr(zeta, name, lambda m, a: calls.append(a) or real(m, a))
        poisson_correction_sum(1, stat)
        assert len(calls) < 8

    def test_values_pinned(self):
        for stat, values in ZETA_LATTICE_PINNED.items():
            for m, frozen in enumerate(values, start=1):
                assert abs(zeta_from_lattice(m, stat)[0] - frozen) <= 1e-14 * frozen

    def test_m_range(self):
        with pytest.raises(DomainError):
            zeta_from_lattice(0, "fermi")
        with pytest.raises(DomainError):
            zeta_from_lattice(7, "fermi")


class TestHermiteSumDerivativeConsistency:
    @pytest.mark.parametrize("b", [0.5, 1.0])
    def test_weighted_sum_is_series_derivative(self, b):
        m = 1
        lhs = transform_moment_sum(m, b, True)

        rhs = fd.derivative(lambda bb: glaisher_alternating_series(float(bb)).value,
                            b, 2 * m, h0=0.05, levels=4)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))


class TestPoisson:
    def test_self_dual_gaussian(self):
        f = lambda x: np.exp(-math.pi * np.asarray(x, dtype=float) ** 2)
        d = poisson_cosine_check(f, K=8, N=8, f0=1.0,
                                 decay=DecayBound(rate=math.pi, power=2.0, scale=1.0))
        assert d <= 1e-10

    def test_fermi_moment(self):
        f = lambda x: np.asarray(x, dtype=float) ** 2 / (np.exp(np.asarray(x, dtype=float) ** 2) + 1.0)
        d = poisson_cosine_check(f, K=3, N=8, f0=0.0,
                                 decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        assert d <= 1e-8

    def test_k_truncation_monotone(self):
        f = lambda x: np.asarray(x, dtype=float) ** 2 / (np.exp(np.asarray(x, dtype=float) ** 2) + 1.0)
        ds = [poisson_cosine_check(f, K=k, N=8, f0=0.0,
                                   decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
              for k in (0, 1, 2, 3)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(ds, ds[1:]))

    def test_unconverged_integral_raises(self, monkeypatch):
        # only the last cosine integral (k = K) reports failure
        real = zeta.integrate_decaying
        calls = []

        def last_unconverged(*args, **kwargs):
            calls.append(1)
            r = real(*args, **kwargs)
            return dataclasses.replace(r, converged=len(calls) < 4)

        monkeypatch.setattr(zeta, "integrate_decaying", last_unconverged)
        f = lambda x: np.asarray(x, dtype=float) ** 2 / (np.exp(np.asarray(x, dtype=float) ** 2) + 1.0)
        with pytest.raises(NonConvergenceError):
            poisson_cosine_check(f, K=3, N=8, f0=0.0,
                                 decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        assert len(calls) == 4
