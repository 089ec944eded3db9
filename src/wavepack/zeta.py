"""Half-integer zeta machinery: the alternating-Gaussian transform pair, the
Hermite-weighted lattice-sum terms, Poisson-summation verification, and
extraction of zeta(m + 1/2) from exponential lattice sums.

The reconciled lattice identity (fermi case, f(x) = x^{2m}/(e^{x^2}+1)):

    sum_{n>=1} n^{2m}/(e^{n^2}+1)
        = (1/2) Gamma(m+1/2) (1 - 2^{1/2-m}) zeta(m+1/2)
          + 2 (-1)^m sum_{k>=1} sum_{j>=1} h_{j,m}(pi k),

with kappa_0 = 1/2 (printed 1; the x^2 = u substitution Jacobian) and
kappa_1 = 2 applied to the signed transform sum: the (-1)^m arises from the
cosine moment of e^{-j x^2} and is part of the transform sum, keeping the
calibrated constants m-independent.  The bose analogue replaces the eta
factor by 1, h by l (no alternating sign), and carries the Poisson boundary
term -f(0)/2 = -1/2 at m = 1 (f(0) = 1 there; zero for m >= 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, NonConvergenceError
from .foundation import SeriesEval, alternating_series_cvz
from .hermite import hermite_eval
from .quadrature import DecayBound, integrate_decaying

SQRT_PI = math.sqrt(math.pi)

# Reconciled lattice-identity constants, calibrated once at (m=1, fermi) and
# asserted at every other (m, statistic) case by the test suite.
KAPPA0 = 0.5
KAPPA1 = 2.0
_POISSON_TERMS = 8     # exp(-2 pi k sqrt(pi/2)) decay: 8 reach far below double precision

# B_{2k}/(2k)!, k = 1..20: the Euler-Maclaurin coefficients of `_hurwitz_zeta`.
_EM_COEFFS = np.array((
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32,
))
_EM_2K = 2.0 * np.arange(1.0, len(_EM_COEFFS))[:, None]     # 2k, k = 1..19


@dataclass(frozen=True)
class LatticeSumSpec:
    m: int
    statistic: str          # fermi (+1 denominator) | bose (-1 denominator)
    n_max: int = 0          # 0 = choose from the tail bound

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError("m >= 1 required (m = 0 diverges in the bose case)")
        if self.statistic not in ("fermi", "bose"):
            raise DomainError("statistic must be fermi or bose")


_CVZ_K = np.arange(32.0)     # the zeta tails sum 32 terms: error ~ 5.83^-32


def dirichlet_eta(s: float) -> float:
    """eta(s) = sum (-1)^{n-1} n^{-s}, accelerated; valid for all s > 0."""
    if not (s > 0):
        raise DomainError("eta implemented for s > 0")
    return float(alternating_series_cvz((_CVZ_K + 1.0) ** -s))


def zeta_half_reference(m: int) -> float:
    """Reference zeta(m + 1/2) via the accelerated eta series, m >= 1."""
    if m < 1:
        raise DomainError("m >= 1 required")
    s = m + 0.5
    return dirichlet_eta(s) / (1.0 - 2.0 ** (1.0 - s))


def gamma_half(m: int) -> float:
    """Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!), exact-integer route."""
    if m < 0:
        raise DomainError("m >= 0 required")
    if m > 40:
        raise CapacityError("gamma_half capped at m <= 40")
    return math.factorial(2 * m) * SQRT_PI / (4.0**m * math.factorial(m))


# Tail orders.  Past the heads x = b^2/j0 < 1/3 (Gaussian series) or 1/4
# (transform sums) and each first power sum is below 1, so order q is at most
# x^q/q!, below 1e-17 from q = 14, or (m+1) max|E_i| x^p/(p-m)! with H_{2m}
# coefficients E_i (max 1.3e7 at m = 6), below 1e-20 from p = 23.
_ORDERS = np.arange(40.0)           # the catalogue settles by q = 12 and p = 16
_SIGNED_INV_FACTORIALS = np.cumprod(np.concatenate(([1.0], -1.0 / _ORDERS[1:])))   # (-1)^q/q!


def _power_tails(sigma0: float, x: float, j_from: int, alternating: bool) -> np.ndarray:
    """x^p sum_{j>=j_from} (+-1)^{j-1} j^{-sigma0-p} for p < 40: the CVZ weights on
    one (40 x 32) power matrix, or one `_hurwitz_zeta` call on all sigma0 + p."""
    sigma = sigma0 + _ORDERS
    if not alternating:
        return x ** _ORDERS * _hurwitz_zeta(sigma, float(j_from))
    sign = 1.0 if j_from % 2 else -1.0
    return x ** _ORDERS * sign * alternating_series_cvz((j_from + _CVZ_K) ** -sigma[:, None])


def _settled_sum(contribs: np.ndarray, scale: float, floor: float, what: str):
    """(sum of contribs[:q+1] in order, q, contribs[q]) at the first q >= 2 where
    contribs[q-1] and contribs[q] are both below floor * (1 + |scale|)."""
    small = np.abs(contribs) < floor * (1.0 + abs(scale))
    settled = np.flatnonzero(small[1:-1] & small[2:]) + 2
    if settled.size == 0:
        raise NonConvergenceError(f"{what} tail failed to settle")
    q = int(settled[0])
    return float(np.cumsum(contribs[:q + 1])[-1]), q, float(contribs[q])


def glaisher_alternating_series(b: float) -> SeriesEval:
    """The series side sum_{n>=1} (-1)^{n-1} e^{-b^2/n} / sqrt(n).

    The head is summed directly to N ~ 3 b^2; the tail exchanges e^{-b^2/n}
    with its exponential series, leaving alternating power sums, all orders
    from one `_power_tails` call (b^2/N < 1/3 keeps that exchange cancellation-
    free, unlike a global exchange, which loses ~ b^2/ln(10) digits).
    """
    n_head = max(24, int(3.0 * b * b) + 1)
    n = np.arange(1.0, n_head + 1.0)
    head = math.fsum((np.where(n % 2 == 1, 1.0, -1.0) * np.exp(-b * b / n) / np.sqrt(n)).tolist())
    contribs = _SIGNED_INV_FACTORIALS * _power_tails(0.5, b * b, n_head + 1, True)
    tail, q, contrib = _settled_sum(contribs, head, 1e-17, "alternating-Gaussian")
    return SeriesEval(value=head + tail, terms_used=n_head + q,
                      tail_estimate=abs(contrib) + 1e-16 * n_head)


def glaisher_alternating_gaussian(b: float, tol: float = 1e-11):
    """Both sides of the alternating-Gaussian transform identity:

        sum_{n>=1} (-1)^{n-1} e^{-b^2/n} / sqrt(n)
            = (2/sqrt(pi)) int_0^inf cos(2bx) / (1 + e^{x^2}) dx.

    Returns (series: SeriesEval from `glaisher_alternating_series`,
    integral: QuadratureResult).
    """
    def f(x):
        xx = np.asarray(x, dtype=float)
        return 2.0 / SQRT_PI * np.cos(2.0 * b * xx) / (1.0 + np.exp(xx * xx))

    integral = integrate_decaying(f, (0.0, math.inf), tol=tol,
                                  decay=DecayBound(rate=1.0, power=2.0, scale=2.0 / SQRT_PI),
                                  osc_freq=2.0 * abs(b))
    return glaisher_alternating_series(b), integral


def h_term(k: int, m: int, b: float) -> float:
    """h_{k,m}(b) = 2^{-2m} (sqrt(pi)/2) (-1)^{k-1} k^{-m-1/2} e^{-b^2/k} H_{2m}(b/sqrt(k)).

    Index convention (H_{2m}, k^{-m}) is the ledgered correction of the printed
    (H_m, n^{m/2}).
    """
    return (-1.0) ** (k - 1) * l_term(k, m, b)


def l_term(k: int, m: int, b: float) -> float:
    """The bose analogue of h_{k,m}: identical but without the alternating sign."""
    if k < 1 or m < 1:
        raise DomainError("k, m >= 1 required")
    return (4.0 ** (-m) * SQRT_PI / 2.0 * k ** (-m - 0.5)
            * math.exp(-b * b / k) * hermite_eval(2 * m, b / math.sqrt(k)).real)


def _hurwitz_zeta(sigma, a: float):
    """zeta(sigma, a) = sum_{n>=0} (a+n)^{-sigma}, sigma > 1 (scalar or array), a > 0.

    Euler-Maclaurin at a, after summing directly the terms below max(sigma, 16)
    (largest sigma); the bose tails of `transform_moment_sum` need none (a >= 65):

        a^{-sigma} [a/(sigma-1) + 1/2 + sum_k B_{2k}/(2k)! (sigma)_{2k-1} a^{1-2k}].

    With a >= max(sigma, 16) successive terms shrink like
    ((sigma+2k)/(2 pi a))^2, and the sum settles below 1e-17 of the bracket
    within 16 of the 20 tabulated coefficients for every sigma up to 200 (past
    that, a^{-sigma} underflows); each sigma stops at its own settled term.
    """
    shape = np.shape(sigma)
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    n_head = max(0, math.ceil(max(sigma.max(), 16.0) - a))
    head = np.power.outer(a + np.arange(n_head), -sigma).sum(axis=0)
    a += n_head
    # row k - 1: (sigma)_{2k-1} a^{1-2k}, the row above times (sigma+2k-3)(sigma+2k-2)/a^2
    steps = (sigma + _EM_2K - 1.0) * (sigma + _EM_2K) * (1.0 / (a * a))
    terms = _EM_COEFFS[:, None] * np.cumprod(np.vstack([sigma / a, steps]), axis=0)
    brackets = np.cumsum(np.vstack([a / (sigma - 1.0) + 0.5, terms]), axis=0)[1:]
    settled = np.abs(terms) < 1e-17 * brackets
    settled[-1] = True                   # none settled: the whole table
    bracket = brackets[settled.argmax(axis=0), np.arange(sigma.size)]
    return (head + bracket * a ** -sigma).reshape(shape)


def transform_moment_sum(m: int, b: float, alternating: bool) -> float:
    """S = sum_{j>=1} (+-1)^{j-1} j^{-m-1/2} e^{-b^2/j} H_{2m}(b/sqrt(j)).

    Head summed directly out to j ~ 4 b^2, its terms built as one array (one
    Hermite recurrence over all j); the tail expands e^{-b^2 u} H_{2m}(b sqrt(u))
    in powers of u = 1/j (integer powers only: H_{2m} is even), all orders
    from one `_power_tails` call; b^2/j0 < 1/4 keeps the expansion short and
    cancellation-free.
    """
    if m < 1:
        raise DomainError("m >= 1 required")
    j_direct = max(64, int(4.0 * b * b) + 1)
    j = np.arange(1, j_direct + 1, dtype=float)
    sign = np.where(j % 2 == 1, 1.0, -1.0) if alternating else 1.0
    head = (sign * j ** (-m - 0.5) * np.exp(-b * b / j)
            * hermite_eval(2 * m, b / np.sqrt(j)).real)
    s = math.fsum(head.tolist())
    # g_p = sum_i E_i (-1)^{p-i}/(p-i)! over the coefficients E_i of w^{2i} in H_{2m}(w)
    fact = math.factorial
    even = [(-1) ** (m - i) * 4**i * fact(2 * m) // (fact(m - i) * fact(2 * i))
            for i in range(m + 1)]
    g = np.convolve(even, _SIGNED_INV_FACTORIALS)[:len(_ORDERS)]
    contribs = g * _power_tails(m + 0.5, b * b, j_direct + 1, alternating)
    return s + _settled_sum(contribs, s, 1e-20, "transform-moment")[0]


def fermi_moment_transform(m: int, b: float) -> float:
    """int_0^inf x^{2m} cos(2bx)/(e^{x^2}+1) dx = (-1)^m sum_j h_{j,m}(b)."""
    return (-1.0) ** m * 4.0 ** (-m) * SQRT_PI / 2.0 * transform_moment_sum(m, b, True)


def bose_moment_transform(m: int, b: float) -> float:
    """int_0^inf x^{2m} cos(2bx)/(e^{x^2}-1) dx = (-1)^m sum_j l_{j,m}(b)."""
    return (-1.0) ** m * 4.0 ** (-m) * SQRT_PI / 2.0 * transform_moment_sum(m, b, False)


def lattice_sum(spec: LatticeSumSpec) -> SeriesEval:
    """Direct evaluation of sum_{n>=1} n^{2m} / (e^{n^2} +- 1)."""
    sign = 1.0 if spec.statistic == "fermi" else -1.0
    n_max = spec.n_max
    if n_max <= 0:
        n_max = 8
        while 2.0 * n_max ** (2 * spec.m) * math.exp(-n_max * n_max) > 1e-18:
            n_max += 1
    acc = 0.0
    for n in range(1, n_max + 1):
        acc += n ** (2 * spec.m) / (math.exp(n * n) + sign)
    tail = 2.0 * (n_max + 1) ** (2 * spec.m) * math.exp(-((n_max + 1) ** 2))
    return SeriesEval(value=acc, terms_used=n_max, tail_estimate=tail)


def poisson_correction_sum(m: int, statistic: str) -> float:
    """The signed double transform sum (-1)^m sum_k sum_j (h or l)_{j,m}(pi k)."""
    transform = fermi_moment_transform if statistic == "fermi" else bose_moment_transform
    acc = 0.0
    for k in range(1, _POISSON_TERMS + 1):
        term = transform(m, math.pi * k)
        acc += term
        # under the round-off of the lattice sum L >= 0.3 and of the transforms (~3e-18)
        if abs(term) < 1e-16 * (1.0 + abs(acc)):
            break
    return acc


def zeta_from_lattice(m: int, statistic: str = "fermi"):
    """Extract zeta(m + 1/2) from the exponential lattice sum.

    Returns (zeta_value, correction_sum) where correction_sum is the magnitude
    of the kappa_1-weighted Poisson transform sum.  Uses the reconciled
    constants KAPPA0 = 1/2 and KAPPA1 = 2 (printed identity has kappa_0 = 1
    and hides the (-1)^m inside an unsigned double sum), plus the bose m=1
    boundary term f(0)/2 = 1/2.
    """
    if not (1 <= m <= 6):
        raise DomainError("zeta_from_lattice supports m in 1..6")
    spec = LatticeSumSpec(m=m, statistic=statistic)
    L = lattice_sum(spec).value
    corr = KAPPA1 * poisson_correction_sum(m, statistic)
    boundary = 0.5 if (statistic == "bose" and m == 1) else 0.0
    eta_factor = (1.0 - 2.0 ** (0.5 - m)) if statistic == "fermi" else 1.0
    zeta_value = (L + boundary - corr) / (KAPPA0 * gamma_half(m) * eta_factor)
    return zeta_value, abs(corr)


def calibrate_lattice_constants():
    """Solve for (kappa_0, kappa_1) from the (m=1, fermi) and (m=2, fermi) cases.

    L_m = kappa_0 * Gamma(m+1/2)(1-2^{1/2-m}) zeta_ref(m+1/2) + kappa_1 * C_m
    is linear in the two constants; the calibration must land on (1/2, 2),
    which the suite then asserts across every other (m, statistic) case.
    """
    rows = []
    rhs = []
    for m in (1, 2):
        A = gamma_half(m) * (1.0 - 2.0 ** (0.5 - m)) * zeta_half_reference(m)
        C = poisson_correction_sum(m, "fermi")
        rows.append([A, C])
        rhs.append(lattice_sum(LatticeSumSpec(m=m, statistic="fermi")).value)
    sol = np.linalg.solve(np.array(rows), np.array(rhs))
    return float(sol[0]), float(sol[1])


def poisson_cosine_check(f, K: int, N: int, f0: float, decay: DecayBound,
                         tol: float = 1e-11) -> float:
    """|sum_{n=1}^N f(n) - (-f(0)/2 + int_0^inf f + 2 sum_{k<=K} fc(2 pi k))|.

    The cosine-form Poisson summation discrepancy for an even, smooth, rapidly
    decaying f; all integrals by the oracle, which must converge.
    """
    left = sum(float(np.real(np.asarray(f(np.array([float(n)]))).item())) for n in range(1, N + 1))
    base = integrate_decaying(f, (0.0, math.inf), tol=tol, decay=decay)
    right = -f0 / 2.0 + base.checked("Poisson-check integral").value.real
    for k in range(1, K + 1):
        wk = 2.0 * math.pi * k
        r = integrate_decaying(lambda z: np.asarray(f(z), dtype=complex) * np.cos(wk * np.asarray(z)),
                               (0.0, math.inf), tol=tol, decay=decay,
                               osc_freq=wk)
        right += 2.0 * r.checked(f"Poisson-check cosine integral k={k}").value.real
    return abs(left - right)
