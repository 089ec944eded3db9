"""Adaptive Gauss-Kronrod quadrature with declared-decay tail truncation, and
the zero-damping limit of a Gaussian-damped family of integrals.

This module is the independent numerical oracle: every closed form in the
package is validated against it.  Integrands are complex-valued callables that
accept a 1-D numpy array of nodes whose length is any multiple of 15 (the
nodes of several 15-node panels at once); an integrand may return one column
per node (scalar), m columns per node (m integrals over one shared panel set)
or those m columns as the two factors of a `FactoredTable`.  One call holds
at most _CELL_CAP stored cells, or a single panel.  The engine is
deterministic: panels are refined worst first, in generations of up to
_GENERATION_CAP panels chosen by the rule of scipy.integrate.quad_vec, with an
insertion-order tiebreak.

A declared `DecayBound` has one of three shapes, Gaussian, exponential or
root-exponential, and its tail integral is in closed form for each.

`regularized_limit` extrapolates I(delta) = int f(z) exp(-delta z^2) dz over
a fixed, strictly decreasing set of damping strengths polynomially to
delta = 0 (Neville): a settled-check, not a bound, so no packet takes it.
Gaussian damping is used rather than exponential damping because it
preserves the parity of the integrand.

Every amplitude integral of the oracle, w(z) exp(i x z - i tau z^2) on the
line or w(z) trig(x z) exp(-i tau z^2) on the half line, is `chirp_integral`:
the one builder of that integrand, its tail bound and its frequency lines.
At Re tau != 0, for an amplitude that declares a `SectorBound`, it turns the
line's two tails onto rays on which the chirp becomes a Gaussian decay
(numerical steepest descent: Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44,
2006), and `integrate_interval` takes the segment and both rays as `Piece`s
of one panel set, with complex nodes.
The zero-damping limit `integrate_oscillatory_regularized` is that half-line
integral at tau = -i delta.
`chirp_trapezoid` is the packet over an x-grid for an amplitude analytic on
a declared strip (`StripBound`): one trapezoid sum with an a-priori bound,
no adaptivity, so the oracle stays its independent check.
"""
from __future__ import annotations

import cmath
import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, NonConvergenceError
from .foundation import check_tau, golden_section_min

# 15-point Kronrod extension of 7-point Gauss: the QUADPACK dqk15 constants
# (Piessens et al., QUADPACK, 1983) to full double precision.  Truncated
# constants put a floor under |K15 - G7| on panels with large integrands.
# As in QUADPACK, each rule is listed from the outermost node in to the centre.
_XGK_HALF = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
             0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
             0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
             0.207784955007898467600689403773245, 0.0)
_WGK_HALF = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
             0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
             0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
             0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG_HALF = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_XGK = np.array([-v for v in _XGK_HALF[:-1]] + list(_XGK_HALF[::-1]))
_WGK = np.array(_WGK_HALF + _WGK_HALF[-2::-1])
_WG = np.array(_WG_HALF + _WG_HALF[-2::-1])
_GAUSS_IDX = slice(1, 15, 2)   # the G7 nodes among the K15 ones; a slice, so no copy

DEFAULT_BUDGET = 2_000_000
# Panels are pre-split until a 15-node panel spans at most 15/8 oscillation
# periods, i.e. at least 8 nodes per period of the local phase: a panel of
# width w is short enough where w omega <= _PANEL_PHASE.  Every presplit has
# at least 2**_MIN_DEPTH = 8 panels.
_PANEL_PHASE = (15.0 / 8.0) * 2.0 * math.pi
_MIN_DEPTH = 3
# One integrand call, and one refinement generation's children, hold at most
# this many stored cells: nodes x columns, or nodes x (G + B) for a
# FactoredTable.  Scalar calls gain nothing past 2,048 cells (136 panels); a
# 401-x psi grid's factors, 615 cells a panel, run fastest near 8,192 (13
# panels a call, 6 parents a generation), and slower again beyond it.
_CELL_CAP = 8192
# At most this many panels are split in one refinement generation, as in
# scipy.integrate.quad_vec (its parallel_count).
_GENERATION_CAP = 64
# Gaussian damping strengths of the zero-damping limit, strictly decreasing.
_DAMPING = tuple(0.01 * 0.5**k for k in range(7))

# Golden-section steps of the strip-width search of `chirp_trapezoid`: the
# bracket shrinks to 0.618^24 ~ 1e-5 of the strip, where the step is flat.
_STRIP_ITERS = 24

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    """Value, error estimate, cost and convergence flag of one integration.

    For a vector-valued integrand `value` and `abs_error_estimate` are arrays
    over its output columns and `converged` holds only if every column is
    within tol.  `evaluations` counts integration nodes (15 per panel), not
    nodes times columns, so a budget means the same for both shapes.

    `checked` is the one gate from a result to a number: every reader outside
    this module takes its value through it, so an unconverged result is
    always an error, never a silent value.
    """

    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool

    def checked(self, what: str) -> QuadratureResult:
        """This result if it converged, else NonConvergenceError naming `what`,
        the worst error estimate and the evaluation count."""
        if not self.converged:
            raise NonConvergenceError(
                f"{what} did not converge: worst error estimate "
                f"{_worst(self.abs_error_estimate):.3e} after {self.evaluations} evaluations")
        return self


def _upper_gamma(a: float, u: float) -> float:
    """The upper incomplete gamma function Gamma(a, u) = int_u^inf t^{a-1} e^{-t} dt
    at the three a = 1/power a `DecayBound` declares, each in closed form:
    Gamma(1/2, u) = sqrt(pi) erfc(sqrt u), Gamma(1, u) = e^{-u} and
    Gamma(2, u) = (1 + u) e^{-u}."""
    if a == 0.5:
        return _SQRT_PI * math.erfc(math.sqrt(u))
    if a == 1.0:
        return math.exp(-u)
    return (1.0 + u) * math.exp(-u)


@dataclass(frozen=True)
class DecayBound:
    """Caller-declared bound |f(z)| <= scale * exp(-rate * |z|^power) for |z| >= onset.

    power is one of the three shapes whose tail integral has a closed form:
    2 (Gaussian decay), 1 (exponential) or 0.5 (the exp(-rate sqrt(z))
    class); any other power is a DomainError.  An f bounded with some power
    p >= 1/2 declares the largest of the three not above p, with onset
    max(onset, 1): that bound holds too.  Only used for tail truncation, so
    loose bounds are safe; but a loose decay of phi bounds nothing of its
    transform's decay.
    """

    rate: float
    power: float = 2.0
    scale: float = 1.0
    onset: float = 0.0
    # truncation points already found, by eps
    _points: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.rate > 0) or not (self.scale > 0):
            raise DomainError("decay bound needs positive scale and rate")
        if self.power not in (2.0, 1.0, 0.5):
            raise DomainError(f"decay power must be 2, 1 or 0.5, got {self.power!r}")

    def tail_integral(self, T: float) -> float:
        """int_T^inf scale * exp(-rate z^power) dz = scale a rate^-a Gamma(a, u)
        with a = 1/power and u = rate T^power; `_upper_gamma` gives Gamma(a, u)
        in closed form."""
        if T < self.onset:
            return math.inf
        a = 1.0 / self.power
        u = self.rate * T**self.power
        return self.scale * a * self.rate ** (-a) * _upper_gamma(a, u)

    def truncation_point(self, eps: float) -> float:
        """Smallest convenient T with tail_integral(T) <= eps.

        T is the first rung of the ladder T_0 = max(1, onset, rate^(-1/power)),
        T_{k+1} = 1.25 T_k, k < 400, whose tail is within eps; the tail falls
        along the ladder, so the rung is found by galloping, then bisection.
        Each eps is searched once per bound.
        """
        if eps in self._points:
            return self._points[eps]
        ladder = [max(1.0, self.onset, (1.0 / self.rate) ** (1.0 / self.power))]

        def beyond(k):
            # tail_integral(T_k) > eps, building the ladder up to rung k
            while len(ladder) <= k:
                ladder.append(ladder[-1] * 1.25)
            return not self.tail_integral(ladder[k]) <= eps

        k = _first_false(beyond, 0, 400)
        if k == 400:
            raise DomainError("decay bound too weak to truncate the tail")
        self._points[eps] = ladder[k]
        return ladder[k]

    def times_const(self, c: float) -> "DecayBound":
        """A bound on c > 0 times this bound."""
        return replace(self, scale=self.scale * c)

    def times_poly(self, degree: int) -> "DecayBound":
        """A bound on |z|^degree times this bound: the rate is halved and the
        scale covers the maximum of |z|^degree exp(-rate |z|^power / 2)."""
        if degree == 0:
            return self
        r2 = self.rate / 2.0
        zstar = (degree / (r2 * self.power)) ** (1.0 / self.power)
        bump = zstar**degree
        return DecayBound(rate=r2, power=self.power, scale=self.scale * max(bump, 1.0),
                          onset=max(self.onset, zstar))

    def times_exp_growth(self, g: float) -> "DecayBound | None":
        """A bound on exp(g |z|) times this bound, or None where the decay
        cannot absorb the growth (power 0.5, or power 1 with rate <= g)."""
        if g == 0.0:
            return self
        if self.power > 1.0:
            # superlinear decay absorbs the growth past z*, at half the rate
            zstar = (2.0 * g / (self.rate * self.power)) ** (1.0 / (self.power - 1.0))
            return DecayBound(rate=self.rate / 2.0, power=self.power,
                              scale=self.scale * math.exp(g * (zstar + 1.0)),
                              onset=max(self.onset, 2.0 * zstar))
        if self.power == 1.0 and self.rate > g:
            return DecayBound(rate=self.rate - g, power=1.0, scale=self.scale, onset=self.onset)
        return None


def _log_erfcx(t: float) -> float:
    """log erfcx(t), erfcx(t) = exp(t^2) erfc(t), at t >= 0, or a bound above
    it: past t = 25, where erfc nears underflow, the bound 1/(t sqrt(pi))
    (within 1/(2 t^2) relative) stands for erfcx."""
    return t * t + math.log(math.erfc(t)) if t < 25.0 else -math.log(t * _SQRT_PI)


@dataclass(frozen=True)
class StripBound:
    """Caller-declared bound |phi(u + iy)| <= scale(a) exp(-rate |u - center|)
    for |y| <= a < a_max: phi is analytic on the strip |Im z| < a_max and
    decays exponentially along it (rate > 0) or is merely bounded on it
    (rate = 0).  `chirp_trapezoid` takes its error bound from it, so it must
    hold at every a below a_max."""

    a_max: float
    rate: float
    center: float
    scale: Callable[[float], float]

    def finite_mass(self, tau: complex) -> bool:
        """Whether the strip mass `log_mass` is finite at some a > 0: phi
        decays along the strip, or the packet is damped (Im tau < 0)."""
        return self.rate > 0 or tau.imag < 0

    def log_mass(self, a: float, tau: complex) -> float:
        """log M(a), a bound on int |phi(u + iy) exp(-i tau (u + iy)^2)| du
        at every |y| <= a, with a below a_max (and, at real tau, below
        rate/(2 |Re tau|)); inf where no such bound is finite.

        With r = 2 |Re tau|, d = max(-Im tau, 0) and the packet's
        |exp(-i tau z^2)| <= exp(r a |u| - d u^2 + |Im tau| a^2), the mass is
            M(a) = scale(a) exp(|Im tau| a^2 + min(rate, r a) |center|) I(k, d),
            I(k, d) = int exp(-k |v| - d v^2) dv,  k = rate - r a.
        For k >= 0, v = u - center with |u| <= |v| + |center| costs
        exp(r a |center|), and the rearrangement inequality (exp(-k |v|) is
        even and falling) moves the Gaussian from u to v; for k < 0,
        |u - center| >= |u| - |center| costs exp(rate |center|) and keeps
        the integral in u.  In closed form I = 2/k at d = 0 (infinite for
        k <= 0), and I = sqrt(pi/d) erfcx(k/(2 sqrt d)) at d > 0
        (`_log_erfcx`).
        """
        r, d = 2.0 * abs(tau.real), max(-tau.imag, 0.0)
        k = self.rate - r * a
        if d == 0.0:
            if k <= 0.0:
                return math.inf
            log_si = math.log(2.0 * self.scale(a) / k)
        else:
            log_si = (math.log(self.scale(a)) + 0.5 * math.log(math.pi / d)
                      + _log_erfcx(k / (2.0 * math.sqrt(d))))
        return log_si + abs(tau.imag) * a * a + min(self.rate, r * a) * abs(self.center)


@dataclass(frozen=True)
class SectorBound:
    """Caller-declared bound |phi(z)| <= scale(Z, theta) exp(-rate (|Re z| - Z))
    wherever |Re z| >= Z and |Im z| <= (|Re z| - Z) tan theta, for every
    Z >= z_min and 0 < theta <= pi/4: phi is analytic, with this bound, on
    the two sectors that open from +-Z.  scale returns None where no such
    bound holds.  `chirp_integral` turns the tails of the packet onto rays in these
    sectors and takes their length from this bound, so it must hold at every
    such Z and theta."""

    rate: float
    z_min: float
    scale: Callable[[float, float], float | None]


def packet_decay(amp, tau, eps: float, grow: float = 0.0) -> DecayBound | None:
    """Tail bound of |phi(z) exp(-i tau z^2)| exp(grow |z|), or None.

    Of the amplitude's declared `decay` and, at Im(tau) < 0, the damping
    exp(Im(tau) z^2) at that decay's scale, each times exp(grow |z|) where
    it can absorb that, the bound that truncates first at eps (None if none can).
    """
    decay: DecayBound = amp.decay
    bounds = [decay]
    if complex(tau).imag < 0:
        bounds.append(DecayBound(rate=-complex(tau).imag, power=2.0, scale=decay.scale))
    grown = [b for b in (d.times_exp_growth(grow) for d in bounds) if b is not None]
    if len(grown) < 2:
        return grown[0] if grown else None
    return min(grown, key=lambda d: d.truncation_point(eps))


@dataclass(frozen=True, slots=True)
class FactoredTable:
    """An integrand value of m columns stored as two factors: with B the width
    of `right`, column k = a B + b (k < m) at node j is left[j, a] right[j, b].

    An integrand may return one in place of its (nodes, m) array; the rule is
    then applied to the factors, and the nodes x m table is never built.
    """

    left: np.ndarray    # (nodes, G), G B >= m
    right: np.ndarray   # (nodes, B)
    m: int


def _factored_rule(w, left, right, m: int):
    """sum_j w_j left[p, j, a] right[p, j, b] of every panel p, as (P, G B)
    cut to the first m columns: one batched matmul."""
    return ((w[:, None] * left).transpose(0, 2, 1) @ right).reshape(len(left), -1)[:, :m]


def _eval_panels(f, spans, width: int = 0, paths=None):
    """K15 values, |K15 - G7| errors and heap keys of the panels (lo, hi) in
    `spans`, plus the integrand's stored width.

    Each integrand call gets the nodes of consecutive panels as one 1-D array,
    15 per panel, and holds as many panels as fit in _CELL_CAP stored cells:
    nodes x m for an array value, nodes x (G + B) for a `FactoredTable`, whose
    factors the rules are applied to.  A panel with more cells than that gets
    a call of its own; width=0 means the width is not known yet, so the first
    call holds a single panel.  Values and errors of a scalar integrand come
    back as complex and float, those of a vector integrand as arrays of shape
    (m,); the key is the worst column.  `paths` is None where every panel is
    on the real line (z = t), else each panel's (origin, direction) of its
    `Piece`: its nodes are then z = origin + direction t, and its rule
    carries dz = direction dt.
    """
    vals, errs, keys = [], [], []
    start = 0
    while start < len(spans):
        count = min(len(spans) - start, max(1, _CELL_CAP // (15 * width)) if width else 1)
        if count == 1:
            # a lone panel, often a wide one, skips the array bookkeeping
            lo, hi = spans[start]
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes = c + h * _XGK
            if paths is not None:
                origin, direction = paths[start]
                nodes, h = origin + direction * nodes, h * direction
            fv = f(nodes)
        else:
            lo, hi = np.array(spans[start:start + count]).T[:, :, None]
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes = c + h * _XGK
            if paths is not None:
                origin, direction = np.array(paths[start:start + count]).T[:, :, None]
                nodes, h = origin + direction * nodes, h * direction
            fv = f(nodes.ravel())
        start += count
        if isinstance(fv, FactoredTable):
            width = fv.left.shape[1] + fv.right.shape[1]
            left = fv.left.reshape(count, 15, -1)
            right = fv.right.reshape(count, 15, -1)
            k15 = h * _factored_rule(_WGK, left, right, fv.m)
            diff = k15 - h * _factored_rule(_WG, left[:, _GAUSS_IDX], right[:, _GAUSS_IDX], fv.m)
        else:
            fv = np.asarray(fv, dtype=complex)
            panels = fv.reshape(15, -1) if count == 1 else fv.reshape(count, 15, -1)
            width = panels.shape[-1]
            # panels is (P, 15, m), or (15, m) for a lone panel; one matmul per
            # rule is bitwise what _WGK @ fv gives panel by panel
            k15 = h * (_WGK @ panels)
            diff = k15 - h * (_WG @ panels[..., _GAUSS_IDX, :])
            if fv.ndim == 1:
                # abs() of a complex scalar is libm hypot, which numpy's vector
                # abs can miss by an ulp: hypot keeps scalar estimates bitwise
                vals += k15.ravel().tolist()
                errs += np.hypot(diff.real, diff.imag).ravel().tolist()
                continue
            k15, diff = k15.reshape(count, -1), diff.reshape(count, -1)
        err = np.abs(diff)
        vals += list(k15)
        errs += list(err)
        keys += err.max(axis=1).tolist()
    return vals, errs, keys or errs, width


def _freq_bound(osc_freq):
    """(flat, rising, falling) of a declared frequency bound: its largest
    constant (at least 0) and its lines of positive and of negative slope."""
    flat, rising, falling = 0.0, [], []
    if osc_freq is None:
        return flat, rising, falling
    if isinstance(osc_freq, (tuple, list)):
        lines = osc_freq
    elif callable(osc_freq):
        raise TypeError("osc_freq is declared, not called: give None, a constant, or "
                        "(intercept, slope) lines whose maximum bounds the local phase frequency")
    else:
        lines = ((osc_freq, 0.0),)
    for c, s in lines:
        if not (math.isfinite(c) and math.isfinite(s)):
            raise DomainError("a frequency bound line must be finite")
        if s > 0.0:
            rising.append((c, s))
        elif s < 0.0:
            falling.append((c, s))
        elif c > flat:
            flat = c
    return flat, rising, falling


def _first_false(holds, k: int, n: int) -> int:
    """First j in range(n) where `holds` fails (n if none), for `holds` true
    on a prefix of range(n): galloping out from the guess k, then bisection.
    A right guess costs two calls."""
    k = min(max(k, 0), n)
    step = 1
    if k < n and holds(k):
        lo = k
        while lo + step < n and holds(lo + step):
            lo, step = lo + step, 2 * step
        hi = min(lo + step, n)
    else:
        hi = k
        while hi - step >= 0 and not holds(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(hi - step, -1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _presplit(a: float, b: float, osc_freq, max_panels: int):
    """Dyadic panels of [a, b], each spanning <= 15/8 periods of the local phase.

    `osc_freq` declares a convex majorant of the local phase frequency: None
    (no oscillation), a constant, or (intercept, slope) lines, with
    omega(z) = max(0, c_i + s_i z).  At depth d the cells have width
    w = (b - a)/2^d and midpoints m_k = a + (k + 1/2) w.  From depth 3 on
    (at least 8 panels, against the single-panel deception where Gauss and
    Kronrod agree by accident) cell k is a leaf iff not (w > K/omega(m_k)),
    K = (15/8) 2 pi, and every other cell is halved.  As omega is convex, a
    depth's leaves are the cells where omega <= K/w: one index range, found
    from the lines in closed form and confirmed by the lines at its two ends, so
    a depth costs O(lines) whatever its panel count.  Where the full split
    would exceed max_panels it stops at the deepest depth whose panels fit.
    """
    flat, rising, falling = _freq_bound(osc_freq)

    def leaf(lines, k):
        # the leaf test of cell k at width w, on the lines' maximum at m_k
        m = a + (k + 0.5) * w
        v = max([c + s * m for c, s in lines])
        return v <= 0.0 or not (w > _PANEL_PHASE / v)

    d = min(_MIN_DEPTH, max(max_panels, 1).bit_length() - 1)
    n = 1 << d
    runs_lo, runs_hi = [], []     # leaf runs (depth, first, stop), shallowest first
    count = 0
    live_lo = live_hi = n         # live cells of this depth: [0, live_lo) and [live_hi, n)
    while d >= _MIN_DEPTH:
        w = math.ldexp(b - a, -d)
        t = _PANEL_PHASE / w
        keep_lo, keep_hi = live_lo, live_hi   # cells halved: [0, keep_lo) and [keep_hi, n)
        if flat <= 0.0 or not (w > _PANEL_PHASE / flat):
            # the leaves are the cells [first, stop) where no rising and no
            # falling line exceeds K/w; each end from the lines' crossings of t
            gap = live_lo < live_hi
            first, stop = 0, n
            if rising and (live_hi < n or not gap):
                x = (min([(t - c) / s for c, s in rising]) - a) / w - 0.5
                stop = _first_false(lambda k: leaf(rising, k),
                                    n if not x < n else 0 if not x >= 0 else int(x) + 1, n)
            if falling and live_lo > 0:
                y = (max([(t - c) / s for c, s in falling]) - a) / w - 0.5
                first = _first_false(lambda k: not leaf(falling, k),
                                     0 if not y > 0 else n if not y < n else math.ceil(y), n)
            if gap:
                # the gap holds an earlier leaf, so the live cells left of it
                # pass every rising line and those right of it every falling one
                keep_lo, keep_hi = min(live_lo, first), max(live_hi, stop)
            elif first < stop:
                keep_lo, keep_hi = first, stop
        split = keep_lo + n - keep_hi
        leaves = (live_lo - keep_lo) + (keep_hi - live_hi)
        if split == 0 or count + leaves + 2 * split > max_panels:
            break
        if live_lo == live_hi:
            runs_lo.append((d, keep_lo, keep_hi))
        else:
            runs_lo.append((d, keep_lo, live_lo))
            runs_hi.append((d, live_hi, keep_hi))
        count += leaves
        live_lo, live_hi, n, d = 2 * keep_lo, 2 * keep_hi, 2 * n, d + 1
    # the live cells of the last depth are leaves
    runs_lo.append((d, 0, live_lo))
    runs_hi.append((d, live_hi, n))
    out = []
    for d, first, stop in runs_lo[::-1] + runs_hi:
        if first < stop:
            w = math.ldexp(b - a, -d)
            ends = [a + j * w for j in range(first, stop + 1)]
            if first == 0:
                ends[0] = a
            if stop == 1 << d:
                ends[-1] = b
            out += zip(ends, ends[1:])
    return out


def _result(value, err, evaluations: int, converged: bool) -> QuadratureResult:
    """Scalar results as complex/float, vector results as arrays."""
    if np.ndim(value):
        return QuadratureResult(np.asarray(value, dtype=complex), np.asarray(err, dtype=float),
                                evaluations, bool(converged))
    return QuadratureResult(complex(value), float(err), evaluations, bool(converged))


def _worst(err) -> float:
    return float(np.max(err))


@dataclass(frozen=True, slots=True)
class Piece:
    """One straight piece of a contour, z = origin + direction t for
    a <= t <= b with |direction| = 1, and the declared frequency of the
    integrand along it, in t (the `osc_freq` of `integrate_interval`).  The
    real interval [a, b] is Piece(a, b, osc_freq)."""

    a: float
    b: float
    osc_freq: object = None
    origin: complex = 0.0
    direction: complex = 1.0


def integrate_interval(f, a, b: float | None = None, tol: float = 1e-10,
                       budget: int = DEFAULT_BUDGET, osc_freq=None) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of a complex integrand on [a, b], or
    along a contour of straight pieces: `a` a list of `Piece`s, b None.

    f maps a 1-D node array, of any length that is a multiple of 15, to values
    of the same length (scalar integrand), of shape (length, m) (m integrands
    sharing one panel set) or a `FactoredTable` of m columns.  On a contour
    the nodes are complex, z = origin + direction t, and each panel's rule
    carries dz = direction dt.  One call covers many panels, of any pieces:
    the presplit panels go in calls of at most _CELL_CAP stored cells
    (nodes x m, or nodes x (G + B) for a `FactoredTable`).  Refinement then
    runs in generations over the one heap of every piece's panels: the worst
    panels are taken until their summed errors exceed total_err - tol (the
    rule of scipy.integrate.quad_vec), at most _GENERATION_CAP panels and
    _CELL_CAP stored cells of children per generation, and the children go in
    as few calls as those cells allow.  Panels are refined worst column first
    until every column's error is <= tol; a panel narrower than 1e-14 of its
    piece is not split.  `evaluations` counts z-nodes, 15 per panel, whatever
    m is, and the budget covers every piece.

    `osc_freq` (on [a, b]; a `Piece` carries its own, in its t) declares a
    convex majorant omega(t) of the local phase frequency of f: None (no
    oscillation), a constant, or a sequence of (intercept, slope) lines with
    omega(t) = max(0, c_i + s_i t); a callable is a TypeError.  `_presplit`
    sizes each piece's starting panels from it in closed form, out of an
    equal share of half the budget's panels, so an omega below the true
    frequency leaves more to refinement and one above it costs more starting
    panels.
    """
    pieces = [Piece(a, b, osc_freq)] if b is not None else list(a)
    if not all(p.b > p.a for p in pieces):
        raise DomainError("empty or inverted interval")
    if tol < 1e-13:
        raise DomainError("tolerance below 1e-13 is not attainable in doubles")
    max_panels = max(budget // 15, 4)
    spans, where = [], []
    for k, p in enumerate(pieces):
        split = _presplit(p.a, p.b, p.osc_freq, max_panels // (2 * len(pieces)))
        spans += split
        where += [k] * len(split)
    paths = (None if all(p.origin == 0.0 and p.direction == 1.0 for p in pieces)
             else [(p.origin, p.direction) for p in pieces])

    def evaluate(spans, where, width):
        # a contour's panels carry their pieces' maps; the line's have none
        if paths is None:
            return _eval_panels(f, spans, width)
        return _eval_panels(f, spans, width, [paths[k] for k in where])

    vals, errs, keys, width = evaluate(spans, where, 0)
    heap = [(-key, i, lo, hi, k, val, err)
            for i, ((lo, hi), k, val, err, key) in enumerate(zip(spans, where, vals, errs, keys))]
    heapq.heapify(heap)
    counter = len(heap)
    evals = 15 * len(heap)
    narrow = [1e-14 * (p.b - p.a) for p in pieces]
    total = 0j
    total_err = 0.0
    for val, err in zip(vals, errs):
        total += val
        total_err += err
    scalar = np.ndim(total_err) == 0
    per_gen = min(_GENERATION_CAP, max(1, _CELL_CAP // (30 * width)))
    worst = total_err if scalar else total_err.max()
    while worst > tol and evals + 30 <= budget:
        parents = []
        err_sum = 0.0
        while (heap and len(parents) < per_gen and evals + 30 * (len(parents) + 1) <= budget
               and (not parents or err_sum <= worst - tol)
               and heap[0][3] - heap[0][2] >= narrow[heap[0][4]]):
            parents.append(heapq.heappop(heap))
            err_sum -= parents[-1][0]
        if not parents:
            break
        spans, where = [], []
        for _, _, lo, hi, k, _, _ in parents:
            mid = 0.5 * (lo + hi)
            spans += ((lo, mid), (mid, hi))
            where += (k, k)
        vals, errs, keys, _ = evaluate(spans, where, width)
        evals += 15 * len(spans)
        for j, (_, _, _, _, k, val, err) in enumerate(parents):
            total += (vals[2 * j] + vals[2 * j + 1]) - val
            total_err += (errs[2 * j] + errs[2 * j + 1]) - err
            for i in (2 * j, 2 * j + 1):
                heapq.heappush(heap, (-keys[i], counter, *spans[i], k, vals[i], errs[i]))
                counter += 1
        worst = total_err if scalar else total_err.max()
    return _result(total, total_err, evals, _worst(total_err) <= tol)


def integrate_decaying(f, domain=(0.0, math.inf), tol: float = 1e-10,
                       decay: DecayBound | None = None, budget: int = DEFAULT_BUDGET,
                       osc_freq=None) -> QuadratureResult:
    """Integrate an absolutely convergent integrand over [0, inf) or (-inf, inf).

    The caller declares the decay of |f| via `decay`.  The range is truncated
    at the T where the declared tail bound drops below tol/10, and one panel
    set covers [0, T] or [-T, T] with the whole budget and a tolerance of
    max(tol - tails, tol/2, 1e-13).  The tails (one per side) are folded into
    the error estimate.  On the line the first bisection falls at exactly 0,
    so z = 0 stays a panel boundary.  `osc_freq` declares a convex majorant of
    the local phase frequency over the truncated range, in the form
    `integrate_interval` takes.
    """
    lo, hi = domain
    if hi != math.inf or lo not in (0.0, -math.inf):
        raise DomainError(f"unsupported domain {domain!r}: use (0, inf) or (-inf, inf)")
    if decay is None:
        raise DomainError("infinite domains require a declared DecayBound")
    T = decay.truncation_point(tol / 10.0)
    tail = (1.0 if lo == 0.0 else 2.0) * decay.tail_integral(T)
    inner = integrate_interval(f, max(lo, -T), T, tol=max(tol - tail, tol / 2, 1e-13),
                               budget=budget, osc_freq=osc_freq)
    err = inner.abs_error_estimate + tail
    return _result(inner.value, err, inner.evaluations, inner.converged and _worst(err) <= tol)


def neville_extrapolate(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x=0; returns (value, residual).

    The residual is the difference between the last two extrapolation
    diagonals, the usual a-posteriori estimate for Neville tables.  Each y may
    be a scalar or an array; arrays are extrapolated elementwise.
    """
    t = [np.asarray(y, dtype=complex) if np.ndim(y) else complex(y) for y in ys]
    n = len(t)
    if n == 1:
        return t[0], abs(t[0])
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * xs[i] / (xs[i - j] - xs[i])
    return t[n - 1], abs(t[n - 1] - t[n - 2])


def regularized_limit(evaluate, tol: float) -> QuadratureResult:
    """Zero-damping limit of a damped family of integrals.

    evaluate(delta) returns the QuadratureResult of the integral damped by
    strength delta; it is called once per strength of the fixed schedule
    0.01 * 2^-k, k = 0..6.  The values are extrapolated polynomially to
    delta = 0 (Neville), one diagonal per added strength.  The error estimate
    is the last diagonal's residual plus the worst inner quadrature error.
    The result converges only if every inner quadrature converged, the
    residuals settled (the last is within 4x the smallest, or within tol) and
    the estimate is within tol, so an erratic sequence is reported as
    non-convergence rather than as a silent wrong answer.  Values are scalars.
    """
    inner = [evaluate(d) for d in _DAMPING]
    vals = [r.value for r in inner]
    diagonals = [neville_extrapolate(_DAMPING[: k + 1], vals[: k + 1])
                 for k in range(1, len(_DAMPING))]
    value, last = diagonals[-1]
    settled = last <= max(4.0 * min(res for _, res in diagonals), tol)
    err = last + max(r.abs_error_estimate for r in inner)
    ok = all(r.converged for r in inner) and settled and err <= tol
    return _result(value, err, sum(r.evaluations for r in inner), ok)


def integrate_oscillatory_regularized(amp, x: float, tol: float = 1e-8) -> QuadratureResult:
    """Zero-damping limit of int_0^inf phi(z) cos(x z) dz at a real x.

    I(delta) = int_0^inf phi(z) cos(x z) exp(-delta z^2) dz is exactly the
    half-line `chirp_integral` at tau = -i delta, so each I(delta) takes that
    builder's integrand, frequency lines and tail bound: `packet_decay`'s,
    the declared decay or the damping at that decay's scale.  Each gets a
    seventh of the default budget and tol/20 (at least 2e-13), and
    `regularized_limit` extrapolates to delta = 0 and gives the verdict.
    """
    return regularized_limit(
        lambda d: chirp_integral(amp, x, -1j * d, max(tol / 20.0, 2e-13),
                                 DEFAULT_BUDGET // len(_DAMPING), trig=np.cos), tol)


def _real_array(x) -> np.ndarray:
    """x as a float array; DomainError unless it is a non-empty 1-D real array."""
    xs = np.asarray(x)
    if xs.ndim != 1 or xs.size == 0 or (np.iscomplexobj(xs) and np.any(xs.imag != 0)):
        raise DomainError("array x must be a non-empty 1-D real array")
    return np.real(xs).astype(float)


def _phase_block(xs: np.ndarray) -> tuple[int, float]:
    """Block size B and spacing h of the factored exp(i z x) table of `chirp_integral`:
    with k = a B + b, exp(i z x_k) is exp(i z (x_0 + a B h)) exp(i z b h).

    With h = (x_{n-1} - x_0)/(n - 1), an x whose every point is within
    4 ulps of max |x| of x_0 + k h (ascending or descending) is evenly
    spaced and gets B = round(sqrt(n)); any other x, and n = 1, gets B = 1.
    """
    n = xs.size
    if n < 2:
        return 1, 0.0
    h = (xs[-1] - xs[0]) / (n - 1)
    spread = np.max(np.abs(xs - (xs[0] + h * np.arange(n))))
    if spread > 4.0 * np.finfo(float).eps * np.max(np.abs(xs)):
        return 1, 0.0
    return round(math.sqrt(n)), float(h)


def _powers(first, ratio: np.ndarray, k: int) -> np.ndarray:
    """(nodes, k) array whose column a is first ratio^a, by cumulative product:
    its rounding grows like a eps, the order of a direct exp(i z x)'s |z x| eps."""
    out = np.empty((ratio.size, k), dtype=complex)
    out[:, 0] = first
    out[:, 1:] = ratio[:, None]
    return np.multiply.accumulate(out, axis=1, out=out)


def _phase_table(lead: np.ndarray, z: np.ndarray, m: int, block: int, h: float) -> FactoredTable:
    """The m columns lead exp(i z k h), k < m, at nodes z as the two factors of
    `_phase_block`: G = ceil(m/B) giant steps from `lead`, B baby steps from 1."""
    return FactoredTable(_powers(lead, np.exp(1j * (block * h) * z), math.ceil(m / block)),
                         _powers(1.0, np.exp(1j * h * z), block), m)


# Newton steps of `_ray_length` at most: each lands at or beyond the root.
_RAY_STEPS = 8
# Each ray of `_rotated_contour` ends where its tail bound is this share of
# tol.  The bound is nearly tight (the sector bound and the chirp's modulus
# are exact up to a constant), where the line's tail bound is loose by orders
# of magnitude; a tol/20 ray moved catalogue values by up to 4e-12 relative,
# this share keeps them within 1e-14 for 0.1% more evaluations.
_RAY_SHARE = 5e-5


def _ray_length(log_scale: float, b: float, c: float, log_eps: float):
    """(S, log tail) with S >= 0 near the least S where the tail
    scale int_S^inf exp(b s - c s^2) ds, c > 0, is within eps (S = 0 where
    the whole ray's is), and the log of that tail at S; None if no step
    reaches it.

    In logs, so nothing overflows at small c:
        int_S^inf exp(b s - c s^2) ds = exp(b S - c S^2) sqrt(pi)/(2 sqrt c) erfcx(u),
    u = (2 c S - b)/(2 sqrt c) (`_log_erfcx`).  The integrand is log-concave,
    so its tail integral is too (Prekopa): F(S), the log of the tail, is
    concave and falling, with F'(S) = -2 sqrt(c/pi)/erfcx(u).  Newton's step
    from any S then lands where F is within log eps, as the tangent lies
    above F, and from there every step falls back towards the root.
    """
    log_half_gauss = math.log(_SQRT_PI / (2.0 * math.sqrt(c)))

    def tail(S):
        u = (2.0 * c * S - b) / (2.0 * math.sqrt(c))
        return log_scale + b * S - c * S * S + log_half_gauss + _log_erfcx(u), u

    S, (value, u) = 0.0, tail(0.0)
    if value <= log_eps:
        return S, value
    for _ in range(_RAY_STEPS):
        step = (value - log_eps) * math.exp(log_half_gauss + _log_erfcx(u))
        if value <= log_eps and -step <= 1e-3 * S:
            break
        S += step
        value, u = tail(S)
    return (S, value) if value <= log_eps else None


def _rotated_contour(sector: SectorBound, x: float, tau: complex, lines, eps: float, T: float):
    """The pieces of [-Z, Z] and two rays z = +-Z + e^{-i theta} s, and the
    summed bound on the two tails past the rays' ends, or None where the
    contour reaches no nearer than T or `sector` gives no bound.

    theta = atan2(Re tau, -Im tau)/2, in (0, pi/4] for Re tau > 0 and its
    mirror in [-pi/4, 0) for Re tau < 0, makes the s^2 coefficient of
    i x z - i tau z^2 exactly -|tau| on both rays: the chirp is gone, and
    each ray's phase has the constant frequency of its linear term.  That
    term's real part, |x| sin|theta| - 2 Z (|Re tau| sin|theta| + |Im tau|
    cos theta) at its worse sign of x, is <= 0 for
        Z = max(|x| sin|theta| / (2 (|Re tau| sin|theta| + |Im tau| cos theta)), z_min),
    and on a ray |Re z| - Z = |s| cos theta, so with the sector bound
        |integrand| <= M exp(Im(tau) Z^2 + b |s| - |tau| s^2),
    b = (that real part) - rate cos theta.  Each ray ends at its
    `_ray_length` for eps, and the contour is taken only where both ends
    fall short of the line's truncation point T.

    Cauchy's theorem moves each tail of the line onto its ray: phi is
    analytic on the wedge between them, and on the arc |z -+ Z| = R of the
    wedge, at angle phi' in [0, |theta|], the s^2 coefficient is
    -|tau| cos(2 |theta| - 2 phi') <= 0, the linear one is <= 0 (as
    sin phi'/(|Re tau| sin phi' + |Im tau| cos phi') rises with phi'), and
    the sector bound falls like exp(-rate R cos theta), faster than the arc
    grows.  The segment keeps the line's frequency `lines`; each ray
    declares the constant frequency of its linear term.
    """
    theta = 0.5 * math.atan2(tau.real, -tau.imag)
    sin_t, cos_t = abs(math.sin(theta)), math.cos(theta)
    Z = max(abs(x) * sin_t / (2.0 * (abs(tau.real) * sin_t + abs(tau.imag) * cos_t)),
            sector.z_min)
    M = sector.scale(Z, abs(theta)) if Z < T else None
    if M is None:
        return None
    d = cmath.exp(-1j * theta)
    # M underflows to 0 far out, where the rays add nothing
    log_scale = (math.log(M) if M > 0.0 else -math.inf) + tau.imag * Z * Z
    pieces, tails = [Piece(-Z, Z, lines)], 0.0
    for side in (-1.0, 1.0):
        # the exponent's coefficient of |s| on the ray from side Z
        lin = side * 1j * x * d - 2j * tau * Z * d
        ray = _ray_length(log_scale, lin.real - sector.rate * cos_t, abs(tau), math.log(eps))
        if ray is None:
            return None
        S, log_tail = ray
        if Z + S >= T:
            return None
        tails += math.exp(log_tail)
        if S > 0.0:
            span = (-S, 0.0) if side < 0 else (0.0, S)
            pieces.append(Piece(*span, abs(lin.imag), origin=side * Z, direction=d))
    return pieces, tails


def chirp_integral(amp, x, tau, tol: float = 1e-10, budget: int = DEFAULT_BUDGET, n: int = 0,
                   trig=None, weight=None, scale: float = 1.0) -> QuadratureResult:
    """int w(z) exp(i x z - i tau z^2) dz on the line, or with trig (np.cos or
    np.sin) int_0^inf w(z) trig(x z) exp(-i tau z^2) dz on the half line: the
    one integral behind the packet, its x-derivatives, the bare transforms
    and the Hermite rearrangement.

    w is phi(z) z^n, or weight(z) where given; `amp` is callable on node
    arrays, with a declared `decay` DecayBound.  The tail bound is
    `packet_decay(amp, tau, tol/10, |Im x|)` times `scale` and |z|^n, so it
    must bound a weight too.  With that bound one panel set covers [-T, T]
    or [0, T] (`integrate_decaying`).  At real tau a complex x whose growth
    exp(|Im x| |z|) the declared decay cannot absorb has no bound, and is a
    DomainError.

    x is a scalar, complex allowed on the line (the bound absorbs its
    exp(|Im x| |z|)), or a 1-D real array whose points share one panel set;
    `value` and `abs_error_estimate` are then arrays over x, and `converged`
    holds only if every point is within tol.  On the line an evenly spaced x
    gets the factored exp(i z x) table of `_phase_block` and `_powers` (3
    complex exponentials a node, column k at x_0 + k h, within a few ulps of
    x_k), any other x the direct table.  The half line keeps real nodes, and
    at tau = 0 skips the chirp factor, which is 1 there.

    At a real scalar x, Re tau != 0 and n = 0, without trig or weight, an
    amplitude that declares a `sector` (`SectorBound`) takes the rotated
    contour of `_rotated_contour` where its rays end short of T: [-Z, Z] and
    two rays on which the chirp is a Gaussian decay, one `Piece` list in one
    `integrate_interval` call (one heap, one budget), with tol less the rays'
    summed tail bound, which joins the error estimate.  Cauchy's theorem
    only moves the contour of the same integral, so the result is still the
    oracle's.  Every other call keeps the line.

    The one frequency declaration is the chirp's local phase frequency
    |x - 2 Re(tau) z| + 2 |Im tau| |z| at its worst over [x_lo, x_hi], the
    range of x ([-max |x|, max |x|] on the half line, where trig(x z) holds
    both signs of x): convex, and exactly the maximum of four lines.  The
    envelope term 2 |Im tau| |z| adds no oscillation, but it keeps the psi
    paths bitwise what they were; dropping it is a change of its own, to be
    measured.
    """
    tau = check_tau(tau)
    if np.ndim(x):
        xs = _real_array(x)
        x_lo, x_hi, grow = float(xs.min()), float(xs.max()), 0.0
    else:
        xs = complex(x)
        x_lo = x_hi = xs.real
        grow = abs(xs.imag)
    if trig is not None:
        if grow > 0:
            raise DomainError("the half line needs a real x")
        xs, x_lo, x_hi = np.real(xs), -max(-x_lo, x_hi), max(-x_lo, x_hi)
    block, h = _phase_block(xs) if np.ndim(xs) and trig is None else (1, 0.0)

    def f(z):
        zz = np.asarray(z, dtype=complex if trig is None else float)
        w = np.asarray(amp(zz) if weight is None else weight(zz), dtype=complex)
        if n and weight is None:
            w = w * zz**n
        if block > 1:
            return _phase_table(w * np.exp(1j * xs[0] * zz - 1j * tau * zz * zz), zz, xs.size,
                                block, h)
        if trig is not None:
            if tau:
                w = w * np.exp(-1j * tau * zz * zz)
            return (w * trig(np.multiply.outer(zz, xs)).T).T
        if np.ndim(xs) == 0:
            return w * np.exp(1j * zz * xs - 1j * tau * zz * zz)
        return (w * np.exp(-1j * tau * zz * zz))[:, None] * np.exp(1j * np.multiply.outer(zz, xs))

    # max(x_hi - 2 Re(tau) z, 2 Re(tau) z - x_lo) + 2 |Im tau| |z|, as lines
    drift, damp = 2.0 * tau.real, 2.0 * abs(tau.imag)
    osc = ((x_hi, damp - drift), (x_hi, -damp - drift), (-x_lo, drift + damp), (-x_lo, drift - damp))
    bound = packet_decay(amp, tau, tol / 10.0, grow)
    if bound is None:
        raise DomainError("complex x: at real tau the declared decay cannot absorb exp(|Im x| |z|)")
    bound = (bound if scale == 1.0 else bound.times_const(scale)).times_poly(n)
    if (tau.real and not (np.ndim(xs) or grow or n) and trig is None and weight is None
            and amp.sector is not None):
        contour = _rotated_contour(amp.sector, xs.real, tau, osc, _RAY_SHARE * tol,
                                   bound.truncation_point(tol / 10.0))
        if contour is not None:
            pieces, tails = contour
            inner = integrate_interval(f, pieces, tol=max(tol - tails, tol / 2, 1e-13),
                                       budget=budget)
            err = inner.abs_error_estimate + tails
            return _result(inner.value, err, inner.evaluations, inner.converged and err <= tol)
    return integrate_decaying(f, domain=(-math.inf if trig is None else 0.0, math.inf),
                              tol=tol, decay=bound, budget=budget, osc_freq=osc)


def psi_oracle(amp, x, tau, tol: float = 1e-10,
               budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Direct quadrature of psi = int phi(z) exp(i z x - i tau z^2) dz, the
    n = 0 line case of `chirp_integral`: x is a scalar, complex allowed (the
    self-reciprocal check needs it), or a 1-D real array, one panel set."""
    return chirp_integral(amp, x, tau, tol, budget)


def chirp_trapezoid(amp, xs, tau, tol: float = 1e-8,
                    budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """psi(x_k) = int phi(z) exp(i x_k z - i tau z^2) dz at every point of an
    evenly spaced 1-D real array x (a grid, as `_phase_block` accepts it),
    by one trapezoid sum h sum_{|j|<=J} g_k(jh) over one node set,
    g_k(z) = phi(z) exp(-i tau z^2) exp(i x_k z).

    The amplitude declares a `strip` (`StripBound`) whose mass is finite at
    this tau (`StripBound.finite_mass`; a DomainError otherwise, as for a
    strip without decay at real tau).  For a < a_max (at real tau, also
    a < rate/(2 |Re tau|)) each g_k is then analytic on |Im z| < a with
        int |g_k(u + iy)| du <= M_k(a) = M(a) exp(a |x_k|),
    M(a) = exp(`StripBound.log_mass`(a, tau)), which keeps the packet's
    damping exp(Im(tau) u^2), and the infinite sum is within
    2 M_k(a)/(e^{2 pi a/h} - 1) of psi(x_k) (Trefethen & Weideman, SIAM
    Rev. 56, 2014, Thm 5.1).  `golden_section_min` picks the a that allows
    the widest h with that strip term within tol/2 at max |x|.  The sum
    stops at the first J where each tail, h sum_{j>J} B(jh) <=
    B.tail_integral(Jh) for the decreasing `packet_decay` bound B, is
    within tol/8.  The phases exp(i z x_k) are the factored table of
    `chirp_integral` (`_phase_table`), and the sum is one matmul over it.

    `abs_error_estimate` holds each point's strip term, the two tails and a
    rounding term, 4 eps (2J + 1 + G + B + Z (|x_0| + 3 max|x|) + |tau| Z^2)
    h sum_j |phi(jh) e^{-i tau (jh)^2}| with Z = Jh and G, B the widths of
    the factors: it covers the sum, the factored powers, the chirp's phase
    and the grid points the factored table takes, within a few ulps of
    max |x| of x_k.  `evaluations` is 2J + 1; where that would exceed the
    budget, the sum stops at the largest J the budget allows, and the result
    is unconverged.
    """
    tau = check_tau(tau)
    strip: StripBound | None = getattr(amp, "strip", None)
    if strip is None:
        raise DomainError("the trapezoid sum needs a declared strip bound")
    if not strip.finite_mass(tau):
        raise DomainError("the strip mass is infinite: the amplitude does not decay along "
                          "its strip, and tau is real")
    if tol < 1e-13:
        raise DomainError("tolerance below 1e-13 is not attainable in doubles")
    xs = _real_array(xs)
    block, step_x = _phase_block(xs)
    if block == 1 and not step_x and xs.size > 1:
        raise DomainError("the trapezoid sum needs an evenly spaced x")
    ax = np.abs(xs)
    x_max = float(ax.max())
    drift = 2.0 * abs(tau.real)
    width = strip.a_max if tau.imag < 0 or not drift else min(strip.a_max, strip.rate / drift)

    def step(a: float) -> float:
        # the widest h whose strip term at max |x| is within tol/2
        return 2.0 * math.pi * a / np.logaddexp(0.0, math.log(4.0 / tol) + strip.log_mass(a, tau)
                                                + a * x_max)

    a = golden_section_min(lambda a: -step(a), 0.0, width, _STRIP_ITERS)
    h = step(a)
    strip_term = (np.exp(math.log(2.0) + strip.log_mass(a, tau) + a * ax)
                  / math.expm1(2.0 * math.pi * a / h))

    eps_tail = tol / 8.0
    bound = packet_decay(amp, tau, eps_tail)
    need = _first_false(lambda j: not bound.tail_integral(j * h) <= eps_tail, 64,
                        budget // 2 + 1)
    J = max(min(need, (budget - 1) // 2), 0)
    z = h * np.arange(-J, J + 1)
    lead = amp(z) * np.exp(1j * xs[0] * z - 1j * tau * z * z)
    table = _phase_table(lead, z, xs.size, block, step_x)
    value = h * (table.left.T @ table.right).ravel()[:xs.size]
    Z = J * h
    rounding = (4.0 * np.finfo(float).eps * h * float(np.sum(np.abs(lead)))
                * (2 * J + 1 + table.left.shape[1] + block + Z * (abs(xs[0]) + 3.0 * x_max)
                   + abs(tau) * Z * Z))
    err = strip_term + 2.0 * bound.tail_integral(Z) + rounding
    return _result(value, err, 2 * J + 1, 2 * need + 1 <= budget and _worst(err) <= tol)
