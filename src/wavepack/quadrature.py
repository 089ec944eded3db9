"""Adaptive Gauss-Kronrod quadrature with declared-decay tail truncation, and a
Gaussian-damped regularization scheme for conditionally convergent oscillatory
integrals.

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

The regularized path computes I(delta) = int f(z) exp(-delta z^2) dz over a
fixed, strictly decreasing set of damping strengths and extrapolates the
values polynomially to delta = 0 (Neville); `regularized_limit` owns that
limit.  Gaussian damping is used rather than exponential damping because it
preserves the parity of the integrand.

Every packet integral of the oracle, w(z) exp(i x z - i tau z^2) on the line
or w(z) trig(x z) exp(-i tau z^2) on the half line, is `chirp_integral`: the
one builder of that integrand, its tail bound and its frequency lines.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, NonConvergenceError
from .foundation import check_tau

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

_SQRT_PI = math.sqrt(math.pi)
# Stopping rule, term cap and Lentz floor of the incomplete-gamma series and
# continued fraction.
_SPECIAL_EPS = 1e-16
_SPECIAL_MAX_TERMS = 1000
_LENTZ_TINY = 1e-300


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
    """The upper incomplete gamma function Gamma(a, u) = int_u^inf t^{a-1} e^{-t} dt.

    Closed forms at the powers the library declares (a = 1/2, 1, 2 for
    power 2, 1, 0.5); for any other a > 0, Legendre's continued fraction
    (modified Lentz) where u >= a + 1 and Gamma(a) minus the lower-gamma series
    below it, each taken to double precision.
    """
    if a == 0.5:
        return _SQRT_PI * math.erfc(math.sqrt(u))
    if a == 1.0:
        return math.exp(-u)
    if a == 2.0:
        return (1.0 + u) * math.exp(-u)
    if u == 0.0:
        return math.gamma(a)
    front = math.exp(a * math.log(u) - u)       # u^a e^{-u}, without overflow
    if u >= a + 1.0:
        # Gamma(a, u) = front / (u + 1 - a - 1(1-a)/(u + 3 - a - 2(2-a)/(u + 5 - a - ...)))
        b = u + 1.0 - a
        c = 1.0 / _LENTZ_TINY
        d = 1.0 / b
        h = d
        for i in range(1, _SPECIAL_MAX_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = d if abs(d) > _LENTZ_TINY else _LENTZ_TINY
            c = b + an / c
            c = c if abs(c) > _LENTZ_TINY else _LENTZ_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _SPECIAL_EPS:
                return front * h
    else:
        # gamma(a, u) = front sum_n u^n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        for n in range(1, _SPECIAL_MAX_TERMS):
            term *= u / (a + n)
            total += term
            if term < _SPECIAL_EPS * total:
                return math.gamma(a) - front * total
    raise NonConvergenceError(f"incomplete gamma at a={a:.3g}, u={u:.3g} did not converge")


@dataclass(frozen=True)
class DecayBound:
    """Caller-declared bound |f(z)| <= scale * exp(-rate * |z|^power) for |z| >= onset.

    power=2 declares Gaussian decay, power=1 exponential, power=0.5 covers the
    exp(-rate sqrt(z)) class.  Only used for tail truncation, so loose bounds
    are safe; but a loose decay of phi bounds nothing of its transform's decay.
    """

    rate: float
    power: float = 2.0
    scale: float = 1.0
    onset: float = 0.0
    # truncation points already found, by eps
    _points: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.rate > 0) or not (self.power > 0) or not (self.scale > 0):
            raise DomainError("decay bound needs positive scale, rate and power")

    def tail_integral(self, T: float) -> float:
        """int_T^inf scale * exp(-rate z^power) dz = scale a rate^-a Gamma(a, u)
        with a = 1/power and u = rate T^power; `_upper_gamma` gives Gamma(a, u)."""
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
        cannot absorb the growth (power < 1, or power 1 with rate <= g)."""
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


def packet_decay(amp, tau, eps: float, grow: float = 0.0) -> DecayBound | None:
    """Tail bound of |phi(z) exp(-i tau z^2)| exp(grow |z|), or None.

    Of the amplitude's declared `decay` and, at Im(tau) < 0, the damping
    exp(Im(tau) z^2) at the amplitude's scale (1 without a declared decay),
    each times exp(grow |z|) where it can absorb that, the bound that
    truncates first at eps.
    """
    decay: DecayBound | None = getattr(amp, "decay", None)
    bounds = [] if decay is None else [decay]
    if complex(tau).imag < 0:
        bounds.append(DecayBound(rate=-complex(tau).imag, power=2.0,
                                 scale=1.0 if decay is None else decay.scale))
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

    def times_rows(self, w: np.ndarray) -> "FactoredTable":
        """This table with the row of node j times w[j]."""
        return replace(self, left=self.left * w[:, None])

    def peak(self) -> float:
        """max |left| max |right| (nan ignored): a bound on every column's
        modulus, equal to their maximum where right has unit modulus."""
        return float(np.nanmax(np.abs(self.left)) * np.nanmax(np.abs(self.right)))


def _factored_rule(w, left, right, m: int):
    """sum_j w_j left[p, j, a] right[p, j, b] of every panel p, as (P, G B)
    cut to the first m columns: one batched matmul."""
    return ((w[:, None] * left).transpose(0, 2, 1) @ right).reshape(len(left), -1)[:, :m]


def _eval_panels(f, spans, width: int = 0):
    """K15 values, |K15 - G7| errors and heap keys of the panels (lo, hi) in
    `spans`, plus the integrand's stored width.

    Each integrand call gets the nodes of consecutive panels as one 1-D array,
    15 per panel, and holds as many panels as fit in _CELL_CAP stored cells:
    nodes x m for an array value, nodes x (G + B) for a `FactoredTable`, whose
    factors the rules are applied to.  A panel with more cells than that gets
    a call of its own; width=0 means the width is not known yet, so the first
    call holds a single panel.  Values and errors of a scalar integrand come
    back as complex and float, those of a vector integrand as arrays of shape
    (m,); the key is the worst column.
    """
    vals, errs, keys = [], [], []
    start = 0
    while start < len(spans):
        count = min(len(spans) - start, max(1, _CELL_CAP // (15 * width)) if width else 1)
        if count == 1:
            # a lone panel, often a wide one, skips the array bookkeeping
            lo, hi = spans[start]
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            fv = f(c + h * _XGK)
        else:
            lo, hi = np.array(spans[start:start + count]).T[:, :, None]
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            fv = f((c + h * _XGK).ravel())
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


def integrate_interval(f, a: float, b: float, tol: float = 1e-10,
                       budget: int = DEFAULT_BUDGET, osc_freq=None) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of a complex integrand on [a, b].

    f maps a 1-D node array, of any length that is a multiple of 15, to values
    of the same length (scalar integrand), of shape (length, m) (m integrands
    sharing one panel set) or a `FactoredTable` of m columns.  One call covers
    many panels: the presplit panels go in calls of at most _CELL_CAP stored
    cells (nodes x m, or nodes x (G + B) for a `FactoredTable`).  Refinement
    then runs in generations: the worst panels are taken until their summed
    errors exceed total_err - tol (the rule of scipy.integrate.quad_vec), at
    most _GENERATION_CAP panels and _CELL_CAP stored cells of children per
    generation, and the children go in as few calls as those cells allow.
    Panels are refined worst column first until every column's error is
    <= tol.  `evaluations` counts z-nodes, 15 per panel, whatever m is.

    `osc_freq` declares a convex majorant omega(z) of the local phase
    frequency of f: None (no oscillation), a constant, or a sequence of
    (intercept, slope) lines with omega(z) = max(0, c_i + s_i z); a callable
    is a TypeError.  `_presplit` sizes the starting panels from it in closed
    form, so an omega below the true frequency leaves more to refinement and
    one above it costs more starting panels.
    """
    if not (b > a):
        raise DomainError("empty or inverted interval")
    if tol < 1e-13:
        raise DomainError("tolerance below 1e-13 is not attainable in doubles")
    max_panels = max(budget // 15, 4)
    pieces = _presplit(a, b, osc_freq, max_panels // 2)
    vals, errs, keys, width = _eval_panels(f, pieces)
    heap = [(-key, i, lo, hi, val, err)
            for i, ((lo, hi), val, err, key) in enumerate(zip(pieces, vals, errs, keys))]
    heapq.heapify(heap)
    counter = len(heap)
    evals = 15 * len(heap)
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
               and heap[0][3] - heap[0][2] >= 1e-14 * (b - a)):
            parents.append(heapq.heappop(heap))
            err_sum -= parents[-1][0]
        if not parents:
            break
        spans = []
        for _, _, lo, hi, _, _ in parents:
            mid = 0.5 * (lo + hi)
            spans += ((lo, mid), (mid, hi))
        vals, errs, keys, _ = _eval_panels(f, spans, width)
        evals += 15 * len(spans)
        for j, (_, _, _, _, val, err) in enumerate(parents):
            total += (vals[2 * j] + vals[2 * j + 1]) - val
            total_err += (errs[2 * j] + errs[2 * j + 1]) - err
            for i in (2 * j, 2 * j + 1):
                heapq.heappush(heap, (-keys[i], counter, *spans[i], vals[i], errs[i]))
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
    non-convergence rather than as a silent wrong answer.  Vector values are
    extrapolated column by column and converge only if every column does.
    """
    vals = []
    evals = 0
    worst_inner = 0.0
    ok = True
    for d in _DAMPING:
        r = evaluate(d)
        vals.append(r.value)
        evals += r.evaluations
        worst_inner = np.maximum(worst_inner, r.abs_error_estimate)
        ok = ok and r.converged
    residuals = []
    for k in range(1, len(_DAMPING)):
        value, res = neville_extrapolate(_DAMPING[: k + 1], vals[: k + 1])
        residuals.append(res)
    settled = bool(np.all(residuals[-1] <= np.maximum(4.0 * np.min(residuals, axis=0), tol)))
    err = residuals[-1] + worst_inner
    return _result(value, err, evals, ok and settled and _worst(err) <= tol)


def integrate_oscillatory_regularized(f, tol: float = 1e-8, domain=(0.0, math.inf),
                                      budget: int = DEFAULT_BUDGET,
                                      osc_freq=None) -> QuadratureResult:
    """Regularized limit of a bounded oscillatory integrand over [0, inf) or
    (-inf, inf).

    I(delta) = int f(z) exp(-delta z^2) dz is integrated by `integrate_decaying`
    for each damping strength of `regularized_limit`, which extrapolates to
    delta = 0 and gives the verdict.  Each I(delta) gets a seventh of the
    budget (at least 30,000 evaluations) and tol/20 (at least 2e-13); its tail
    bound takes 1.5 max |f| on a coarse grid over [0, 40] (mirrored on the
    line) as the scale of the bounded integrand.  A vector-valued f is
    extrapolated column by column; a `FactoredTable` value is damped through
    its left factor and its max |f| taken from the factors (`peak`).  `osc_freq` declares a convex majorant of
    the local phase frequency of f, in the form `integrate_interval` takes;
    the damping adds no oscillation.
    """
    zs = np.linspace(0.0, 40.0, 401)
    if domain[0] == -math.inf:
        zs = np.concatenate([-zs[::-1], zs])
    with np.errstate(all="ignore"):
        probe = f(zs)
        if isinstance(probe, FactoredTable):
            scale = probe.peak() * 1.5
        else:
            scale = float(np.nanmax(np.abs(np.asarray(probe, dtype=complex)))) * 1.5
    if not math.isfinite(scale) or scale == 0.0:
        scale = 1.0
    inner_tol = max(tol / 20.0, 2e-13)
    per_delta_budget = max(budget // len(_DAMPING), 30_000)

    def damped(d):
        def fd(z):
            # the damping factor broadcasts over the output columns of f
            v, damping = f(z), np.exp(-d * np.asarray(z) ** 2)
            if isinstance(v, FactoredTable):
                return v.times_rows(damping)
            return (np.asarray(v, dtype=complex).T * damping).T

        return integrate_decaying(fd, domain=domain, tol=inner_tol,
                                  decay=DecayBound(rate=d, power=2.0, scale=scale),
                                  budget=per_delta_budget, osc_freq=osc_freq)

    return regularized_limit(damped, tol)


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


def chirp_integral(amp, x, tau, tol: float = 1e-10, budget: int = DEFAULT_BUDGET, n: int = 0,
                   trig=None, weight=None, scale: float = 1.0) -> QuadratureResult:
    """int w(z) exp(i x z - i tau z^2) dz on the line, or with trig (np.cos or
    np.sin) int_0^inf w(z) trig(x z) exp(-i tau z^2) dz on the half line: the
    one integral behind the packet, its x-derivatives, the bare transforms
    and the Hermite rearrangement.

    w is phi(z) z^n, or weight(z) where given; `amp` is callable on node
    arrays, with a `decay` DecayBound (None for merely bounded amplitudes).
    The tail bound is `packet_decay(amp, tau, tol/10, |Im x|)` times `scale`
    and |z|^n, so it must bound a weight too, and a weight needs the declared
    decay.  With that bound one panel set covers [-T, T] or [0, T]
    (`integrate_decaying`); without it phi alone on the line (n = 0, real x)
    takes the zero-damping limit (`integrate_oscillatory_regularized`, tol at
    least 1e-9), and anything else is a DomainError.

    x is a scalar, complex allowed on the line (the bound absorbs its
    exp(|Im x| |z|)), or a 1-D real array whose points share one panel set;
    `value` and `abs_error_estimate` are then arrays over x, and `converged`
    holds only if every point is within tol.  On the line an evenly spaced x
    gets the factored exp(i z x) table of `_phase_block` and `_powers` (3
    complex exponentials a node, column k at x_0 + k h, within a few ulps of
    x_k), any other x the direct table.  The half line keeps real nodes.

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
        xs = np.asarray(x)
        if xs.ndim != 1 or xs.size == 0 or (np.iscomplexobj(xs) and np.any(xs.imag != 0)):
            raise DomainError("array x must be a non-empty 1-D real array")
        xs = np.real(xs).astype(float)
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
            lead = w * np.exp(1j * xs[0] * zz - 1j * tau * zz * zz)
            giants = math.ceil(xs.size / block)
            return FactoredTable(_powers(lead, np.exp(1j * (block * h) * zz), giants),
                                 _powers(1.0, np.exp(1j * h * zz), block), xs.size)
        if trig is not None:
            return (w * np.exp(-1j * tau * zz * zz) * trig(np.multiply.outer(zz, xs)).T).T
        if np.ndim(xs) == 0:
            return w * np.exp(1j * zz * xs - 1j * tau * zz * zz)
        return (w * np.exp(-1j * tau * zz * zz))[:, None] * np.exp(1j * np.multiply.outer(zz, xs))

    # max(x_hi - 2 Re(tau) z, 2 Re(tau) z - x_lo) + 2 |Im tau| |z|, as lines
    drift, damp = 2.0 * tau.real, 2.0 * abs(tau.imag)
    osc = ((x_hi, damp - drift), (x_hi, -damp - drift), (-x_lo, drift + damp), (-x_lo, drift - damp))
    if weight is not None and amp.decay is None:
        raise DomainError("a weight is bounded through the amplitude's declared decay")
    bound = packet_decay(amp, tau, tol / 10.0, grow)
    if bound is not None:
        bound = bound if scale == 1.0 else bound.times_const(scale)
        return integrate_decaying(f, domain=(-math.inf if trig is None else 0.0, math.inf),
                                  tol=tol, decay=bound.times_poly(n), budget=budget, osc_freq=osc)
    if grow > 0 or n or trig is not None:
        raise DomainError("complex x, moments and the half line need decay or Im(tau) < 0")
    return integrate_oscillatory_regularized(f, tol=max(tol, 1e-9), domain=(-math.inf, math.inf),
                                             budget=budget, osc_freq=osc)


def psi_oracle(amp, x, tau, tol: float = 1e-10,
               budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Direct quadrature of psi = int phi(z) exp(i z x - i tau z^2) dz, the
    n = 0 line case of `chirp_integral`: x is a scalar, complex allowed (the
    self-reciprocal check needs it), or a 1-D real array, one panel set."""
    return chirp_integral(amp, x, tau, tol, budget)
