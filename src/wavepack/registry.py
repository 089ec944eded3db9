"""Identity catalogue, verification runner, and correction ledger.

The catalogue ships as a JSON data file (data/cases.json); each case names an
evaluator registered here, carries its parameters and tolerance, and runs to
an IdentityReport.  The ledger records every printed formula whose constants
were reconciled numerically, with the catalogue cases serving as evidence.
"""
from __future__ import annotations

import fnmatch
import json
import math
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import asymptotics, closedform, fd, wavepacket, zeta
from .amplitudes import AMPLITUDE_FAMILIES, Amplitude
from .errors import DomainError, UnsupportedMethodError, WavepackError
from .hermite import hermite_eval, shifted_argument_identity, shifted_identity_ratio_constant
from .quadrature import (DecayBound, integrate_decaying, integrate_oscillatory_regularized,
                         psi_oracle)


@dataclass(frozen=True)
class IdentityCase:
    id: str
    paper_eq: str
    evaluator: str
    parameters: dict
    lhs_descriptor: str
    rhs_descriptor: str
    tolerance: float
    grid_var: str | None = None

    def __post_init__(self) -> None:
        if not (self.tolerance > 0):
            raise DomainError("tolerance must be positive")


@dataclass(frozen=True, slots=True)
class IdentityReport:
    case_id: str
    paper_eq: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    passed: bool
    runtime_ms: float
    error: str | None = None      # why the evaluator raised, for a case that could not run


@dataclass(frozen=True)
class CorrectionLedgerEntry:
    paper_eq: str
    printed_form: str
    implemented_form: str
    reconciled_constants: dict
    evidence: tuple


def _cplx(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


_AMPLITUDES = {**AMPLITUDE_FAMILIES,
               "sech_selfreciprocal": lambda p: wavepacket.self_reciprocal_scaled_sech()}


def _amp_from_params(p: dict) -> Amplitude:
    build = _AMPLITUDES.get(p["amplitude"])
    if build is None:
        raise DomainError(f"unknown amplitude kind {p['amplitude']!r}")
    return build({**p, "alpha": _cplx(p.get("alpha", 1.0))})


# ---------------------------------------------------------------------------
# evaluators: params -> (lhs, rhs)

_EVALUATORS: dict = {}


def evaluator(name):
    def wrap(fn):
        _EVALUATORS[name] = fn
        return fn
    return wrap


def _trig_oracle(n, a, b, x, which):
    trig = np.cos if which == "cos" else np.sin

    def f(z):
        zz = np.asarray(z, dtype=complex)
        return np.exp(-x * zz**2) * zz ** (2 * n) * trig(a * zz) * trig(b * zz)

    # |trig(a z) trig(b z)| <= exp((|Im a| + |Im b|) z)
    grow = abs(complex(a).imag) + abs(complex(b).imag)
    bound = DecayBound(rate=complex(x).real).times_exp_growth(grow).times_poly(2 * n)
    r = integrate_decaying(f, (0.0, math.inf), tol=1e-11, decay=bound,
                           osc_freq=((abs(complex(a).real) + abs(complex(b).real),
                                      2 * abs(complex(x).imag)),))
    return r.checked(f"{which}{which} oracle").value


@evaluator("coscos_vs_oracle")
def _ev_coscos(p):
    n, a, b, x = p["n"], _cplx(p["a"]), _cplx(p["b"]), _cplx(p["x"])
    return closedform.coscos(n, a, b, x), _trig_oracle(n, a, b, x, "cos")


@evaluator("sinsin_vs_oracle")
def _ev_sinsin(p):
    n, a, b, x = p["n"], _cplx(p["a"]), _cplx(p["b"]), _cplx(p["x"])
    return closedform.sinsin(n, a, b, x), _trig_oracle(n, a, b, x, "sin")


@evaluator("gn_symmetry")
def _ev_gn_symmetry(p):
    n, a, b, x = p["n"], _cplx(p["a"]), _cplx(p["b"]), _cplx(p["x"])
    return closedform.g_n(n, a, b, x), closedform.g_n(n, b, a, x)


def _gr_oracle(a, beta, order, trig):
    """int_0^inf e^{-a z^2} H_order(sqrt(a) z) trig(sqrt(2) beta z) dz by the oracle."""
    def f(z):
        zz = np.asarray(z, dtype=float)
        return (np.exp(-a * zz**2) * hermite_eval(order, math.sqrt(a) * zz)
                * trig(math.sqrt(2.0) * beta * zz))

    # |H_k(y)| <= |H_k(i)| |y|^k at |y| >= 1: |H_k(i)| sums H_k's absolute coefficients
    bound = DecayBound(rate=a, power=2.0, scale=abs(hermite_eval(order, 1j)) * a ** (order / 2),
                       onset=1.0 / math.sqrt(a)).times_poly(order)
    return integrate_decaying(f, (0.0, math.inf), tol=1e-11, decay=bound,
                              osc_freq=math.sqrt(2.0) * beta).checked("Hermite-trig oracle").value


@evaluator("gr_cos_vs_oracle")
def _ev_gr_cos(p):
    n, a, beta = p["n"], float(p["a"]), float(p["beta"])
    return complex(closedform.gr_hermite_cos(n, a, beta)), _gr_oracle(a, beta, 2 * n, np.cos)


@evaluator("gr_sin_vs_oracle")
def _ev_gr_sin(p):
    n, a, beta = p["n"], float(p["a"]), float(p["beta"])
    return (complex(closedform.gr_hermite_sin(n, a, beta)),
            _gr_oracle(a, beta, 2 * n + 1, np.sin))


@evaluator("base_pair_consistency")
def _ev_base_pair(p):
    a, b, x = _cplx(p["a"]), _cplx(p["b"]), _cplx(p["x"])
    if p["which"] == "cos":
        return closedform.base_coscos(a, b, x), closedform.coscos(0, a, b, x)
    return closedform.base_sinsin(a, b, x), closedform.sinsin(0, a, b, x)


@evaluator("fmoment_vs_oracle")
def _ev_fmoment(p):
    n, a, x = p["n"], _cplx(p["a"]), _cplx(p["x"])
    # the cosine moment is the cos-cos oracle integral at b = 0
    return closedform.f_cosine_moment(n, a, x), _trig_oracle(n, a, 0.0, x, "cos")


@evaluator("angle_addition")
def _ev_angle(p):
    n, a, b, x = p["n"], _cplx(p["a"]), _cplx(p["b"]), _cplx(p["x"])
    cc = closedform.coscos(n, a, b, x)
    ss = closedform.sinsin(n, a, b, x)
    if p["which"] == "plus":
        return cc + ss, closedform.f_cosine_moment(n, a - b, x)
    return cc - ss, closedform.f_cosine_moment(n, a + b, x)


@evaluator("shifted_identity_ratio")
def _ev_shifted(p):
    n = p["n"]
    _, _, ratio = shifted_argument_identity(n, float(p["a"]), float(p["b"]), float(p["x"]))
    return complex(ratio), complex(shifted_identity_ratio_constant(n))


@evaluator("psi_closed_vs_quadrature")
def _ev_psi_methods(p):
    amp = _amp_from_params(p)
    x, t = float(p["x"]), _cplx(p["t"])
    lhs = wavepacket.psi(amp, x, t, method="closed").psi
    rhs = wavepacket.psi(amp, x, t, method="quadrature", tol=1e-11).psi
    return lhs, rhs


@evaluator("psi_value")
def _ev_psi_value(p):
    amp = _amp_from_params(p)
    lhs = wavepacket.psi(amp, float(p["x"]), _cplx(p["t"]), method=p.get("method", "auto")).psi
    return lhs, _cplx(p["expected"])


@evaluator("parseval_vs_direct")
def _ev_parseval(p):
    amp = _amp_from_params(p)
    n, x, t = p["n"], float(p["x"]), _cplx(p["t"])
    lhs = wavepacket.parseval_transformed_derivative(amp, n, x, t, tol=1e-9).psi
    rhs = wavepacket.psi_x_derivative(amp, n, x, t, tol=1e-11).psi
    return lhs, rhs


@evaluator("hermite_expansion_vs_psi")
def _ev_expansion(p):
    amp = _amp_from_params(p)
    n, x, t = p["n"], float(p["x"]), _cplx(p["t"])
    lhs = wavepacket.hermite_weighted_expansion(amp, n, x, t, tol=1e-11).psi
    rhs = wavepacket.psi(amp, x, t, method="quadrature", tol=1e-11).psi
    return lhs, rhs


@evaluator("self_reciprocal_ratio")
def _ev_selfrec(p):
    amp = _amp_from_params(p)
    _, _, ratio = wavepacket.self_reciprocal_check(amp, float(p["x"]), _cplx(p["t"]), tol=1e-10)
    return ratio, 1.0 + 0.0j


@evaluator("schrodinger_residual")
def _ev_schrod(p):
    amp = _amp_from_params(p)
    res = wavepacket.schrodinger_residual(amp, float(p["x"]), _cplx(p["t"]),
                                          h_x=p.get("h", 1e-3), h_t=p.get("h", 1e-3))
    return complex(res), 0.0 + 0.0j


@evaluator("heat_vs_psi")
def _ev_heat(p):
    amp = _amp_from_params(p)
    x, tau = float(p["x"]), _cplx(p["tau"])
    se = asymptotics.heat_series(amp, x, tau, N=p.get("N", 40))
    return se.value, psi_oracle(amp, x, tau, tol=1e-11).checked("psi oracle").value


def _pole_case(p):
    """(poles, x, tau, half packet by the oracle) of a pole-expansion case; the
    half-line packet int_0^inf cos(xz) phi(z) e^{-i tau z^2} dz is psi/2."""
    amp = _amp_from_params(p)
    if amp.poles is None:
        raise UnsupportedMethodError(f"amplitude {p['amplitude']!r} has no pole expansion")
    x, tau = float(p["x"]), _cplx(p["tau"])
    return amp.poles, x, tau, psi_oracle(amp, x, tau, tol=1e-11).checked("psi oracle").value / 2.0


@evaluator("theta_vs_integral")
def _ev_theta(p):
    poles, x, tau, half_packet = _pole_case(p)
    return poles.theta_series(x, tau, p.get("N", 80)).value, half_packet


@evaluator("exact_vs_oracle")
def _ev_exact(p):
    poles, x, tau, half_packet = _pole_case(p)
    return poles.packet_exact(x, tau), half_packet


@evaluator("glaisher_pair")
def _ev_glaisher_pair(p):
    r, se = asymptotics.glaisher_theta_integral(float(p["x"]), tol=1e-9)
    return r.checked("Glaisher transform integral").value, se.value


@evaluator("glaisher_pair_regularized")
def _ev_glaisher_reg(p):
    x = float(p["x"])
    amp = Amplitude.glaisher()

    def f(z):
        zz = np.asarray(z, dtype=float)
        return np.asarray(amp(zz), dtype=complex) * np.cos(x * zz)

    r = integrate_oscillatory_regularized(f, tol=1e-7, osc_freq=x)
    return (r.checked("regularized Glaisher transform integral").value,
            asymptotics.glaisher_series_g(x).value)


@evaluator("alternating_gaussian_pair")
def _ev_altgauss(p):
    se, integ = zeta.glaisher_alternating_gaussian(float(p["b"]), tol=1e-11)
    return complex(se.value), integ.checked("alternating-Gaussian integral").value


@evaluator("hermite_sum_vs_series_derivative")
def _ev_h_deriv(p):
    m, b = p["m"], float(p["b"])
    lhs = zeta.transform_moment_sum(m, b, True)

    rhs = fd.derivative(lambda bb: zeta.glaisher_alternating_series(float(bb)).value,
                        b, 2 * m, h0=0.05, levels=4)
    return complex(lhs), complex(rhs)


@evaluator("zeta_lattice_vs_reference")
def _ev_zeta(p):
    zv, _ = zeta.zeta_from_lattice(p["m"], p["statistic"])
    return complex(zv), complex(zeta.zeta_half_reference(p["m"]))


@evaluator("poisson_discrepancy")
def _ev_poisson(p):
    m = p["m"]

    def f(x):
        xx = np.asarray(x, dtype=float)
        return xx ** (2 * m) / (np.exp(xx * xx) + 1.0)

    d = zeta.poisson_cosine_check(f, K=p.get("K", 3), N=p.get("N", 8), f0=0.0,
                                  decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
    return complex(d), 0.0 + 0.0j


@evaluator("quadrature_reference")
def _ev_quad_ref(p):
    kind = p["kind"]
    if kind == "gauss_halfline":
        r = integrate_decaying(lambda z: np.exp(-np.asarray(z, float) ** 2),
                               (0.0, math.inf), tol=1e-12, decay=DecayBound(rate=1.0))
        return r.checked("reference quadrature").value, complex(math.sqrt(math.pi) / 2.0)
    if kind == "gauss_moment2":
        r = integrate_decaying(lambda z: np.asarray(z, float) ** 2 * np.exp(-np.asarray(z, float) ** 2),
                               (0.0, math.inf), tol=1e-12,
                               decay=DecayBound(rate=0.5, power=2.0, scale=2.0))
        return r.checked("reference quadrature").value, complex(math.sqrt(math.pi) / 4.0)
    if kind == "sech_line":
        r = integrate_decaying(lambda z: 1.0 / np.cosh(math.pi * np.asarray(z, float)),
                               (-math.inf, math.inf), tol=1e-12,
                               decay=DecayBound(rate=math.pi, power=1.0, scale=2.0))
        return r.checked("reference quadrature").value, 1.0 + 0.0j
    raise DomainError(f"unknown quadrature reference {kind!r}")


# ---------------------------------------------------------------------------
# catalogue and ledger


def load_catalogue() -> list:
    """Load the bundled cases.json into IdentityCase records (sorted by id)."""
    text = resources.files("wavepack").joinpath("data/cases.json").read_text()
    raw = json.loads(text)
    cases = [IdentityCase(id=c["id"], paper_eq=c["paper_eq"], evaluator=c["evaluator"],
                          parameters=c.get("parameters", {}),
                          lhs_descriptor=c.get("lhs_descriptor", ""),
                          rhs_descriptor=c.get("rhs_descriptor", ""),
                          tolerance=float(c["tolerance"]),
                          grid_var=c.get("grid_var"))
             for c in raw["cases"]]
    ids = [c.id for c in cases]
    if len(set(ids)) != len(ids):
        raise DomainError("duplicate case ids in catalogue")
    return sorted(cases, key=lambda c: c.id)


def run_case(case: IdentityCase, tol_override: float | None = None) -> IdentityReport:
    fn = _EVALUATORS.get(case.evaluator)
    if fn is None:
        raise DomainError(f"case {case.id}: no evaluator named {case.evaluator!r}")
    t0 = time.perf_counter()
    lhs, rhs = fn(case.parameters)
    dt = (time.perf_counter() - t0) * 1000.0
    lhs, rhs = complex(lhs), complex(rhs)
    tol = tol_override if tol_override is not None else case.tolerance
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    passed = bool(abs_err <= tol or rel_err <= tol)
    return IdentityReport(case_id=case.id, paper_eq=case.paper_eq, lhs=lhs, rhs=rhs,
                          abs_err=abs_err, rel_err=rel_err, passed=passed, runtime_ms=dt)


def run_suite(filter_glob: str = "*", tol_override: float | None = None,
              catalogue: list | None = None) -> list:
    """Run all catalogue cases whose id matches the glob, in id order."""
    cases = catalogue if catalogue is not None else load_catalogue()
    selected = [c for c in cases if fnmatch.fnmatch(c.id, filter_glob)]
    if not selected:
        raise DomainError(f"filter {filter_glob!r} matches no catalogue cases")
    return [_run_or_fail(c, tol_override) for c in selected]


def _run_or_fail(case: IdentityCase, tol_override: float | None) -> IdentityReport:
    """run_case, or a failed report carrying the message of a library error."""
    try:
        return run_case(case, tol_override)
    except WavepackError as exc:
        nan = math.nan
        return IdentityReport(case_id=case.id, paper_eq=case.paper_eq, lhs=complex(nan, nan),
                              rhs=complex(nan, nan), abs_err=nan, rel_err=nan, passed=False,
                              runtime_ms=nan, error=f"{type(exc).__name__}: {exc}")


CORRECTION_LEDGER: tuple = (
    CorrectionLedgerEntry(
        paper_eq="(4.1)",
        printed_form="F(a) = ((-1)^n/2) sqrt(pi) x^{-(n+1/2)} e^{-a^2/4x} H_{2n}(a/sqrt(4x))",
        implemented_form="F(a) = ((-1)^n/2) sqrt(pi) 4^{-n} x^{-(n+1/2)} e^{-a^2/4x} H_{2n}(a/sqrt(4x))",
        reconciled_constants={"missing_factor": "4**(-n)"},
        evidence=("E4.1-oracle-n1", "E4.1-oracle-n2", "ANGLE-n1-plus"),
    ),
    CorrectionLedgerEntry(
        paper_eq="(4.2)",
        printed_form="lhs = (b^2/(2x))^n sum_k C(2n,k) H_k(a/sqrt(4x)) (sqrt(x)/b)^k [(-1)^k e^{ab/x}+1]",
        implemented_form="lhs = (b^2/x)^n sum_k ... ; ratio lhs/rhs_printed = kappa(n) = 2^n",
        reconciled_constants={"kappa(n)": "2**n", "kappa(1)": 2.0, "kappa(2)": 4.0},
        evidence=("E4.2-ratio-n1", "E4.2-ratio-n2", "E4.2-ratio-n3"),
    ),
    CorrectionLedgerEntry(
        paper_eq="(1.10)/(1.11)",
        printed_form="int phibar(z) (g_n(z, i*tau, x) +- g_n(z, -i*tau, x)) dz, no constant",
        implemented_form="2(-1)^{n} c_P int phibar(w) T_n(x, w; i*tau) dw, Gaussian slot = i*tau, "
                         "trig slots = (x, w), c_P = 2/pi",
        reconciled_constants={"c_P": 2.0 / math.pi, "gaussian_slot": "i*tau",
                              "trig_slots": "(x, w)"},
        evidence=("P1.2-n0-gauss", "P1.2-n2-gauss", "P1.2-n0-sech", "P1.2-n2-sech"),
    ),
    CorrectionLedgerEntry(
        paper_eq="Cor 1.2.1",
        printed_form="psi(x,t) = sqrt(2m/(hbar t i)) e^{i pi x^2 m hbar/(2 t hbar)} "
                     "psi(2mx/(hbar t), 2m/(i t hbar))",
        implemented_form="psi(x,tau) = lambda (pi i tau)^{-1/2} e^{i x^2/(4 tau)} "
                         "psi(x/(2 tau), -1/(4 tau)), lambda = phibar_c/phi",
        reconciled_constants={"phase": "x**2/(4*tau)", "argument_scale": 0.5,
                              "dual_time": "-1/(4*tau)", "prefactor": "lambda/sqrt(pi*i*tau)"},
        evidence=("C1.2.1-sech-t1", "C1.2.1-sech-t2"),
    ),
    CorrectionLedgerEntry(
        paper_eq="(2.1)",
        printed_form="psi = series (the printed series equals the half-line integral)",
        implemented_form="psi = 2 * sum_n (i tau)^n/n! d^{2n} phibar_c(x); factor 2 restores "
                         "the full-line packet",
        reconciled_constants={"full_packet_factor": 2.0},
        evidence=("HEAT-gauss-smalltau", "HEAT-sech-smalltau"),
    ),
    CorrectionLedgerEntry(
        paper_eq="(2.3)",
        printed_form="(pi/(2 beta)) sum (-1)^n e^{-(2n+1)x + i c^2 (2n+1)^2 tau}",
        implemented_form="(pi/beta) sum (-1)^n e^{-(2n+1) c x + i c^2 (2n+1)^2 tau}, "
                         "c = pi/(2 beta); valid as tau/x -> 0, not t -> inf",
        reconciled_constants={"C_s": "pi/beta", "x_scale_c": "pi/(2*beta)"},
        evidence=("T2.1-sech-b157-x2", "T2.1-sech-b1-x4", "T2.1-exact-b157"),
    ),
    CorrectionLedgerEntry(
        paper_eq="(2.4)",
        printed_form="(1/2) int_0^inf [cosh(c)cos(c)/(cosh(c)+cos(c))] cos(xz) dz = G(x)",
        implemented_form="int_0^inf [cosh(c)cos(c)/(cosh(2c)+cos(2c))] cos(xz) dz = G(x); "
                         "no 1/2, denominator argument doubled",
        reconciled_constants={"half_factor": 1.0, "kernel_denominator": "cosh(2c)+cos(2c)"},
        evidence=("G2.4-x05", "G2.4-x1", "G2.4-x2", "G2.4-regularized-x1"),
    ),
    CorrectionLedgerEntry(
        paper_eq="(2.5)",
        printed_form="sum (-1)^n (2n+1) e^{-(2n+1)^2 x + (1/4) i (2n+1)^4 tau}",
        implemented_form="sum (-1)^n (2n+1) e^{-(2n+1)^2 x + i (2n+1)^4 tau}; C_g = 1 "
                         "(with the corrected (2.4)), q = 1; valid as tau -> 0 on the "
                         "damped axis, not t -> inf",
        reconciled_constants={"C_g": 1.0, "q": 1.0},
        evidence=("T2.2-damped-x1", "T2.2-damped-x2", "T2.2-exact-x1"),
    ),
    CorrectionLedgerEntry(
        paper_eq="(3.4)/(3.6)",
        printed_form="H_m(b/sqrt(n)) / n^{m/2} with a spurious (-1)^m on the series side",
        implemented_form="H_{2m}(b/sqrt(k)) k^{-m}; the 2m-th b-derivative of the "
                         "alternating-Gaussian series",
        reconciled_constants={"hermite_order": "2m", "power": "k**(-m)"},
        evidence=("E3.4-deriv-m1-b05", "E3.4-deriv-m1-b1"),
    ),
    CorrectionLedgerEntry(
        paper_eq="Thm 3.1",
        printed_form="lattice = Gamma(m+1/2) (eta-factor) zeta(m+1/2) + 2 sum sum h",
        implemented_form="lattice = (1/2) Gamma(m+1/2) (eta-factor) zeta(m+1/2) "
                         "+ 2 (-1)^m sum sum h (+ bose m=1 boundary -1/2)",
        reconciled_constants={"kappa0": 0.5, "kappa1": 2.0, "transform_sign": "(-1)**m",
                              "bose_m1_boundary": -0.5},
        evidence=("T3.1-m1-fermi", "T3.1-m2-fermi", "T3.1-m3-fermi",
                  "T3.1-m1-bose", "T3.1-m2-bose"),
    ),
)


def _json_number(v: float):
    """Non-finite values (a case that could not run) become null."""
    return v if math.isfinite(v) else None


def _format_complex(z: complex) -> dict:
    return {"re": _json_number(z.real), "im": _json_number(z.imag)}


def emit_report(reports: list, fmt: str = "json",
                ledger: tuple = CORRECTION_LEDGER) -> str:
    """Serialize reports (and the ledger) as json, csv, or markdown."""
    reports = sorted(reports, key=lambda r: r.case_id)
    npass = sum(1 for r in reports if r.passed)
    nfail = len(reports) - npass
    errors = {r.case_id: r.error for r in reports if r.error is not None}
    if fmt == "json":
        doc = {
            "cases": [
                {"id": r.case_id, "paper_eq": r.paper_eq,
                 "lhs": _format_complex(r.lhs), "rhs": _format_complex(r.rhs),
                 "abs_err": _json_number(r.abs_err), "rel_err": _json_number(r.rel_err),
                 "passed": r.passed}
                for r in reports
            ],
            "passed": npass,
            "failed": nfail,
            "ledger": [
                {"paper_eq": e.paper_eq, "printed_form": e.printed_form,
                 "implemented_form": e.implemented_form,
                 "constants": e.reconciled_constants}
                for e in ledger
            ],
        }
        if errors:
            doc["errors"] = errors
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        lines = ["id,paper_eq,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,passed"]
        for r in reports:
            lines.append(f"{r.case_id},{r.paper_eq},{r.lhs.real!r},{r.lhs.imag!r},"
                         f"{r.rhs.real!r},{r.rhs.imag!r},{r.abs_err!r},{r.rel_err!r},"
                         f"{str(r.passed).lower()}")
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = [f"# Verification report", "",
                 f"{npass} passed, {nfail} failed", "",
                 "| id | eq | abs err | rel err | passed |",
                 "|----|----|---------|---------|--------|"]
        for r in reports:
            lines.append(f"| {r.case_id} | {r.paper_eq} | {r.abs_err:.3e} "
                         f"| {r.rel_err:.3e} | {'yes' if r.passed else 'NO'} |")
        if errors:
            lines += ["", "## Errors", ""] + [f"- {cid}: {msg}" for cid, msg in errors.items()]
        lines += ["", "## Correction ledger", "",
                  "| eq | printed | implemented | constants |",
                  "|----|---------|-------------|-----------|"]
        for e in ledger:
            consts = "; ".join(f"{k}={v}" for k, v in e.reconciled_constants.items())
            lines.append(f"| {e.paper_eq} | {e.printed_form} | {e.implemented_form} | {consts} |")
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown format {fmt!r}")


def ledger_markdown(ledger: tuple = CORRECTION_LEDGER) -> str:
    if not ledger:
        return "no corrections recorded\n"
    lines = ["# Correction ledger", ""]
    for e in ledger:
        lines.append(f"## {e.paper_eq}")
        lines.append("")
        lines.append(f"- printed:     {e.printed_form}")
        lines.append(f"- implemented: {e.implemented_form}")
        for k, v in e.reconciled_constants.items():
            lines.append(f"- {k} = {v}")
        lines.append(f"- evidence: {', '.join(e.evidence)}")
        lines.append("")
    return "\n".join(lines)


def ledger_json(ledger: tuple = CORRECTION_LEDGER) -> str:
    return json.dumps([
        {"paper_eq": e.paper_eq, "printed_form": e.printed_form,
         "implemented_form": e.implemented_form, "constants": e.reconciled_constants,
         "evidence": list(e.evidence)}
        for e in ledger
    ], indent=2)
