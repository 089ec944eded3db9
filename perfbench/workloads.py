"""The four benchmark workloads.

Each workload turns a seeded `random.Random` into an endless stream of
batches.  A batch is a list of `Op`s whose references are computed when the
batch is made, so reference work is never inside an op's timing.  The runner
times whole batches: a catalogue pass, one cycle over the psi-grid regimes,
one cycle over the psi-scatter cells, one cycle over the five CLI commands.
Whole batches keep the regime mix of every run identical, which is what keeps
the throughput of two seeds comparable.

Functions of the program are looked up on their module at call time, never
bound early, so that the tracer's rebinding sees every call.
"""

import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
from scipy import integrate as sp_integrate

from wavepack import asymptotics, cli, quadrature, registry, wavepacket, zeta
from wavepack.errors import NonConvergenceError


# One checked operation: `run()` does the work, `check(result)` judges it.
Op = collections.namedtuple("Op", "label run check")


class StratifiedDraws:
    """Seeded draws, stratified per named variable.

    Every `bins` consecutive `uniform` draws of one variable land once in each
    of `bins` equal sub-intervals, in seeded order; `choice` deals the options
    out like a shuffled deck.  Op cost depends smoothly on the inputs, so this
    keeps the cost of a run's input mix close to its long-run mean and the
    throughput of two seeds comparable, while every input stays random.
    """

    def __init__(self, rng, bins):
        self.rng = rng
        self.bins = bins
        self._decks = {}

    def _deal(self, key, cards):
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(cards)
            self.rng.shuffle(deck)
        return deck.pop()

    def uniform(self, key, lo, hi):
        k = self._deal(key, range(self.bins))
        return lo + (hi - lo) * (k + self.rng.random()) / self.bins

    def choice(self, key, options):
        return self._deal(key, options)


def _close(value, ref, tol):
    err = abs(value - ref)
    return err <= tol or err <= tol * abs(ref)


# catalogue: one registry.run_case per op, whole passes in seeded order.

def catalogue_batches(rng):
    cases = registry.load_catalogue()
    while True:
        order = list(cases)
        rng.shuffle(order)
        yield [Op(c.id, (lambda c=c: registry.run_case(c)), lambda rep: rep.passed)
               for c in order]


# psi-grid: one position_norm_squared per op, checked by Plancherel.

GRID_HALF_WIDTH = 20.0   # 401 psi nodes per op at step 0.1
GRID_STEP = 0.1
GRID_REL_TOL = 1e-4      # the bound of the Plancherel tests


def plancherel_reference(amp, tau):
    """2 pi int |phi(z)|^2 exp(2 Im(tau) z^2) dz, by scipy's QUADPACK."""
    def weight(z):
        return abs(amp(z)) ** 2 * math.exp(2.0 * tau.imag * z * z)

    total = 0.0
    with np.errstate(over="ignore"):       # sech tails: 1/cosh(inf) = 0 is right
        for lo, hi in ((-math.inf, amp.z0), (amp.z0, math.inf)):
            val, _err = sp_integrate.quad(weight, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)
            total += val
    return 2.0 * math.pi * total


def _grid_regimes(draw):
    """One (label, amplitude, tau) per regime; Glaisher at real tau is left out
    because each of its nodes exhausts the quadrature budget.  Each regime
    (a to e) draws its inputs from its own strata."""
    def beta(regime):
        return draw.uniform(f"{regime}.beta", 1.3, 1.7)

    def shift(regime):
        return draw.choice(f"{regime}.sign", (-1.0, 1.0)) * draw.uniform(f"{regime}.z0", 0.3, 0.6)

    def tau(regime, damping=None):
        im = -draw.uniform(f"{regime}.damping", *damping) if damping else 0.0
        return complex(draw.uniform(f"{regime}.tau", 0.4, 0.7), im)

    sech = wavepacket.Amplitude.sech
    return [
        ("sech-z0/real", sech(beta("a")), tau("a")),
        ("sech-shift/real", sech(beta("b"), shift("b")), tau("b")),
        ("sech-z0/damped", sech(beta("c")), tau("c", (0.1, 0.2))),
        ("sech-shift/damped", sech(beta("d"), shift("d")), tau("d", (0.1, 0.2))),
        ("glaisher/damped", wavepacket.Amplitude.glaisher(), tau("e", (0.15, 0.25))),
    ]


def grid_batches(rng):
    draw = StratifiedDraws(rng, bins=4)
    while True:
        batch = []
        for label, amp, tau in _grid_regimes(draw):
            ref = plancherel_reference(amp, tau)
            batch.append(Op(label,
                            (lambda amp=amp, tau=tau: wavepacket.position_norm_squared(
                                amp, tau, half_width=GRID_HALF_WIDTH, step=GRID_STEP, tol=1e-8)),
                            (lambda v, ref=ref: abs(v - ref) <= GRID_REL_TOL * ref)))
        rng.shuffle(batch)
        yield batch


# psi-scatter: one psi(method="auto") per op at an independent point.

SCATTER_TOL = 1e-8
SCATTER_CELLS = [(family, regime)
                 for family in ("gaussian", "sech", "glaisher")
                 for regime in ("origin", "free", "damped")
                 if (family, regime) != ("glaisher", "free")]


def _scatter_tau(draw, cell, regime):
    if regime == "origin":
        return 0j
    if regime == "free":
        return complex(2.0 - draw.uniform(f"{cell}.tau", 0.0, 2.0), 0.0)      # (0, 2]
    return complex(draw.uniform(f"{cell}.tau", 0.0, 2.0), -draw.uniform(f"{cell}.damping", 0.01, 0.5))


def scatter_point(draw, family, regime):
    """(amplitude, x, tau, reference psi) for one seeded point.

    The references take an independent path: the quadrature oracle at
    tol 1e-12 for the Gaussian (whose auto path is the closed form), the erfc
    resummations for sech and Glaisher (whose auto path is quadrature).  The
    resummations integrate cos(xz) over the half line, an even function of x,
    so they are called at |x|.
    """
    cell = f"{family}/{regime}"
    tau = _scatter_tau(draw, cell, regime)
    x = draw.uniform(f"{cell}.x", -4.0, 4.0)
    if family == "gaussian":
        alpha = complex(draw.uniform(f"{cell}.alpha.re", 0.5, 2.0),
                        draw.uniform(f"{cell}.alpha.im", -1.0, 1.0))
        amp = wavepacket.Amplitude.gaussian(alpha, draw.uniform(f"{cell}.z0", -1.5, 1.5))
        r = quadrature.psi_oracle(amp, x, tau, tol=1e-12)
        if not r.converged:
            raise RuntimeError(f"reference oracle did not converge at x={x}, tau={tau}")
        return amp, x, tau, r.value
    if family == "sech":
        beta = draw.uniform(f"{cell}.beta", 0.6, 2.0)
        return (wavepacket.Amplitude.sech(beta), x, tau,
                2.0 * asymptotics.sech_packet_exact(beta, abs(x), tau))
    return wavepacket.Amplitude.glaisher(), x, tau, 2.0 * asymptotics.glaisher_packet_exact(abs(x), tau)


def scatter_batches(rng):
    draw = StratifiedDraws(rng, bins=16)
    while True:
        batch = []
        for family, regime in SCATTER_CELLS:
            amp, x, tau, ref = scatter_point(draw, family, regime)
            batch.append(Op(f"{family}/{regime}",
                            (lambda amp=amp, x=x, tau=tau: wavepacket.psi(amp, x, tau)),
                            (lambda wv, ref=ref: _close(wv.psi, ref, SCATTER_TOL))))
        rng.shuffle(batch)
        yield batch


def glaisher_free_probe():
    """Glaisher at real tau, the cell left out of psi-scatter, at one fixed
    point (x = 1, tau = 1).  At the seed commit it spends 1,568,640 of the
    2,000,000 evaluations of the quadrature budget and raises
    NonConvergenceError.  Run once, traced, so the defect stays visible in
    the layer counts."""
    try:
        wavepacket.psi(wavepacket.Amplitude.glaisher(), 1.0, 1.0)
    except NonConvergenceError:
        return False
    return True


# cli-cold: one fresh `python -m wavepack.cli` process per op.

VERIFY_SUITES = ("ANGLE-*", "E4.2-*", "G3.1-*", "L1.1-*", "QUAD-*", "GR1.*")


def _num(v):
    return repr(float(v))


def _cplx(z):
    return f"{_num(z.real)},{_num(z.imag)}"


def _psi_expect(amp, x, t):
    wv = wavepacket.psi(amp, x, t)
    want = {"re": wv.psi.real, "im": wv.psi.imag}
    return lambda doc: doc["psi"] == want and doc["method"] == wv.method


def cli_commands(draw):
    """The five commands of one cycle, each with the check of its JSON output
    against the in-process result."""
    alpha = complex(draw.uniform("alpha.re", 0.5, 2.0), draw.uniform("alpha.im", -1.0, 1.0))
    z0, xg = draw.uniform("z0", -1.0, 1.0), draw.uniform("xg", -4.0, 4.0)
    tg = complex(draw.uniform("tg", 0.2, 1.5), -draw.uniform("tg.damping", 0.0, 0.5))
    beta, xs = draw.uniform("beta", 0.8, 2.0), draw.uniform("xs", -4.0, 4.0)
    ts = complex(draw.uniform("ts", 0.2, 1.5), -draw.uniform("ts.damping", 0.05, 0.5))
    m, statistic = draw.choice("m", (1, 2, 3)), draw.choice("statistic", ("fermi", "bose"))
    suite = draw.choice("suite", VERIFY_SUITES)

    value, corr = zeta.zeta_from_lattice(m, statistic)
    reports = json.loads(registry.emit_report(registry.run_suite(suite), fmt="json"))
    ledger = json.loads(registry.ledger_json())
    return [
        ("psi-gaussian",
         ["psi", "--amplitude", "gaussian", f"--alpha={_cplx(alpha)}", f"--z0={_num(z0)}",
          f"--x={_num(xg)}", f"--t={_cplx(tg)}", "--json"],
         _psi_expect(wavepacket.Amplitude.gaussian(alpha, z0), xg, tg)),
        ("psi-sech",
         ["psi", "--amplitude", "sech", f"--beta={_num(beta)}", f"--x={_num(xs)}",
          f"--t={_cplx(ts)}", "--json"],
         _psi_expect(wavepacket.Amplitude.sech(beta), xs, ts)),
        ("zeta-lattice",
         ["zeta", f"--m={m}", f"--statistic={statistic}", "--method=lattice", "--json"],
         lambda doc: doc["zeta"] == value and doc["correction_sum"] == corr),
        ("verify",
         ["verify", f"--suite={suite}", "--format=json"],
         lambda doc: all(doc[k] == reports[k] for k in ("cases", "passed", "failed"))),
        ("ledger", ["ledger", "--json"], lambda doc: doc == ledger),
    ]


# What one CLI op returns: exit code, stdout, and peak RSS in KiB (children only).
CliResult = collections.namedtuple("CliResult", "code out maxrss_kb")


def run_child(argv, env, cwd):
    """Run a child to completion and reap it with wait4 for its own rusage."""
    with subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, usage.ru_maxrss)


def _replay(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return CliResult(code, buf.getvalue(), None)


def _cli_ok(check):
    def judge(result):
        return result.code == 0 and check(json.loads(result.out))
    return judge


def cli_batches(rng, env, cwd):
    draw = StratifiedDraws(rng, bins=4)
    while True:
        yield [Op(label,
                  (lambda args=args: run_child([sys.executable, "-m", "wavepack.cli", *args],
                                               env, cwd)),
                  _cli_ok(check))
               for label, args, check in cli_commands(draw)]


def cli_replay_batch(rng):
    """One cycle of the CLI commands replayed in-process through cli.main, so
    the traced run can see inside them."""
    return [Op(label, (lambda args=args: _replay(args)), _cli_ok(check))
            for label, args, check in cli_commands(StratifiedDraws(rng, bins=4))]
