"""Command-line surface: evaluate packets, compute half-integer zeta values,
run the verification catalogue, emit sweep tables and the correction ledger.

Exit codes: 0 success, 1 numerical non-convergence or failed verification
cases, 2 usage errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import registry, wavepacket, zeta
from .amplitudes import AMPLITUDE_FAMILIES, Amplitude
from .errors import DomainError, NonConvergenceError, WavepackError
from .foundation import NATURAL_UNITS, PhysicalConfig

USAGE_EXIT = 2
NUMERICAL_EXIT = 1


def parse_complex(text: str) -> complex:
    """Parse 're,im' (a bare real is read as 're,0')."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}")


def _physical_config(args) -> PhysicalConfig:
    if (args.hbar is None) != (args.mass is None):
        # both or neither, to avoid mixed conventions
        raise DomainError("--hbar and --mass must be given together")
    if args.hbar is None:
        return NATURAL_UNITS
    return PhysicalConfig(hbar=args.hbar, mass=args.mass)


def _amplitude_from_args(args) -> Amplitude:
    return AMPLITUDE_FAMILIES[args.amplitude](vars(args))


def cmd_psi(args) -> int:
    cfg = _physical_config(args)
    amp = _amplitude_from_args(args)
    wv = wavepacket.psi(amp, args.x, args.t, cfg, method=args.method)
    if args.json:
        doc = {"psi": {"re": wv.psi.real, "im": wv.psi.imag},
               "method": wv.method, "error_estimate": wv.error_estimate}
        print(json.dumps(doc))
    else:
        print(f"psi({args.x}, {args.t.real}{args.t.imag:+}i) = "
              f"{wv.psi.real:.12g} {wv.psi.imag:+.12g}i")
        print(f"method = {wv.method}")
        print(f"error_estimate = {wv.error_estimate:.3e}")
    return 0


def cmd_zeta(args) -> int:
    if not (1 <= args.m <= 6):
        print("error: --m must be in 1..6", file=sys.stderr)
        return USAGE_EXIT
    if args.method == "reference":
        value = zeta.zeta_half_reference(args.m)
        corr = None
        err = 1e-12
    else:
        value, corr = zeta.zeta_from_lattice(args.m, args.statistic)
        err = 1e-10
    if args.json:
        doc = {"m": args.m, "s": args.m + 0.5, "zeta": value,
               "method": args.method, "error_estimate": err}
        if corr is not None:
            doc["correction_sum"] = corr
            doc["statistic"] = args.statistic
        print(json.dumps(doc))
    else:
        print(f"zeta({args.m} + 1/2) = {value:.12f}")
        print(f"method = {args.method}")
        print(f"error_estimate = {err:.1e}")
        if corr is not None:
            print(f"correction_sum = {corr:.6e}")
    return 0


def cmd_verify(args) -> int:
    try:
        reports = registry.run_suite(args.suite, tol_override=args.tol)
    except WavepackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    print(registry.emit_report(reports, fmt=args.format), end="")
    for r in reports:
        if r.error is not None:
            print(f"numerical error: {r.case_id}: {r.error}", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else NUMERICAL_EXIT


def cmd_table(args) -> int:
    try:
        lo, hi, steps = args.grid.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        print("error: --grid must be start:stop:steps", file=sys.stderr)
        return USAGE_EXIT
    if steps <= 0 or (steps > 1 and hi <= lo):
        print("error: empty grid", file=sys.stderr)
        return USAGE_EXIT
    cases = {c.id: c for c in registry.load_catalogue()}
    case = cases.get(args.identity)
    if case is None or case.grid_var is None:
        print(f"error: unknown or non-sweepable identity {args.identity!r}",
              file=sys.stderr)
        return USAGE_EXIT
    grid = np.linspace(lo, hi, steps)
    lines = [f"{case.grid_var},lhs_re,lhs_im,rhs_re,rhs_im,abs_err"]
    for g in grid:
        params = dict(case.parameters)
        params[case.grid_var] = float(g)
        sub = dataclasses.replace(case, parameters=params)
        r = registry.run_case(sub)
        lines.append(f"{float(g)!r},{r.lhs.real!r},{r.lhs.imag!r},{r.rhs.real!r},"
                     f"{r.rhs.imag!r},{r.abs_err!r}")
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        print(out, end="")
    return 0


def cmd_ledger(args) -> int:
    if args.json:
        print(registry.ledger_json())
    else:
        print(registry.ledger_markdown(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wavepack",
                                 description="Wave-packet integrals, zeta values, "
                                             "and identity verification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="evaluate the wave packet")
    p.add_argument("--amplitude", choices=list(AMPLITUDE_FAMILIES), required=True)
    p.add_argument("--alpha", type=parse_complex, default=1.0 + 0j,
                   help="gaussian width (complex 're,im')")
    p.add_argument("--beta", type=float, default=1.0, help="sech scale")
    p.add_argument("--z0", type=float, default=0.0, help="amplitude shift")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=parse_complex, required=True, help="time, 're,im'")
    p.add_argument("--method", choices=["auto", "closed", "quadrature", "heat", "theta"],
                   default="auto")
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("zeta", help="zeta at half-integer argument m + 1/2")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--statistic", choices=["fermi", "bose"], default="fermi")
    p.add_argument("--method", choices=["lattice", "reference"], default="reference")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("verify", help="run the identity catalogue")
    p.add_argument("--suite", default="*", help="glob over case ids")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--format", choices=["json", "csv", "markdown"], default="markdown")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="sweep one identity over a grid, emit CSV")
    p.add_argument("--identity", required=True)
    p.add_argument("--grid", required=True, help="start:stop:steps")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("ledger", help="print the correction ledger")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ledger)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NonConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except WavepackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
