"""The correction ledger: every printed formula whose constants were
reconciled numerically, with the catalogue cases that serve as evidence.

The entries ship as a JSON data file (data/ledger.json).  This module needs
the standard library only, so `wavepack ledger` runs without numpy.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class CorrectionLedgerEntry:
    paper_eq: str
    printed_form: str
    implemented_form: str
    reconciled_constants: dict
    evidence: tuple


CORRECTION_LEDGER: tuple = tuple(
    CorrectionLedgerEntry(**{**entry, "evidence": tuple(entry["evidence"])})
    for entry in json.loads(resources.files("wavepack").joinpath("data/ledger.json").read_text()))


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
