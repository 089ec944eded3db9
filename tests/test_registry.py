import json

import pytest

from wavepack import asymptotics, registry, zeta
from wavepack.errors import DomainError
from wavepack.registry import (CORRECTION_LEDGER, IdentityCase, IdentityReport,
                               emit_report, ledger_json, ledger_markdown,
                               load_catalogue, run_case, run_suite)


@pytest.fixture(scope="module")
def catalogue():
    return load_catalogue()


class TestCatalogue:
    def test_loads_and_ids_unique(self, catalogue):
        ids = [c.id for c in catalogue]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)

    def test_ledger_evidence_ids_exist(self, catalogue):
        ids = {c.id for c in catalogue}
        for entry in CORRECTION_LEDGER:
            assert len(entry.evidence) >= 2
            for ev in entry.evidence:
                assert ev in ids, f"{entry.paper_eq}: missing evidence case {ev}"

    def test_design_constants_each_in_one_entry(self):
        # c_P, kappa0, kappa1, C_s, C_g, q, kappa(n)
        locations = {}
        for entry in CORRECTION_LEDGER:
            for key in entry.reconciled_constants:
                locations.setdefault(key, []).append(entry.paper_eq)
        for key in ("c_P", "kappa0", "kappa1", "C_s", "C_g", "q", "kappa(n)"):
            assert len(locations[key]) == 1, key

    def test_every_registered_evaluator_has_a_case(self, catalogue):
        # evaluators are exempt from the package's uncalled-helper check, so an
        # orphaned one shows here
        assert {c.evaluator for c in catalogue} == set(registry._EVALUATORS)

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            IdentityCase(id="x", paper_eq="e", evaluator="f", parameters={},
                         lhs_descriptor="", rhs_descriptor="", tolerance=0.0)


class TestRunSuite:
    def test_filter_subset(self, catalogue):
        reports = run_suite("L1.1-*", catalogue=catalogue)
        assert reports
        assert all(r.case_id.startswith("L1.1-") for r in reports)
        assert all(r.passed for r in reports)

    def test_zeta_suite(self, catalogue):
        reports = run_suite("T3.1-*", catalogue=catalogue)
        assert len(reports) == 5
        assert all(r.passed for r in reports)

    def test_unknown_filter_is_usage_error(self, catalogue):
        with pytest.raises(DomainError):
            run_suite("nonexistent-*", catalogue=catalogue)

    def test_unregistered_evaluator_fails_its_case(self):
        case = IdentityCase(id="X-nosuch", paper_eq="e", evaluator="nosuch", parameters={},
                            lhs_descriptor="", rhs_descriptor="", tolerance=1e-8)
        [report] = run_suite(catalogue=[case])
        assert not report.passed
        assert report.error.startswith("DomainError") and "X-nosuch" in report.error

    def test_pole_evaluator_refuses_an_amplitude_without_poles(self):
        case = IdentityCase(id="X-gauss", paper_eq="e", evaluator="exact_vs_oracle",
                            parameters={"amplitude": "gaussian", "x": 1.0, "tau": 0.1},
                            lhs_descriptor="", rhs_descriptor="", tolerance=1e-8)
        [report] = run_suite(catalogue=[case])
        assert not report.passed and report.error.startswith("UnsupportedMethodError")

    def test_determinism(self, catalogue):
        case = next(c for c in catalogue if c.id == "E4.2-ratio-n2")
        a = run_case(case)
        b = run_case(case)
        assert (a.lhs, a.rhs, a.abs_err, a.rel_err, a.passed) == \
               (b.lhs, b.rhs, b.abs_err, b.rel_err, b.passed)

    def test_tol_override(self, catalogue):
        case = next(c for c in catalogue if c.id == "QUAD-gauss-halfline")
        strict = run_case(case, tol_override=1e-300)
        assert not strict.passed


class TestUnconvergedOracle:
    # each oracle read of the evaluators, reported unconverged: the case fails
    # with the error instead of passing on the value
    @pytest.mark.parametrize("case_id,module,name", [
        ("L1.1-coscos-n0", registry, "integrate_decaying"),
        ("GR1.3-cos-n0", registry, "integrate_decaying"),
        ("QUAD-gauss-halfline", registry, "integrate_decaying"),
        ("QUAD-sech-line", registry, "integrate_decaying"),
        ("T2.2-exact-x1", registry, "psi_oracle"),
        ("HEAT-gauss-smalltau", registry, "psi_oracle"),
        ("G2.4-regularized-x1", registry, "integrate_oscillatory_regularized"),
        ("G2.4-x1", asymptotics, "chirp_integral"),
        ("G3.1-b05", zeta, "integrate_decaying"),
        ("PSF-fermi-m1", zeta, "integrate_decaying"),
    ])
    def test_case_fails_with_the_error(self, catalogue, unconverged, case_id, module, name):
        unconverged(module, name)
        [report] = run_suite(case_id, catalogue=catalogue)
        assert not report.passed
        assert report.error.startswith("NonConvergenceError")


def _mkreport(case_id="c1", passed=True):
    return IdentityReport(case_id=case_id, paper_eq="(1.1)", lhs=1 + 2j, rhs=1 + 2j,
                          abs_err=0.0, rel_err=0.0, passed=passed, runtime_ms=1.0)


class TestEmitReport:
    def test_empty_json(self):
        doc = json.loads(emit_report([], fmt="json", ledger=()))
        assert doc == {"cases": [], "passed": 0, "failed": 0, "ledger": []}

    def test_json_schema_fields(self):
        doc = json.loads(emit_report([_mkreport()], fmt="json"))
        assert doc["passed"] == 1 and doc["failed"] == 0
        case = doc["cases"][0]
        assert set(case.keys()) == {"id", "paper_eq", "lhs", "rhs", "abs_err",
                                    "rel_err", "passed"}
        assert set(case["lhs"].keys()) == {"re", "im"}
        entry = doc["ledger"][0]
        assert set(entry.keys()) == {"paper_eq", "printed_form", "implemented_form",
                                     "constants"}

    def test_csv_header(self):
        text = emit_report([_mkreport()], fmt="csv")
        assert text.splitlines()[0] == \
            "id,paper_eq,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,passed"

    def test_markdown_contains_ledger(self):
        text = emit_report([_mkreport()], fmt="markdown")
        assert "Correction ledger" in text
        assert "kappa0=0.5" in text

    def test_byte_stability(self):
        reports = [_mkreport("b"), _mkreport("a")]
        assert emit_report(reports, fmt="json") == emit_report(list(reversed(reports)), fmt="json")
        assert emit_report(reports, fmt="csv") == emit_report(list(reversed(reports)), fmt="csv")

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            emit_report([], fmt="xml")


class TestLedgerViews:
    def test_markdown_nonempty(self):
        text = ledger_markdown()
        assert "printed" in text and "implemented" in text

    def test_empty_ledger_message(self):
        assert ledger_markdown(()) == "no corrections recorded\n"

    def test_json_round_trip(self):
        entries = json.loads(ledger_json())
        assert any(e["paper_eq"] == "Thm 3.1" for e in entries)
        thm31 = next(e for e in entries if e["paper_eq"] == "Thm 3.1")
        assert thm31["constants"]["kappa0"] == 0.5
        assert thm31["constants"]["kappa1"] == 2.0
