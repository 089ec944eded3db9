import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wavepack.cli import main, parse_complex
from wavepack.foundation import PhysicalConfig
from wavepack.wavepacket import Amplitude, psi


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("1.5") == 1.5 + 0j
        assert parse_complex("2,-0.1") == 2 - 0.1j

    def test_rejects_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("1,2,3")


class TestPsiCommand:
    def test_gaussian_at_origin(self):
        code, out, _ = run_cli(["psi", "--amplitude", "gaussian", "--alpha", "1",
                                "--x", "0", "--t", "0,0"])
        assert code == 0
        assert "1.77245385091" in out

    def test_sech_normalization(self):
        code, out, _ = run_cli(["psi", "--amplitude", "sech", "--beta", "3.14159265358979",
                                "--x", "0", "--t", "0,0", "--method", "quadrature"])
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1].split()[0])
        assert abs(value - 1.0) < 1e-9

    def test_methods_cross_check(self):
        args = ["psi", "--amplitude", "gaussian", "--alpha", "1", "--x", "1",
                "--t", "1,0", "--json"]
        code1, out1, _ = run_cli(args + ["--method", "closed"])
        code2, out2, _ = run_cli(args + ["--method", "quadrature"])
        assert code1 == code2 == 0
        v1 = json.loads(out1)["psi"]
        v2 = json.loads(out2)["psi"]
        assert abs(complex(v1["re"], v1["im"]) - complex(v2["re"], v2["im"])) < 1e-9

    def test_json_round_trip_bit_for_bit(self):
        code, out, _ = run_cli(["psi", "--amplitude", "gaussian", "--alpha", "1",
                                "--x", "0.8", "--t", "0.5,-0.1", "--json"])
        assert code == 0
        doc = json.loads(out)
        lib = psi(Amplitude.gaussian(1.0), 0.8, 0.5 - 0.1j, method="closed").psi
        assert doc["psi"]["re"] == lib.real
        assert doc["psi"]["im"] == lib.imag
        assert doc["method"] == "closed"

    def test_physical_units_pair_enforced(self):
        code, _, _ = run_cli(["psi", "--amplitude", "gaussian", "--alpha", "1",
                              "--x", "0", "--t", "0,0", "--hbar", "2"])
        assert code == 2

    def test_physical_units_pair_message(self):
        for extra in (["--hbar", "2"], ["--mass", "0.5"]):
            code, out, err = run_cli(["psi", "--amplitude", "gaussian", "--alpha", "1",
                                      "--x", "0", "--t", "0,0", *extra])
            assert code == 2
            assert out == ""
            assert err.strip() == "error: --hbar and --mass must be given together"

    def test_physical_units_change_value(self):
        code, out, _ = run_cli(["psi", "--amplitude", "gaussian", "--alpha", "1",
                                "--x", "1", "--t", "0.5,0", "--hbar", "2",
                                "--mass", "0.5", "--json"])
        assert code == 0
        doc = json.loads(out)
        # tau = t*hbar/(2m) = 1
        lib = psi(Amplitude.gaussian(1.0), 1.0, 0.5,
                  PhysicalConfig(hbar=2.0, mass=0.5), method="closed").psi
        assert doc["psi"]["re"] == lib.real

    def test_usage_error_exit_2(self):
        code, _, _ = run_cli(["psi", "--amplitude", "nosuch", "--x", "0", "--t", "0,0"])
        assert code == 2

    def test_series_methods(self):
        code, out, _ = run_cli(["psi", "--amplitude", "gaussian", "--alpha", "1",
                                "--x", "1", "--t", "0.1,-0.05", "--method", "heat",
                                "--json"])
        assert code == 0
        heat = json.loads(out)
        lib = psi(Amplitude.gaussian(1.0), 1.0, 0.1 - 0.05j, method="closed").psi
        assert abs(complex(heat["psi"]["re"], heat["psi"]["im"]) - lib) < 1e-9
        assert heat["method"] == "heat_series"
        code, out, _ = run_cli(["psi", "--amplitude", "sech", "--beta", "1.5707963267949",
                                "--x", "4", "--t", "0.05,0", "--method", "theta", "--json"])
        assert code == 0
        assert json.loads(out)["method"] == "theta_series"


class TestZetaCommand:
    def test_reference(self):
        code, out, _ = run_cli(["zeta", "--m", "1", "--method", "reference"])
        assert code == 0
        assert "2.612375348685" in out

    def test_lattice_matches_reference(self):
        code1, out1, _ = run_cli(["zeta", "--m", "1", "--method", "lattice",
                                  "--statistic", "fermi", "--json"])
        code2, out2, _ = run_cli(["zeta", "--m", "1", "--method", "reference", "--json"])
        assert code1 == code2 == 0
        v1, v2 = json.loads(out1), json.loads(out2)
        assert abs(v1["zeta"] - v2["zeta"]) <= 1e-8
        assert "correction_sum" in v1

    def test_m_out_of_range(self):
        code, _, _ = run_cli(["zeta", "--m", "0", "--method", "lattice",
                              "--statistic", "bose"])
        assert code == 2
        code, _, _ = run_cli(["zeta", "--m", "7"])
        assert code == 2


class TestVerifyCommand:
    def test_subset_passes(self):
        code, out, _ = run_cli(["verify", "--suite", "L1.1-*"])
        assert code == 0
        assert "passed" in out

    def test_unknown_suite_usage_error(self):
        code, _, err = run_cli(["verify", "--suite", "none-*"])
        assert code == 2
        assert "matches no" in err

    def test_csv_format(self):
        code, out, _ = run_cli(["verify", "--suite", "E4.2-*", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == \
            "id,paper_eq,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,passed"
        assert all(line.endswith(",true") for line in out.splitlines()[1:])

    def test_json_format_schema(self):
        code, out, _ = run_cli(["verify", "--suite", "QUAD-*", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0
        assert {"id", "paper_eq", "lhs", "rhs", "abs_err", "rel_err", "passed"} == \
            set(doc["cases"][0].keys())

    def test_tol_override_can_fail(self):
        code, out, _ = run_cli(["verify", "--suite", "QUAD-gauss-halfline",
                                "--tol", "1e-300", "--format", "json"])
        assert code == 1
        assert json.loads(out)["failed"] == 1


class TestTableCommand:
    def test_sweep_csv(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["table", "--identity", "G2.4-x1", "--grid", "0.5:2:4",
                              "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,lhs_re,lhs_im,rhs_re,rhs_im,abs_err"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-7

    def test_zero_step_grid(self):
        code, _, _ = run_cli(["table", "--identity", "G2.4-x1", "--grid", "1:2:0"])
        assert code == 2

    def test_unknown_identity(self):
        code, _, _ = run_cli(["table", "--identity", "NOPE", "--grid", "0:1:3"])
        assert code == 2

    def test_non_sweepable_identity(self):
        code, _, _ = run_cli(["table", "--identity", "QUAD-gauss-halfline",
                              "--grid", "0:1:3"])
        assert code == 2


class TestLedgerCommand:
    def test_markdown(self):
        code, out, _ = run_cli(["ledger"])
        assert code == 0
        for tag in ("(4.1)", "(4.2)", "(2.3)", "(2.4)", "(2.5)", "Thm 3.1",
                    "Cor 1.2.1", "(1.10)/(1.11)"):
            assert tag in out

    def test_json(self):
        code, out, _ = run_cli(["ledger", "--json"])
        assert code == 0
        entries = json.loads(out)
        assert len(entries) >= 8


class TestVerifySurvivesAFailingCase:
    @pytest.fixture
    def failing_coscos(self, monkeypatch):
        from wavepack import registry
        from wavepack.errors import NonConvergenceError

        def fail(p):
            raise NonConvergenceError("synthetic")

        monkeypatch.setitem(registry._EVALUATORS, "coscos_vs_oracle", fail)

    def test_json_report_counts_and_names_the_failure(self, failing_coscos):
        code, out, err = run_cli(["verify", "--suite", "L1.1-*", "--format", "json"])
        assert code == 1
        doc = json.loads(out)
        failed = {c["id"] for c in doc["cases"] if not c["passed"]}
        assert failed == {"L1.1-coscos-n0", "L1.1-coscos-n2-cplx", "L1.1-coscos-n3"}
        assert doc["failed"] == 3 and doc["passed"] == len(doc["cases"]) - 3
        assert doc["errors"] == {cid: "NonConvergenceError: synthetic" for cid in failed}
        assert all(set(c) == {"id", "paper_eq", "lhs", "rhs", "abs_err", "rel_err", "passed"}
                   for c in doc["cases"])
        assert "L1.1-coscos-n0" in err

    def test_csv_and_markdown_reports(self, failing_coscos):
        code, out, _ = run_cli(["verify", "--suite", "L1.1-coscos-*", "--format", "csv"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "id,paper_eq,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,passed"
        assert len(lines) == 4 and all(line.endswith(",false") for line in lines[1:])
        code, out, _ = run_cli(["verify", "--suite", "L1.1-*"])
        assert code == 1
        assert "## Errors" in out and "- L1.1-coscos-n3: NonConvergenceError: synthetic" in out

    def test_no_errors_key_when_every_case_runs(self):
        code, out, _ = run_cli(["verify", "--suite", "QUAD-*", "--format", "json"])
        assert code == 0 and "errors" not in json.loads(out)
