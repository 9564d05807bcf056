import gc
import json

import pytest

from ap3.cli import main


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_modular_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", {"modulus": 5, "elements": [1, 2, 3, 4]})
        code, out, _ = run(capsys, ["count", "--in", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["t3"] == 12
        assert payload["trivial"] == 4 and payload["combinatorial"] == 4
        assert payload["config"]["seed"] == 0

    def test_empty_set(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", {"modulus": 7, "elements": []})
        code, out, _ = run(capsys, ["count", "--in", path])
        assert code == 0 and json.loads(out)["t3"] == 0

    def test_integer_context(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", {"modulus": None, "elements": [-3, -1, 0, 1, 3]})
        code, out, _ = run(capsys, ["count", "--in", path])
        assert code == 0 and json.loads(out)["t3"] == 13

    def test_even_modulus_no_split(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", {"modulus": 6, "elements": [0, 3]})
        code, out, _ = run(capsys, ["count", "--in", path])
        assert code == 0
        assert json.loads(out)["combinatorial"] is None

    def test_element_out_of_range(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", {"modulus": 5, "elements": [0, 7]})
        code, _, err = run(capsys, ["count", "--in", path])
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["count", "--in", "/nonexistent/s.json"])
        assert code == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run(capsys, ["count", "--in", str(path)])
        assert code == 2


class TestSearch:
    def test_integers_five(self, capsys):
        code, out, _ = run(capsys, ["search", "--integers", "-n", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 13
        assert len(payload["witnesses"]) == 2

    def test_modular(self, capsys):
        code, out, _ = run(capsys, ["search", "-n", "4", "-N", "5"])
        assert code == 0 and json.loads(out)["value"] == 12

    def test_budget_exceeded(self, capsys):
        code, out, err = run(capsys, ["search", "-n", "10", "-N", "101"])
        assert code == 3
        assert out == ""  # no partial value printed
        assert "budget" in err

    def test_composite_modulus(self, capsys):
        code, _, err = run(capsys, ["search", "-n", "3", "-N", "9"])
        assert code == 2

    def test_missing_modulus(self, capsys):
        code, _, err = run(capsys, ["search", "-n", "3"])
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        code, out, _ = run(capsys, ["search", "-n", "3", "-N", "7", "--out", str(out_path)])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["value"] == 5

    def test_threshold_scan(self, capsys):
        code, out, err = run(capsys, ["search", "--threshold-scan", "-N", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,M3,half_n2_match,all_EF_witnesses"
        assert lines[4] == "4,12,False,True"
        assert "3/5" in err


class TestVerify:
    def test_complement_suite(self, capsys):
        code, out, err = run(
            capsys, ["verify", "complement", "--cases", "5", "--N", "5", "--N", "7"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "case,lhs,rhs,holds"
        assert all(line.endswith("True") for line in lines[1:])
        assert "passed=True" in err

    def test_t3_energy_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "t3-energy", "--cases", "20", "--seed", "1"])
        assert code == 0

    def test_extremal_int_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "extremal-int", "--n-max", "6"])
        assert code == 0
        assert "n6:value" in out

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2

    def test_csv_out_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, ["verify", "behrend", "--out", str(path)])
        assert code == 0
        assert path.read_text().startswith("case,lhs,rhs,holds")

    @pytest.mark.parametrize(
        "suite", ["complement", "energy-lemma", "t3-energy", "extremal-int",
                  "rectify", "final-lemma", "behrend"]
    )
    def test_every_suite_smoke(self, suite, capsys):
        argv = ["verify", suite, "--cases", "4"]
        if suite == "extremal-int":
            argv = ["verify", suite, "--n-max", "5"]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert "passed=True" in err

    def test_extremal_mod_suite_smoke(self, capsys):
        code, _, err = run(capsys, ["verify", "extremal-mod", "--N", "5", "--N", "7"])
        assert code == 0 and "passed=True" in err


class TestBounds:
    def test_build_closure_export_cycle(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.json")
        code, out, _ = run(capsys, ["bounds", "build", "--ledger", ledger])
        assert code == 0 and json.loads(out)["consistent"]

        code, out, _ = run(capsys, ["bounds", "closure", "--ledger", ledger])
        assert code == 0
        payload = json.loads(out)
        assert payload["consistent"]
        num, den = payload["m3_quarter_upper"].split("/")
        assert int(num) / int(den) <= 25 / 2304 + 1e-12

        csv_path = tmp_path / "ledger.csv"
        code, _, _ = run(capsys, ["bounds", "export", "--ledger", ledger, "--out", str(csv_path)])
        assert code == 0
        assert csv_path.read_text().startswith("target,alpha,side,value,provenance")

    def test_corrupt_ledger(self, tmp_path, capsys):
        path = tmp_path / "ledger.json"
        path.write_text("{broken")
        code, _, err = run(capsys, ["bounds", "closure", "--ledger", str(path)])
        assert code == 2

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_csv_outputs_are_closed(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.json")
        assert run(capsys, ["bounds", "build", "--ledger", ledger])[0] == 0
        suite_csv, ledger_csv = tmp_path / "suite.csv", tmp_path / "ledger.csv"
        assert run(capsys, ["verify", "behrend", "--out", str(suite_csv)])[0] == 0
        assert run(capsys, ["bounds", "export", "--ledger", ledger, "--out", str(ledger_csv)])[0] == 0
        gc.collect()
        assert suite_csv.read_text().startswith("case,lhs,rhs,holds")
        assert ledger_csv.read_text().startswith("target,alpha,side,value,provenance")

    def test_cutoff(self, capsys):
        code, out, _ = run(capsys, ["bounds", "cutoff"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"].startswith("0.317306119615")
        assert len(payload["value"]) >= 14  # "0." + at least 12 digits


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "-n", "5", "-N", "13", "--threads", "2"],
            ["search", "-n", "5", "-N", "13", "--format", "csv"],
            ["bounds", "cutoff", "--budget-nodes", "10"],
        ],
        ids=["search-threads", "search-format", "bounds-budget-nodes"],
    )
    def test_removed_option_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_repeat_run_identical(self, capsys):
        _, out1, _ = run(capsys, ["search", "--integers", "-n", "6"])
        _, out2, _ = run(capsys, ["search", "--integers", "-n", "6"])
        assert out1 == out2
