import gc
import json
import re

import pytest

from ap3.cli import build_parser, main


# Exact stdout of two searches, kept byte for byte: the summary line goes to
# stderr and must not change what a search prints.
SEARCH_MOD_STDOUT = """\
{
 "config": {
  "command": "search",
  "context": "mod 7",
  "n": 3,
  "side": "min"
 },
 "pruned_count": 3,
 "search_space_size": 5,
 "value": 3,
 "witnesses": [
  {
   "elements": [
    0,
    1,
    3
   ],
   "modulus": 7
  }
 ]
}
"""

SEARCH_INT_STDOUT = """\
{
 "config": {
  "command": "search",
  "context": "integers",
  "n": 4,
  "width_cap": 8
 },
 "pruned_count": 0,
 "search_space_size": 56,
 "value": 8,
 "witnesses": [
  {
   "elements": [
    0,
    1,
    2,
    3
   ],
   "modulus": null
  },
  {
   "elements": [
    0,
    1,
    2,
    4
   ],
   "modulus": null
  }
 ]
}
"""

COUNT_STDOUT = """\
{
 "combinatorial": 3,
 "config": {
  "command": "count",
  "input": "s.json"
 },
 "t3": 10,
 "trivial": 4
}
"""


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
        assert payload["config"] == {"command": "count", "input": path}

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

    def test_summary_on_stderr_stdout_unchanged(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_doc(tmp_path, "s.json", {"modulus": 7, "elements": [0, 1, 2, 4]})
        code, out, err = run(capsys, ["count", "--in", "s.json"])
        assert code == 0
        assert out == COUNT_STDOUT
        assert re.fullmatch(r"# count modulus=7 n=4 t3=10 elapsed_s=\d+\.\d{3}\n", err)

    def test_summary_integer_context(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", {"modulus": None, "elements": [-3, -1, 0, 1, 3]})
        _, _, err = run(capsys, ["count", "--in", path])
        assert re.fullmatch(r"# count modulus=null n=5 t3=13 elapsed_s=\d+\.\d{3}\n", err)


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

    @pytest.mark.parametrize(
        "argv, stdout, summary",
        [
            (["search", "-n", "3", "-N", "7", "--side", "min"], SEARCH_MOD_STDOUT,
             r"# search context=mod 7 n=3 candidates=5 orbits=2 elapsed_s=\d+\.\d{3}"),
            (["search", "--integers", "-n", "4"], SEARCH_INT_STDOUT,
             r"# search context=integers n=4 candidates=56 pruned=0 elapsed_s=\d+\.\d{3}"),
        ],
        ids=["modular", "integers"],
    )
    def test_summary_on_stderr_stdout_unchanged(self, capsys, argv, stdout, summary):
        code, out, err = run(capsys, argv)
        assert code == 0
        assert out == stdout
        assert re.fullmatch(summary + "\n", err)

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
        "argv",
        [[suite, "--cases", "4"]
         for suite in ("complement", "energy-lemma", "t3-energy", "rectify", "final-lemma")]
        + [["extremal-int", "--n-max", "5"], ["behrend"]],
        ids=lambda argv: argv[0],
    )
    def test_every_suite_smoke(self, argv, capsys):
        code, out, err = run(capsys, ["verify", *argv])
        assert code == 0, err
        assert "passed=True" in err

    def test_extremal_mod_suite_smoke(self, capsys):
        code, _, err = run(capsys, ["verify", "extremal-mod", "--N", "5", "--N", "7"])
        assert code == 0 and "passed=True" in err


# Exact stdout of a first closure of the default ledger; the summary line
# goes to stderr.
CLOSURE_STDOUT = """\
{
 "added": 807,
 "config": {
  "command": "bounds closure"
 },
 "consistent": true,
 "m3_quarter_upper": "145/13824"
}
"""


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

    def test_closure_summary_on_stderr_stdout_unchanged(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.json")
        assert run(capsys, ["bounds", "build", "--ledger", ledger])[0] == 0
        code, out, err = run(capsys, ["bounds", "closure", "--ledger", ledger])
        assert code == 0
        assert out == CLOSURE_STDOUT
        assert re.fullmatch(
            r"# closure added=807 records=1272 max_depth=2 elapsed_s=\d+\.\d{3}\n", err
        )
        code, out, err = run(capsys, ["bounds", "closure", "--ledger", ledger])
        assert code == 0 and json.loads(out)["added"] == 0
        assert re.fullmatch(r"# closure added=0 records=1272 max_depth=2 elapsed_s=\S+\n", err)

    BAD_RECORD = '{"records": [{"target": "m3", "alpha": %s, "value": %s, "side": "upper", ' \
                 '"provenance": "p", "parents": %s}]}'

    @pytest.mark.parametrize(
        "text",
        [
            '{"records": 5}',
            '{"records": [5]}',
            "[]",
            pytest.param(BAD_RECORD % ("true", '"0"', "[]"), id="alpha-bool"),
            pytest.param(BAD_RECORD % ('"1/2"', "0.1", "[]"), id="value-float"),
            pytest.param(BAD_RECORD % ('"1/2"', '"0"', '["r00000"]'), id="unknown-parent"),
            pytest.param(BAD_RECORD % ('"1/2"', '"0"', '"r00000"'), id="parents-not-list"),
        ],
    )
    def test_malformed_ledger_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "ledger.json"
        path.write_text(text)
        code, _, err = run(capsys, ["bounds", "closure", "--ledger", str(path)])
        assert code == 2 and err.startswith("error:")

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
        assert payload["value"] == "0.31730611961510"  # the library default, 14 digits

    def test_cutoff_digits_reach_the_library(self, capsys):
        code, out, _ = run(capsys, ["bounds", "cutoff", "--digits", "5"])
        assert code == 0 and json.loads(out)["value"] == "0.31730"
        code, _, err = run(capsys, ["bounds", "cutoff", "--digits", "0"])
        assert code == 2 and "digits" in err


class TestDeterminism:
    # one case per kind of option that was parsed and then never read
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["search", "-n", "5", "-N", "13", "--threads", "2"], "--threads"),
            (["search", "-n", "5", "-N", "13", "--format", "csv"], "--format"),
            (["bounds", "cutoff", "--budget-nodes", "10"], "--budget-nodes"),
            (["count", "--in", "s.json", "--seed", "1"], "--seed"),
            (["search", "--integers", "-n", "5", "--side", "min"], "--side"),
            (["search", "-n", "3", "-N", "7", "--width-cap", "9"], "--width-cap"),
            (["search", "--threshold-scan", "-N", "5", "-n", "3"], "-n"),
            (["search", "--threshold-scan", "--integers", "-N", "5"], "--integers"),
            (["verify", "behrend", "--cases", "3"], "--cases"),
            (["verify", "extremal-int", "--seed", "1"], "--seed"),
            (["verify", "t3-energy", "--N", "7"], "--N"),
            (["bounds", "cutoff", "--ledger", "x"], "--ledger"),
            (["bounds", "export", "--depth", "3"], "--depth"),
            (["bounds", "build", "--digits", "3"], "--digits"),
        ],
        ids=["search-threads", "search-format", "bounds-budget-nodes", "count-seed",
             "search-integers-side", "search-modular-width-cap", "search-threshold-scan-n",
             "search-threshold-scan-integers", "verify-behrend-cases",
             "verify-extremal-int-seed", "verify-t3-energy-N", "bounds-cutoff-ledger",
             "bounds-export-depth", "bounds-build-digits"],
    )
    def test_removed_option_is_usage_error(self, capsys, argv, flag):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: the command has no such option
            code = exc.code
        assert code == 2
        assert flag in capsys.readouterr().err

    # the library signatures hold every default, so an option the user did
    # not type parses to None and is not forwarded
    @pytest.mark.parametrize(
        "argv, given",
        [
            (["count", "--in", "s.json"], {"input": "s.json"}),
            (["search"], {}),
            (["verify", "complement"], {"suite": "complement"}),
            (["bounds", "closure"], {"action": "closure"}),
        ],
        ids=["count", "search", "verify", "bounds"],
    )
    def test_untyped_options_parse_to_none(self, argv, given):
        args = vars(build_parser().parse_args(argv))
        assert {k: v for k, v in args.items() if v is not None and k not in ("fn", "command")} == given

    def test_repeat_run_identical(self, capsys):
        _, out1, _ = run(capsys, ["search", "--integers", "-n", "6"])
        _, out2, _ = run(capsys, ["search", "--integers", "-n", "6"])
        assert out1 == out2
