"""Tests of the benchmark harness itself (not part of the ap3 test suite)."""

import ast
import json
import sys
from pathlib import Path

import pytest

import run
import workloads
from reference import brute_table
from reference import main as reference_main
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def ap3_bindings():
    """Every attribute and module-level dict value of every loaded ap3 module."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "ap3" or modname.startswith("ap3."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
                if isinstance(value, dict):
                    for key, item in value.items():
                        out[(modname, attr, key)] = item
    return out


def test_tracer_patches_every_lookup_and_restores_it():
    import ap3

    before = ap3_bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            for mod in ("constructions", "structure", "bounds", "counting"):
                assert getattr(ap3, mod).t3_fast is not before[(f"ap3.{mod}", "t3_fast")]
            assert ap3.search.canonicalize is not before[("ap3.search", "canonicalize")]
            assert (ap3.search.affine_orbit_transversal
                    is not before[("ap3.search", "affine_orbit_transversal")])
            assert ap3.suites.SUITES["rectify"] is not before[("ap3.suites", "SUITES", "rectify")]
            1 / 0
    after = ap3_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def small_workloads(tmp_path):
    return [
        workloads.ModTable(0, tmp_path, N=7, reference=brute_table(7)),
        workloads.IntSearch(0, tmp_path, n_max=7),
        workloads.DensityBounds(3, tmp_path, wrap_N=601, opt_N=499, energy_N=1009,
                                energy_size=200, triples=2),
    ]


def test_traced_run_returns_the_untraced_results(tmp_path):
    for wl in small_workloads(tmp_path):
        plain = workloads.run_untimed(wl)
        assert all(ok for _, ok in wl.check(plain)), wl.name
        layers = []
        for _ in range(2):
            with Tracer(run.RESULT_COUNTERS) as tracer:
                traced = workloads.run_untimed(wl)
            assert traced == plain, wl.name
            layers.append(run.layer_metrics(tracer))
        counts = [{k: v for k, v in layer.items() if not k.endswith("self_s")}
                  for layer in layers]
        assert counts[0] == counts[1], wl.name
        assert layers[0]["cli.main.calls"] > 0


def test_mod_table_layer_counts():
    wl = workloads.ModTable(0, HERE, N=7, reference=brute_table(7))
    with Tracer(run.RESULT_COUNTERS) as tracer:
        workloads.run_untimed(wl)
    layer = run.layer_metrics(tracer)
    # one transversal per search: C(6, k-1) candidates for k = 1..7, both sides
    assert tracer.calls_under("sets.canonicalize", "sets.affine_orbit_transversal") == 2 * 2**6
    assert layer["search.extremal_mod.calls"] == 14
    assert layer["sets.orbit_yield"] == layer["sets.affine_orbit_transversal.orbits"] / 128


def acceptance_brute_tables():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BRUTE_TABLES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("BRUTE_TABLES not found")


def test_reference_script_reproduces_the_acceptance_tables():
    tables = acceptance_brute_tables()
    assert sorted(tables) == [5, 7, 11, 13]
    for N, table in tables.items():
        assert brute_table(N) == table, N


def test_committed_reference_table(tmp_path):
    out = tmp_path / "table.json"
    assert reference_main(["--N", "17", "--out", str(out)]) == 0
    assert out.read_text() == (HERE / "mod_table_N17.json").read_text()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {name.split(".")[0] for name in run.PER_LAYER} - {"trace_overhead_share"} == set(LAYERS)
