"""Batch command-line front end.

Subcommands: count (T3 of a set document), search (exhaustive extrema),
verify (property suites, CSV output), bounds (ledger build/closure/export
and the sharpness cutoff).  Exit codes are a stable contract: 0 success,
2 usage or input error, 3 search budget exceeded.  Each option the user
gives goes as a keyword argument to the one library function that reads
it, so every default is that function's; an option the function does not
take is a usage error.  Only the seeded verify suites take --seed, and
their summary line prints it, so a run is reproducible from its command.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time
from fractions import Fraction

from .bounds import Ledger, build_default_ledger, ef_sharpness_cutoff, submultiplicative_closure
from .counting import count_report, t3_fast, t3_integers
from .search import (BudgetExceededError, extremal_mod, integer_width_cap, max3ap_integers,
                     threshold_scan)
from .sets import IntegerSet, load_set
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _given(args) -> dict:
    """The options the user gave: argparse leaves every other one None."""
    return {k: v for k, v in vars(args).items()
            if v is not None and k not in ("fn", "command", "out")}


def _flag(dest: str) -> str:
    if dest == "moduli":
        return "--N"
    return ("-" if len(dest) == 1 else "--") + dest.replace("_", "-")


def _bind(fn, label: str, options: dict, **fixed) -> dict:
    """The keyword arguments of fn(**fixed, **options), library defaults
    filled in; an option fn does not take, or a required one missing, is a
    usage error naming the flag."""
    sig = inspect.signature(fn)
    try:
        bound = sig.bind(**fixed, **options)
    except TypeError:
        unread = [_flag(k) for k in options if k not in sig.parameters]
        if unread:
            raise ValueError(f"{label} takes no {', '.join(unread)}") from None
        missing = [_flag(k) for k, p in sig.parameters.items()
                   if p.default is p.empty and k not in fixed and k not in options]
        raise ValueError(f"{label} needs {', '.join(missing)}") from None
    bound.apply_defaults()
    return bound.arguments


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_count(args) -> int:
    A = load_set(args.input)
    start = time.perf_counter()
    if isinstance(A, IntegerSet):
        payload = t3_integers(A).to_document()
    elif A.modulus % 2 == 1:
        payload = count_report(A).to_document()
    else:
        payload = {"t3": t3_fast(A), "trivial": len(A), "combinatorial": None}
    elapsed = time.perf_counter() - start
    _emit({"config": {"command": "count", "input": str(args.input)}, **payload}, args)
    modulus = "null" if isinstance(A, IntegerSet) else A.modulus
    print(f"# count modulus={modulus} n={len(A)} t3={payload['t3']} elapsed_s={elapsed:.3f}",
          file=sys.stderr)
    return EXIT_OK


def _write_csv(rows, args) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def cmd_search(args) -> int:
    opts = _given(args)
    if opts.pop("threshold_scan", False):
        scan = threshold_scan(**_bind(threshold_scan, "search --threshold-scan", opts))
        _write_csv(scan.to_csv_rows(), args)
        print(f"# largest n/N with ceil(n^2/2) value and family witnesses: "
              f"{scan.largest_good_ratio}", file=sys.stderr)
        return EXIT_OK
    start = time.perf_counter()
    if opts.pop("integers", False):
        kw = _bind(max3ap_integers, "search --integers", opts)
        res = max3ap_integers(**kw)
        cfg = {"command": "search", "context": "integers", "n": kw["n"],
               "width_cap": integer_width_cap(kw["n"], kw["width_cap"])}
        found = f"pruned={res.pruned_count}"
    else:
        kw = _bind(extremal_mod, "search", opts)
        res = extremal_mod(**kw)
        cfg = {"command": "search", "context": f"mod {kw['N']}", "n": kw["n"], "side": kw["side"]}
        found = f"orbits={res.search_space_size - res.pruned_count}"
    elapsed = time.perf_counter() - start
    _emit({"config": cfg, **res.to_document()}, args)
    print(f"# search context={cfg['context']} n={kw['n']} candidates={res.search_space_size} "
          f"{found} elapsed_s={elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    opts = _given(args)
    suite = opts.pop("suite")
    kw = _bind(SUITES[suite], f"verify {suite}", opts)
    rows, passed = run_suite(suite, **kw)
    _write_csv([["case", "lhs", "rhs", "holds"]] + [list(r.values()) for r in rows], args)
    seed = f" seed={kw['seed']}" if "seed" in kw else ""
    print(f"# suite={suite}{seed} cases={len(rows)} passed={passed}", file=sys.stderr)
    return EXIT_OK if passed else 1


def cmd_bounds(args) -> int:
    opts = _given(args)
    action = opts.pop("action")
    if action == "cutoff":
        cert = ef_sharpness_cutoff(**_bind(ef_sharpness_cutoff, "bounds cutoff", opts))
        samples = [{k: v if k == "product_wins" else str(v) for k, v in s.items()}
                   for s in cert.samples]
        _emit({"config": {"command": "bounds cutoff"}, "value": cert.decimal,
               "interval": [str(cert.lower), str(cert.upper)],
               "crossover_bracket": [str(x) for x in cert.crossover_bracket],
               "samples": samples}, args)
        return EXIT_OK
    path = opts.pop("ledger", "ledger.json")
    if action == "build":
        led = build_default_ledger(**_bind(build_default_ledger, "bounds build", opts))
        led.save(path)
        _emit({"config": {"command": "bounds build"},
               "records": len(led.records), "consistent": led.check_consistency()}, args)
        return EXIT_OK
    if action == "export":
        _bind(Ledger.export_csv_rows, "bounds export", opts, self=None)
        _write_csv(Ledger.load(path).export_csv_rows(), args)
        return EXIT_OK
    kw = _bind(submultiplicative_closure, "bounds closure", opts, ledger=None)
    led = kw["ledger"] = Ledger.load(path)
    start = time.perf_counter()
    added = submultiplicative_closure(**kw)
    elapsed = time.perf_counter() - start
    led.save(path)
    quarter = led.best_upper("m3", Fraction(1, 4))
    _emit({"config": {"command": "bounds closure"}, "added": added,
           "consistent": led.check_consistency(),
           "m3_quarter_upper": str(quarter) if quarter is not None else None}, args)
    max_depth = max((r.depth for r in led.records), default=0)
    print(f"# closure added={added} records={len(led.records)} max_depth={max_depth} "
          f"elapsed_s={elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ap3", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out")
        sp.set_defaults(fn=fn)
        return sp

    sp = command("count", cmd_count, "T3 of a set document")
    sp.add_argument("--in", dest="input", required=True)

    sp = command("search", cmd_search, "exhaustive extremal search")
    sp.add_argument("-n", type=int)
    sp.add_argument("-N", type=int)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--integers", action="store_true", default=None)
    mode.add_argument("--threshold-scan", action="store_true", default=None,
                      help="emit the per-n table for -N as CSV")
    sp.add_argument("--side", choices=("max", "min"))
    sp.add_argument("--width-cap", type=int)
    sp.add_argument("--budget-nodes", type=int)

    sp = command("verify", cmd_verify, "run a verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--cases", type=int)
    sp.add_argument("--n-max", type=int)
    sp.add_argument("--N", dest="moduli", type=int, action="append")
    sp.add_argument("--seed", type=int)

    sp = command("bounds", cmd_bounds, "bounds ledger operations")
    sp.add_argument("action", choices=("build", "closure", "export", "cutoff"))
    sp.add_argument("--ledger", help="ledger file (ledger.json if not given)")
    sp.add_argument("--max-denominator", type=int)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--digits", type=int)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc} (estimated candidates: {exc.estimate})", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
