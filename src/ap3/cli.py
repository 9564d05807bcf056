"""Batch command-line front end.

Subcommands: count (T3 of a set document), search (exhaustive extrema),
verify (property suites, CSV output), bounds (ledger build/closure/export
and the sharpness cutoff).  Exit codes are a stable contract: 0 success,
2 usage or input error, 3 search budget exceeded.  All randomness flows from
--seed and is recorded in the output, so a run is reproducible from its
printed header.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .bounds import Ledger, build_default_ledger, ef_sharpness_cutoff, submultiplicative_closure
from .counting import count_report, t3_fast, t3_integers
from .search import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    extremal_mod,
    max3ap_integers,
    threshold_scan,
)
from .sets import IntegerSet, load_set
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _header(args, **extra) -> dict:
    cfg = {"seed": getattr(args, "seed", None), **extra}
    return {k: v for k, v in cfg.items() if v is not None}


def cmd_count(args) -> int:
    A = load_set(args.input)
    if isinstance(A, IntegerSet):
        payload = t3_integers(A).to_document()
    elif A.modulus % 2 == 1:
        payload = count_report(A).to_document()
    else:
        payload = {"t3": t3_fast(A), "trivial": len(A), "combinatorial": None}
    _emit({"config": _header(args, command="count", input=str(args.input)), **payload}, args)
    return EXIT_OK


def _write_csv(rows, args) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def cmd_search(args) -> int:
    if args.threshold_scan:
        if args.N is None:
            raise ValueError("--threshold-scan needs -N")
        scan = threshold_scan(args.N, budget_nodes=args.budget_nodes)
        _write_csv(scan.to_csv_rows(), args)
        print(f"# largest n/N with ceil(n^2/2) value and family witnesses: "
              f"{scan.largest_good_ratio}", file=sys.stderr)
        return EXIT_OK
    if args.integers:
        if args.N is not None:
            raise ValueError("--integers and -N are mutually exclusive")
        res = max3ap_integers(args.n, args.width_cap, budget_nodes=args.budget_nodes)
        cfg = _header(args, command="search", context="integers", n=args.n,
                      width_cap=args.width_cap or 2 * args.n)
    else:
        if args.N is None:
            raise ValueError("modular search needs -N (or pass --integers)")
        res = extremal_mod(args.n, args.N, args.side, budget_nodes=args.budget_nodes)
        cfg = _header(args, command="search", context=f"mod {args.N}", n=args.n, side=args.side)
    _emit({"config": cfg, **res.to_document()}, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    kwargs = {"seed": args.seed, "cases": args.cases}
    if args.suite == "extremal-int":
        kwargs = {"n_max": args.n_max or 8}
    elif args.suite == "extremal-mod":
        kwargs = {"moduli": tuple(args.N) if args.N else (5, 7, 11, 13)}
    elif args.suite == "complement" and args.N:
        kwargs["moduli"] = tuple(args.N)
    rows, passed = run_suite(args.suite, **kwargs)
    _write_csv([["case", "lhs", "rhs", "holds"]]
               + [[r["case"], r["lhs"], r["rhs"], r["holds"]] for r in rows], args)
    print(f"# suite={args.suite} seed={args.seed} cases={len(rows)} "
          f"passed={passed}", file=sys.stderr)
    return EXIT_OK if passed else 1


def cmd_bounds(args) -> int:
    if args.action == "cutoff":
        cert = ef_sharpness_cutoff(digits=max(args.digits, 12))
        _emit(
            {
                "config": _header(args, command="bounds cutoff"),
                "value": cert.decimal,
                "interval": [str(cert.lower), str(cert.upper)],
                "crossover_bracket": [str(x) for x in cert.crossover_bracket],
                "samples": [
                    {
                        "alpha": str(s["alpha"]),
                        "product_bound": str(s["product_bound"]),
                        "single_family_extension": str(s["single_family_extension"]),
                        "product_wins": s["product_wins"],
                    }
                    for s in cert.samples
                ],
            },
            args,
        )
        return EXIT_OK
    if args.action == "build":
        led = build_default_ledger(args.max_denominator)
        led.save(args.ledger)
        _emit({"config": _header(args, command="bounds build"),
               "records": len(led.records), "consistent": led.check_consistency()}, args)
        return EXIT_OK
    led = Ledger.load(args.ledger)
    if args.action == "closure":
        added = submultiplicative_closure(led, depth=args.depth,
                                          max_denominator=args.max_denominator)
        led.save(args.ledger)
        quarter = led.best_upper("m3", Fraction(1, 4))
        _emit({"config": _header(args, command="bounds closure"), "added": added,
               "consistent": led.check_consistency(),
               "m3_quarter_upper": str(quarter) if quarter is not None else None}, args)
        return EXIT_OK
    if args.action == "export":
        _write_csv(led.export_csv_rows(), args)
        return EXIT_OK
    raise ValueError(f"unknown bounds action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ap3", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("count", help="T3 of a set document")
    sp.add_argument("--in", dest="input", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("search", help="exhaustive extremal search")
    sp.add_argument("-n", type=int, default=0)
    sp.add_argument("-N", type=int, default=None)
    sp.add_argument("--integers", action="store_true")
    sp.add_argument("--side", choices=("max", "min"), default="max")
    sp.add_argument("--width-cap", type=int, default=None)
    sp.add_argument("--threshold-scan", action="store_true",
                    help="emit the per-n table for -N as CSV")
    sp.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET)
    common(sp)
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--cases", type=int, default=None)
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--N", type=int, action="append", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bounds", help="bounds ledger operations")
    sp.add_argument("action", choices=("build", "closure", "export", "cutoff"))
    sp.add_argument("--ledger", default="ledger.json")
    sp.add_argument("--max-denominator", type=int, default=96)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--digits", type=int, default=14)
    common(sp)
    sp.set_defaults(fn=cmd_bounds)
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
