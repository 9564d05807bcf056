"""The three benchmark workloads.

Each workload builds its inputs in its constructor (the set-up the benchmark
times as setup_s).  ``calls`` lists its fixed call sequence through the
public ap3 API and the in-process ``ap3.cli.main`` as (key, callable) pairs,
which the harness runs and times one by one.  ``check`` tests the results,
key -> return value, against references from ``reference.py``, which does
not use ap3.  Library functions are always called through their
module (``search.classify_extremal``), so the tracer sees those calls too.

Only density-bounds draws inputs from the seed; the other two workloads run
fixed exhaustive searches.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import traceback
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from pathlib import Path

from ap3 import cli, constructions, search, sets, structure

from reference import (
    energy,
    family,
    family_image_mod,
    family_members,
    integer_normal_form,
    t3_literal,
)

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Raised:
    """Stands in for the result of a call that raised."""

    error: str


def attempt(call):
    try:
        return call()
    except Exception:  # a raising call is a failed result, not a crash
        return Raised(traceback.format_exc())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """ap3.cli.main in process: (exit code, stdout); stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def ok_json(result) -> dict | None:
    """The JSON document a successful CLI call printed, else None."""
    if isinstance(result, Raised) or result[0] != 0:
        return None
    try:
        return json.loads(result[1])
    except json.JSONDecodeError:
        return None


class ModTable:
    """Exact M3(k, N) and m3(k, N) for every k through ``ap3 search``, then
    classify_extremal on every max-side witness."""

    name = "mod-table"

    def __init__(self, seed: int, work_dir: Path, N: int = 17, reference: dict | None = None):
        self.N = N
        self.jobs = [(k, side, ["search", "-n", str(k), "-N", str(N), "--side", side])
                     for k in range(1, N + 1) for side in ("max", "min")]
        if reference is None:
            with open(HERE / f"mod_table_N{N}.json") as fh:
                reference = json.load(fh)
        self.reference = reference

    def _search(self, side: str, argv: list[str]):
        code, out = run_cli(argv)
        classes = None
        if code == 0 and side == "max":
            doc = json.loads(out)
            classes = [attempt(partial(search.classify_extremal, sets.set_from_document(w)))
                       for w in doc["witnesses"]]
        return code, out, classes

    def calls(self) -> list:
        return [((k, side), partial(self._search, side, argv)) for k, side, argv in self.jobs]

    def check(self, results: dict) -> list[tuple[str, bool]]:
        N, checks = self.N, []
        for (k, side), res in results.items():
            label = f"{side} n={k} N={N}"
            doc = None if isinstance(res, Raised) else ok_json(res[:2])
            expected = self.reference[side][k - 1]
            checks.append((f"{label} value", doc is not None and doc["value"] == expected))
            if doc is None or side != "max":
                continue
            for w, cls in zip(doc["witnesses"], res[2]):
                els = w["elements"]
                ok = (len(els) == k and t3_literal(N, els) == expected
                      and not isinstance(cls, Raised)
                      and cls.matched == family_image_mod(els, N))
                if ok and cls.matched and cls.map is not None:
                    fam = family(cls.tag.family, cls.tag.k, cls.tag.m)
                    image = {(cls.map.scale * x + cls.map.shift) % N for x in fam}
                    ok = image == set(els)
                checks.append((f"{label} witness {els}", ok))
        return checks


class IntSearch:
    """``ap3 search --integers -n k`` for k = 1..n_max at the default width cap."""

    name = "int-search"

    def __init__(self, seed: int, work_dir: Path, n_max: int = 14):
        self.jobs = [(k, ["search", "--integers", "-n", str(k)]) for k in range(1, n_max + 1)]
        self.forms = {k: {integer_normal_form(els) for *_, els in family_members(k)}
                      for k in range(1, n_max + 1)}

    def calls(self) -> list:
        return [(k, partial(run_cli, argv)) for k, argv in self.jobs]

    def check(self, results: dict) -> list[tuple[str, bool]]:
        checks = []
        for k, res in results.items():
            doc = ok_json(res)
            checks.append((f"n={k} value", doc is not None and doc["value"] == (k * k + 1) // 2))
            got = [] if doc is None else [tuple(w["elements"]) for w in doc["witnesses"]]
            checks.append((f"n={k} witnesses", len(got) == len(self.forms[k])
                           and set(got) == self.forms[k]))
        return checks


class DensityBounds:
    """The bound pipeline: the wrap-around complement, optimize_wraparound at
    three densities, ``ap3 verify rectify``, the T3-energy inequality on
    seeded triples, and ``ap3 bounds build`` followed by ``closure``."""

    name = "density-bounds"
    ALPHAS = (Fraction(2, 5), Fraction(1, 2), Fraction(3, 5))
    RECTIFY_CASE_ARC = 49  # suite default: dilated 50-element intervals

    def __init__(self, seed: int, work_dir: Path, wrap_N: int = 4801, opt_N: int = 4999,
                 energy_N: int = 10007, energy_size: int = 2000, triples: int = 10):
        rng = random.Random(seed)
        self.wrap_N, self.opt_N, self.energy_N = wrap_N, opt_N, energy_N
        self.rectify_seed = rng.randrange(1 << 30)
        self.triples = [
            tuple(sets.ResidueSet(energy_N, rng.sample(range(energy_N), energy_size))
                  for _ in range(3))
            for _ in range(triples)
        ]
        self.ledger = work_dir / "ledger.json"

    def _wraparound(self):
        N = self.wrap_N
        k, m = constructions.wrap_parameter_estimate(N, N - N // 2)
        return constructions.wraparound_complement(N, k, m)

    def calls(self) -> list:
        N = self.opt_N
        ledger = str(self.ledger)
        return [
            ("wrap", self._wraparound),
            *((("opt", a), partial(constructions.optimize_wraparound, N, N - round(a * N)))
              for a in self.ALPHAS),
            ("rectify", partial(run_cli, ["verify", "rectify", "--seed", str(self.rectify_seed)])),
            *((("energy", i), partial(structure.check_t3_energy_inequality, *t))
              for i, t in enumerate(self.triples)),
            ("build", partial(run_cli, ["bounds", "build", "--ledger", ledger])),
            ("closure", partial(run_cli, ["bounds", "closure", "--ledger", ledger])),
        ]

    def check(self, results: dict) -> list[tuple[str, bool]]:
        checks = []
        N = self.wrap_N
        rec = results["wrap"]
        ok = not isinstance(rec, Raised)
        if ok:
            fam = {x % N for x in family("E", rec.k, rec.m)}
            els = [x for x in range(N) if x not in fam]
            ok = (list(rec.residues.elements) == els and rec.t3 == t3_literal(N, els)
                  and abs(rec.t3 / N**2 - 5 / 48) <= 0.01)
        checks.append((f"wrap-around N={N} near 5/48", ok))

        N = self.opt_N
        for a in self.ALPHAS:
            opt = results["opt", a]
            n = round(a * N)
            f = N - n
            ok = not isinstance(opt, Raised)
            if ok:
                emb = sorted({x % N for x in family("E" if f % 2 else "F", opt.k, opt.m)})
                value = (N * N - 3 * f * N + 3 * f * f - opt.t3) / N**2
                curve = float((2 - 12 * Fraction(n, N) + 21 * Fraction(n, N) ** 2) / 12)
                ok = (list(opt.residues.elements) == emb and len(emb) == f
                      and opt.t3 == t3_literal(N, emb) and abs(value - curve) <= 0.01)
            checks.append((f"optimize_wraparound N={N} alpha={a} on curve", ok))

        checks.extend(self._check_rectify(results["rectify"]))

        N = self.energy_N
        for i, triple in enumerate(self.triples):
            chk = results["energy", i]
            ok = not isinstance(chk, Raised)
            if ok:
                A1, A2, A3 = (t.elements for t in triple)
                twoA2 = [(2 * x) % N for x in A2]
                t3 = t3_literal(N, A1, A2, A3)
                rhs = (len(A1) * len(A2) * len(A3) * energy(twoA2, A3, N)
                       * energy(A1, A3, N) * energy(A1, twoA2, N))
                ok = chk.lhs == t3**6 and chk.rhs == rhs and chk.holds and t3**6 <= rhs
            checks.append((f"t3-energy triple {i}", ok))

        build, closure = ok_json(results["build"]), ok_json(results["closure"])
        checks.append(("bounds build consistent", build is not None and build["consistent"] is True))
        quarter = None if closure is None else closure["m3_quarter_upper"]
        ok = (closure is not None and closure["consistent"] is True and quarter is not None
              and Fraction(quarter) <= Fraction(25, 2304))
        if ok:
            with open(self.ledger) as fh:
                own_consistent, own_quarter = ledger_summary(json.load(fh))
            ok = own_consistent and own_quarter == Fraction(quarter)
        checks.append(("bounds closure consistent with m3(1/4) <= 25/2304", ok))
        return checks

    def _check_rectify(self, res) -> list[tuple[str, bool]]:
        if isinstance(res, Raised) or res[0] != 0:
            return [("verify rectify exit", False)]
        rows = list(csv.reader(io.StringIO(res[1])))
        checks = [("verify rectify rows", rows[:1] == [["case", "lhs", "rhs", "holds"]]
                   and len(rows) == 51)]
        for row in rows[1:]:
            try:
                case, lhs, rhs, holds = row[0], int(row[1]), int(row[2]), row[3]
            except (IndexError, ValueError):
                checks.append((f"rectify row {row}", False))
                continue
            if case.endswith(":interval"):
                ok = lhs == rhs == self.RECTIFY_CASE_ARC
            else:
                ok = case.endswith(":equivariance") and lhs == rhs
            checks.append((f"rectify {case}", ok and holds == "True"))
        return checks


def ledger_summary(doc: dict) -> tuple[bool, Fraction | None]:
    """From a saved ledger document: whether every best lower bound is at
    most the best upper bound at its density, and the best upper bound on
    m3(1/4).  Conditional and finite-modulus records do not count."""
    upper: dict = {}
    lower: dict = {}
    for r in doc["records"]:
        if r["conditional"] or r["finite_modulus"] is not None:
            continue
        key, value = (r["target"], Fraction(r["alpha"])), Fraction(r["value"])
        if r["side"] in ("upper", "exact"):
            upper[key] = min(value, upper.get(key, value))
        if r["side"] in ("lower", "exact"):
            lower[key] = max(value, lower.get(key, value))
    consistent = all(lower[key] <= upper[key] for key in lower.keys() & upper.keys())
    return consistent, upper.get(("m3", Fraction(1, 4)))


def run_untimed(wl) -> dict:
    """Every call of a workload in order, without timing: key -> result."""
    return {key: attempt(call) for key, call in wl.calls()}


WORKLOADS = {w.name: w for w in (ModTable, IntSearch, DensityBounds)}
