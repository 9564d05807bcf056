"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are fixed here exactly as stated; nothing is calibrated at run
time.  Reference tables were computed by independent brute-force enumeration
(direct evaluation of the definitions over all subsets).
"""

import json
import math
import random
from fractions import Fraction as Fr

from ap3.bounds import BoundRecord, Ledger, ef_sharpness_cutoff, submultiplicative_closure
from ap3.cli import main
from ap3.constructions import (
    family_tags,
    generate_family,
    intersect_search,
    optimize_wraparound,
    random_set,
    wrap_parameter_estimate,
    wraparound_complement,
)
from ap3.counting import midpoint_upper_bound, t3_fast, t3_naive
from ap3.search import (
    extremal_mod,
    extremal_mod_via_complement,
    max3ap_integers,
)
from ap3.sets import canonicalize
from ap3.suites import (
    suite_energy_lemma,
    suite_rectify,
    suite_t3_energy,
)

# Exhaustive reference (brute force over all n-subsets, quadratic count).
BRUTE_TABLES = {
    5: {"max": [1, 2, 5, 12, 25], "min": [1, 2, 5, 12, 25]},
    7: {"max": [1, 2, 5, 10, 17, 30, 49], "min": [1, 2, 3, 8, 17, 30, 49]},
    11: {"max": [1, 2, 5, 8, 15, 22, 33, 46, 65, 90, 121],
         "min": [1, 2, 3, 4, 9, 16, 29, 44, 65, 90, 121]},
    13: {"max": [1, 2, 5, 8, 13, 20, 29, 42, 57, 76, 101, 132, 169],
         "min": [1, 2, 3, 4, 7, 14, 23, 36, 53, 74, 101, 132, 169]},
}


def test_criterion_01_integer_extremal_theorem():
    for n in range(1, 11):
        res = max3ap_integers(n, width_cap=2 * n)
        assert res.value == midpoint_upper_bound(n), f"M3({n}) != ceil(n^2/2)"
        expected = {canonicalize(generate_family(t)).encoding for t in family_tags(n)}
        got = {w.encoding for w in res.witnesses}
        assert got == expected, f"witnesses for n={n} differ from the family forms"
    print("ACCEPTANCE 1 PASS: M3(n) = ceil(n^2/2) for n <= 10 with exactly the "
          "canonical family witnesses (exact)")


def test_criterion_02_modular_tables():
    for N, table in BRUTE_TABLES.items():
        maxima, minima = {}, {}
        for n in range(1, N + 1):
            maxima[n] = extremal_mod(n, N, "max").value
            minima[n] = extremal_mod(n, N, "min").value
            assert maxima[n] == table["max"][n - 1], f"M3({n},{N})"
            assert minima[n] == table["min"][n - 1], f"m3({n},{N})"
            for side in ("max", "min"):
                direct = extremal_mod(n, N, side).value
                via = extremal_mod_via_complement(n, N, side).value
                assert direct == via, f"complement route disagrees at n={n}, N={N}"
        for n in range(1, N):
            identity = N * N - 3 * n * N + 3 * n * n
            assert maxima[n] + minima[N - n] == identity
    assert extremal_mod(3, 7, "max").value == 5
    assert extremal_mod(4, 5, "max").value == 12
    print("ACCEPTANCE 2 PASS: modular tables for N in {5,7,11,13} exact, "
          "complement cross-validation exact, spot values M3(3,7)=5 and M3(4,5)=12")


def test_criterion_03_oracle_equivalence():
    rng = random.Random(30843)
    cases = 1000
    lo, hi = math.log(4), math.log(10_000)
    for i in range(cases):
        N = int(round(math.exp(rng.uniform(lo, hi))))
        if i % 3 == 0:
            sets = [random_set(rng.randrange(N + 1), N, rng.randrange(1 << 30))
                    for _ in range(3)]
        else:
            sets = [random_set(rng.randrange(N + 1), N, rng.randrange(1 << 30))] * 3
        assert t3_fast(*sets) == t3_naive(*sets), f"mismatch at case {i}, N={N}"
    print(f"ACCEPTANCE 3 PASS: t3_fast == t3_naive on {cases} seeded instances, "
          "N up to 10^4, zero mismatches")


def test_criterion_04_wraparound_bound_realization():
    N = 4801
    k, m = wrap_parameter_estimate(N, N - N // 2)
    rec = wraparound_complement(N, k, m)
    value = rec.t3 / N**2
    assert abs(value - 5 / 48) <= 0.01, f"T3/N^2 = {value} vs 5/48"

    N = 4999
    for alpha in (0.40, 0.50, 0.60):
        n = round(alpha * N)
        family_size = N - n
        opt = optimize_wraparound(N, family_size)
        complement_t3 = N * N - 3 * family_size * N + 3 * family_size**2 - opt.t3
        value = complement_t3 / N**2
        curve = float((2 - 12 * Fr(n, N) + 21 * Fr(n, N) ** 2) / 12)
        assert abs(value - curve) <= 0.01, f"alpha={alpha}: {value} vs curve {curve}"
    print("ACCEPTANCE 4 PASS: wrap-around complement hits 5/48 within 0.01 at "
          "N=4801 and matches the curve within 0.01 at densities 0.40/0.50/0.60")


def test_criterion_05_submultiplicative_closure_and_witness():
    led = Ledger()
    led.add(BoundRecord("m3", Fr(1, 2), Fr(5, 48), "upper", "closed-form(wraparound-curve)"))
    submultiplicative_closure(led)
    got = led.best_upper("m3", Fr(1, 4))
    assert got == Fr(25, 2304), f"derived m3(1/4) bound is {got}"

    N = 4801
    k, m = wrap_parameter_estimate(N, N - N // 2)
    A = wraparound_complement(N, k, m).residues
    res = intersect_search(A, A, trials=64, seed=7)
    assert res.feasible
    density = len(res.intersection) / N
    assert 0.20 <= density <= 0.30
    value = res.t3 / N**2
    assert value <= 25 / 2304 + 0.01, f"intersection T3/N^2 = {value}"
    print("ACCEPTANCE 5 PASS: ledger derives m3(1/4) <= 25/2304 exactly; "
          f"intersection witness at density {density:.3f} has T3/N^2 = {value:.6f} "
          "<= 25/2304 + 0.01")


def test_criterion_06_inequality_suites():
    rows, passed = suite_energy_lemma(seed=0, cases=1000)
    assert passed, [r for r in rows if not r["holds"]][:3]
    parts = {"i": 0, "i32": 0, "ii": 0, "iiiplus": 0, "iiiminus": 0, "iv": 0}
    for r in rows:
        name = r["case"].rsplit(":", 1)[-1]
        parts["iv" if name == "na" else name] += 1
    assert all(count >= 1000 for count in parts.values()), parts

    rows, passed = suite_t3_energy(seed=0, cases=1000)
    assert passed and len(rows) >= 1000
    print("ACCEPTANCE 6 PASS: zero violations over >= 1000 seeded cases per "
          "energy inequality and over 1000 cases of the sixth-power bound")


def test_criterion_07_rectification():
    rows, passed = suite_rectify(seed=0, cases=100, N=10007, size=50)
    assert passed, [r for r in rows if not r["holds"]][:3]
    interval_rows = [r for r in rows if r["case"].endswith(":interval")]
    equi_rows = [r for r in rows if r["case"].endswith(":equivariance")]
    assert len(interval_rows) == 100 and len(equi_rows) == 100
    assert all(r["lhs"] == 49 for r in interval_rows)
    print("ACCEPTANCE 7 PASS: dilated intervals rectify to arc length |A|-1 at "
          "N=10007 for 100 seeded dilators; affine equivariance on 100 seeded cases")


def test_criterion_08_random_set_sanity():
    N = 10007
    n = N // 2
    total = 0.0
    for seed in range(50):
        total += t3_fast(random_set(n, N, seed)) / N**2
    mean = total / 50
    assert abs(mean - 0.125) <= 0.005, f"mean T3/N^2 = {mean}"
    print(f"ACCEPTANCE 8 PASS: density-1/2 random sets at N=10007 average "
          f"T3/N^2 = {mean:.6f}, within 0.005 of 1/8")


def test_criterion_09_cutoff_constant():
    cert = ef_sharpness_cutoff(digits=14)
    assert cert.decimal.startswith("0.317306119615"), cert.decimal
    assert cert.upper - cert.lower < Fr(1, 10**14)
    by_alpha = {s["alpha"]: s for s in cert.samples}
    assert by_alpha[Fr(31, 100)]["product_wins"]
    assert not by_alpha[Fr(33, 100)]["product_wins"]
    print(f"ACCEPTANCE 9 PASS: cutoff constant {cert.decimal} (>= 12 exact digits), "
          "product construction dominates at 0.31 and not at 0.33")


def test_criterion_10_determinism(capsys):
    a = extremal_mod(6, 13, "max")
    b = extremal_mod(6, 13, "max")
    assert a.value == b.value
    assert [w.encoding for w in a.witnesses] == [w.encoding for w in b.witnesses]

    A, B = random_set(60, 211, 1), random_set(60, 211, 2)
    r1 = intersect_search(A, B, trials=24, seed=5, threads=1)
    r2 = intersect_search(A, B, trials=24, seed=5, threads=2)
    assert (r1.lam, r1.mu, r1.t3, r1.trials) == (r2.lam, r2.mu, r2.t3, r2.trials)

    outputs = []
    for _ in range(2):
        code = main(["search", "-n", "5", "-N", "13"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["value"] == BRUTE_TABLES[13]["max"][4]
    print("ACCEPTANCE 10 PASS: repeated searches produce bit-identical results, "
          "and sampling is bit-identical across thread counts with a fixed seed")
