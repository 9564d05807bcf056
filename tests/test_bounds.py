from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from ap3.bounds import (
    BoundRecord,
    Ledger,
    build_default_ledger,
    complement_transfer,
    construction_bound,
    curve_m3_upper,
    ef_sharpness_cutoff,
    exact_small_alpha,
    identity_value,
    submultiplicative_closure,
)
from ap3.constructions import random_set
from ap3.counting import t3_fast
from ap3.sets import ResidueSet
from oracles import derivation_depths_brute


class TestCurve:
    def test_values(self):
        assert curve_m3_upper(Fr(1, 2)) == Fr(5, 48)
        assert curve_m3_upper(Fr(1, 3)) == Fr(1, 36)
        assert curve_m3_upper(Fr(2, 3)) == Fr(5, 18)

    def test_domain(self):
        with pytest.raises(ValueError):
            curve_m3_upper(Fr(1, 4))
        with pytest.raises(ValueError):
            curve_m3_upper(Fr(7, 10))


class TestSmallAlpha:
    def test_tenth(self):
        vals = exact_small_alpha(Fr(1, 10))
        assert vals.m3_upper_case == Fr(1, 200)  # 0.005
        assert vals.conditional

    def test_zero(self):
        assert exact_small_alpha(Fr(0)).m3_upper_case == 0

    def test_complement_consistency(self):
        # the two conditional closed forms satisfy the complement identity
        a = Fr(1, 10)
        vals = exact_small_alpha(a)
        assert vals.m3_upper_case + vals.m3_at_complement == identity_value(1 - a)


class TestComplementTransfer:
    def test_half_bound(self):
        rec = BoundRecord("m3", Fr(1, 2), Fr(5, 48), "upper", "closed-form(test)")
        out = complement_transfer(rec)
        assert out.target == "M3" and out.side == "lower"
        assert out.alpha == Fr(1, 2) and out.value == Fr(7, 48)

    def test_involution(self):
        rec = BoundRecord("m3", Fr(2, 5), Fr(1, 20), "upper", "closed-form(test)")
        back = complement_transfer(complement_transfer(rec))
        assert back.alpha == rec.alpha and back.value == rec.value
        assert back.target == rec.target and back.side == rec.side

    def test_exact_stays_exact(self):
        rec = BoundRecord("m3", Fr(0), Fr(0), "exact", "closed-form(endpoint)")
        out = complement_transfer(rec)
        assert out.side == "exact" and out.target == "M3"
        assert out.alpha == 1 and out.value == 1

    def test_finite_modulus_propagates(self):
        rec = BoundRecord("m3", Fr(1, 5), Fr(1, 25), "upper", "construction(x,N=5)",
                          finite_modulus=5)
        assert complement_transfer(rec).finite_modulus == 5

    def test_weak_bound_clamps_to_trivial(self):
        # M3(2/3) <= 4/9 transfers to m3(1/3) >= -1/9, clamped to 0
        rec = BoundRecord("M3", Fr(2, 3), Fr(4, 9), "upper", "closed-form(pair-count)")
        out = complement_transfer(rec)
        assert out.target == "m3" and out.side == "lower"
        assert out.value == 0


class TestClosure:
    def seed_ledger(self):
        led = Ledger()
        led.add(BoundRecord("m3", Fr(1, 2), Fr(5, 48), "upper", "closed-form(wraparound-curve)"))
        return led

    def test_derives_quarter_bound(self):
        led = self.seed_ledger()
        submultiplicative_closure(led)
        assert led.best_upper("m3", Fr(1, 4)) == Fr(25, 2304)
        assert led.best_lower("M3", Fr(1, 2)) == Fr(7, 48)
        assert led.best_lower("M3", Fr(1, 4)) == Fr(49, 2304)

    def test_idempotent(self):
        led = self.seed_ledger()
        submultiplicative_closure(led)
        assert submultiplicative_closure(led) == 0

    def test_monotone(self):
        led = build_default_ledger(24)
        before = {
            (t, a): (led.best_lower(t, a), led.best_upper(t, a))
            for t in ("m3", "M3")
            for a in led.alphas(t)
        }
        submultiplicative_closure(led)
        for (t, a), (lo, hi) in before.items():
            new_lo, new_hi = led.best_lower(t, a), led.best_upper(t, a)
            if lo is not None:
                assert new_lo >= lo
            if hi is not None:
                assert new_hi <= hi

    def test_provenance_parents_recorded(self):
        led = self.seed_ledger()
        submultiplicative_closure(led)
        prods = [r for r in led.records if r.provenance.startswith("submultiplicative(")]
        by_id = {r.record_id: r for r in led.records}
        assert prods
        for r in prods:
            p1, p2 = (by_id[p] for p in r.parents)
            assert r.alpha == p1.alpha * p2.alpha and r.value == p1.value * p2.value

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_depths_equal_literal_oracle(self, depth):
        led = build_default_ledger(24)
        submultiplicative_closure(led, depth=depth)
        assert max(r.depth for r in led.records) == depth
        assert {r.record_id: r.depth for r in led.records} == derivation_depths_brute(led.records)

    def test_depths_equal_literal_oracle_after_random_inserts(self):
        led, _ = random_insert_ledger()
        assert {r.record_id: r.depth for r in led.records} == derivation_depths_brute(led.records)

    def test_parents_held_and_counted_by_kind(self):
        led = build_default_ledger(24)
        submultiplicative_closure(led)
        seen = set()
        for r in led.records:
            assert set(r.parents) <= seen  # parents precede their children
            seen.add(r.record_id)
            kind = r.provenance.split("(")[0]
            assert len(r.parents) == {"submultiplicative": 2, "complement": 1}.get(kind, 0)

    def test_finite_records_never_enter_closure(self):
        led = self.seed_ledger()
        led.add(BoundRecord("m3", Fr(1, 2), Fr(1, 1000), "upper", "construction(too-good,N=5)",
                            finite_modulus=5))
        submultiplicative_closure(led)
        # the finite record must not have seeded a (1/1000)^2-style product
        assert led.best_upper("m3", Fr(1, 4)) == Fr(25, 2304)


def random_insert_ledger():
    """Interleave closures with inserts of valid closed-form bounds at
    random densities; returns the closed ledger and the consistency check
    after each closure."""
    import random

    rng = random.Random(8)
    led = Ledger()
    checks = []
    for step in range(40):
        q = rng.randrange(2, 40)
        p = rng.randrange(1, q)
        a = Fr(p, q)
        kind = rng.randrange(4)
        if kind == 0:
            led.add(BoundRecord("m3", a, a**3, "upper", "closed-form(random-set)"))
        elif kind == 1 and a <= Fr(1, 2):
            led.add(BoundRecord("m3", a, a * a / 2, "upper", "closed-form(interval)"))
        elif kind == 2:
            led.add(BoundRecord("M3", a, a * a / 2, "lower", "closed-form(interval)"))
        else:
            led.add(BoundRecord("M3", a, a * a, "upper", "closed-form(pair-count)"))
        if step % 10 == 9:
            submultiplicative_closure(led)
            checks.append(led.check_consistency())
    submultiplicative_closure(led)
    checks.append(led.check_consistency())
    return led, checks


class TestLedger:
    def test_consistency(self):
        led = build_default_ledger()
        assert led.check_consistency()
        submultiplicative_closure(led)
        assert led.check_consistency()

    def test_consistency_under_random_true_inserts(self):
        # the two sides must never cross
        _, checks = random_insert_ledger()
        assert checks == [True] * 5

    def test_inconsistent_detected(self):
        led = Ledger()
        led.add(BoundRecord("m3", Fr(1, 2), Fr(1, 4), "lower", "closed-form(test)"))
        led.add(BoundRecord("m3", Fr(1, 2), Fr(1, 8), "upper", "closed-form(test)"))
        assert not led.check_consistency()

    def test_save_load_roundtrip(self, tmp_path):
        led = self.small_ledger()
        path = tmp_path / "ledger.json"
        led.save(path)
        led2 = Ledger.load(path)
        assert [r.to_document() for r in led2.records] == [r.to_document() for r in led.records]
        assert led2.best_upper("m3", Fr(1, 2)) == led.best_upper("m3", Fr(1, 2))

    def small_ledger(self):
        led = Ledger()
        led.add(BoundRecord("m3", Fr(1, 2), Fr(5, 48), "upper", "closed-form(x)"))
        led.add(BoundRecord("M3", Fr(1, 2), Fr(1, 8), "lower", "closed-form(y)"))
        return led

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            Ledger.load(path)
        path.write_text('{"records": [{"target": "m3"}]}')
        with pytest.raises(ValueError):
            Ledger.load(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("conditional", "false"),
            ("conditional", 0),
            ("conditional", None),
            ("finite_modulus", "17"),
            ("finite_modulus", True),
            ("finite_modulus", 0),
            ("finite_modulus", 17.0),
            ("id", 7),
            ("id", ["r00000"]),
            ("provenance", 5),
            ("alpha", True),
            ("alpha", 0.5),
            ("value", 0.1),
            ("value", False),
            ("parents", "r00000"),
            ("parents", [0]),
            ("parents", None),
        ],
    )
    def test_record_fields_strictly_typed(self, field, value):
        doc = {**self.small_ledger().records[0].to_document(), field: value}
        with pytest.raises(ValueError, match=field):
            BoundRecord.from_document(doc)

    def test_typed_fields_load(self):
        doc = {**self.small_ledger().records[0].to_document(), "conditional": False}
        led = Ledger.from_document({"records": [doc]})
        assert led.best_upper("m3", Fr(1, 2)) == Fr(5, 48)
        assert BoundRecord.from_document({**doc, "finite_modulus": 17}).finite_modulus == 17

    @pytest.mark.parametrize("doc", [{"records": 5}, {"records": {}}, {}, [], {"records": [5]}])
    def test_malformed_ledger_documents(self, doc):
        with pytest.raises(ValueError):
            Ledger.from_document(doc)

    def test_duplicate_ids_rejected(self):
        docs = [r.to_document() for r in self.small_ledger().records]
        docs[1]["id"] = docs[0]["id"]
        with pytest.raises(ValueError, match="duplicate"):
            Ledger.from_document({"records": docs})

    def test_minted_id_never_collides_with_a_loaded_one(self):
        doc = self.small_ledger().records[0].to_document()
        led = Ledger.from_document({"records": [{**doc, "id": "r00001"}]})
        added = led.add(BoundRecord("M3", Fr(1, 3), Fr(1, 18), "lower", "closed-form(z)"))
        assert added.record_id != "r00001"
        assert len({r.record_id for r in led.records}) == 2

    def test_minted_ids_unchanged_without_collisions(self):
        assert [r.record_id for r in self.small_ledger().records] == ["r00000", "r00001"]

    def test_roundtrip_keeps_lineage_and_stays_closed(self, tmp_path):
        led = build_default_ledger(24)
        submultiplicative_closure(led)
        path = tmp_path / "ledger.json"
        led.save(path)
        led2 = Ledger.load(path)
        assert [(r.record_id, r.parents, r.depth) for r in led2.records] == [
            (r.record_id, r.parents, r.depth) for r in led.records
        ]
        assert submultiplicative_closure(led2) == 0

    def test_documents_without_parents_load_as_seeds(self):
        led = build_default_ledger(24)
        submultiplicative_closure(led)
        docs = [r.to_document() for r in led.records]
        for doc in docs:
            del doc["parents"]
        old = Ledger.from_document({"records": docs})
        assert old.records == [replace(r, parents=()) for r in led.records]
        assert all(r.parents == () and r.depth == 0 for r in old.records)
        submultiplicative_closure(old)
        assert old.check_consistency()

    @pytest.mark.parametrize(
        "parents, match",
        [(("r99999",), "unknown parent"), (("r00000", "r00000", "r00001"), "at most two")],
        ids=["unknown", "three"],
    )
    def test_bad_parents_rejected(self, parents, match):
        led = self.small_ledger()
        rec = BoundRecord("m3", Fr(1, 4), Fr(1, 100), "upper", "closed-form(z)", parents=parents)
        with pytest.raises(ValueError, match=match):
            led.add(rec)
        docs = [r.to_document() for r in led.records] + [rec.to_document()]
        with pytest.raises(ValueError, match=match):
            Ledger.from_document({"records": docs})
        assert len(led.records) == 2

    def test_depth_set_on_add(self):
        led = self.small_ledger()
        given = BoundRecord("m3", Fr(1, 4), Fr(1, 100), "upper", "closed-form(z)", depth=7)
        assert led.add(given).depth == 0
        prod = led.add(BoundRecord("m3", Fr(1, 4), Fr(25, 2304), "upper", "p",
                                   parents=("r00000", "r00000")))
        assert prod.depth == 1
        transfer = led.add(complement_transfer(prod))
        assert transfer.parents == (prod.record_id,) and transfer.depth == 1
        assert led.add(BoundRecord("m3", Fr(1, 8), Fr(1, 1000), "upper", "q",
                                   parents=(prod.record_id, "r00001"))).depth == 2

    def test_csv_export(self):
        rows = self.small_ledger().export_csv_rows()
        assert rows[0] == ["target", "alpha", "side", "value", "provenance"]
        assert rows[1][0] == "m3" and rows[1][3] == "5/48"

    def test_record_validation(self):
        with pytest.raises(ValueError):
            BoundRecord("x3", Fr(1, 2), Fr(1, 2), "upper", "p")
        with pytest.raises(ValueError):
            BoundRecord("m3", Fr(3, 2), Fr(1, 2), "upper", "p")
        with pytest.raises(ValueError):
            BoundRecord("m3", Fr(1, 2), Fr(-1, 2), "upper", "p")
        with pytest.raises(ValueError):
            BoundRecord("m3", Fr(1, 2), Fr(1, 2), "sideways", "p")


class TestConstructionBound:
    def test_full_group(self):
        N = 7
        rec = construction_bound(ResidueSet(N, range(N)), "M3")
        assert rec.alpha == 1 and rec.value == 1
        assert rec.side == "lower" and rec.finite_modulus == N

    def test_interval_density(self):
        N = 101
        A = ResidueSet(N, range(20))
        rec = construction_bound(A, "m3", note="interval")
        assert rec.value == Fr(t3_fast(A), N * N)
        assert rec.side == "upper"

    def test_random_witness(self):
        A = random_set(30, 101, 4)
        rec = construction_bound(A, "M3")
        assert rec.alpha == Fr(30, 101) and 0 <= rec.value <= 1


class TestCutoff:
    def test_twelve_digits(self):
        cert = ef_sharpness_cutoff(digits=12)
        assert cert.decimal.startswith("0.317306119615")
        assert cert.upper - cert.lower < Fr(1, 10**14)

    @pytest.mark.parametrize("digits", [1, 5, 13])
    def test_digits_as_asked(self, digits):
        # truncated, not rounded: a prefix of the 30-digit value
        decimal = ef_sharpness_cutoff(digits).decimal
        assert len(decimal) == 2 + digits
        assert ef_sharpness_cutoff(30).decimal.startswith(decimal)

    @pytest.mark.parametrize("digits", [0, -1])
    def test_digits_below_one_rejected(self, digits):
        with pytest.raises(ValueError):
            ef_sharpness_cutoff(digits)

    def test_samples_bracket_the_claim(self):
        cert = ef_sharpness_cutoff()
        by_alpha = {s["alpha"]: s for s in cert.samples}
        assert by_alpha[Fr(31, 100)]["product_wins"] is True
        assert by_alpha[Fr(33, 100)]["product_wins"] is False
        lo, hi = cert.crossover_bracket
        # the closed-form constant is a conservative threshold: domination
        # certainly holds below it, and the empirical flip sits at or above
        assert lo >= cert.lower
        assert lo < hi

    def test_exact_comparison_below_cutoff(self):
        cert = ef_sharpness_cutoff()
        for s in cert.samples:
            if s["alpha"] < cert.lower and s["product_bound"] is not None:
                assert s["product_bound"] < s["single_family_extension"]


class TestDefaultLedger:
    def test_seeds(self):
        led = build_default_ledger()
        assert led.best_upper("m3", Fr(1, 2)) == Fr(5, 48)  # curve beats 1/8
        assert led.best_lower("M3", Fr(1, 2)) == Fr(1, 8)  # interval embedding
        assert led.best_upper("M3", Fr(1, 2)) == Fr(1, 4)  # pair-count bound
        assert led.check_consistency()
