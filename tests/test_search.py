from math import comb

import pytest

from ap3 import search
from ap3.constructions import FamilyTag, embed_mod, family_tags, generate_family
from ap3.counting import midpoint_upper_bound, t3_naive
from ap3.search import (
    BudgetExceededError,
    classify_extremal,
    extremal_mod,
    extremal_mod_via_complement,
    max3ap_integers,
    threshold_scan,
)
from ap3.sets import IntegerSet, ResidueSet, canonicalize

# Exhaustive reference tables computed by direct enumeration over all
# n-subsets with a quadratic brute-force count.
MOD_TABLES = {
    5: {"max": {1: 1, 2: 2, 3: 5, 4: 12, 5: 25},
        "min": {1: 1, 2: 2, 3: 5, 4: 12, 5: 25}},
    7: {"max": {1: 1, 2: 2, 3: 5, 4: 10, 5: 17, 6: 30, 7: 49},
        "min": {1: 1, 2: 2, 3: 3, 4: 8, 5: 17, 6: 30, 7: 49}},
    11: {"max": {1: 1, 2: 2, 3: 5, 4: 8, 5: 15, 6: 22, 7: 33, 8: 46, 9: 65, 10: 90, 11: 121},
         "min": {1: 1, 2: 2, 3: 3, 4: 4, 5: 9, 6: 16, 7: 29, 8: 44, 9: 65, 10: 90, 11: 121}},
}


def family_encodings(n):
    return {canonicalize(generate_family(t)).encoding for t in family_tags(n)}


class TestMax3apIntegers:
    def test_pair(self):
        res = max3ap_integers(2)
        assert res.value == 2
        assert [w.representative.elements for w in res.witnesses] == [(0, 1)]

    def test_five(self):
        res = max3ap_integers(5, width_cap=10)
        assert res.value == 13
        assert {w.representative.elements for w in res.witnesses} == {
            (0, 1, 2, 3, 4),
            (0, 2, 3, 4, 6),
        }

    def test_four(self):
        res = max3ap_integers(4, width_cap=8)
        assert res.value == 8
        assert {w.representative.elements for w in res.witnesses} == {
            (0, 1, 2, 3),
            (0, 1, 2, 4),
        }

    @pytest.mark.parametrize("n", range(1, 8))
    def test_value_and_witnesses_match_families(self, n):
        res = max3ap_integers(n)
        assert res.value == midpoint_upper_bound(n)
        assert {w.encoding for w in res.witnesses} == family_encodings(n)

    def test_witness_recount(self):
        for w in max3ap_integers(6).witnesses:
            from ap3.counting import t3_integers

            assert t3_integers(w.representative).t3 == 18

    def test_wider_cap_same_maximum(self):
        assert max3ap_integers(5, width_cap=14).value == 13

    def test_validation_and_budget(self):
        with pytest.raises(ValueError):
            max3ap_integers(0)
        with pytest.raises(ValueError):
            max3ap_integers(5, width_cap=3)
        with pytest.raises(BudgetExceededError):
            max3ap_integers(9, budget_nodes=50)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pruned_search_equals_brute_enumeration(self, n):
        # value and full witness list against unpruned enumeration
        from itertools import combinations

        from oracles import t3_int_brute

        W = 2 * n
        best, wits = -1, set()
        for rest in combinations(range(1, W + 1), n - 1):
            els = (0,) + rest
            v = t3_int_brute(els)
            if v > best:
                best, wits = v, set()
            if v == best:
                wits.add(canonicalize(IntegerSet(els)).encoding)
        res = max3ap_integers(n)
        assert res.value == best
        assert {w.encoding for w in res.witnesses} == wits


class TestExtremalMod:
    @pytest.mark.parametrize("N", sorted(MOD_TABLES))
    def test_tables(self, N):
        for side in ("max", "min"):
            for n, expected in MOD_TABLES[N][side].items():
                assert extremal_mod(n, N, side).value == expected

    def test_spot_values(self):
        assert extremal_mod(3, 7, "max").value == 5
        assert extremal_mod(4, 5, "max").value == 12

    def test_full_set_min(self):
        res = extremal_mod(7, 7, "min")
        assert res.value == 49

    def test_witnesses_are_canonical_and_recount(self):
        res = extremal_mod(4, 11, "max")
        for w in res.witnesses:
            rep = w.representative
            assert canonicalize(rep).encoding == w.encoding
            assert t3_naive(rep) == res.value

    def test_witnesses_pairwise_inequivalent(self):
        res = extremal_mod(5, 11, "min")
        encs = [w.encoding for w in res.witnesses]
        assert len(encs) == len(set(encs))

    def test_monotone_in_n(self):
        for N in (7, 11):
            values = [extremal_mod(n, N, "max").value for n in range(1, N + 1)]
            assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            extremal_mod(3, 9)
        with pytest.raises(ValueError):
            extremal_mod(0, 7)
        with pytest.raises(ValueError):
            extremal_mod(3, 7, "median")
        with pytest.raises(BudgetExceededError):
            extremal_mod(10, 101)

    def test_output_counts_pinned(self):
        # the reported search space is the n-subsets that contain {0, 1},
        # C(N-2, n-2) of them, of which all but the 95 orbits at n=8, N=17 are pruned
        res = extremal_mod(8, 17)
        assert res.search_space_size == 5005 == comb(15, 6)
        assert res.pruned_count == 4910
        assert extremal_mod(1, 17).search_space_size == 1
        # the budget is checked against the same count
        with pytest.raises(BudgetExceededError) as exc:
            extremal_mod(10, 101)
        assert exc.value.estimate == comb(99, 8)

    def test_one_canonicalize_call_per_witness(self, monkeypatch):
        # witnesses are transversal representatives, their own canonical
        # forms, so none is canonicalized; their forms equal canonicalize's
        calls = []
        original = search.canonicalize

        def counting(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(search, "canonicalize", counting)
        for side in ("max", "min"):
            for n in range(1, 14):
                calls.clear()
                res = extremal_mod(n, 13, side)
                assert calls == []
                for w in res.witnesses:
                    form = original(w.representative)
                    assert (w, w.to_representative) == (form, form.to_representative)


class TestViaComplement:
    @pytest.mark.parametrize("N", [5, 7, 11])
    def test_agreement_both_sides(self, N):
        for n in range(1, N + 1):
            for side in ("max", "min"):
                direct = extremal_mod(n, N, side)
                via = extremal_mod_via_complement(n, N, side)
                assert direct.value == via.value
                assert {w.encoding for w in direct.witnesses} == {
                    w.encoding for w in via.witnesses
                }

    def test_example_m3_4_5(self):
        assert extremal_mod_via_complement(4, 5, "min").value == 12
        assert extremal_mod_via_complement(4, 5, "max").value == 12


class TestClassify:
    def test_family_identity(self):
        res = classify_extremal(generate_family(FamilyTag("E", 1, 1)))
        assert res.matched
        assert (res.tag.family, res.tag.k, res.tag.m) == ("E", 1, 1)
        assert (res.map.scale, res.map.shift) == (1, 0)

    def test_constructed_image(self):
        res = classify_extremal(IntegerSet([1, 5, 7, 9, 13]))
        assert res.matched and (res.map.scale, res.map.shift) == (2, 7)
        image = res.map.apply(generate_family(res.tag))
        assert image.elements == (1, 5, 7, 9, 13)

    def test_negative_scale_image(self):
        A = IntegerSet([-3 * x + 1 for x in (-1, 0, 1, 3)])  # -3*F(1,1) + 1
        res = classify_extremal(A)
        assert res.matched
        assert res.map.apply(generate_family(res.tag)).elements == A.elements

    def test_interval_is_family(self):
        # odd interval: E(s, 0) maps on by a shift
        res = classify_extremal(IntegerSet(range(7)))
        assert res.matched and res.map is not None
        assert res.map.apply(generate_family(res.tag)).elements == tuple(range(7))
        # even interval: orbit member of F(0, m), but only via the
        # contracting direction, so no integer witness map exists
        res = classify_extremal(IntegerSet(range(6)))
        assert res.matched and res.map is None
        assert (res.tag.family, res.tag.k, res.tag.m) == ("F", 0, 3)

    def test_not_matched(self):
        assert not classify_extremal(IntegerSet([0, 1, 2, 4, 5])).matched

    def test_modular_image(self):
        N = 101
        emb = embed_mod(generate_family(FamilyTag("E", 1, 1)), N)
        A = ResidueSet(N, ((3 * x + 5) % N for x in emb.residues))
        res = classify_extremal(A)
        assert res.matched
        assert res.map.apply(embed_mod(generate_family(res.tag), N).residues).elements == A.elements

    def test_modular_not_matched(self):
        assert not classify_extremal(ResidueSet(101, [0, 1, 2, 4, 5])).matched

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_extremal(IntegerSet([]))


class TestThresholdScan:
    def test_n5_rows(self):
        scan = threshold_scan(5)
        rows = [(r.n, r.m3_max, r.half_n2_match, r.all_ef_witnesses) for r in scan.rows]
        assert rows == [
            (1, 1, True, True),
            (2, 2, True, True),
            (3, 5, True, True),
            (4, 12, False, True),
            (5, 25, False, True),
        ]
        from fractions import Fraction

        assert scan.largest_good_ratio == Fraction(3, 5)

    def test_n7_wrap_row(self):
        scan = threshold_scan(7)
        by_n = {r.n: r for r in scan.rows}
        assert by_n[4].m3_max == 10 and not by_n[4].half_n2_match
        assert by_n[2].m3_max == 2 and by_n[2].half_n2_match and by_n[2].all_ef_witnesses

    def test_lower_bound_where_interval_fits(self):
        scan = threshold_scan(11)
        for row in scan.rows:
            if row.n <= 6:  # (N + 1) / 2, interval embeds without wrap
                assert row.m3_max >= midpoint_upper_bound(row.n)

    def test_csv_rows(self):
        rows = threshold_scan(5).to_csv_rows()
        assert rows[0] == ["n", "M3", "half_n2_match", "all_EF_witnesses"]
        assert len(rows) == 6
