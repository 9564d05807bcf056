import json
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from ap3 import sets
from ap3.sets import (
    AffineMap,
    IntegerSet,
    ResidueSet,
    affine_orbit_transversal,
    canonicalize,
    difference_set,
    dilate,
    is_prime,
    iterated_sumset,
    orbit_size,
    set_from_document,
    set_to_document,
    sumset,
)
from oracles import affine_orbit, canonical_form_brute, transversal_brute


class TestResidueSet:
    def test_sorted_dedup(self):
        A = ResidueSet(7, [3, 1, 3, 5])
        assert A.elements == (1, 3, 5)
        assert len(A) == 3
        assert 3 in A and 2 not in A

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ResidueSet(5, [0, 5])
        with pytest.raises(ValueError):
            ResidueSet(5, [-1])
        with pytest.raises(ValueError):
            ResidueSet(0, [])

    def test_reduce_and_complement(self):
        A = ResidueSet.reduce(5, [-3, 7, 12])
        assert A.elements == (2,)
        assert A.complement().elements == (0, 1, 3, 4)

    def test_bitmask(self):
        assert ResidueSet(5, [0, 2]).bitmask == 0b101


class TestDilate:
    def test_identity(self):
        assert dilate(ResidueSet(5, [0, 1, 2]), 1).elements == (0, 1, 2)

    def test_mod_examples(self):
        assert dilate(ResidueSet(5, [0, 1, 2]), 2).elements == (0, 2, 4)
        assert dilate(ResidueSet(5, [0, 1, 3]), 2).elements == (0, 1, 2)

    def test_unit_dilate_preserves_cardinality(self):
        A = ResidueSet(7, [1, 2, 4])
        for lam in range(1, 7):
            assert len(dilate(A, lam)) == 3

    def test_integer_zero_rejected(self):
        with pytest.raises(ValueError):
            dilate(IntegerSet([1, 2]), 0)


class TestSetAlgebra:
    def test_difference_singleton(self):
        assert difference_set(IntegerSet([0]), IntegerSet([0])).elements == (0,)

    def test_difference_enumerated(self):
        A = IntegerSet([0, 1, 3])
        assert difference_set(A, A).elements == (-3, -2, -1, 0, 1, 2, 3)

    def test_difference_translation(self):
        got = difference_set(IntegerSet([0, 1]), IntegerSet([5]))
        assert got.elements == (-5, -4)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            difference_set(ResidueSet(5, [0]), ResidueSet(7, [0]))
        with pytest.raises(ValueError):
            sumset(ResidueSet(5, [0]), IntegerSet([0]))

    def test_iterated_sumset(self):
        assert iterated_sumset(IntegerSet([0, 1]), 1).elements == (0, 1)
        assert iterated_sumset(IntegerSet([0, 1]), 2).elements == (0, 1, 2)
        assert iterated_sumset(IntegerSet([0, 2]), 3).elements == (0, 2, 4, 6)
        with pytest.raises(ValueError):
            iterated_sumset(IntegerSet([0, 1]), 0)

    @given(st.sets(st.integers(-50, 50), min_size=1, max_size=8))
    def test_self_difference_symmetric_with_zero(self, els):
        D = difference_set(IntegerSet(els), IntegerSet(els))
        assert 0 in D
        assert all(-x in D for x in D)


class TestAffineMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            AffineMap(0, 1)  # zero scale over Z
        with pytest.raises(ValueError):
            AffineMap(2, 0, modulus=6)  # gcd(2, 6) != 1

    def test_apply_and_inverse_mod(self):
        f = AffineMap(3, 4, modulus=7)
        A = ResidueSet(7, [0, 1, 5])
        assert f.inverse().apply(f.apply(A)).elements == A.elements

    def test_apply_integer(self):
        f = AffineMap(-2, 3)
        assert f.apply(IntegerSet([0, 1, 2])).elements == (-1, 1, 3)

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            AffineMap(1, 0, modulus=5).apply(IntegerSet([0]))
        with pytest.raises(ValueError):
            AffineMap(1, 0, modulus=5).apply(ResidueSet(7, [0]))


class TestCanonicalize:
    def test_integer_normalization(self):
        assert canonicalize(IntegerSet([3, 5, 7])).representative.elements == (0, 1, 2)

    def test_integer_singleton(self):
        assert canonicalize(IntegerSet([42])).representative.elements == (0,)

    def test_mod_orbit_examples(self):
        a = canonicalize(ResidueSet(5, [0, 2, 4]))
        b = canonicalize(ResidueSet(5, [0, 1, 2]))
        assert a.encoding == b.encoding
        c = canonicalize(ResidueSet(7, [0, 1]))
        d = canonicalize(ResidueSet(7, [3, 6]))
        assert c.encoding == d.encoding

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(IntegerSet([]))
        with pytest.raises(ValueError):
            canonicalize(ResidueSet(5, []))

    def test_to_representative_map(self):
        A = ResidueSet(11, [2, 5, 6, 9])
        form = canonicalize(A)
        assert form.to_representative.apply(A).elements == form.representative.elements

    @given(
        st.data(),
        st.sampled_from([5, 7, 11, 13]),
    )
    def test_orbit_invariance_mod(self, data, N):
        n = data.draw(st.integers(1, N - 1))
        els = data.draw(st.sets(st.integers(0, N - 1), min_size=n, max_size=n))
        a = data.draw(st.integers(1, N - 1))
        b = data.draw(st.integers(0, N - 1))
        A = ResidueSet(N, els)
        image = AffineMap(a, b, modulus=N).apply(A)
        assert canonicalize(A).encoding == canonicalize(image).encoding

    @given(
        st.sets(st.integers(-30, 30), min_size=1, max_size=7),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.integers(-20, 20),
    )
    def test_orbit_invariance_int(self, els, a, b):
        A = IntegerSet(els)
        image = AffineMap(a, b).apply(A)
        assert canonicalize(A).encoding == canonicalize(image).encoding

    def test_modulus_one(self):
        form = canonicalize(ResidueSet(1, [0]))
        assert form.representative.elements == (0,)
        assert form.encoding == (1, 1)
        assert form.to_representative == AffineMap(1, 0, modulus=1)

    @pytest.mark.parametrize("N", range(1, 12))
    def test_equals_literal_oracle(self, N):
        # every nonempty subset, composite moduli included
        for n in range(1, N + 1):
            for els in combinations(range(N), n):
                form = canonicalize(ResidueSet(N, els))
                rep, enc, (a, b) = canonical_form_brute(els, N)
                assert form.representative.elements == rep, (N, els)
                assert form.encoding == enc, (N, els)
                assert form.to_representative == AffineMap(a, b, modulus=N), (N, els)

    @pytest.mark.parametrize("N", [4, 5, 6, 7, 8, 9, 10, 11])
    def test_encoding_separates_orbits_exhaustively(self, N):
        # groups of equal encodings must be exactly the affine orbits,
        # including composite moduli (units only)
        for n in range(1, N + 1):
            groups = {}
            for els in combinations(range(N), n):
                enc = canonicalize(ResidueSet(N, els)).encoding
                groups.setdefault(enc, set()).add(frozenset(els))
            for members in groups.values():
                orbit = affine_orbit(next(iter(members)), N)
                assert members == orbit


class TestTransversal:
    def test_counts_small(self):
        assert len(list(affine_orbit_transversal(1, 5))) == 1
        assert len(list(affine_orbit_transversal(2, 5))) == 1
        assert len(list(affine_orbit_transversal(3, 7))) == 2

    @pytest.mark.parametrize("N", [5, 7, 11, 13, 17, 19])
    def test_orbit_stabilizer_sum(self, N):
        for n in range(1, N + 1):
            total = sum(orbit_size(rep) for rep in affine_orbit_transversal(n, N))
            assert total == comb(N, n)

    @pytest.mark.parametrize("N", [2, 3, 5, 7, 11])
    def test_orbit_size_equals_orbit(self, N):
        for n in range(N + 1):
            for els in combinations(range(N), n):
                assert orbit_size(ResidueSet(N, els)) == len(affine_orbit(els, N)), (N, els)

    @pytest.mark.parametrize("N", [2, 3, 5, 7, 11, 13])
    def test_equals_literal_oracle_in_order(self, N):
        for n in range(1, N + 1):
            got = [rep.elements for rep in affine_orbit_transversal(n, N)]
            assert got == transversal_brute(n, N), (n, N)

    @pytest.mark.parametrize("N", [7, 13, 17])
    def test_representatives_contain_0_1_and_are_canonical(self, N):
        for n in range(1, N + 1):
            for rep in affine_orbit_transversal(n, N):
                if n >= 2:
                    assert rep.elements[:2] == (0, 1)
                assert canonicalize(rep).representative.elements == rep.elements

    @pytest.mark.parametrize("N", [5, 7, 11, 13, 17])
    def test_prefix_closed(self, N):
        # a representative minus its largest element is a representative
        reps = {n: {r.elements for r in affine_orbit_transversal(n, N)} for n in range(2, N + 1)}
        for n in range(3, N + 1):
            for els in reps[n]:
                assert els[:-1] in reps[n - 1], (N, els)

    @pytest.mark.parametrize("n, N, orbits, calls", [(8, 17, 95, 843), (9, 19, 280, 2390)])
    def test_kernel_calls_pinned(self, monkeypatch, n, N, orbits, calls):
        # the walk tests only extensions of representatives, far fewer than
        # the 5,005 and 19,448 n-subsets that contain {0, 1}
        count = 0
        original = sets._least_image

        def counting(*args):
            nonlocal count
            count += 1
            return original(*args)

        monkeypatch.setattr(sets, "_least_image", counting)
        assert len(list(affine_orbit_transversal(n, N))) == orbits
        assert count == calls

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            list(affine_orbit_transversal(2, 9))

    def test_is_prime(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestInterchange:
    def test_roundtrip_mod(self):
        A = ResidueSet(11, [0, 3, 7])
        doc = set_to_document(A, provenance={"generator": "test", "seed": 1})
        B = set_from_document(json.loads(json.dumps(doc)))
        assert isinstance(B, ResidueSet) and B.elements == A.elements

    def test_roundtrip_int(self):
        A = IntegerSet([-4, 0, 9])
        doc = set_to_document(A)
        assert doc["modulus"] is None
        B = set_from_document(doc)
        assert isinstance(B, IntegerSet) and B.elements == A.elements

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"elements": "nope"},
            {"elements": [1.5]},
            {"elements": [True]},
            {"modulus": 5, "elements": [5]},
            {"modulus": 5, "elements": [-1]},
            {"modulus": 0, "elements": []},
            {"modulus": "five", "elements": [0]},
            {"modulus": True, "elements": [0]},
            {"modulus": False, "elements": []},
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(ValueError):
            set_from_document(doc)
