import pytest

from ap3.constructions import (
    FamilyTag,
    behrend_best_radius,
    behrend_set,
    embed_mod,
    family_tags,
    generate_family,
    intersect_search,
    optimize_wraparound,
    random_set,
    wrap_parameter_estimate,
    wraparound_complement,
)
from ap3.counting import midpoint_upper_bound, t3_integers, t3_naive
from ap3.sets import IntegerSet, ResidueSet
from oracles import optimize_wraparound_brute, t3_int_brute


class TestFamilies:
    def test_examples(self):
        assert generate_family(FamilyTag("E", 0, 0)).elements == (0,)
        assert generate_family(FamilyTag("E", 1, 1)).elements == (-3, -1, 0, 1, 3)
        assert generate_family(FamilyTag("F", 1, 1)).elements == (-1, 0, 1, 3)

    def test_block_structure(self):
        # outer blocks step 2, centre solid
        assert generate_family(FamilyTag("E", 2, 3)).elements == (
            -8, -6, -4, -2, -1, 0, 1, 2, 4, 6, 8)
        assert generate_family(FamilyTag("F", 2, 3)).elements == (
            -6, -4, -2, -1, 0, 1, 2, 4, 6, 8)

    def test_cardinalities_sweep(self):
        for k in range(51):
            for m in range(51):
                assert len(generate_family(FamilyTag("E", k, m))) == 2 * k + 2 * m + 1
                if m >= 1:
                    assert len(generate_family(FamilyTag("F", k, m))) == 2 * k + 2 * m

    def test_invalid_tags(self):
        with pytest.raises(ValueError):
            FamilyTag("G", 0, 0)
        with pytest.raises(ValueError):
            FamilyTag("E", -1, 0)
        with pytest.raises(ValueError):
            FamilyTag("F", 2, 0)  # degenerates to E(2, 0), wrong parity

    def test_family_tags_by_size(self):
        assert [(t.k, t.m) for t in family_tags(5)] == [(0, 2), (1, 1), (2, 0)]
        assert [(t.k, t.m) for t in family_tags(4)] == [(0, 2), (1, 1)]
        assert family_tags(0) == []
        assert all(t.size == 9 for t in family_tags(9))

    def test_families_attain_the_maximum(self):
        for k in range(21):
            for m in range(21):
                E = generate_family(FamilyTag("E", k, m))
                assert t3_integers(E).t3 == midpoint_upper_bound(len(E)), (k, m)
                if m >= 1:
                    F = generate_family(FamilyTag("F", k, m))
                    assert t3_integers(F).t3 == midpoint_upper_bound(len(F)), (k, m)


class TestEmbed:
    def test_no_wrap(self):
        emb = embed_mod(generate_family(FamilyTag("E", 1, 1)), 23)
        assert not emb.collided
        assert emb.residues.elements == (0, 1, 3, 20, 22)
        assert t3_naive(emb.residues) == 13

    def test_shift(self):
        emb = embed_mod(IntegerSet([0, 1]), 10, shift=9)
        assert emb.residues.elements == (0, 9)

    def test_full_group(self):
        emb = embed_mod(IntegerSet([0, 1, 2]), 3)
        assert not emb.collided
        assert t3_naive(emb.residues) == 9

    def test_collision_flagged(self):
        emb = embed_mod(IntegerSet([0, 5]), 5)
        assert emb.collided and emb.residues.elements == (0,)


class TestWraparound:
    def test_complement_of_singleton(self):
        rec = wraparound_complement(5, 0, 0)
        assert rec.residues.elements == (1, 2, 3, 4)
        assert rec.t3 == 12

    def test_size_guard(self):
        with pytest.raises(ValueError):
            wraparound_complement(5, 3, 3)

    def test_parameter_estimate_matches_scan(self):
        # at this scale the first-order parameters agree with the exhaustive scan
        N, n_family = 499, 249
        k, m = wrap_parameter_estimate(N, n_family)
        best = optimize_wraparound(N, n_family)
        assert abs(best.k - k) <= 2
        assert best.t3 >= t3_naive(embed_mod(generate_family(FamilyTag("E", k, m)), N).residues)

    def test_optimize_small_density_no_wrap(self):
        best = optimize_wraparound(31, 7)
        assert best.t3 == midpoint_upper_bound(7)

    def test_optimize_even_size_uses_f_family(self):
        best = optimize_wraparound(5, 4)
        assert best.t3 == 12
        assert best.k == 0  # smallest k on ties

    def test_full_group(self):
        best = optimize_wraparound(7, 7)
        assert best.t3 == 49

    def test_bad_size(self):
        with pytest.raises(ValueError):
            optimize_wraparound(7, 0)
        with pytest.raises(ValueError):
            optimize_wraparound(7, 8)

    def test_no_threads_argument(self):
        with pytest.raises(TypeError):
            optimize_wraparound(7, 3, threads=2)

    @pytest.mark.parametrize("N", [5, 7, 13, 31, 101])
    def test_optimize_equals_literal_oracle(self, N):
        for n in range(1, N + 1):
            expected = optimize_wraparound_brute(N, n)
            if expected is None:
                with pytest.raises(ValueError):
                    optimize_wraparound(N, n)
                continue
            best = optimize_wraparound(N, n)
            assert (best.k, best.m, best.t3, best.residues.elements) == expected, (N, n)

    def test_even_modulus_full_size_collides(self):
        # every F(k, m) of size N spans N + 1 or more positions and wraps onto itself
        assert optimize_wraparound_brute(6, 6) is None
        with pytest.raises(ValueError, match="no collision-free"):
            optimize_wraparound(6, 6)

    @pytest.mark.parametrize("n, expected", [
        (2999, (666, 833, 5829001)),
        (2499, (416, 833, 3642501)),
        (2000, (167, 833, 2083500)),
    ])
    def test_optimize_pinned_at_benchmark_inputs(self, n, expected):
        # the three densities of the density-bounds benchmark at N = 4999
        best = optimize_wraparound(4999, n)
        assert (best.k, best.m, best.t3) == expected
        assert len(best.residues) == n


class TestIntersectSearch:
    def test_full_group_partner(self):
        N = 101
        A = random_set(40, N, 3)
        full = ResidueSet(N, range(N))
        res = intersect_search(A, full, trials=5, seed=1)
        assert res.t3 == t3_naive(A)
        assert len(res.intersection) == len(A)

    def test_deterministic(self):
        N = 101
        A, B = random_set(50, N, 1), random_set(50, N, 2)
        r1 = intersect_search(A, B, trials=16, seed=9)
        r2 = intersect_search(A, B, trials=16, seed=9)
        assert (r1.lam, r1.mu, r1.t3) == (r2.lam, r2.mu, r2.t3)
        assert r1.trials == r2.trials

    def test_thread_independence(self):
        N = 101
        A, B = random_set(50, N, 1), random_set(50, N, 2)
        r1 = intersect_search(A, B, trials=16, seed=9, threads=1)
        r2 = intersect_search(A, B, trials=16, seed=9, threads=2)
        assert (r1.lam, r1.mu, r1.t3, r1.trials) == (r2.lam, r2.mu, r2.t3, r2.trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            intersect_search(random_set(3, 7, 0), random_set(3, 11, 0), trials=2, seed=0)
        with pytest.raises(ValueError):
            intersect_search(random_set(3, 7, 0), random_set(3, 7, 0), trials=0, seed=0)

    def test_provenance_document(self):
        N = 101
        res = intersect_search(random_set(50, N, 1), random_set(50, N, 2), trials=8, seed=3)
        doc = res.to_document()
        assert doc["provenance"]["generator"] == "intersect_search"
        assert doc["provenance"]["seed"] == 3
        assert doc["modulus"] == N and doc["t3"] == res.t3


class TestConstructionDocuments:
    def test_wraparound_document(self):
        rec = wraparound_complement(23, 1, 1)
        doc = rec.to_document()
        assert doc["provenance"]["generator"] == "wraparound_complement"
        assert doc["provenance"]["params"] == {"N": 23, "k": 1, "m": 1}
        assert doc["t3"] == rec.t3

    def test_optimized_document(self):
        doc = optimize_wraparound(23, 5).to_document()
        assert doc["provenance"]["generator"] == "optimize_wraparound"
        assert set(doc["provenance"]["params"]) == {"N", "k", "m"}


class TestBehrend:
    def test_one_dimensional(self):
        assert behrend_set(1, 7, 9).elements == (3,)

    def test_two_dimensional_example(self):
        assert behrend_set(2, 3, 1).elements == (1, 6)

    def test_empty_slice(self):
        assert behrend_set(2, 2, 2).elements == (5,)  # single vector (1,1) -> 1 + 4
        assert len(behrend_set(3, 3, 11)) == 0  # no digit vector reaches 11

    def test_no_progressions_sweep(self):
        for d in (1, 2, 3):
            for q in (2, 3, 4):
                if d * q > 12:
                    continue
                for r in range(d * (q - 1) ** 2 + 1):
                    S = behrend_set(d, q, r)
                    if len(S):
                        assert t3_integers(S).combinatorial == 0
                        assert t3_int_brute(S.elements) == len(S)

    def test_best_radius(self):
        assert behrend_best_radius(2, 3) == 1  # radius 1 has two vectors
        d, q = 3, 4
        r = behrend_best_radius(d, q)
        assert len(behrend_set(d, q, r)) == max(
            len(behrend_set(d, q, rr)) for rr in range(d * (q - 1) ** 2 + 1)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            behrend_set(0, 3, 1)
        with pytest.raises(ValueError):
            behrend_set(2, 1, 0)
        with pytest.raises(ValueError):
            behrend_set(2, 3, 99)


class TestRandomSet:
    def test_determinism(self):
        assert random_set(5, 31, 7).elements == random_set(5, 31, 7).elements

    def test_edges(self):
        assert random_set(7, 7, 0).elements == tuple(range(7))
        assert random_set(0, 7, 0).elements == ()
        with pytest.raises(ValueError):
            random_set(8, 7, 0)
