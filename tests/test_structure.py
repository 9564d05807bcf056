import random
from fractions import Fraction as Fr

import pytest

from ap3 import structure
from ap3.constructions import FamilyTag, embed_mod, generate_family, random_set
from ap3.counting import additive_energy
from ap3.sets import ResidueSet, dilate
from ap3.structure import (
    Decomposition,
    check_final_lemma,
    check_t3_energy_inequality,
    check_union_doubling,
    decompose_heuristic,
    rectify,
    verify_decomposition,
)
from oracles import t3_mod_brute_triple


class TestRectify:
    def test_interval_already_short(self):
        res = rectify(ResidueSet(101, range(10)))
        assert res.arc_length == 9
        assert res.dilator == 1 and res.offset == 0
        assert res.covered_fraction == 1

    def test_unscrambles_dilate(self):
        A = dilate(ResidueSet(101, range(10)), 7)
        res = rectify(A)
        assert res.arc_length == 9
        assert res.dilator == 29  # inverse of 7 mod 101, smallest tie

    def test_random_set_stays_spread(self):
        # a uniform 50-subset of Z/101Z has no dilate concentrated in a
        # short arc; exact value frozen from the exhaustive scan
        res = rectify(random_set(50, 101, 12345))
        assert res.arc_length == 90
        assert res.arc_length >= 60

    def test_partial_coverage(self):
        # half coverage of two separated blocks isolates one block
        N = 1009
        A = ResidueSet(N, list(range(20)) + list(range(500, 520)))
        res = rectify(A, coverage=0.5)
        assert res.arc_length == 19
        assert res.covered_fraction == Fr(1, 2)

    def test_arc_contains_fraction(self):
        N = 101
        A = random_set(30, N, 8)
        res = rectify(A, coverage=0.8)
        inside = sum(
            1 for x in A if (res.dilator * x - res.offset) % N <= res.arc_length
        )
        assert inside >= 24

    def test_affine_equivariance_seeded(self):
        rng = random.Random(42)
        N = 1009
        for _ in range(10):
            A = random_set(35, N, rng.randrange(1 << 30))
            a, b = rng.randrange(1, N), rng.randrange(N)
            image = ResidueSet(N, ((a * x + b) % N for x in A))
            assert rectify(A).arc_length == rectify(image).arc_length

    def test_validation(self):
        with pytest.raises(ValueError):
            rectify(ResidueSet(101, []))
        with pytest.raises(ValueError):
            rectify(ResidueSet(100, [1, 2]))
        with pytest.raises(ValueError):
            rectify(ResidueSet(101, [1]), coverage=0)


class TestDecompose:
    def test_interval_single_part(self):
        A = ResidueSet(1009, range(100, 140))
        D = decompose_heuristic(A)
        assert len(D.parts) == 1 and len(D.noise) == 0
        assert D.parts[0].elements == A.elements
        rep = verify_decomposition(D)
        assert rep.cross_communication_ok and rep.noise_ok

    def test_two_separated_clusters(self):
        N = 1009
        els = set(range(100, 140)) | {(13 * i + 500) % N for i in range(40)}
        D = decompose_heuristic(ResidueSet(N, els))
        assert len(D.parts) == 2
        assert sorted(len(p) for p in D.parts) == [40, 40]
        rep = verify_decomposition(D)
        assert rep.cross_communication_ok
        assert rep.noise_ok

    def test_random_set_all_noise(self):
        A = random_set(60, 1009, 99)
        D = decompose_heuristic(A)
        assert len(D.parts) == 0
        assert D.noise.elements == A.elements

    def test_partition_validity(self):
        rng = random.Random(17)
        for _ in range(5):
            A = random_set(rng.randrange(10, 80), 1009, rng.randrange(1 << 30))
            D = decompose_heuristic(A)
            got = set(D.noise.elements)
            for p in D.parts:
                assert not (got & p.element_set)
                got |= p.element_set
            assert got == A.element_set

    def test_float_parameters_taken_exactly(self):
        # two parts reach the merge predicate with a float epsilon_prime
        N = 1009
        A = ResidueSet(N, set(range(100, 140)) | {(13 * i + 500) % N for i in range(40)})
        D = decompose_heuristic(A, epsilon=0.125, epsilon_prime=0.25)
        assert D == decompose_heuristic(A, epsilon=Fr(1, 8), epsilon_prime=Fr(1, 4))
        assert type(D.epsilon) is type(D.epsilon_prime) is Fr
        assert len(D.parts) == 2

    def test_invalid_decompositions_rejected(self):
        N = 101
        P = ResidueSet(N, [1, 2])
        with pytest.raises(ValueError):
            Decomposition((P, P), ResidueSet(N, []), Fr(1, 10), Fr(1, 4), 2)
        with pytest.raises(ValueError):
            Decomposition((P,), ResidueSet(N, [2, 9]), Fr(1, 10), Fr(1, 4), 2)
        with pytest.raises(ValueError):
            Decomposition((ResidueSet(N, []),), ResidueSet(N, []), Fr(1, 10), Fr(1, 4), 2)
        with pytest.raises(ValueError):
            Decomposition((P,), ResidueSet(N, []), Fr(2, 3), Fr(1, 4), 2)
        with pytest.raises(ValueError):
            Decomposition((P,), ResidueSet(N, []), 0.1, 0.5, 2)


class TestVerifyDecomposition:
    def test_empty_noise_condition(self):
        A = ResidueSet(101, range(30))
        D = Decomposition((A,), ResidueSet(101, []), Fr(1, 10), Fr(1, 4), 2)
        rep = verify_decomposition(D)
        assert rep.noise_energy_max == 0 and rep.noise_ok
        assert rep.cross_communication_ok  # vacuous with one part
        assert rep.part_sizes == (30,)
        assert rep.largeness_ratio == Fr(30, 30)

    def test_cross_matrix_symmetric_diagonal_zero(self):
        N = 1009
        P = ResidueSet(N, range(10))
        Q = ResidueSet(N, ((13 * i + 500) % N for i in range(10)))
        D = Decomposition((P, Q), ResidueSet(N, []), Fr(1, 10), Fr(1, 4), 2)
        rep = verify_decomposition(D)
        assert rep.cross_energy[0][0] == rep.cross_energy[1][1] == 0
        assert rep.cross_energy[0][1] == rep.cross_energy[1][0]
        assert rep.all_checked_hold == (rep.cross_communication_ok and rep.noise_ok)

    def test_equality_communicates_in_merge_rule_and_cross_condition(self):
        # all 16 sums are distinct, so E = 16 = (1/4) * (4 * 4)^{3/2} exactly
        N = 1009
        P = ResidueSet(N, [0, 1, 3, 7])
        Q = ResidueSet(N, [100, 120, 150, 190])
        energy = structure._max_dilated_energy(P, Q, 1)
        assert energy == additive_energy(P, Q) == 16
        assert structure._communicates(energy, 4, 4, Fr(1, 4))
        rep = verify_decomposition(Decomposition((P, Q), ResidueSet(N, []), Fr(1, 10), Fr(1, 4), 1))
        assert rep.cross_energy == ((0, 16), (16, 0))
        assert not rep.cross_communication_ok

    def test_float_parameters_taken_exactly(self):
        N = 1009
        P = ResidueSet(N, [0, 1, 3, 7])
        Q = ResidueSet(N, [100, 120, 150, 190])
        D = Decomposition((P, Q), ResidueSet(N, []), 0.1, 0.25, 1)
        assert (D.epsilon, D.epsilon_prime) == (Fr(0.1), Fr(1, 4))
        assert type(D.epsilon) is type(D.epsilon_prime) is Fr
        rep = verify_decomposition(D)
        assert rep == verify_decomposition(Decomposition((P, Q), ResidueSet(N, []), Fr(0.1), Fr(1, 4), 1))
        assert not rep.cross_communication_ok  # E = 16 = (1/4) (4 * 4)^{3/2} exactly

    def test_energy_calls_per_unordered_pair(self, monkeypatch):
        calls = []

        def spy(A, B):
            calls.append((A, B))
            return additive_energy(A, B)

        monkeypatch.setattr(structure, "additive_energy", spy)
        N, L = 101, 2
        parts = tuple(ResidueSet(N, range(10 * i, 10 * i + 5)) for i in range(3))
        rep = verify_decomposition(Decomposition(parts, ResidueSet(N, [50, 70]), Fr(1, 10), Fr(1, 4), L))
        # L**2 dilation pairs for each of the 3 unordered part pairs, and for the noise
        assert len(calls) == (3 + 1) * L**2
        for i in range(3):
            for j in range(3):
                assert rep.cross_energy[i][j] == rep.cross_energy[j][i]


class TestT3EnergyInequality:
    def test_full_group_tight(self):
        Z5 = ResidueSet(5, range(5))
        chk = check_t3_energy_inequality(Z5, Z5, Z5)
        assert chk.lhs == chk.rhs == 5**12
        assert chk.holds

    def test_empty_argument(self):
        chk = check_t3_energy_inequality(
            ResidueSet(7, []), ResidueSet(7, [1]), ResidueSet(7, [2])
        )
        assert chk.lhs == 0 and chk.holds

    def test_randomized(self):
        rng = random.Random(6)
        for _ in range(100):
            N = rng.choice([7, 11, 13, 101])
            sets = [random_set(rng.randrange(1, N), N, rng.randrange(1 << 30)) for _ in range(3)]
            assert check_t3_energy_inequality(*sets).holds

    def test_lhs_is_exact_t3(self):
        N = 13
        rng = random.Random(2)
        sets = [rng.sample(range(N), 5) for _ in range(3)]
        chk = check_t3_energy_inequality(*(ResidueSet(N, s) for s in sets))
        assert chk.lhs == t3_mod_brute_triple(*sets, N) ** 6

    def test_validation(self):
        with pytest.raises(ValueError):
            check_t3_energy_inequality(ResidueSet(5, [0]), ResidueSet(7, [0]), ResidueSet(5, [0]))
        with pytest.raises(ValueError):
            check_t3_energy_inequality(ResidueSet(8, [0]), ResidueSet(8, [0]), ResidueSet(8, [0]))


class TestUnionDoubling:
    def test_interval_with_itself(self):
        A = ResidueSet(101, range(20))
        chk = check_union_doubling(A, A, Fr(1, 2))
        assert chk.applicable and chk.holds

    def test_translated_intervals(self):
        A = ResidueSet(101, range(20))
        chk = check_union_doubling(A, A.translate(5), Fr(1, 2))
        assert chk.applicable and chk.holds

    def test_uncorrelated_pair_not_applicable(self):
        A = ResidueSet(1009, range(0, 60, 2))
        B = ResidueSet(1009, ((211 * i + 7) % 1009 for i in range(30)))
        assert additive_energy(A, B) ** 2 * 4 < (30 * 30) ** 3
        chk = check_union_doubling(A, B, Fr(1, 2))
        assert not chk.applicable and chk.holds is None

    def test_float_eta_taken_exactly(self):
        A = ResidueSet(101, range(20))
        for B in (A, A.translate(5), ResidueSet(101, range(0, 60, 3))):
            assert check_union_doubling(A, B, 0.5) == check_union_doubling(A, B, Fr(1, 2))
        assert check_union_doubling(A, A, 0.5).applicable
        with pytest.raises(ValueError):
            check_union_doubling(A, A, 1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_union_doubling(ResidueSet(5, [0]), ResidueSet(7, [0]), Fr(1, 2))
        with pytest.raises(ValueError):
            check_union_doubling(ResidueSet(5, [0]), ResidueSet(5, [0]), Fr(3, 2))


class TestFinalLemma:
    def test_family_equality_case(self):
        emb = embed_mod(generate_family(FamilyTag("E", 1, 1)), 1009)
        chk = check_final_lemma(emb.residues)
        assert chk.applicable and chk.holds
        assert chk.equality and chk.classification.matched
        assert (chk.t3, chk.bound) == (13, 13)

    def test_strict_inequality_case(self):
        N = 1009
        els = [x % N for x in range(-10, 10)] + [N // 4]
        chk = check_final_lemma(ResidueSet(N, els))
        assert chk.applicable and chk.holds and not chk.equality
        assert (chk.t3, chk.bound) == (201, 221)

    def test_hypothesis_violated(self):
        chk = check_final_lemma(random_set(40, 1009, 1))
        assert not chk.applicable and chk.holds is None

    def test_empty(self):
        chk = check_final_lemma(ResidueSet(1009, []))
        assert not chk.applicable
