import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ap3 import counting
from ap3.counting import (
    WeightVector,
    additive_energy,
    complement_identity_check,
    count_report,
    cyclic_convolution_exact,
    doubling_delta,
    midpoint_upper_bound,
    t3_fast,
    t3_integers,
    t3_naive,
    t3_trilinear,
)
from ap3.sets import IntegerSet, ResidueSet
from oracles import (
    convolution_brute,
    energy_brute,
    least_5_smooth_brute,
    t3_int_brute,
    t3_mod_brute,
    t3_mod_brute_triple,
    trilinear_brute,
)


def _t3_exact(A1, A2, A3):
    """Sum over b in A2 of r(2b), r the exact convolution of A1 and A3."""
    N = A1.modulus
    r = cyclic_convolution_exact(A1.elements, A3.elements, N)
    return sum(r[2 * b % N] for b in A2)


class TestT3Naive:
    def test_singleton(self):
        assert t3_naive(ResidueSet(5, [0])) == 1

    def test_four_of_five(self):
        assert t3_naive(ResidueSet(5, [1, 2, 3, 4])) == 12

    def test_full_group(self):
        assert t3_naive(ResidueSet(5, range(5))) == 25
        assert t3_naive(ResidueSet(7, range(7))) == 49

    def test_empty(self):
        assert t3_naive(ResidueSet(9, [])) == 0

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            t3_naive(ResidueSet(5, [0]), ResidueSet(7, [0]))

    @pytest.mark.parametrize("N", [4, 5, 6, 7, 9])
    def test_exhaustive_small_against_brute(self, N):
        for n in range(N + 1):
            for els in combinations(range(N), n):
                assert t3_naive(ResidueSet(N, els)) == t3_mod_brute(els, N)

    def test_triple_arguments_against_brute(self):
        rng = random.Random(5)
        for _ in range(40):
            N = rng.choice([6, 7, 10, 11, 13])
            sets = [rng.sample(range(N), rng.randrange(N + 1)) for _ in range(3)]
            got = t3_naive(*(ResidueSet(N, s) for s in sets))
            assert got == t3_mod_brute_triple(*sets, N)


class TestT3Fast:
    def test_matches_naive_examples(self):
        assert t3_fast(ResidueSet(5, [1, 2, 3, 4])) == 12
        assert t3_fast(ResidueSet(7, range(7))) == 49

    def test_randomized_equivalence(self):
        rng = random.Random(99)
        for _ in range(200):
            N = rng.randrange(4, 400)
            A = [ResidueSet(N, rng.sample(range(N), rng.randrange(N + 1))) for _ in range(3)]
            assert t3_fast(*A) == t3_naive(*A)

    def test_exact_method_matches(self, monkeypatch):
        # a closed float window sends every convolution down the exact path
        monkeypatch.setattr(counting, "_FFT_SAFE_LIMIT", 0)
        rng = random.Random(7)
        for _ in range(25):
            N = rng.randrange(4, 120)
            A = ResidueSet(N, rng.sample(range(N), rng.randrange(N + 1)))
            assert t3_fast(A) == t3_naive(A)

    def test_exact_method_at_scale(self, monkeypatch):
        N = 2003
        A = ResidueSet(N, random.Random(13).sample(range(N), 900))
        expect = t3_naive(A)
        assert t3_fast(A) == expect
        monkeypatch.setattr(counting, "_FFT_SAFE_LIMIT", 0)
        assert t3_fast(A) == expect

    def test_tiny_moduli(self):
        assert t3_fast(ResidueSet(1, [0])) == t3_naive(ResidueSet(1, [0])) == 1
        A2 = ResidueSet(2, [0, 1])
        assert t3_fast(A2) == t3_naive(A2) == 4

    @given(st.data())
    def test_affine_invariance(self, data):
        N = data.draw(st.sampled_from([5, 7, 11, 13, 17]))
        els = data.draw(st.sets(st.integers(0, N - 1), max_size=N))
        a = data.draw(st.integers(1, N - 1))
        b = data.draw(st.integers(0, N - 1))
        A = ResidueSet(N, els)
        image = ResidueSet(N, ((a * x + b) % N for x in els))
        assert t3_fast(image) == t3_fast(A)

    def test_affine_invariance_bulk(self):
        # 1000 seeded (A, a, b) triples at prime moduli
        rng = random.Random(424242)
        primes = [53, 101, 211, 499]
        for _ in range(1000):
            N = rng.choice(primes)
            A = ResidueSet(N, rng.sample(range(N), rng.randrange(N + 1)))
            a, b = rng.randrange(1, N), rng.randrange(N)
            image = ResidueSet(N, ((a * x + b) % N for x in A))
            assert t3_fast(image) == t3_fast(A)

    def test_exact_convolution_helper(self):
        # convolution of indicators equals the pair-sum counts
        A, B, N = [0, 1, 3], [2, 3], 7
        conv = cyclic_convolution_exact(A, B, N)
        expect = [0] * N
        for a in A:
            for b in B:
                expect[(a + b) % N] += 1
        assert conv == expect


def _heavy(rng, size, support):
    """`size` draws from range(support): repeated elements with large multiplicity."""
    return [rng.randrange(support) for _ in range(size)]


class TestExactConvolution:
    # Digits get bit_length(bound) // 8 + 1 bytes, bound the largest digit
    # min(|A| * max mult(B), |B| * max mult(A)).  Distinct elements need both
    # sizes >= 32768 for 3-byte digits, too many for the double loop, so the
    # 3-byte case gets there by multiplicity.
    @pytest.mark.parametrize("case", ["1-byte", "2-byte", "3-byte", "N=1", "empty", "repeats",
                                      "carry-prone repeats", "out of range"])
    def test_against_double_loop(self, case):
        rng = random.Random(case)
        A, B, N, least_max = {
            "1-byte": (rng.sample(range(211), 100), rng.sample(range(211), 120), 211, 1),
            "2-byte": (rng.sample(range(1009), 700), rng.sample(range(1009), 700), 1009, 256),
            "3-byte": (_heavy(rng, 70000, 3), [0, 1, 1, 5], 7, 1 << 16),
            "N=1": ([0, 0, 0], [0, 0], 1, 6),
            "empty": ([], [1, 2], 5, 0),
            "repeats": (_heavy(rng, 300, 40), _heavy(rng, 200, 40), 101, 1),
            "carry-prone repeats": ([0] * 20, [0] * 20, 3, 400),
            "out of range": ([-1, 7, 12, 3], [5, -6, 0], 5, 1),
        }[case]
        got = cyclic_convolution_exact(A, B, N)
        assert got == convolution_brute(A, B, N)
        assert max(got) >= least_max
        assert all(type(v) is int for v in got)


class TestFloatExactSwitch:
    def test_fast_length_is_least_5_smooth(self):
        for m in range(1, 10001):
            assert counting._fast_length(m) == least_5_smooth_brute(m), m

    def test_dispatch_at_the_2_52_window(self, monkeypatch):
        N = 500009
        L = counting._fast_length(2 * N - 1)
        a = 100000
        b = ((1 << 52) - 1) // (a * L)  # a * b * L is the last product below 2**52
        assert a * b * L < 1 << 52 <= a * (b + 1) * L and b + 1 <= N
        calls = []

        def spy(A, B, modulus):
            calls.append((len(A), len(B), modulus))
            return [0] * modulus  # the exact product here takes seconds

        monkeypatch.setattr(counting, "cyclic_convolution_exact", spy)
        A1 = ResidueSet(N, range(a))
        everything = ResidueSet(N, range(N))
        # y -> 2y is a bijection for odd N, so T3(A1, Z/NZ, A3) = |A1| |A3|
        assert t3_fast(A1, everything, ResidueSet(N, range(b))) == a * b
        assert calls == []
        t3_fast(A1, everything, ResidueSet(N, range(b + 1)))
        assert calls == [(a, b + 1, N)]

    def test_fft_equals_exact_on_uneven_triples(self):
        rng = random.Random(20011)
        for N in [2, 3, 97, 1009, 4999, 10007, 20011]:
            for _ in range(3):
                sizes = [rng.choice([1, rng.randrange(1, N + 1), N]) for _ in range(3)]
                A = [ResidueSet(N, rng.sample(range(N), k)) for k in sizes]
                # t3_naive takes about 0.25 s per call at N = 20011
                expect = t3_naive if N <= 4999 else _t3_exact
                assert t3_fast(*A) == expect(*A), (N, sizes)
                assert t3_fast(A[0]) == expect(A[0], A[0], A[0]), (N, sizes)


class TestT3Integers:
    def test_empty(self):
        assert t3_integers(IntegerSet([])).t3 == 0

    def test_family_and_small(self):
        rep = t3_integers(IntegerSet([-3, -1, 0, 1, 3]))
        assert (rep.t3, rep.trivial, rep.combinatorial) == (13, 5, 4)
        rep = t3_integers(IntegerSet([0, 1, 2]))
        assert (rep.t3, rep.trivial, rep.combinatorial) == (5, 3, 1)

    def test_consistency_split(self):
        rng = random.Random(3)
        for _ in range(50):
            els = rng.sample(range(-40, 40), rng.randrange(1, 12))
            rep = t3_integers(IntegerSet(els))
            assert rep.t3 == rep.trivial + 2 * rep.combinatorial
            assert rep.t3 == t3_int_brute(els)


class TestMidpointBound:
    @pytest.mark.parametrize("n,expected", [(0, 0), (4, 8), (5, 13)])
    def test_values(self, n, expected):
        assert midpoint_upper_bound(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            midpoint_upper_bound(-1)


class TestTrilinear:
    def test_all_ones(self):
        f = WeightVector(5, [1] * 5)
        assert t3_trilinear(f, f, f) == 25

    def test_indicator_reduces_to_naive(self):
        A = ResidueSet(5, [1, 2, 3, 4])
        f = WeightVector.indicator(A)
        assert t3_trilinear(f, f, f) == t3_naive(A) == 12

    def test_scaling(self):
        f1 = WeightVector(5, [2, 0, 0, 0, 0])
        f = WeightVector(5, [1, 0, 0, 0, 0])
        assert t3_trilinear(f1, f, f) == 2

    def test_random_weights_against_brute(self):
        rng = random.Random(11)
        for _ in range(20):
            N = rng.randrange(3, 12)
            vals = [[rng.randrange(-2, 4) for _ in range(N)] for _ in range(3)]
            expect = sum(
                vals[0][x] * vals[1][(x + d) % N] * vals[2][(x + 2 * d) % N]
                for x in range(N)
                for d in range(N)
            )
            got = t3_trilinear(*(WeightVector(N, v) for v in vals))
            assert got == expect

    def test_length_validation(self):
        with pytest.raises(ValueError):
            WeightVector(5, [1, 2])
        with pytest.raises(ValueError):
            t3_trilinear(WeightVector(5, [1] * 5), WeightVector(7, [1] * 7), WeightVector(5, [1] * 5))

    def test_large_modulus_guarded_path(self):
        N = 5003
        A = ResidueSet(N, random.Random(4).sample(range(N), 800))
        f = WeightVector.indicator(A)
        assert t3_trilinear(f, f, f) == t3_fast(A)

    @pytest.mark.parametrize("N", [7, 4093, 4099])
    @pytest.mark.parametrize(
        "lo, hi",
        [(-3, 4), (2**40, 2**40 + 1), (-(2**64), 2**64), (2**63, 2**70)],
        ids=["small-signed", "2**40", "signed-2**64", "beyond-int64"],
    )
    def test_exact_against_support_oracle(self, N, lo, hi):
        # both sides of the old N = 4096 switch, negative weights and
        # weights outside int64
        rng = random.Random(N * 7 + lo % 1000)
        window = sorted({x % N for x in range(-40, 40)})  # progressions wrap past 0
        vals = []
        for _ in range(3):
            v = [0] * N
            for x in rng.sample(window, min(len(window), 50)):
                v[x] = rng.randint(lo, hi)
            vals.append(v)
        got = t3_trilinear(*(WeightVector(N, v) for v in vals))
        assert got == trilinear_brute(*vals, N)
        assert got != 0

    def test_regressions_overflow_and_single_negative(self):
        big = WeightVector(7, [2**40] * 7)
        assert t3_trilinear(big, big, big) == 49 * 2**120
        for N in (4093, 4099):
            f = WeightVector(N, [-1] + [0] * (N - 1))
            assert t3_trilinear(f, f, f) == -1


class TestAdditiveEnergy:
    def test_examples(self):
        A = IntegerSet([0, 1])
        assert additive_energy(A, A) == 6
        assert additive_energy(IntegerSet([2, 5, 9]), IntegerSet([7])) == 3
        Z5 = ResidueSet(5, range(5))
        assert additive_energy(Z5, Z5) == 125

    def test_empty(self):
        assert additive_energy(IntegerSet([]), IntegerSet([1])) == 0

    def test_against_brute(self):
        rng = random.Random(21)
        for _ in range(30):
            N = rng.randrange(3, 15)
            A = rng.sample(range(N), rng.randrange(1, N + 1))
            B = rng.sample(range(N), rng.randrange(1, N + 1))
            assert additive_energy(ResidueSet(N, A), ResidueSet(N, B)) == energy_brute(A, B, N)
            assert additive_energy(IntegerSet(A), IntegerSet(B)) == energy_brute(A, B)

    def test_against_brute_on_both_sides_of_the_float_exact_switch(self, monkeypatch):
        # the window is moved to each pair: first just inside it, then just outside
        calls = []
        exact = counting.cyclic_convolution_exact

        def spy(A, B, modulus):
            calls.append((len(A), len(B), modulus))
            return exact(A, B, modulus)

        monkeypatch.setattr(counting, "cyclic_convolution_exact", spy)
        rng = random.Random(31)
        for N in (1, 2, 3, 7, 12, 13):
            L = counting._fast_length(2 * N - 1)
            full = list(range(N))
            A = rng.sample(full, rng.randrange(1, N + 1))
            B = rng.sample(full, rng.randrange(1, N + 1))
            for P, Q in ((full, full), (A, A), (A, B), (full, B)):
                product = len(P) * len(Q) * L
                for limit, expect_calls in ((product + 1, []), (product, [(len(P), len(Q), N)])):
                    monkeypatch.setattr(counting, "_FFT_SAFE_LIMIT", limit)
                    calls.clear()
                    got = additive_energy(ResidueSet(N, P), ResidueSet(N, Q))
                    assert got == energy_brute(P, Q, N), (N, P, Q, limit)
                    assert calls == expect_calls

    def test_integer_sums_far_apart(self):
        # four distinct sums spread over 10**12 integers: counted by value,
        # nothing is allocated per integer of the span
        assert additive_energy(IntegerSet([0, 10**12]), IntegerSet([0, 1])) == 4

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            additive_energy(IntegerSet([0]), ResidueSet(5, [0]))


class TestComplementIdentity:
    def test_singleton_mod5(self):
        chk = complement_identity_check(ResidueSet(5, [0]))
        assert (chk.lhs, chk.rhs, chk.equal, chk.applicable) == (13, 13, True, True)

    def test_empty_and_full(self):
        chk = complement_identity_check(ResidueSet(7, []))
        assert chk.lhs == chk.rhs == 49 and chk.equal
        chk = complement_identity_check(ResidueSet(7, range(7)))
        assert chk.lhs == chk.rhs == 49 and chk.equal

    @pytest.mark.parametrize("N", [5, 7, 11])
    def test_exhaustive(self, N):
        for n in range(N + 1):
            for els in combinations(range(N), n):
                assert complement_identity_check(ResidueSet(N, els)).equal

    def test_not_applicable_moduli(self):
        assert not complement_identity_check(ResidueSet(6, [0])).applicable
        assert not complement_identity_check(ResidueSet(9, [0])).applicable
        assert complement_identity_check(ResidueSet(25, [0])).applicable


class TestCountReport:
    def test_split_odd_modulus(self):
        rep = count_report(ResidueSet(5, [1, 2, 3, 4]))
        assert (rep.t3, rep.trivial, rep.combinatorial) == (12, 4, 4)
        assert rep.to_document() == {"t3": 12, "trivial": 4, "combinatorial": 4}

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            count_report(ResidueSet(6, [0, 1]))


class TestDoubling:
    def test_examples(self):
        assert doubling_delta(IntegerSet([3])) == 1
        assert doubling_delta(IntegerSet(range(10))) == Fraction(19, 10)
        assert doubling_delta(IntegerSet([0, 1, 3])) == Fraction(7, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            doubling_delta(IntegerSet([]))
