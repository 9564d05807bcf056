"""Exact 3AP counting: slow oracle, fast convolution path, energies.

T3(A1, A2, A3) is the number of pairs (x, d) with x in A1, x+d in A2 and
x+2d in A3.  Every routine here returns exact integers; the fast path uses a
floating FFT only inside a proven-safe magnitude window and otherwise falls
back to exact integer convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .sets import AnySet, IntegerSet, ResidueSet, difference_set, sumset

__all__ = [
    "CountReport",
    "WeightVector",
    "t3_naive",
    "t3_fast",
    "t3_integers",
    "count_report",
    "midpoint_upper_bound",
    "t3_trilinear",
    "additive_energy",
    "complement_identity_check",
    "ComplementCheck",
    "doubling_delta",
    "cyclic_convolution_exact",
]

# Above this pairwise product the float FFT can no longer be rounded safely.
_FFT_SAFE_LIMIT = 1 << 52


@dataclass(frozen=True)
class CountReport:
    """T3 split into trivial (d = 0) and combinatorial progressions.

    t3 == trivial + 2*combinatorial whenever the three argument sets coincide
    and the ambient group is Z or has odd order.
    """

    t3: int
    trivial: int
    combinatorial: int

    def to_document(self) -> dict:
        return {"t3": self.t3, "trivial": self.trivial, "combinatorial": self.combinatorial}


@dataclass(frozen=True)
class WeightVector:
    """An integer-valued weight function on Z/NZ."""

    modulus: int
    values: tuple[int, ...]

    def __init__(self, modulus: int, values: Iterable[int]):
        vals = tuple(int(v) for v in values)
        if len(vals) != modulus:
            raise ValueError(f"need {modulus} weights, got {len(vals)}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "values", vals)

    @classmethod
    def indicator(cls, A: ResidueSet) -> "WeightVector":
        vals = [0] * A.modulus
        for x in A:
            vals[x] = 1
        return cls(A.modulus, vals)


def _check_moduli(*sets: ResidueSet) -> int:
    N = sets[0].modulus
    for s in sets[1:]:
        if s.modulus != N:
            raise ValueError(f"modulus mismatch: {s.modulus} != {N}")
    return N


def _rot(mask: int, d: int, N: int, full: int) -> int:
    """Rotate an N-bit mask so that bit e moves to bit (e + d) mod N."""
    d %= N
    if d == 0:
        return mask
    return ((mask << d) | (mask >> (N - d))) & full


def t3_naive(A1: ResidueSet, A2: ResidueSet | None = None, A3: ResidueSet | None = None) -> int:
    """Direct evaluation of T3 over all (x, d): the oracle path.

    Scans every difference d and intersects the three membership masks, so
    the definition is evaluated literally (no convolution identity).  Cost is
    O(N^2 / wordsize).
    """
    A2 = A1 if A2 is None else A2
    A3 = A1 if A3 is None else A3
    N = _check_moduli(A1, A2, A3)
    full = (1 << N) - 1
    m1, m2, m3 = A1.bitmask, A2.bitmask, A3.bitmask
    total = 0
    for d in range(N):
        # x in A1, x in A2 - d, x in A3 - 2d
        total += (m1 & _rot(m2, N - d, N, full) & _rot(m3, (N - 2 * d) % N, N, full)).bit_count()
    return total


def _folded_digits(value: int, N: int, nbytes: int) -> np.ndarray:
    """Digit s plus digit s + N, for s < N, of the 2N - 1 lowest
    base-256**nbytes digits of a nonnegative int: a linear convolution read
    off a Kronecker product and folded mod N.

    int64 while a digit fits in 7 bytes, otherwise Python ints in an object
    array.
    """
    raw = np.frombuffer(value.to_bytes((2 * N - 1) * nbytes, "little"), np.uint8)
    place = 256 ** np.arange(nbytes, dtype=np.int64 if nbytes <= 7 else object)
    lin = raw.reshape(2 * N - 1, nbytes).astype(place.dtype) @ place
    out = lin[:N].copy()
    out[:N - 1] += lin[N:]
    return out


def cyclic_convolution_exact(A: Sequence[int], B: Sequence[int], N: int) -> list[int]:
    """out[s] = #{(i, j) : A[i] + B[j] = s mod N}, exactly, for integer
    sequences A and B (repeated elements count with their multiplicity).

    One big-int multiplication of the packed multiplicity vectors (Kronecker
    substitution).  A digit of the product is at most
    min(|A| * max mult(B), |B| * max mult(A)), and every digit gets enough
    whole bytes to hold that bound, so digits never carry.  Packing and
    unpacking go through numpy byte buffers.
    """
    if not (len(A) and len(B)):
        return [0] * N
    ca = np.bincount(np.asarray(A, dtype=np.int64) % N, minlength=N)
    cb = np.bincount(np.asarray(B, dtype=np.int64) % N, minlength=N)
    bound = min(len(A) * int(cb.max()), len(B) * int(ca.max()))
    nbytes = bound.bit_length() // 8 + 1
    width = min(nbytes, 8)

    def pack(counts: np.ndarray) -> int:
        buf = np.zeros((N, nbytes), np.uint8)
        buf[:, :width] = counts.astype("<u8").view(np.uint8).reshape(N, 8)[:, :width]
        return int.from_bytes(buf.tobytes(), "little")

    return _folded_digits(pack(ca) * pack(cb), N, nbytes).tolist()


def _fast_length(m: int) -> int:
    """The least 5-smooth integer >= m (m >= 1), a length at which the FFT
    needs no Bluestein fallback."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < m:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _pair_counts(e1: np.ndarray, e3: np.ndarray, N: int) -> np.ndarray:
    """r[s] = #{(x, z) in e1 x e3 : x + z = s mod N}, exact int64, for int64
    arrays of distinct residues (e3 is e1 for a self-convolution).

    The one float/exact decision in this module.  The float path is a
    zero-padded linear convolution at L = the least 5-smooth length
    >= 2N - 1, folded mod N.  Its rounding error grows with the transform
    length, so it runs only while |e1| * |e3| * L < 2**52; beyond that the
    exact integer convolution is used.
    """
    L = _fast_length(2 * N - 1)
    if len(e1) * len(e3) * L >= _FFT_SAFE_LIMIT:
        return np.array(cyclic_convolution_exact(e1, e3, N), dtype=np.int64)
    ind = np.zeros(L)
    ind[e1] = 1.0
    F = np.fft.rfft(ind)
    if e3 is e1:
        F *= F
    else:
        ind[:] = 0.0
        ind[e3] = 1.0
        F *= np.fft.rfft(ind)
    lin = np.rint(np.fft.irfft(F, L)[:2 * N - 1]).astype(np.int64)
    r = lin[:N]
    r[:N - 1] += lin[N:]
    return r


def _t3_arrays(e1: np.ndarray, e2: np.ndarray, e3: np.ndarray, N: int) -> int:
    """T3 of three int64 arrays of distinct residues mod N: the sum over b
    in e2 of r(2b), r the cyclic convolution of e1 and e3."""
    r = _pair_counts(e1, e3, N)
    return int(r[(2 * e2) % N].sum())


def t3_fast(A1: ResidueSet, A2: ResidueSet | None = None, A3: ResidueSet | None = None) -> int:
    """T3 via the convolution identity T3 = sum over b in A2 of r(2b), where
    r is the cyclic convolution of the indicators of A1 and A3.

    r comes from _pair_counts: a float FFT, zero-padded to L = the least
    5-smooth integer >= 2N - 1 and folded mod N, while |A1| * |A3| * L <
    2**52 (the rounding error grows with the transform length, so the window
    is measured in L), and exact integer convolution beyond.
    """
    A2 = A1 if A2 is None else A2
    A3 = A1 if A3 is None else A3
    N = _check_moduli(A1, A2, A3)
    if not (A1 and A2 and A3):
        return 0
    e1 = np.array(A1.elements, dtype=np.int64)
    e3 = e1 if A3.elements == A1.elements else np.array(A3.elements, dtype=np.int64)
    return _t3_arrays(e1, np.array(A2.elements, dtype=np.int64), e3, N)


def t3_integers(A: IntegerSet) -> CountReport:
    """Exact T3 of a finite integer set, split trivial/combinatorial.

    Enumerates midpoints: each unordered pair with an even sum whose average
    lies in the set is one combinatorial progression, counted twice by T3.
    """
    els = A.elements
    n = len(els)
    members = A.element_set
    combinatorial = 0
    for i in range(n):
        ai = els[i]
        for j in range(i + 1, n):
            s = ai + els[j]
            if s % 2 == 0 and s // 2 in members:
                combinatorial += 1
    return CountReport(n + 2 * combinatorial, n, combinatorial)


def count_report(A: ResidueSet) -> CountReport:
    """Trivial/combinatorial split of T3(A) for odd modulus."""
    if A.modulus % 2 == 0:
        raise ValueError("the trivial/combinatorial split needs an odd modulus")
    t3 = t3_fast(A)
    n = len(A)
    if (t3 - n) % 2 != 0:
        raise RuntimeError(f"T3 - n = {t3 - n} is odd")
    return CountReport(t3, n, (t3 - n) // 2)


def midpoint_upper_bound(n: int) -> int:
    """ceil(n^2/2), via the midpoint count n + 2*sum_j min(j-1, n-j).

    The two closed forms are evaluated independently and must agree.
    """
    if n < 0:
        raise ValueError("cardinality must be nonnegative")
    summation = n + 2 * sum(min(j - 1, n - j) for j in range(1, n + 1))
    ceil_form = (n * n + 1) // 2
    if summation != ceil_form:
        raise RuntimeError(f"midpoint count {summation} != ceil(n^2/2) = {ceil_form}")
    return ceil_form


def _pack(values: Sequence[int], nbytes: int) -> int:
    """sum_i values[i] * 256**(nbytes*i) for nonnegative values < 256**nbytes."""
    return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in values), "little")


def t3_trilinear(f1: WeightVector, f2: WeightVector, f3: WeightVector) -> int:
    """Exact trilinear form sum_{x,d} f1(x) f2(x+d) f3(x+2d) for integer
    weights of any sign and size, at any modulus.

    r(s) = sum_x f1(x) f3(s - x) comes from big-int products of the
    nonnegative parts f = f+ - f- (Kronecker substitution; every digit of
    f1+ f3+ + f1- f3- and of f1+ f3- + f1- f3+ is at most
    N * max|f1| * max|f3|, so digits never carry); then T3 = sum_y f2(y) r(2y).
    """
    N = f1.modulus
    if f2.modulus != N or f3.modulus != N:
        raise ValueError("modulus mismatch between weight vectors")
    a, c = f1.values, f3.values
    if not any(a) or not any(c):
        return 0
    bound = N * max(map(abs, a)) * max(map(abs, c))
    nbytes = bound.bit_length() // 8 + 1
    a_pos, a_neg = (_pack([max(sign * v, 0) for v in a], nbytes) for sign in (1, -1))
    c_pos, c_neg = (_pack([max(sign * v, 0) for v in c], nbytes) for sign in (1, -1))
    plus = _folded_digits(a_pos * c_pos + a_neg * c_neg, N, nbytes)
    minus = _folded_digits(a_pos * c_neg + a_neg * c_pos, N, nbytes)
    r = (plus - minus).tolist()
    return sum(w * r[(2 * y) % N] for y, w in enumerate(f2.values) if w)


def additive_energy(A: AnySet, B: AnySet) -> int:
    """E(A, B): quadruples (a1, b1, a2, b2) with a1 + b1 = a2 + b2, exactly.

    E is the sum of r(s)^2 over the sums s, r(s) the number of pairs in
    A x B summing to s.  Mod N, r comes from _pair_counts, under the same
    2**52 float window as t3_fast.  Over Z the sums are counted by value, so
    nothing is allocated per integer of their span.
    """
    if isinstance(A, ResidueSet) != isinstance(B, ResidueSet):
        raise ValueError("sets live in different contexts (Z vs Z/NZ)")
    if len(A) == 0 or len(B) == 0:
        return 0
    a = np.array(A.elements, dtype=np.int64)
    b = a if B.elements == A.elements else np.array(B.elements, dtype=np.int64)
    if isinstance(A, ResidueSet):
        r = _pair_counts(a, b, _check_moduli(A, B))
    else:
        r = np.unique(np.add.outer(a, b), return_counts=True)[1]
    return int(np.dot(r, r))


@dataclass(frozen=True)
class ComplementCheck:
    lhs: int
    rhs: int
    equal: bool
    applicable: bool


def complement_identity_check(A: ResidueSet) -> ComplementCheck:
    """Check T3(A) + T3(A^c) == N^2 - 3nN + 3n^2.

    The identity needs a group with no 2- or 3-torsion, so the check is
    reported as not applicable when gcd(N, 6) != 1 (both sides are still
    computed and returned).
    """
    N = A.modulus
    n = len(A)
    lhs = t3_fast(A) + t3_fast(A.complement())
    rhs = N * N - 3 * n * N + 3 * n * n
    return ComplementCheck(lhs, rhs, lhs == rhs, gcd(N, 6) == 1)


def doubling_delta(A: AnySet) -> Fraction:
    """|A - A| / |A|, exactly."""
    if len(A) == 0:
        raise ValueError("doubling constant of the empty set is undefined")
    return Fraction(len(difference_set(A, A)), len(A))
