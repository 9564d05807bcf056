"""Exact 3AP counting: slow oracle, fast convolution path, energies.

T3(A1, A2, A3) is the number of pairs (x, d) with x in A1, x+d in A2 and
x+2d in A3.  Every routine here returns exact integers; the fast path uses a
floating FFT only inside a proven-safe magnitude window and otherwise falls
back to exact integer convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.array(self.values, dtype=np.int64)
        arr.setflags(write=False)
        return arr


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


def cyclic_convolution_exact(A: Sequence[int], B: Sequence[int], N: int) -> list[int]:
    """Exact cyclic convolution of two 0/1 indicator supports via one big-int
    multiplication (digits are packed wide enough that no carries occur)."""
    width = max(1, (min(len(A), len(B))).bit_length()) + 1
    width = ((width + 7) // 8) * 8  # whole bytes, so digits are byte slices
    pa = sum(1 << (width * e) for e in A)
    pb = sum(1 << (width * e) for e in B)
    prod = pa * pb
    nbytes = width // 8
    buf = prod.to_bytes(2 * N * nbytes, "little")
    out = [0] * N
    for i in range(2 * N - 1):
        digit = int.from_bytes(buf[i * nbytes:(i + 1) * nbytes], "little")
        if digit:
            out[i % N] += digit
    return out


def _pair_counts(A1: ResidueSet, A3: ResidueSet, exact: bool) -> np.ndarray:
    """r[s] = #{(x, z) in A1 x A3 : x + z = s mod N}, exact int64."""
    N = A1.modulus
    if exact or len(A1) * len(A3) * N >= _FFT_SAFE_LIMIT:
        return np.array(cyclic_convolution_exact(A1.elements, A3.elements, N), dtype=np.int64)
    ind1 = np.zeros(N)
    ind1[list(A1.elements)] = 1.0
    if A3.elements == A1.elements:
        f3 = None
    else:
        f3 = np.zeros(N)
        f3[list(A3.elements)] = 1.0
    F1 = np.fft.rfft(ind1)
    F = F1 * F1 if f3 is None else F1 * np.fft.rfft(f3)
    return np.rint(np.fft.irfft(F, N)).astype(np.int64)


def t3_fast(
    A1: ResidueSet,
    A2: ResidueSet | None = None,
    A3: ResidueSet | None = None,
    method: str = "auto",
) -> int:
    """T3 via the convolution identity T3 = sum over b in A2 of r(2b), where
    r is the cyclic convolution of the indicators of A1 and A3.

    method: "auto" uses a float FFT while N*|A1|*|A3| < 2**52 and exact
    integer convolution beyond; "exact" forces the integer path.
    """
    if method not in ("auto", "exact"):
        raise ValueError(f"unknown method {method!r}")
    A2 = A1 if A2 is None else A2
    A3 = A1 if A3 is None else A3
    N = _check_moduli(A1, A2, A3)
    if not (A1 and A2 and A3):
        return 0
    r = _pair_counts(A1, A3, exact=(method == "exact"))
    idx = (2 * np.array(A2.elements, dtype=np.int64)) % N
    return int(r[idx].sum())


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


def t3_trilinear(f1: WeightVector, f2: WeightVector, f3: WeightVector) -> int:
    """Exact trilinear form sum_{x,d} f1(x) f2(x+d) f3(x+2d) for integer weights."""
    N = f1.modulus
    if f2.modulus != N or f3.modulus != N:
        raise ValueError("modulus mismatch between weight vectors")
    a1, a2, a3 = f1.array, f2.array, f3.array
    # r(s) = sum_x f1(x) f3(s - x); then T3 = sum_y f2(y) r(2y).
    if N <= 4096:
        r = np.empty(N, dtype=object)
        idx = np.arange(N)
        for s in range(N):
            r[s] = int(np.dot(a1, a3[(s - idx) % N]))
    else:
        bound = N * int(np.abs(a1).max(initial=0)) * int(np.abs(a3).max(initial=0))
        if bound >= _FFT_SAFE_LIMIT or a1.min(initial=0) < 0 or a3.min(initial=0) < 0:
            raise ValueError("weights too large for the fast path at this modulus")
        conv = np.rint(np.fft.irfft(np.fft.rfft(a1) * np.fft.rfft(a3), N)).astype(np.int64)
        r = conv.astype(object)
    return int(sum(int(f2.values[y]) * int(r[(2 * y) % N]) for y in range(N)))


def additive_energy(A: AnySet, B: AnySet) -> int:
    """E(A, B): quadruples (a1, b1, a2, b2) with a1 + b1 = a2 + b2, exactly."""
    if isinstance(A, ResidueSet) != isinstance(B, ResidueSet):
        raise ValueError("sets live in different contexts (Z vs Z/NZ)")
    if len(A) == 0 or len(B) == 0:
        return 0
    if isinstance(A, ResidueSet):
        N = _check_moduli(A, B)
        if len(A) * len(B) <= 1 << 20:
            sums = (np.add.outer(np.array(A.elements), np.array(B.elements)) % N).ravel()
            counts = np.bincount(sums, minlength=N)
        else:
            counts = np.array(cyclic_convolution_exact(A.elements, B.elements, N), dtype=np.int64)
        return int(np.dot(counts, counts))
    a = np.array(A.elements, dtype=np.int64)
    b = np.array(B.elements, dtype=np.int64)
    sums = np.add.outer(a, b).ravel()
    sums -= sums.min()
    counts = np.bincount(sums)
    return int(np.dot(counts, counts))


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
