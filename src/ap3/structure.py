"""Rectification, decomposition heuristics, and inequality checkers.

rectify finds, by exhaustive scan over dilators, the dilate of a modular set
that packs a prescribed fraction of its elements into the shortest cyclic
arc.  decompose_heuristic splits a set into structured parts plus noise by
repeatedly peeling off dense rectified arcs and agglomerating parts that
communicate additively.  The check_* routines evaluate both sides of the
energy and counting inequalities in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil
from typing import NamedTuple

import numpy as np

from .counting import additive_energy, doubling_delta, midpoint_upper_bound, t3_fast
from .search import ClassificationResult, classify_extremal
from .sets import ResidueSet, is_prime

__all__ = [
    "RectificationResult",
    "rectify",
    "Decomposition",
    "decompose_heuristic",
    "ConditionReport",
    "verify_decomposition",
    "T3EnergyCheck",
    "check_t3_energy_inequality",
    "UnionDoublingCheck",
    "check_union_doubling",
    "FinalLemmaCheck",
    "check_final_lemma",
]


@dataclass(frozen=True)
class RectificationResult:
    dilator: int
    offset: int
    arc_length: int
    covered_fraction: Fraction

    def to_document(self) -> dict:
        return {
            "dilator": self.dilator,
            "offset": self.offset,
            "arc_length": self.arc_length,
            "covered_fraction": str(self.covered_fraction),
        }


def rectify(A: ResidueSet, coverage: float | Fraction = 1) -> RectificationResult:
    """Shortest cyclic arc containing a coverage fraction of some dilate of A.

    Scans every dilator d in (Z/NZ)*, N prime; for each, the minimal arc
    holding ceil(coverage * |A|) elements of d*A is found by a sliding window
    over the sorted residues.  The global minimizer is returned, ties broken
    by smallest dilator and then smallest offset.
    """
    N = A.modulus
    if len(A) == 0:
        raise ValueError("cannot rectify the empty set")
    if not is_prime(N):
        raise ValueError(f"rectification scan requires a prime modulus, got {N}")
    cov = coverage if isinstance(coverage, Fraction) else Fraction(coverage).limit_denominator(10**6)
    if not (0 < cov <= 1):
        raise ValueError(f"coverage must lie in (0, 1], got {coverage}")
    n = len(A)
    t = max(1, -((-cov.numerator * n) // cov.denominator))  # ceil(cov * n), exactly

    units = np.arange(1, N, dtype=np.int64)
    elems = np.array(A.elements, dtype=np.int64)
    dilated = np.sort((units[:, None] * elems[None, :]) % N, axis=1)
    ext = np.concatenate([dilated, dilated + N], axis=1)
    spans = ext[:, t - 1 : t - 1 + n] - dilated  # window i covers t sorted points
    flat = int(np.argmin(spans))
    row, col = divmod(flat, n)
    return RectificationResult(
        dilator=int(units[row]),
        offset=int(dilated[row, col]),
        arc_length=int(spans[row, col]),
        covered_fraction=Fraction(t, n),
    )


@dataclass(frozen=True)
class Decomposition:
    """A partition of a set into structured parts plus a noise part.

    epsilon and epsilon_prime are stored as exact Fractions; a float is
    taken at its exact binary value, as in decompose_heuristic and
    check_union_doubling.
    """

    parts: tuple[ResidueSet, ...]
    noise: ResidueSet
    epsilon: Fraction
    epsilon_prime: Fraction
    L: int

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "epsilon_prime", Fraction(self.epsilon_prime))
        if not (0 < self.epsilon < Fraction(1, 2)) or not (0 < self.epsilon_prime < Fraction(1, 2)):
            raise ValueError("decomposition parameters must lie in (0, 1/2)")
        if self.L < 1:
            raise ValueError("dilation range L must be >= 1")
        N = self.noise.modulus
        seen: set[int] = set()
        for part in self.parts:
            if part.modulus != N:
                raise ValueError("all parts must share one modulus")
            if len(part) == 0:
                raise ValueError("parts must be nonempty")
            if seen & part.element_set:
                raise ValueError("parts must be pairwise disjoint")
            seen |= part.element_set
        if seen & self.noise.element_set:
            raise ValueError("noise overlaps a part")

    @property
    def whole(self) -> ResidueSet:
        N = self.noise.modulus
        els: set[int] = set(self.noise.elements)
        for p in self.parts:
            els |= p.element_set
        return ResidueSet(N, els)


_COVERAGE_LADDER = tuple(map(Fraction, ("1", "19/20", "9/10", "3/4", "3/5", "1/2")))


def decompose_heuristic(
    A: ResidueSet,
    epsilon: Fraction = Fraction(1, 10),
    epsilon_prime: Fraction = Fraction(1, 4),
    L: int = 2,
    max_parts: int = 8,
) -> Decomposition:
    """Split A into rectifiable clusters plus noise, then agglomerate.

    Parts are seeded by peeling off the elements that land in a dense short
    arc under the best dilator (density at least 1/2 within the arc, size at
    least epsilon*|A|); whatever resists is noise.  Any two parts whose
    normalized cross energy at dilations up to L reaches epsilon_prime are
    merged.  Only partition validity is guaranteed; verify_decomposition
    reports which structural conditions the result actually satisfies.
    """
    N = A.modulus
    epsilon, epsilon_prime = Fraction(epsilon), Fraction(epsilon_prime)
    min_size = max(2, ceil(epsilon * len(A)))
    remaining = set(A.elements)
    parts: list[ResidueSet] = []
    while len(remaining) >= min_size and len(parts) < max_parts:
        rest = ResidueSet(N, remaining)
        found = None
        for cov in _COVERAGE_LADDER:
            t = max(1, ceil(cov * len(rest)))
            if t < min_size:
                break
            res = rectify(rest, cov)
            if res.arc_length + 1 <= 2 * t:  # at least half the arc is filled
                found = res
                break
        if found is None:
            break
        d, off, arc = found.dilator, found.offset, found.arc_length
        cluster = {x for x in remaining if (d * x - off) % N <= arc}
        if len(cluster) < min_size:
            break
        parts.append(ResidueSet(N, cluster))
        remaining -= cluster
    noise = ResidueSet(N, remaining)

    # agglomerate communicating parts
    merged = True
    while merged and len(parts) > 1:
        merged = False
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                P, Q = parts[i], parts[j]
                if _communicates(_max_dilated_energy(P, Q, L), len(P), len(Q), epsilon_prime):
                    union = ResidueSet(N, P.element_set | Q.element_set)
                    parts = [p for k, p in enumerate(parts) if k not in (i, j)] + [union]
                    merged = True
                    break
            if merged:
                break
    parts.sort(key=lambda p: p.elements)
    return Decomposition(tuple(parts), noise, epsilon, epsilon_prime, L)


def _max_dilated_energy(P: ResidueSet, Q: ResidueSet, L: int) -> int:
    """The maximum of E(i*P, j*Q) over 1 <= i, j <= L."""
    return max(
        additive_energy(P.dilate(i), Q.dilate(j)) for i in range(1, L + 1) for j in range(1, L + 1)
    )


def _communicates(energy: int, a: int, b: int, eps: Fraction) -> bool:
    """Whether sets of sizes a and b with this energy communicate additively,
    energy >= eps * (a*b)^{3/2}, compared exactly as energy^2 >= eps^2 (a*b)^3."""
    return energy * energy * eps.denominator**2 >= eps.numerator**2 * (a * b) ** 3


@dataclass(frozen=True)
class ConditionReport:
    """Achieved numerics for the four decomposition conditions.

    Largeness and structure have no certified thresholds (their closed-form
    bounds involve inexplicit constants), so the report carries the achieved
    ratios; the cross-communication and noise conditions are checked against
    epsilon_prime and epsilon exactly.
    """

    part_sizes: tuple[int, ...]
    largeness_ratio: Fraction | None  # max over parts of |A| / |A_i|
    part_doubling: tuple[Fraction, ...]
    cross_energy: tuple[tuple[int, ...], ...]  # max over dilations, per pair
    cross_communication_ok: bool
    noise_energy_max: int
    noise_ok: bool

    @property
    def all_checked_hold(self) -> bool:
        return self.cross_communication_ok and self.noise_ok


def verify_decomposition(D: Decomposition) -> ConditionReport:
    """Exact evaluation of the decomposition conditions for all dilations
    lambda in {1..L}: cross energies between distinct parts against
    epsilon_prime * (|A_i| |A_j|)^{3/2} (the cross condition holds when no
    two parts communicate by the merge rule of decompose_heuristic), and
    noise-against-whole energies against epsilon * |A|^3."""
    parts, noise, L = D.parts, D.noise, D.L
    whole = D.whole
    n_total = len(whole)
    k = len(parts)

    sizes = tuple(len(p) for p in parts)
    largeness = max((Fraction(n_total, s) for s in sizes), default=None)
    doublings = tuple(doubling_delta(p) for p in parts)

    # E(i*P, j*Q) = E(j*Q, i*P), so each unordered pair is computed once
    cross = [[0] * k for _ in range(k)]
    cross_ok = True
    for i, j in combinations(range(k), 2):
        worst = cross[i][j] = cross[j][i] = _max_dilated_energy(parts[i], parts[j], L)
        if _communicates(worst, sizes[i], sizes[j], D.epsilon_prime):
            cross_ok = False

    noise_worst = _max_dilated_energy(noise, whole, L) if len(noise) else 0
    noise_ok = noise_worst <= D.epsilon * n_total**3

    return ConditionReport(
        part_sizes=sizes,
        largeness_ratio=largeness,
        part_doubling=doublings,
        cross_energy=tuple(map(tuple, cross)),
        cross_communication_ok=cross_ok,
        noise_energy_max=noise_worst,
        noise_ok=noise_ok,
    )


class T3EnergyCheck(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def check_t3_energy_inequality(
    A1: ResidueSet, A2: ResidueSet, A3: ResidueSet
) -> T3EnergyCheck:
    """T3(A1,A2,A3)^6 <= |A1||A2||A3| E(2*A2,A3) E(A1,A3) E(A1,2*A2),
    both sides as exact integers.  Needs an odd modulus so that dilation by 2
    is a bijection; a reported violation would indicate a counting bug."""
    N = A1.modulus
    if A2.modulus != N or A3.modulus != N:
        raise ValueError("modulus mismatch")
    if N % 2 == 0:
        raise ValueError("the energy bound needs an odd modulus")
    t3 = t3_fast(A1, A2, A3)
    twoA2 = A2.dilate(2)
    rhs = (
        len(A1)
        * len(A2)
        * len(A3)
        * additive_energy(twoA2, A3)
        * additive_energy(A1, A3)
        * additive_energy(A1, twoA2)
    )
    return T3EnergyCheck(t3**6, rhs, t3**6 <= rhs)


@dataclass(frozen=True)
class UnionDoublingCheck:
    applicable: bool
    holds: bool | None
    energy: int
    delta_union: Fraction | None
    bound: Fraction | None


def check_union_doubling(A: ResidueSet, B: ResidueSet, eta: Fraction) -> UnionDoublingCheck:
    """Under E(A,B) >= eta (|A||B|)^{3/2}: delta[A u B] <= 4 K_A K_B / eta.

    The precondition and conclusion are evaluated exactly (the 3/2 powers by
    comparing squares), with eta taken as the exact Fraction of its value.
    When the energy hypothesis fails the check is reported not applicable.
    """
    if A.modulus != B.modulus:
        raise ValueError("modulus mismatch")
    eta = Fraction(eta)
    if not (0 < eta <= 1):
        raise ValueError("eta must lie in (0, 1]")
    e = additive_energy(A, B)
    if not _communicates(e, len(A), len(B), eta):
        return UnionDoublingCheck(False, None, e, None, None)
    union = ResidueSet(A.modulus, A.element_set | B.element_set)
    delta_union = doubling_delta(union)
    bound = 4 * doubling_delta(A) * doubling_delta(B) / eta
    return UnionDoublingCheck(True, delta_union <= bound, e, delta_union, bound)


@dataclass(frozen=True)
class FinalLemmaCheck:
    applicable: bool
    holds: bool | None
    t3: int
    bound: int
    equality: bool
    classification: ClassificationResult | None


def check_final_lemma(A: ResidueSet) -> FinalLemmaCheck:
    """For sets with >= 95% of elements in the centred interval of radius
    N/24: T3(A) <= ceil(n^2/2), with equality only for family images.

    Inapplicable sets (concentration hypothesis fails) are reported as such;
    in the equality case the witness classification is attached and must
    match.
    """
    N = A.modulus
    n = len(A)
    if n == 0:
        return FinalLemmaCheck(False, None, 0, 0, False, None)
    inside = sum(1 for x in A if 24 * min(x, N - x) <= N)
    if 20 * inside < 19 * n:  # inside/n < 95%
        return FinalLemmaCheck(False, None, t3_fast(A), midpoint_upper_bound(n), False, None)
    t3 = t3_fast(A)
    bound = midpoint_upper_bound(n)
    equality = t3 == bound
    classification = classify_extremal(A) if equality else None
    holds = t3 <= bound and (not equality or classification.matched)
    return FinalLemmaCheck(True, holds, t3, bound, equality, classification)
