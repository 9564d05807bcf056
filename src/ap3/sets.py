"""Set types over Z and Z/NZ, affine maps, set algebra and canonical forms.

Two immutable set types are provided: ResidueSet (a subset of Z/NZ together
with its modulus) and IntegerSet (a finite set of integers).  On top of them
this module implements dilates, difference sets, iterated sumsets, affine
maps, canonicalization under the affine group x -> a*x + b, and a transversal
of the affine orbits of n-subsets of Z/pZ used for isomorph-free exhaustive
search.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd
from typing import Iterable, Iterator, Union

__all__ = [
    "ResidueSet",
    "IntegerSet",
    "AffineMap",
    "CanonicalForm",
    "AnySet",
    "dilate",
    "translate",
    "difference_set",
    "sumset",
    "iterated_sumset",
    "canonicalize",
    "affine_orbit_transversal",
    "orbit_size",
    "is_prime",
    "set_to_document",
    "set_from_document",
    "dump_set",
    "load_set",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z/NZ.  Elements are stored sorted in [0, N-1]."""

    modulus: int
    elements: tuple[int, ...]

    def __init__(self, modulus: int, elements: Iterable[int]):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        els = sorted(set(elements))
        if els and not (0 <= els[0] and els[-1] < modulus):
            raise ValueError(f"elements must lie in [0, {modulus - 1}]")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "elements", tuple(els))

    @classmethod
    def reduce(cls, modulus: int, elements: Iterable[int]) -> "ResidueSet":
        """Build a ResidueSet by reducing arbitrary integers mod N."""
        return cls(modulus, (x % modulus for x in elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.element_set

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def bitmask(self) -> int:
        """Dense bit-per-residue membership mask (bit e set iff e in A)."""
        m = 0
        for e in self.elements:
            m |= 1 << e
        return m

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.elements), self.modulus)

    def complement(self) -> "ResidueSet":
        return ResidueSet(self.modulus, set(range(self.modulus)) - self.element_set)

    def translate(self, b: int) -> "ResidueSet":
        N = self.modulus
        return ResidueSet(N, ((x + b) % N for x in self.elements))

    def dilate(self, lam: int) -> "ResidueSet":
        N = self.modulus
        return ResidueSet(N, ((lam * x) % N for x in self.elements))


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of integers, stored sorted ascending."""

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]):
        object.__setattr__(self, "elements", tuple(sorted(set(elements))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.element_set

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def translate(self, b: int) -> "IntegerSet":
        return IntegerSet(x + b for x in self.elements)

    def dilate(self, lam: int) -> "IntegerSet":
        if lam == 0:
            raise ValueError("dilation by 0 is not allowed for integer sets")
        return IntegerSet(lam * x for x in self.elements)

    def reflect(self) -> "IntegerSet":
        return IntegerSet(-x for x in self.elements)


AnySet = Union[ResidueSet, IntegerSet]


@dataclass(frozen=True)
class AffineMap:
    """The map x -> scale*x + shift, over Z (modulus None) or Z/NZ."""

    scale: int
    shift: int
    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is None:
            if self.scale == 0:
                raise ValueError("integer affine map needs nonzero scale")
        else:
            if gcd(self.scale % self.modulus, self.modulus) != 1:
                raise ValueError(
                    f"scale {self.scale} is not invertible mod {self.modulus}"
                )

    def __call__(self, x: int) -> int:
        y = self.scale * x + self.shift
        return y % self.modulus if self.modulus is not None else y

    def apply(self, A: AnySet) -> AnySet:
        if isinstance(A, ResidueSet):
            if A.modulus != self.modulus:
                raise ValueError("modulus mismatch between map and set")
            return ResidueSet(A.modulus, (self(x) for x in A))
        if self.modulus is not None:
            raise ValueError("modular map applied to an integer set")
        return IntegerSet(self(x) for x in A)

    def inverse(self) -> "AffineMap":
        if self.modulus is None:
            if self.scale not in (1, -1):
                raise ValueError("integer affine map is not invertible over Z")
            return AffineMap(self.scale, -self.scale * self.shift)
        a_inv = pow(self.scale, -1, self.modulus)
        return AffineMap(a_inv, (-a_inv * self.shift) % self.modulus, self.modulus)


def _same_context(A: AnySet, B: AnySet) -> None:
    if isinstance(A, ResidueSet) != isinstance(B, ResidueSet):
        raise ValueError("sets live in different contexts (Z vs Z/NZ)")
    if isinstance(A, ResidueSet) and A.modulus != B.modulus:
        raise ValueError(f"modulus mismatch: {A.modulus} != {B.modulus}")


def dilate(A: AnySet, lam: int) -> AnySet:
    """Pointwise dilate {lam*a : a in A}, reduced mod N in modular context."""
    return A.dilate(lam)


def translate(A: AnySet, b: int) -> AnySet:
    return A.translate(b)


def difference_set(A: AnySet, B: AnySet) -> AnySet:
    """The difference set {a - b : a in A, b in B}."""
    _same_context(A, B)
    if isinstance(A, ResidueSet):
        N = A.modulus
        return ResidueSet(N, {(a - b) % N for a in A for b in B})
    return IntegerSet({a - b for a in A for b in B})


def sumset(A: AnySet, B: AnySet) -> AnySet:
    _same_context(A, B)
    if isinstance(A, ResidueSet):
        N = A.modulus
        return ResidueSet(N, {(a + b) % N for a in A for b in B})
    return IntegerSet({a + b for a in A for b in B})


def iterated_sumset(A: AnySet, lam: int) -> AnySet:
    """The lam-fold sumset {a_1 + ... + a_lam : a_i in A}; 1-fold is A itself."""
    if lam < 1:
        raise ValueError(f"fold count must be >= 1, got {lam}")
    out = A
    for _ in range(lam - 1):
        out = sumset(out, A)
    return out


# ---------------------------------------------------------------------------
# Canonical forms under the affine group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    """Orbit-invariant representative and total encoding of an affine orbit.

    Two sets have equal encodings iff they lie in the same orbit under
    x -> a*x + b (a invertible mod N, resp. a nonzero integer).  Modular
    encodings start with the modulus, integer encodings with 0, so the two
    contexts never collide.
    """

    representative: AnySet
    encoding: tuple[int, ...]
    to_representative: AffineMap | None = field(default=None, compare=False)


def _circular_gaps(points: list[int], N: int) -> tuple[int, ...]:
    n = len(points)
    return tuple(
        (points[(i + 1) % n] - points[i]) % N or N for i in range(n)
    ) if n else ()


def _min_rotation(seq: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    best, best_i = seq, 0
    for i in range(1, len(seq)):
        cand = seq[i:] + seq[:i]
        if cand < best:
            best, best_i = cand, i
    return best, best_i


def _canonicalize_mod(A: ResidueSet) -> CanonicalForm:
    N = A.modulus
    n = len(A)
    best_gaps = None
    best_map = None
    for a in range(1, N):
        if gcd(a, N) != 1:
            continue
        pts = sorted((a * x) % N for x in A)
        gaps = _circular_gaps(pts, N)
        rot, i = _min_rotation(gaps)
        if best_gaps is None or rot < best_gaps:
            best_gaps = rot
            best_map = AffineMap(a, (-pts[i]) % N, N)
    rep_els = [0]
    for g in best_gaps[:-1]:
        rep_els.append(rep_els[-1] + g)
    rep = ResidueSet(N, rep_els)
    return CanonicalForm(rep, (N, *best_gaps), best_map)


def _normalize_int(els: tuple[int, ...]) -> tuple[int, ...]:
    base = els[0]
    shifted = [e - base for e in els]
    g = 0
    for e in shifted:
        g = gcd(g, e)
    if g > 1:
        shifted = [e // g for e in shifted]
    return tuple(shifted)


def _canonicalize_int(A: IntegerSet) -> CanonicalForm:
    norm = _normalize_int(A.elements)
    refl = _normalize_int(tuple(sorted(-e for e in A.elements)))
    enc = min(norm, refl)
    return CanonicalForm(IntegerSet(enc), (0, *enc), None)


def canonicalize(A: AnySet) -> CanonicalForm:
    """Canonical form of A under affine equivalence.

    Modular sets: the encoding is the lexicographically minimal circular gap
    sequence over all unit dilations; the attached map sends A onto the
    representative.  Integer sets: translate the minimum to 0, divide out the
    gcd of the gaps, and take the lexicographically smaller of the set and
    its reflection.  Empty sets are rejected.
    """
    if len(A) == 0:
        raise ValueError("cannot canonicalize the empty set")
    if isinstance(A, ResidueSet):
        return _canonicalize_mod(A)
    return _canonicalize_int(A)


def affine_orbit_transversal(n: int, N: int) -> Iterator[ResidueSet]:
    """Yield one canonical representative per affine orbit of n-subsets of Z/NZ.

    Requires N prime (the affine group then has order N*(N-1) and acts the
    same way on every nonzero difference).  Composite moduli are not
    supported.
    """
    if not is_prime(N):
        raise ValueError(f"orbit transversal requires a prime modulus, got {N}")
    if not (1 <= n <= N):
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    # Every canonical representative contains 0, so candidates are subsets
    # of {1,...,N-1} of size n-1 with 0 adjoined.
    for rest in combinations(range(1, N), n - 1):
        cand = ResidueSet(N, (0,) + rest)
        form = canonicalize(cand)
        if form.representative.elements == cand.elements:
            yield cand


def orbit_size(A: ResidueSet) -> int:
    """Size of the affine orbit of A in Z/NZ, N prime (orbit-stabilizer)."""
    N = A.modulus
    if not is_prime(N):
        raise ValueError("orbit size is only computed for prime moduli")
    n = len(A)
    if n == 0:
        return 1
    base_gaps = _circular_gaps(list(A.elements), N)
    rotations = {base_gaps[i:] + base_gaps[:i] for i in range(n)}
    stab = 0
    for a in range(1, N):
        pts = sorted((a * x) % N for x in A)
        if _circular_gaps(pts, N) in rotations:
            # each matching rotation of the dilated gap sequence gives one
            # translation b with a*A + b = A
            gaps = _circular_gaps(pts, N)
            stab += sum(1 for i in range(n) if gaps[i:] + gaps[:i] == base_gaps)
    group_order = N * (N - 1)
    if group_order % stab != 0:
        raise RuntimeError("stabilizer order does not divide the group order")
    return group_order // stab


def transversal_consistency(n: int, N: int) -> tuple[int, int]:
    """(sum of orbit sizes over the transversal, C(N, n)); equal iff complete."""
    total = sum(orbit_size(rep) for rep in affine_orbit_transversal(n, N))
    return total, comb(N, n)


# ---------------------------------------------------------------------------
# Interchange format
# ---------------------------------------------------------------------------

def set_to_document(A: AnySet, provenance: dict | None = None) -> dict:
    """Shared interchange document: {"modulus": N or null, "elements": [...]}."""
    doc = {
        "modulus": A.modulus if isinstance(A, ResidueSet) else None,
        "elements": list(A.elements),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def set_from_document(doc: dict) -> AnySet:
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ValueError("set document must contain an 'elements' field")
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in elements
    ):
        raise ValueError("'elements' must be a list of integers")
    modulus = doc.get("modulus")
    if modulus is None:
        return IntegerSet(elements)
    if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 1:
        raise ValueError(f"invalid modulus: {modulus!r}")
    bad = [x for x in elements if not (0 <= x < modulus)]
    if bad:
        raise ValueError(f"elements out of range [0, {modulus - 1}]: {bad[:5]}")
    return ResidueSet(modulus, elements)


def dump_set(A: AnySet, path, provenance: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(set_to_document(A, provenance), fh, indent=None, sort_keys=True)
        fh.write("\n")


def load_set(path) -> AnySet:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed set document: {exc}") from exc
    return set_from_document(doc)
