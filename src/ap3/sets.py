"""Set types over Z and Z/NZ, affine maps, set algebra and canonical forms.

Two immutable set types are provided: ResidueSet (a subset of Z/NZ together
with its modulus) and IntegerSet (a finite set of integers).  On top of them
this module implements dilates, difference sets, iterated sumsets, affine
maps, canonicalization under the affine group x -> a*x + b, and a transversal
of the affine orbits of n-subsets of Z/pZ used for isomorph-free exhaustive
search.

One kernel, _least_image, decides the least image a*A - p of a modular set
(as an N-bit mask) and every map that reaches it.  canonicalize reads the
representative, encoding and map off it; the transversal keeps an extension
of a representative unless some image sorts below it; orbit_size divides the
group order by the number of maps onto the least image.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
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


def _unit_inverses(N: int) -> list[int]:
    """inv[d] = d^{-1} mod N for the units d and 0 for the rest.

    Mod 1 the only unit is 0 = 1; it is stored as 1 so that 0 marks non-units.
    """
    return [pow(d, -1, N) or 1 if gcd(d, N) == 1 else 0 for d in range(N)]


def _least_image(
    els: tuple[int, ...], N: int, inv: list[int], below: int = 0
) -> tuple[int, list[tuple[int, int]]]:
    """The least N-bit mask of a*A - p over units a and p in a*A, and every
    (a, p) that reaches it.

    Masks of sets containing 0 sort as their sorted tuples (equivalently, as
    their gap sequences read from 0): X sorts below Y iff the lowest bit of
    X ^ Y lies in X.  If some d in A - A is a unit, d^{-1}*A - d^{-1}*x
    contains {0, 1}, so the least image does too, and every map onto it has
    a = d^{-1} for a unit d in A - A and p, p + 1 in a*A: only those are
    tried.  Otherwise (n = 1, or no unit difference mod a composite N) every
    unit and every p are.  A nonzero `below` (an image of A) is the least so
    far: the search returns at the first image that sorts below it.
    """
    full = (1 << N) - 1
    best, maps = below, []
    for pairs in (True, False):
        # pair mode runs over d = y - x in A - A, the fallback over every d
        xs, ys = (els, els) if pairs else ((0,), range(N))
        tried = [False] * N
        for x in xs:
            for y in ys:
                d = (y - x) % N
                if tried[d]:
                    continue
                tried[d] = True
                a = inv[d]
                if not a:
                    continue
                m = 0
                for e in els:
                    m |= 1 << (a * e % N)
                # bit p of starts: p (and p + 1, mod N, in pair mode) lie in a*A
                starts = m & ((m >> 1) | ((m & 1) << (N - 1))) if pairs else m
                while starts:
                    low = starts & -starts
                    starts ^= low
                    p = low.bit_length() - 1
                    image = ((m >> p) | (m << (N - p))) & full
                    diff = image ^ best
                    if diff & -diff & image:  # always so while best is 0
                        if below:
                            return image, [(a, p)]
                        best, maps = image, [(a, p)]
                    elif not diff:
                        maps.append((a, p))
        if maps:
            break
    return best, maps


def _mod_form(N: int, least: int, a: int, p: int) -> CanonicalForm:
    """The canonical form whose representative has the N-bit mask `least`,
    reached from the set by x -> a*x - p."""
    rep = tuple(e for e in range(N) if least >> e & 1)
    gaps = tuple(y - x for x, y in zip(rep, rep[1:] + (N,)))
    return CanonicalForm(ResidueSet(N, rep), (N, *gaps), AffineMap(a, -p % N, N))


def _canonicalize_mod(A: ResidueSet) -> CanonicalForm:
    N = A.modulus
    best, maps = _least_image(A.elements, N, _unit_inverses(N))
    return _mod_form(N, best, *min(maps))


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
    sequence over all unit dilations; the attached map x -> a*x - p sends A
    onto the representative, with (a, p) the least pair that does.  Integer
    sets: translate the minimum to 0, divide out the gcd of the gaps, and
    take the lexicographically smaller of the set and its reflection.  Empty
    sets are rejected.
    """
    if len(A) == 0:
        raise ValueError("cannot canonicalize the empty set")
    if isinstance(A, ResidueSet):
        return _canonicalize_mod(A)
    return _canonicalize_int(A)


def affine_orbit_transversal(n: int, N: int) -> Iterator[ResidueSet]:
    """Yield one canonical representative per affine orbit of n-subsets of Z/NZ.

    The representative is the set whose circular gap sequence, read from 0,
    is the least one over the orbit (as in canonicalize).  Requires N prime
    (the affine group then has order N*(N-1) and acts the same way on every
    nonzero difference).  Composite moduli are not supported.

    For n >= 2 every representative contains {0, 1}: if x, y in A and
    d = y - x, the dilate d^{-1}*A contains d^{-1}*x and d^{-1}*x + 1, so
    some image has a gap of 1 and the least gap sequence starts with 1.
    Representatives are closed under removing the largest element: if an
    affine image g(T) of T = S minus its largest element sorted below T,
    then g(S) would sort below S.  So the walk grows representatives from
    {0, 1} by one larger residue at a time and keeps an extension unless
    some image sorts below it (_least_image with the extension's own mask
    as `below`); each representative is reached exactly once, in
    lexicographic order.
    """
    if not is_prime(N):
        raise ValueError(f"orbit transversal requires a prime modulus, got {N}")
    if not (1 <= n <= N):
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    if n == 1:
        yield ResidueSet(N, (0,))
        return
    inv = _unit_inverses(N)
    stack = [((0, 1), 3)]
    while stack:
        els, mask = stack.pop()
        if len(els) == n:
            yield ResidueSet(N, els)
            continue
        # descending x, so the least extension is popped first
        for x in range(N - n + len(els), els[-1], -1):
            m = mask | 1 << x
            if _least_image(els + (x,), N, inv, m)[0] == m:
                stack.append((els + (x,), m))


def orbit_size(A: ResidueSet) -> int:
    """Size of the affine orbit of A in Z/NZ, N prime (orbit-stabilizer)."""
    N = A.modulus
    if not is_prime(N):
        raise ValueError("orbit size is only computed for prime moduli")
    if len(A) == 0:
        return 1
    maps = _least_image(A.elements, N, _unit_inverses(N))[1]
    # the maps onto one image form a coset of the stabilizer of A
    group_order = N * (N - 1)
    if group_order % len(maps) != 0:
        raise RuntimeError("stabilizer order does not divide the group order")
    return group_order // len(maps)


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


def load_set(path) -> AnySet:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed set document: {exc}") from exc
    return set_from_document(doc)
