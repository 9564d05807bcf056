"""Generators for the extremal set families and other explicit constructions.

The two-block families E(k, m) and F(k, m) consist of a centred interval
{-k, ..., k} flanked by arithmetic progressions of step 2; they attain the
maximal 3AP count among integer sets of their size.  This module also builds
their modular embeddings and complements (whose wrap-around progressions
drive the upper bounds for the minimum count at densities above 1/3), random
sets, seeded intersection sampling, and a digit-sphere construction with no
nontrivial 3APs at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .counting import _t3_arrays, t3_fast
from .parallel import pmap
from .sets import IntegerSet, ResidueSet

__all__ = [
    "FamilyTag",
    "generate_family",
    "family_tags",
    "EmbeddedSet",
    "embed_mod",
    "WraparoundRecord",
    "wraparound_complement",
    "wrap_parameter_estimate",
    "OptimizedWraparound",
    "optimize_wraparound",
    "IntersectionResult",
    "intersect_search",
    "behrend_set",
    "behrend_best_radius",
    "random_set",
]


@dataclass(frozen=True)
class FamilyTag:
    """Parameters of one extremal family member.

    |E(k, m)| = 2k + 2m + 1 for all k, m >= 0.  |F(k, m)| = 2k + 2m for
    m >= 1; the degenerate F(k, 0) would collapse to E(k, 0) with odd size,
    so it is rejected.
    """

    family: str
    k: int
    m: int

    def __post_init__(self):
        if self.family not in ("E", "F"):
            raise ValueError(f"family must be 'E' or 'F', got {self.family!r}")
        if self.k < 0 or self.m < 0:
            raise ValueError("family parameters must be nonnegative")
        if self.family == "F" and self.m < 1:
            raise ValueError("F(k, m) requires m >= 1")

    @property
    def size(self) -> int:
        if self.family == "E":
            return 2 * self.k + 2 * self.m + 1
        return 2 * self.k + 2 * self.m


def _family_blocks(tag: FamilyTag) -> tuple[range, range, range]:
    """The three blocks of E(k, m) or F(k, m) as ranges: the left step-2
    progression, the centred interval and the right step-2 progression.

    Blocks may be empty; there is no special-casing beyond the parameter
    validation in FamilyTag.
    """
    k, m = tag.k, tag.m
    left_start = -k - 2 * m if tag.family == "E" else -k - 2 * m + 2
    return range(left_start, -k - 1, 2), range(-k, k + 1), range(k + 2, k + 2 * m + 1, 2)


def generate_family(tag: FamilyTag) -> IntegerSet:
    """The set E(k, m) or F(k, m), generated block by block."""
    out = IntegerSet(x for block in _family_blocks(tag) for x in block)
    if len(out) != tag.size:
        raise RuntimeError(f"family {tag} generated {len(out)} elements, expected {tag.size}")
    return out


def family_tags(n: int) -> list[FamilyTag]:
    """All family tags of cardinality n (E for odd n, F for even n)."""
    if n < 1:
        return []
    tags = []
    if n % 2 == 1:
        s = (n - 1) // 2
        tags = [FamilyTag("E", k, s - k) for k in range(s + 1)]
    else:
        t = n // 2
        tags = [FamilyTag("F", k, t - k) for k in range(t)]
    return tags


@dataclass(frozen=True)
class EmbeddedSet:
    residues: ResidueSet
    collided: bool


def embed_mod(A: IntegerSet, N: int, shift: int = 0) -> EmbeddedSet:
    """Reduce an integer set into Z/NZ via x -> (x + shift) mod N.

    Collisions (distinct integers mapping to the same residue) are legal but
    flagged, since the image then has smaller cardinality.
    """
    reduced = ResidueSet(N, ((x + shift) % N for x in A))
    return EmbeddedSet(reduced, len(reduced) != len(A))


@dataclass(frozen=True)
class WraparoundRecord:
    residues: ResidueSet
    t3: int
    density: Fraction
    k: int
    m: int

    def to_document(self) -> dict:
        from .sets import set_to_document

        doc = set_to_document(
            self.residues,
            provenance={"generator": "wraparound_complement",
                        "params": {"N": self.residues.modulus, "k": self.k, "m": self.m}},
        )
        doc["t3"] = self.t3
        doc["density"] = str(self.density)
        return doc


def wraparound_complement(N: int, k: int, m: int) -> WraparoundRecord:
    """Complement in Z/NZ of the embedded E(k, m), with its exact T3."""
    tag = FamilyTag("E", k, m)
    if tag.size > N:
        raise ValueError(f"E({k},{m}) has {tag.size} elements, more than N={N}")
    emb = embed_mod(generate_family(tag), N)
    comp = emb.residues.complement()
    return WraparoundRecord(comp, t3_fast(comp), comp.density, k, m)


def wrap_parameter_estimate(N: int, family_size: int) -> tuple[int, int]:
    """First-order optimal (k, m) for the embedded E family of a given size.

    k is close to (3*family_size - N)/6, clipped into the feasible range;
    exact optimization is done by optimize_wraparound.
    """
    if family_size % 2 == 0:
        raise ValueError("the E family has odd cardinality")
    s = (family_size - 1) // 2
    k = max(0, min(s, (3 * family_size - N) // 6))
    return k, s - k


@dataclass(frozen=True)
class OptimizedWraparound:
    k: int
    m: int
    residues: ResidueSet
    t3: int

    def to_document(self) -> dict:
        from .sets import set_to_document

        doc = set_to_document(
            self.residues,
            provenance={"generator": "optimize_wraparound",
                        "params": {"N": self.residues.modulus, "k": self.k, "m": self.m}},
        )
        doc["t3"] = self.t3
        return doc


def optimize_wraparound(N: int, n: int) -> OptimizedWraparound:
    """Exhaustive scan of all size-n family embeddings in Z/NZ, keeping the
    (k, m) whose embedded set has the largest T3 (ties to the smallest k).

    Odd n scans E(k, m) with 2k + 2m + 1 = n; even n scans the F analogue
    with 2k + 2m = n.  Embeddings that collide mod N are skipped.  Each
    embedding is scored as an array of residues; only the running best is
    kept, and only it becomes a ResidueSet.
    """
    if not (1 <= n <= N):
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    best = None
    for tag in family_tags(n):
        els = np.concatenate([np.arange(b.start, b.stop, b.step, dtype=np.int64)
                              for b in _family_blocks(tag)]) % N
        if np.bincount(els, minlength=N).max() > 1:
            continue
        value = _t3_arrays(els, els, els, N)
        if best is None or value > best[0]:
            best = value, tag, els
    if best is None:
        raise ValueError(f"no collision-free size-{n} family embedding in Z/{N}Z")
    value, tag, els = best
    return OptimizedWraparound(tag.k, tag.m, ResidueSet(N, els.tolist()), value)


@dataclass(frozen=True)
class IntersectionResult:
    lam: int
    mu: int
    intersection: ResidueSet
    t3: int
    feasible: bool
    trials: tuple[dict, ...]
    seed: int = 0

    def to_document(self) -> dict:
        from .sets import set_to_document

        doc = set_to_document(
            self.intersection,
            provenance={"generator": "intersect_search",
                        "params": {"lam": self.lam, "mu": self.mu,
                                   "trials": len(self.trials)},
                        "seed": self.seed},
        )
        doc["t3"] = self.t3
        doc["feasible"] = self.feasible
        return doc


def intersect_search(
    A: ResidueSet,
    B: ResidueSet,
    trials: int,
    seed: int,
    tol: float = 0.05,
    threads: int = 1,
) -> IntersectionResult:
    """Sample intersections A with (lam*B + mu) over seeded random (lam, mu).

    Among trials whose intersection keeps at least (1 - tol)*|A||B|/N
    elements, the one with the smallest T3 is returned (ties by smallest
    (lam, mu)).  If no trial meets the size constraint the largest
    intersection is returned with feasible=False.  Output depends only on
    (inputs, seed), not on the thread count.
    """
    N = A.modulus
    if B.modulus != N:
        raise ValueError(f"modulus mismatch: {B.modulus} != {N}")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    pairs = [(rng.randrange(1, N), rng.randrange(N)) for _ in range(trials)]
    threshold = (1 - tol) * len(A) * len(B) / N
    a_mask = np.zeros(N, dtype=bool)
    a_mask[list(A.elements)] = True
    b_arr = np.array(B.elements, dtype=np.int64)

    def run(pair):
        lam, mu = pair
        img = np.zeros(N, dtype=bool)
        img[(lam * b_arr + mu) % N] = True
        inter = ResidueSet(N, np.nonzero(a_mask & img)[0].tolist())
        return {
            "lam": lam,
            "mu": mu,
            "size": len(inter),
            "t3": t3_fast(inter),
            "feasible": len(inter) >= threshold,
            "set": inter,
        }

    rows = pmap(run, pairs, threads)
    feasible = [r for r in rows if r["feasible"]]
    if feasible:
        best = min(feasible, key=lambda r: (r["t3"], r["lam"], r["mu"]))
        ok = True
    else:
        best = max(rows, key=lambda r: (r["size"], -r["lam"], -r["mu"]))
        ok = False
    report = tuple({k: v for k, v in r.items() if k != "set"} for r in rows)
    return IntersectionResult(
        best["lam"], best["mu"], best["set"], best["t3"], ok, report, seed
    )


def behrend_set(dim: int, base: int, radius_sq: int) -> IntegerSet:
    """Digit vectors x in {0..base-1}^dim with sum of squares radius_sq,
    mapped injectively to integers via sum x_i * (2*base)^i.

    The doubled base prevents digit carries, so an integer 3AP would force a
    digit-wise 3AP of vectors on a sphere, which is impossible; outputs
    therefore contain no combinatorial progression.  An empty sphere slice
    yields the empty set.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if base < 2:
        raise ValueError("digit base must be >= 2")
    if not (0 <= radius_sq <= dim * (base - 1) ** 2):
        raise ValueError("radius_sq outside the attainable range")
    scale = 2 * base
    out = []
    for vec in product(range(base), repeat=dim):
        if sum(x * x for x in vec) == radius_sq:
            out.append(sum(x * scale**i for i, x in enumerate(vec)))
    return IntegerSet(out)


def behrend_best_radius(dim: int, base: int) -> int:
    """The radius_sq whose sphere slice is most populous (smallest on ties)."""
    counts: dict[int, int] = {}
    for vec in product(range(base), repeat=dim):
        r = sum(x * x for x in vec)
        counts[r] = counts.get(r, 0) + 1
    best = max(sorted(counts), key=lambda r: counts[r])
    return best


def random_set(n: int, N: int, seed: int) -> ResidueSet:
    """Uniform random n-subset of Z/NZ, deterministic per seed."""
    if n > N:
        raise ValueError(f"cannot sample {n} residues from Z/{N}Z")
    rng = random.Random(seed)
    return ResidueSet(N, rng.sample(range(N), n))
