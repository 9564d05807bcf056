"""Exhaustive extremal search with isomorph rejection and admissible pruning.

Integer side: the exact maximum of T3 over n-subsets of {0..W} in normalized
position, with a branch-and-bound whose bound comes from the midpoint count
(element j is the midpoint of at most min(j-1, n-j) increasing progressions).
Modular side: exact max/min over n-subsets of Z/pZ, enumerating one
representative per affine orbit.  All extremal witnesses are retained and
classified against the two-block families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .constructions import FamilyTag, embed_mod, family_tags, generate_family
from .counting import midpoint_upper_bound, t3_naive
from .sets import (
    AffineMap,
    AnySet,
    CanonicalForm,
    IntegerSet,
    ResidueSet,
    affine_orbit_transversal,
    canonicalize,
    is_prime,
)

__all__ = [
    "ExtremalResult",
    "ClassificationResult",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "max3ap_integers",
    "extremal_mod",
    "extremal_mod_via_complement",
    "classify_extremal",
    "threshold_scan",
    "ThresholdRow",
    "ThresholdScan",
]

DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """Raised instead of returning a partial answer from a truncated search."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class ExtremalResult:
    value: int
    witnesses: tuple[CanonicalForm, ...]
    search_space_size: int
    pruned_count: int

    def to_document(self) -> dict:
        from .sets import set_to_document

        return {
            "value": self.value,
            "witnesses": [set_to_document(w.representative) for w in self.witnesses],
            "search_space_size": self.search_space_size,
            "pruned_count": self.pruned_count,
        }


def max3ap_integers(
    n: int,
    width_cap: int | None = None,
    budget_nodes: int = DEFAULT_BUDGET,
) -> ExtremalResult:
    """Exact M3(n) over integer n-sets of diameter at most width_cap.

    Sets are enumerated in normalized position (minimum 0, elements
    increasing); T3 is affine-invariant, so the maximum over this window
    equals the maximum over all n-sets whose canonical diameter fits.  The
    default cap 2n covers every normalized extremal family member and is
    configurable upward for falsification runs.  All maximizers are returned
    as canonical forms.
    """
    if n < 1:
        raise ValueError("cardinality must be >= 1")
    W = 2 * n if width_cap is None else width_cap
    if W < n - 1:
        raise ValueError(f"width cap {W} cannot hold {n} distinct integers")
    if n == 1:
        return ExtremalResult(1, (canonicalize(IntegerSet([0])),), 1, 0)

    caps = [0] * (n + 1)  # caps[j] = min(j-1, n-j), 1-based positions
    for j in range(1, n + 1):
        caps[j] = min(j - 1, n - j)
    suffix = [0] * (n + 2)  # suffix[t] = sum of caps for future positions > t
    for t in range(n - 1, -1, -1):
        suffix[t] = suffix[t + 1] + caps[t + 1]

    best = -1
    witnesses: dict[tuple[int, ...], CanonicalForm] = {}
    chosen = [0]
    member = {0}
    mids = [0]  # current midpoint count of each placed element
    nodes = 0
    pruned = 0
    space = comb(W, n - 1)

    def bound(t: int) -> int:
        # Admissible: a placed midpoint can gain at most one progression per
        # future element and never exceeds its positional cap; future
        # midpoints are capped positionally.
        slack = n - t
        capped = sum(min(mids[i] + slack, caps[i + 1]) for i in range(t))
        return n + 2 * (capped + suffix[t])

    def dfs(combo: int):
        nonlocal best, nodes, pruned
        nodes += 1
        if nodes > budget_nodes:
            raise BudgetExceededError(
                f"integer search for n={n}, W={W} exceeded {budget_nodes} nodes",
                estimate=space,
            )
        t = len(chosen)
        if t == n:
            value = n + 2 * combo
            if value > best:
                best = value
                witnesses.clear()
            if value == best:
                form = canonicalize(IntegerSet(chosen))
                witnesses.setdefault(form.encoding, form)
            return
        if bound(t) < best:
            pruned += 1
            return
        lo = chosen[-1] + 1
        hi = W - (n - t - 1)
        for v in range(lo, hi + 1):
            gained = []
            add = 0
            for i in range(t):
                if 2 * chosen[i] - v in member:
                    gained.append(i)
                    add += 1
            chosen.append(v)
            member.add(v)
            for i in gained:
                mids[i] += 1
            mids.append(0)
            dfs(combo + add)
            mids.pop()
            for i in gained:
                mids[i] -= 1
            member.discard(v)
            chosen.pop()

    dfs(0)
    wits = tuple(witnesses[k] for k in sorted(witnesses))
    return ExtremalResult(best, wits, space, pruned)


def _extremal_table(n: int, N: int, budget_nodes: int) -> tuple[ExtremalResult, ExtremalResult]:
    """One transversal pass computing both the max and the min side."""
    if not is_prime(N):
        raise ValueError(f"modular search requires a prime modulus, got {N}")
    if not (1 <= n <= N):
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    candidates = comb(N - 1, n - 1)
    if candidates > budget_nodes:
        raise BudgetExceededError(
            f"search over n={n}, N={N} needs {candidates} candidates, "
            f"budget is {budget_nodes}",
            estimate=candidates,
        )

    rows = [(t3_naive(rep), rep) for rep in affine_orbit_transversal(n, N)]
    orbits = len(rows)

    def side(best_val: int) -> ExtremalResult:
        wits = sorted(
            (canonicalize(rep) for v, rep in rows if v == best_val),
            key=lambda f: f.encoding,
        )
        return ExtremalResult(best_val, tuple(wits), candidates, candidates - orbits)

    values = [v for v, _ in rows]
    return side(max(values)), side(min(values))


def extremal_mod(
    n: int,
    N: int,
    side: str = "max",
    budget_nodes: int = DEFAULT_BUDGET,
) -> ExtremalResult:
    """Exact M3(n, N) or m3(n, N) with all extremal witnesses, N prime."""
    if side not in ("max", "min"):
        raise ValueError(f"side must be 'max' or 'min', got {side!r}")
    hi, lo = _extremal_table(n, N, budget_nodes)
    return hi if side == "max" else lo


def extremal_mod_via_complement(
    n: int,
    N: int,
    side: str = "max",
    budget_nodes: int = DEFAULT_BUDGET,
) -> ExtremalResult:
    """The same extremum computed through the complement identity.

    Searches the (N-n)-side for the opposite extremum and converts via
    T3(A) + T3(A^c) = N^2 - 3nN + 3n^2; witnesses are the canonicalized
    complements.  Must agree with extremal_mod on every input.
    """
    if side not in ("max", "min"):
        raise ValueError(f"side must be 'max' or 'min', got {side!r}")
    identity = N * N - 3 * n * N + 3 * n * n
    if n == N:
        full = ResidueSet(N, range(N))
        return ExtremalResult(t3_naive(full), (canonicalize(full),), 1, 0)
    other = extremal_mod(N - n, N, "min" if side == "max" else "max", budget_nodes)
    wits = sorted(
        (canonicalize(w.representative.complement()) for w in other.witnesses),
        key=lambda f: f.encoding,
    )
    return ExtremalResult(
        identity - other.value, tuple(wits), other.search_space_size, other.pruned_count
    )


@dataclass(frozen=True)
class ClassificationResult:
    matched: bool
    tag: FamilyTag | None
    map: AffineMap | None


def _integer_witness_map(family: IntegerSet, target: IntegerSet) -> AffineMap | None:
    f_els, t_els = family.elements, target.elements
    d_f = f_els[-1] - f_els[0]
    d_t = t_els[-1] - t_els[0]
    if d_f == 0:
        return AffineMap(1, t_els[0] - f_els[0])
    if d_t % d_f != 0:
        return None
    a = d_t // d_f
    for scale, anchor in ((a, f_els[0]), (-a, f_els[-1])):
        b = t_els[0] - scale * anchor
        if all((scale * x + b) in target.element_set for x in f_els):
            return AffineMap(scale, b)
    return None


def _compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    N = outer.modulus
    a = outer.scale * inner.scale
    b = outer.scale * inner.shift + outer.shift
    if N is not None:
        a, b = a % N, b % N
    return AffineMap(a, b, N)


def classify_extremal(A: AnySet) -> ClassificationResult:
    """Decide whether A lies in the affine orbit of a two-block family member
    of its own cardinality, by canonical-form comparison.

    On success the witnessing map sends the family (embedded, in the modular
    case) exactly onto A.  Over Z such a map can fail to exist even for an
    orbit member: an even-size interval is affine-equivalent to F(0, m) only
    through the contracting direction (the family is 2*interval + shift), so
    the scale would be 1/2.  The result is then matched with map None.
    """
    if len(A) == 0:
        raise ValueError("cannot classify the empty set")
    form = canonicalize(A)
    fallback = None
    for tag in family_tags(len(A)):
        fam = generate_family(tag)
        if isinstance(A, IntegerSet):
            if canonicalize(fam).encoding != form.encoding:
                continue
            witness = _integer_witness_map(fam, A)
            if witness is not None:
                return ClassificationResult(True, tag, witness)
            if fallback is None:
                fallback = tag
        else:
            emb = embed_mod(fam, A.modulus)
            if emb.collided:
                continue
            emb_form = canonicalize(emb.residues)
            if emb_form.encoding != form.encoding:
                continue
            witness = _compose(form.to_representative.inverse(), emb_form.to_representative)
            if witness.apply(emb.residues).elements != A.elements:
                raise RuntimeError("classification map does not send the family onto A")
            return ClassificationResult(True, tag, witness)
    if fallback is not None:
        return ClassificationResult(True, fallback, None)
    return ClassificationResult(False, None, None)


@dataclass(frozen=True)
class ThresholdRow:
    n: int
    m3_max: int
    half_n2_match: bool
    all_ef_witnesses: bool


@dataclass(frozen=True)
class ThresholdScan:
    modulus: int
    rows: tuple[ThresholdRow, ...]
    largest_good_ratio: Fraction

    def to_csv_rows(self) -> list[list]:
        out = [["n", "M3", "half_n2_match", "all_EF_witnesses"]]
        for r in self.rows:
            out.append([r.n, r.m3_max, r.half_n2_match, r.all_ef_witnesses])
        return out


def threshold_scan(N: int, budget_nodes: int = DEFAULT_BUDGET) -> ThresholdScan:
    """For each n <= N: the exact M3(n, N), whether it equals ceil(n^2/2),
    and whether every witness is a family image; reports the largest n/N
    where both hold."""
    rows = []
    best = Fraction(0)
    for n in range(1, N + 1):
        res = extremal_mod(n, N, "max", budget_nodes)
        half = res.value == midpoint_upper_bound(n)
        all_ef = all(classify_extremal(w.representative).matched for w in res.witnesses)
        rows.append(ThresholdRow(n, res.value, half, all_ef))
        if half and all_ef:
            best = max(best, Fraction(n, N))
    return ThresholdScan(N, tuple(rows), best)
