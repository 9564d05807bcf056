"""Seeded verification suites behind the `verify` CLI subcommand.

Every suite returns (rows, passed) where rows are CSV-ready dicts with keys
case, lhs, rhs, holds.  All randomness flows from one explicit seed, so a
suite run is reproducible from its (name, seed, sizes) alone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .constructions import (
    behrend_best_radius,
    behrend_set,
    embed_mod,
    family_tags,
    generate_family,
    random_set,
)
from .counting import (
    additive_energy,
    complement_identity_check,
    midpoint_upper_bound,
    t3_integers,
)
from .search import extremal_mod, extremal_mod_via_complement, max3ap_integers
from .sets import ResidueSet, canonicalize, difference_set
from .structure import check_final_lemma, check_t3_energy_inequality, check_union_doubling, rectify

__all__ = ["SUITES", "run_suite"]


def _row(case: str, lhs, rhs, holds: bool) -> dict:
    return {"case": case, "lhs": lhs, "rhs": rhs, "holds": bool(holds)}


def suite_complement(seed: int = 0, cases: int = 200, moduli=(5, 7, 11), big_modulus: int = 1009):
    """Exhaustive complement-identity check for small odd prime moduli plus
    seeded random sets at one larger modulus."""
    rows = []
    for N in moduli:
        for els in _all_subsets(N):
            chk = complement_identity_check(ResidueSet(N, els))
            rows.append(_row(f"N{N}:{','.join(map(str, els))}", chk.lhs, chk.rhs, chk.equal))
    rng = random.Random(seed)
    for i in range(cases):
        n = rng.randrange(0, big_modulus + 1)
        A = random_set(n, big_modulus, rng.randrange(1 << 30))
        chk = complement_identity_check(A)
        rows.append(_row(f"N{big_modulus}:case{i}", chk.lhs, chk.rhs, chk.equal))
    return rows, all(r["holds"] for r in rows)


def _all_subsets(N: int):
    for n in range(N + 1):
        yield from combinations(range(N), n)


def _random_pair(rng: random.Random, N: int):
    kind = rng.randrange(4)
    if kind == 0:  # plain random
        A = random_set(rng.randrange(1, N), N, rng.randrange(1 << 30))
        B = random_set(rng.randrange(1, N), N, rng.randrange(1 << 30))
    elif kind == 1:  # intervals
        la, lb = rng.randrange(2, N // 2), rng.randrange(2, N // 2)
        sa, sb = rng.randrange(N), rng.randrange(N)
        A = ResidueSet(N, ((sa + i) % N for i in range(la)))
        B = ResidueSet(N, ((sb + i) % N for i in range(lb)))
    elif kind == 2:  # translates of one interval
        l = rng.randrange(2, N // 2)
        sa, shift = rng.randrange(N), rng.randrange(N)
        A = ResidueSet(N, ((sa + i) % N for i in range(l)))
        B = A.translate(shift)
    else:  # dilated interval against interval
        l = rng.randrange(2, N // 3)
        d = rng.randrange(2, N)
        A = ResidueSet(N, ((d * i) % N for i in range(l)))
        B = ResidueSet(N, range(rng.randrange(2, N // 2)))
    return A, B


def suite_energy_lemma(seed: int = 0, cases: int = 250, N: int = 101):
    """Energy bounds (i)-(iii) on random pairs and the union-doubling
    implication (iv) on pairs passing its energy hypothesis."""
    rng = random.Random(seed)
    rows = []
    eta = Fraction(1, 2)
    for i in range(cases):
        A, B = _random_pair(rng, N)
        e = additive_energy(A, B)
        a, b = len(A), len(B)
        rows.append(_row(f"c{i}:i", e, min(a * a * b, b * b * a), e <= min(a * a * b, b * b * a)))
        rows.append(_row(f"c{i}:i32", e * e, (a * b) ** 3, e * e <= (a * b) ** 3))
        overlap = max(
            len(A.element_set & {(x + s) % N for x in B}) for s in range(N)
        )
        rows.append(_row(f"c{i}:ii", overlap * a * b, e, overlap * a * b >= e))
        for tag, other in (("plus", _sumset_size(A, B, N)), ("minus", len(difference_set(A, B)))):
            rows.append(_row(f"c{i}:iii{tag}", e * other, a * a * b * b, e * other >= a * a * b * b))
        chk = check_union_doubling(A, B, eta)
        if chk.applicable:
            rows.append(_row(f"c{i}:iv", str(chk.delta_union), str(chk.bound), chk.holds))
        else:
            rows.append(_row(f"c{i}:iv:na", 0, 0, True))
    return rows, all(r["holds"] for r in rows)


def _sumset_size(A: ResidueSet, B: ResidueSet, N: int) -> int:
    return len({(x + y) % N for x in A for y in B})


def suite_t3_energy(seed: int = 0, cases: int = 250, N: int = 101):
    """The sixth-power bound on T3 against the three pairwise energies."""
    rng = random.Random(seed)
    rows = []
    for i in range(cases):
        sets = []
        for _ in range(3):
            n = rng.randrange(1, N)
            sets.append(random_set(n, N, rng.randrange(1 << 30)))
        chk = check_t3_energy_inequality(*sets)
        rows.append(_row(f"c{i}", chk.lhs, chk.rhs, chk.holds))
    return rows, all(r["holds"] for r in rows)


def suite_extremal_int(n_max: int = 8):
    """Exhaustive integer maxima: value ceil(n^2/2) and witnesses exactly the
    canonical family forms of each size."""
    rows = []
    for n in range(1, n_max + 1):
        res = max3ap_integers(n)
        expected = midpoint_upper_bound(n)
        rows.append(_row(f"n{n}:value", res.value, expected, res.value == expected))
        fam = {canonicalize(generate_family(t)).encoding for t in family_tags(n)}
        got = {w.encoding for w in res.witnesses}
        rows.append(_row(f"n{n}:witnesses", len(got), len(fam), got == fam))
    return rows, all(r["holds"] for r in rows)


def suite_extremal_mod(moduli=(5, 7, 11, 13)):
    """Direct search against the complement-identity route, both sides."""
    rows = []
    for N in moduli:
        for n in range(1, N + 1):
            for side in ("max", "min"):
                direct = extremal_mod(n, N, side)
                via = extremal_mod_via_complement(n, N, side)
                rows.append(
                    _row(f"N{N}:n{n}:{side}", direct.value, via.value, direct.value == via.value)
                )
    return rows, all(r["holds"] for r in rows)


def suite_rectify(seed: int = 0, cases: int = 25, N: int = 10007, size: int = 50):
    """Dilated intervals rectify back to arcs of length |A|-1, and the
    achieved arc length is invariant under affine images."""
    rng = random.Random(seed)
    rows = []
    for i in range(cases):
        d0 = rng.randrange(1, N)
        start = rng.randrange(N)
        A = ResidueSet(N, ((d0 * (start + j)) % N for j in range(size)))
        res = rectify(A)
        rows.append(_row(f"c{i}:interval", res.arc_length, size - 1, res.arc_length == size - 1))
        B = random_set(size, N, rng.randrange(1 << 30))
        a, b = rng.randrange(1, N), rng.randrange(N)
        image = ResidueSet(N, ((a * x + b) % N for x in B))
        r1, r2 = rectify(B), rectify(image)
        rows.append(_row(f"c{i}:equivariance", r1.arc_length, r2.arc_length,
                         r1.arc_length == r2.arc_length))
    return rows, all(r["holds"] for r in rows)


def suite_final_lemma(seed: int = 0, cases: int = 20, N: int = 1009):
    """Concentrated sets obey T3 <= ceil(n^2/2); equality only at families."""
    rng = random.Random(seed)
    rows = []
    for n in (5, 9, 15, 21):
        for tag in family_tags(n)[:2]:
            emb = embed_mod(generate_family(tag), N)
            chk = check_final_lemma(emb.residues)
            rows.append(
                _row(f"family:{tag.family}{tag.k},{tag.m}", chk.t3, chk.bound,
                     bool(chk.applicable and chk.holds and chk.equality))
            )
    for i in range(cases):
        # 2*half interval points plus one far outlier: half >= 10 keeps the
        # outlier within the 5% slack, so the concentration hypothesis holds
        half = rng.randrange(10, N // 48)
        els = [x % N for x in range(-half, half)] + [N // 4]
        chk = check_final_lemma(ResidueSet(N, els))
        rows.append(_row(f"c{i}:strict", chk.t3, chk.bound,
                         bool(chk.applicable and chk.holds and not chk.equality)))
        spread = random_set(40, N, rng.randrange(1 << 30))
        chk2 = check_final_lemma(spread)
        rows.append(_row(f"c{i}:na", int(chk2.applicable), 0, not chk2.applicable))
    return rows, all(r["holds"] for r in rows)


def suite_behrend(max_product: int = 12):
    """Digit-sphere sets contain no combinatorial progression at all."""
    rows = []
    for d in range(1, max_product + 1):
        for q in range(2, max_product + 1):
            if d * q > max_product:
                continue
            radii = {0, 1, d * (q - 1) ** 2, behrend_best_radius(d, q)}
            for r in sorted(radii):
                S = behrend_set(d, q, r)
                if len(S) == 0:
                    continue
                rep = t3_integers(S)
                rows.append(_row(f"d{d}q{q}r{r}", rep.combinatorial, 0, rep.combinatorial == 0))
    return rows, all(r["holds"] for r in rows)


SUITES: dict[str, Callable] = {
    "complement": suite_complement,
    "energy-lemma": suite_energy_lemma,
    "t3-energy": suite_t3_energy,
    "extremal-int": suite_extremal_int,
    "extremal-mod": suite_extremal_mod,
    "rectify": suite_rectify,
    "final-lemma": suite_final_lemma,
    "behrend": suite_behrend,
}


def run_suite(name: str, **kwargs):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
