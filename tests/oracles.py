"""Brute-force reference implementations used only by the tests.

Everything here evaluates definitions literally (nested loops, full orbit
expansion) and stays independent of the library's counting and search paths.
"""

from itertools import combinations


def t3_mod_brute(elements, N):
    S = set(elements)
    return sum(
        1
        for x in range(N)
        for d in range(N)
        if x in S and (x + d) % N in S and (x + 2 * d) % N in S
    )


def t3_mod_brute_triple(A1, A2, A3, N):
    S1, S2, S3 = set(A1), set(A2), set(A3)
    return sum(
        1
        for x in range(N)
        for d in range(N)
        if x in S1 and (x + d) % N in S2 and (x + 2 * d) % N in S3
    )


def t3_int_brute(elements):
    S = set(elements)
    count = 0
    for a, c in combinations(sorted(S), 2):
        if (a + c) % 2 == 0 and (a + c) // 2 in S:
            count += 1
    return len(S) + 2 * count


def energy_brute(A, B, modulus=None):
    quad = 0
    for a1 in A:
        for b1 in B:
            for a2 in A:
                for b2 in B:
                    s1, s2 = a1 + b1, a2 + b2
                    if modulus is not None:
                        s1, s2 = s1 % modulus, s2 % modulus
                    if s1 == s2:
                        quad += 1
    return quad


def affine_orbit(elements, N):
    """All images of a subset of Z/NZ under x -> a*x + b, a in (Z/NZ)*."""
    from math import gcd

    out = set()
    for a in range(1, N):
        if gcd(a, N) != 1:
            continue
        for b in range(N):
            out.add(frozenset((a * x + b) % N for x in elements))
    return out


def canonical_form_brute(elements, N):
    """(representative, encoding, (scale, shift)) of a nonempty subset of Z/NZ.

    Tries every unit a (a = 1 when N = 1) and every rotation of the circular
    gap sequence of a*A.  The least gap sequence wins; among the (a, start)
    pairs that reach it the first one, in that order, gives the map
    x -> a*x - start.  The representative is the gap sequence read from 0
    and the encoding is (N, *gaps).
    """
    from math import gcd

    best = None
    for a in range(1, max(N, 2)):
        if gcd(a, N) != 1:
            continue
        pts = sorted(a * x % N for x in elements)
        k = len(pts)
        for i in range(k):
            gaps = tuple((pts[(i + j + 1) % k] - pts[(i + j) % k]) % N or N for j in range(k))
            if best is None or gaps < best[0]:
                best = (gaps, a, pts[i])
    gaps, a, start = best
    rep = [0]
    for g in gaps[:-1]:
        rep.append(rep[-1] + g)
    return tuple(rep), (N, *gaps), (a, -start % N)


def transversal_brute(n, N):
    """Affine orbit representatives of n-subsets of Z/NZ, in lexicographic order.

    A candidate is a sorted n-subset containing 0; it is kept iff its circular
    gap sequence read from 0 is the least over every unit scale a and every
    rotation of the gap sequence of a*A.
    """
    from math import gcd

    def gaps(points):
        k = len(points)
        return tuple((points[(i + 1) % k] - points[i]) % N or N for i in range(k))

    reps = []
    for rest in combinations(range(1, N), n - 1):
        cand = (0,) + rest
        own = gaps(cand)
        least = own
        for a in range(1, N):
            if gcd(a, N) != 1:
                continue
            g = gaps(sorted(a * x % N for x in cand))
            for i in range(n):
                least = min(least, g[i:] + g[:i])
        if own == least:
            reps.append(cand)
    return reps


def trilinear_brute(f1, f2, f3, N):
    """sum_{x,d} f1(x) f2(x+d) f3(x+2d), looping over the supports of f1 and f2."""
    total = 0
    for x in range(N):
        if not f1[x]:
            continue
        for y in range(N):
            if f2[y]:
                total += f1[x] * f2[y] * f3[(2 * y - x) % N]
    return total


def derivation_depths_brute(records):
    """Product depth of every ledger record, read back out of provenance labels.

    A record labelled "complement(<id>)" has its parent's depth, one labelled
    "submultiplicative(<id>,<id>)" is one deeper than its deeper parent, and
    every other record is a seed of depth 0.  Records are resolved by id
    recursively over the whole list; `records` need only carry `record_id`
    and `provenance`.
    """
    by_id = {r.record_id: r for r in records}
    depths = {}

    def depth(r):
        if r.record_id not in depths:
            prov = r.provenance
            if prov.startswith("complement("):
                d = depth(by_id[prov[len("complement("):-1]])
            elif prov.startswith("submultiplicative("):
                d = 1 + max(depth(by_id[p])
                            for p in prov[len("submultiplicative("):-1].split(","))
            else:
                d = 0
            depths[r.record_id] = d
        return depths[r.record_id]

    for r in records:
        depth(r)
    return depths


def convolution_brute(A, B, N):
    """out[s] = #{(i, j) : A[i] + B[j] = s mod N}, by a literal double loop."""
    out = [0] * N
    for a in A:
        for b in B:
            out[(a + b) % N] += 1
    return out


def least_5_smooth_brute(m):
    """The least integer >= m with no prime factor above 5, by trial division."""
    k = max(m, 1)
    while True:
        r = k
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


def optimize_wraparound_brute(N, n):
    """(k, m, t3, residues) of the size-n family embedding in Z/NZ with the
    largest T3, ties to the smallest k, or None if every embedding collides.

    Builds every tag's set with the library's `generate_family` and
    `embed_mod` and counts it with the literal `t3_naive` scan.
    """
    from ap3.constructions import embed_mod, family_tags, generate_family
    from ap3.counting import t3_naive

    best = None
    for tag in family_tags(n):
        emb = embed_mod(generate_family(tag), N)
        if emb.collided:
            continue
        key = (t3_naive(emb.residues), -tag.k)
        if best is None or key > best[0]:
            best = key, tag, emb.residues
    if best is None:
        return None
    (t3, _), tag, residues = best
    return tag.k, tag.m, t3, residues.elements
