"""Reference computations for the benchmark checks, written without ap3.

Everything here evaluates the definitions directly: T3 as the literal count
of pairs (x, d) with x, x+d, x+2d in the set, additive energy from exact
integer representation counts, and the two-block families E(k, m) and
F(k, m) from their block description.

Run as a script it brute-forces M3(n, N) and m3(n, N) for every n over all
2**N subsets of Z/NZ and writes the table used by the mod-table workload:

    python3 perfbench/reference.py --N 17 --out perfbench/mod_table_N17.json
"""

from __future__ import annotations

import argparse
import json
from math import gcd

import numpy as np


def indicator(elements, N: int) -> np.ndarray:
    ind = np.zeros(N, dtype=bool)
    ind[list(elements)] = True
    return ind


def t3_literal(N: int, A1, A2=None, A3=None) -> int:
    """#{(x, d) in (Z/NZ)^2 : x in A1, x+d in A2, x+2d in A3}, one d at a time."""
    a1 = indicator(A1, N)
    a2 = a1 if A2 is None else indicator(A2, N)
    a3 = a1 if A3 is None else indicator(A3, N)
    # doubled copies turn "index (x + s) mod N for all x" into one slice
    a2d, a3d = np.concatenate([a2, a2]), np.concatenate([a3, a3])
    total = 0
    for d in range(N):
        s = (2 * d) % N
        total += int(np.count_nonzero(a1 & a2d[d:d + N] & a3d[s:s + N]))
    return total


def energy(A, B, N: int) -> int:
    """E(A, B) = #{(a1, b1, a2, b2) : a1 + b1 = a2 + b2 mod N}, exactly."""
    b = indicator(B, N).astype(np.int64)
    bd = np.concatenate([b, b])
    r = np.zeros(N, dtype=np.int64)
    for a in A:  # r[s] = #{b in B : b = s - a}, summed over a
        a %= N
        r += bd[N - a:2 * N - a]
    return int(np.dot(r, r))


def family(name: str, k: int, m: int) -> list[int]:
    """E(k, m): {-k..k} with m step-2 points on each side.  F(k, m): the same
    with one point fewer on the left (m on the right, m - 1 on the left)."""
    left = m if name == "E" else m - 1
    return (
        [-k - 2 * i for i in range(left, 0, -1)]
        + list(range(-k, k + 1))
        + [k + 2 * i for i in range(1, m + 1)]
    )


def family_members(n: int) -> list[tuple[str, int, int, list[int]]]:
    """Every E (odd n) or F (even n) family member with n elements."""
    if n % 2:
        s = (n - 1) // 2
        return [("E", k, s - k, family("E", k, s - k)) for k in range(s + 1)]
    t = n // 2
    return [("F", k, t - k, family("F", k, t - k)) for k in range(t)]


def integer_normal_form(elements) -> tuple[int, ...]:
    """Smaller of the set and its reflection, each translated to start at 0
    with the gcd of the gaps divided out."""

    def normal(els):
        els = sorted(els)
        shifted = [e - els[0] for e in els]
        g = 0
        for e in shifted:
            g = gcd(g, e)
        return tuple(e // g for e in shifted) if g > 1 else tuple(shifted)

    return min(normal(elements), normal([-e for e in elements]))


def is_affine_image(source, target, N: int) -> bool:
    """Whether a*source + b = target in Z/NZ for some unit a and some b."""
    src, tgt = sorted(source), frozenset(target)
    if len(src) != len(tgt):
        return False
    for a in range(1, N):
        if gcd(a, N) != 1:
            continue
        for b in range(N):
            if all((a * x + b) % N in tgt for x in src):
                return True
    return False


def family_image_mod(target, N: int) -> bool:
    """Whether target is an affine image in Z/NZ of a family member of its
    own size whose reduction mod N has no collisions."""
    n = len(target)
    for _, _, _, els in family_members(n):
        emb = {x % N for x in els}
        if len(emb) == n and is_affine_image(emb, target, N):
            return True
    return False


def brute_table(N: int) -> dict[str, list[int]]:
    """M3(n, N) and m3(n, N) for n = 1..N over all 2**N subsets of Z/NZ.

    Row i of the bit matrix is subset i; every (x, d) adds its literal
    membership test to the count of each subset at once.
    """
    subsets = np.arange(1 << N, dtype=np.int64)
    bits = ((subsets[:, None] >> np.arange(N)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    t3 = np.zeros(1 << N, dtype=np.int64)
    for x in range(N):
        for d in range(N):
            t3 += bits[:, x] & bits[:, (x + d) % N] & bits[:, (x + 2 * d) % N]
    return {
        "max": [int(t3[sizes == n].max()) for n in range(1, N + 1)],
        "min": [int(t3[sizes == n].min()) for n in range(1, N + 1)],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    table = {"N": args.N, "method": "literal (x, d) count over all 2**N subsets",
             **brute_table(args.N)}
    with open(args.out, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
