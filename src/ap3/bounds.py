"""Bounds ledger for the limit densities of extremal 3AP counts.

m3(alpha) and M3(alpha) denote the limits of m3(n,N)/N^2 and M3(n,N)/N^2 as
N runs to infinity through primes with n/N -> alpha.  The ledger stores
one-sided bounds on them as exact rationals, seeds the known closed forms,
and closes the record set under two relations:

  complement:        m3(a) + M3(1-a) = 1 - 3a + 3a^2
  submultiplicative: m3(a*b) <= m3(a)*m3(b)  and  M3(a*b) >= M3(a)*M3(b)

Finite-N construction records are kept separate and never enter the closure
unless explicitly allowed: a finite count only suggests the limit value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import isqrt

from .counting import t3_fast
from .sets import ResidueSet

__all__ = [
    "BoundRecord",
    "Ledger",
    "curve_m3_upper",
    "exact_small_alpha",
    "SmallAlphaValues",
    "complement_transfer",
    "submultiplicative_closure",
    "ef_sharpness_cutoff",
    "CutoffCertificate",
    "construction_bound",
    "build_default_ledger",
    "identity_value",
]


def identity_value(alpha: Fraction) -> Fraction:
    """1 - 3a + 3a^2, the normalized complement identity (symmetric in a, 1-a)."""
    return 1 - 3 * alpha + 3 * alpha * alpha


@dataclass(frozen=True)
class BoundRecord:
    """One ledger entry: a one-sided (or exact) bound at a single density.

    conditional records depend on an unproven hypothesis (a density below an
    unknown threshold) and are excluded from best-bound queries and closure.
    finite_modulus marks values measured on one Z/NZ rather than limits.
    """

    target: str  # "m3" | "M3"
    alpha: Fraction
    value: Fraction
    side: str  # "upper" | "lower" | "exact"
    provenance: str
    conditional: bool = False
    finite_modulus: int | None = None
    record_id: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.target not in ("m3", "M3"):
            raise ValueError(f"target must be 'm3' or 'M3', got {self.target!r}")
        if self.side not in ("upper", "lower", "exact"):
            raise ValueError(f"bad side {self.side!r}")
        if not (0 <= self.alpha <= 1):
            raise ValueError(f"density must lie in [0, 1], got {self.alpha}")
        if not (0 <= self.value <= 1):
            raise ValueError(f"normalized count must lie in [0, 1], got {self.value}")

    def to_document(self) -> dict:
        return {
            "id": self.record_id,
            "target": self.target,
            "alpha": str(self.alpha),
            "value": str(self.value),
            "side": self.side,
            "provenance": self.provenance,
            "conditional": self.conditional,
            "finite_modulus": self.finite_modulus,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "BoundRecord":
        try:
            return cls(
                target=doc["target"],
                alpha=Fraction(doc["alpha"]),
                value=Fraction(doc["value"]),
                side=doc["side"],
                provenance=doc["provenance"],
                conditional=bool(doc.get("conditional", False)),
                finite_modulus=doc.get("finite_modulus"),
                record_id=doc.get("id"),
            )
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"corrupt ledger record: {doc!r}") from exc


class Ledger:
    """Append-only store of BoundRecords with best-bound tracking.

    Best uppers and lowers per (target, alpha) are kept in indexes updated on
    every add, so queries and closure passes never rescan the record list.
    """

    def __init__(self):
        self.records: list[BoundRecord] = []
        self._upper: dict[tuple[str, Fraction], Fraction] = {}
        self._lower: dict[tuple[str, Fraction], Fraction] = {}

    def add(self, record: BoundRecord) -> BoundRecord:
        if record.record_id is None:
            record = replace(record, record_id=f"r{len(self.records):05d}")
        self.records.append(record)
        if not record.conditional and record.finite_modulus is None:
            key = (record.target, record.alpha)
            if record.side in ("upper", "exact"):
                cur = self._upper.get(key)
                if cur is None or record.value < cur:
                    self._upper[key] = record.value
            if record.side in ("lower", "exact"):
                cur = self._lower.get(key)
                if cur is None or record.value > cur:
                    self._lower[key] = record.value
        return record

    def _eligible(self):
        return [r for r in self.records if not r.conditional and r.finite_modulus is None]

    def best_upper(self, target: str, alpha: Fraction) -> Fraction | None:
        return self._upper.get((target, alpha))

    def best_lower(self, target: str, alpha: Fraction) -> Fraction | None:
        return self._lower.get((target, alpha))

    def alphas(self, target: str | None = None) -> list[Fraction]:
        seen = {
            key[1]
            for key in (*self._upper, *self._lower)
            if target is None or key[0] == target
        }
        return sorted(seen)

    def check_consistency(self) -> bool:
        """best_lower <= best_upper for every (target, alpha) with both sides."""
        for target in ("m3", "M3"):
            for alpha in self.alphas(target):
                lo, hi = self.best_lower(target, alpha), self.best_upper(target, alpha)
                if lo is not None and hi is not None and lo > hi:
                    return False
        return True

    def to_document(self) -> dict:
        return {"records": [r.to_document() for r in self.records]}

    @classmethod
    def from_document(cls, doc: dict) -> "Ledger":
        if not isinstance(doc, dict) or "records" not in doc:
            raise ValueError("ledger document must contain a 'records' list")
        led = cls()
        for rec in doc["records"]:
            led.add(BoundRecord.from_document(rec))
        return led

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_document(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Ledger":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"corrupt ledger document: {exc}") from exc
        return cls.from_document(doc)

    def export_csv_rows(self) -> list[list[str]]:
        out = [["target", "alpha", "side", "value", "provenance"]]
        for r in self.records:
            out.append([r.target, str(r.alpha), r.side, str(r.value), r.provenance])
        return out


def curve_m3_upper(alpha: Fraction) -> Fraction:
    """The wrap-around family curve (2 - 12a + 21a^2)/12 on [1/3, 2/3]."""
    alpha = Fraction(alpha)
    if not (Fraction(1, 3) <= alpha <= Fraction(2, 3)):
        raise ValueError(f"curve domain is [1/3, 2/3], got {alpha}")
    return _curve_extension(alpha)


def _curve_extension(alpha: Fraction) -> Fraction:
    return (2 - 12 * alpha + 21 * alpha * alpha) / 12


@dataclass(frozen=True)
class SmallAlphaValues:
    alpha: Fraction
    m3_upper_case: Fraction  # M3(alpha) = alpha^2/2
    m3_at_complement: Fraction  # m3(1-alpha) = 1/2 - 2(1-a) + 5(1-a)^2/2
    conditional: str = "valid only for densities below an unproven threshold"


def exact_small_alpha(alpha: Fraction) -> SmallAlphaValues:
    """The conditionally exact closed forms at small density alpha.

    M3(alpha) = alpha^2/2 and, at the complementary density,
    m3(1-alpha) = 1/2 - 2(1-alpha) + (5/2)(1-alpha)^2.  Both hold only under
    the hypothesis alpha < c for an unknown absolute constant c, so callers
    receive them labelled conditional.
    """
    alpha = Fraction(alpha)
    beta = 1 - alpha
    return SmallAlphaValues(
        alpha,
        alpha * alpha / 2,
        Fraction(1, 2) - 2 * beta + Fraction(5, 2) * beta * beta,
    )


def complement_transfer(record: BoundRecord) -> BoundRecord:
    """Transfer a bound through m3(a) + M3(1-a) = 1 - 3a + 3a^2.

    Upper bounds map to lower bounds at the complementary density (and vice
    versa); exact maps to exact.  Transferring twice returns the original
    value whenever no clamping was needed: a weak input can transfer outside
    [0, 1], and the result is then clamped to the trivial bound on that side
    (still valid, just uninformative).  Finite-modulus records transfer at
    the same modulus, where the identity holds exactly.
    """
    new_value = identity_value(record.alpha) - record.value
    flip = {"upper": "lower", "lower": "upper", "exact": "exact"}
    side = flip[record.side]
    if side == "lower":
        new_value = max(new_value, Fraction(0))
    elif side == "upper":
        new_value = min(new_value, Fraction(1))
    return BoundRecord(
        target="M3" if record.target == "m3" else "m3",
        alpha=1 - record.alpha,
        value=new_value,
        side=side,
        provenance=f"complement({record.record_id or record.provenance})",
        conditional=record.conditional,
        finite_modulus=record.finite_modulus,
    )


def _best_map(ledger: Ledger, target: str, sides: tuple[str, ...], pick_min: bool,
              eligible=None):
    best: dict[Fraction, BoundRecord] = {}
    for r in ledger._eligible():
        if r.target != target or r.side not in sides:
            continue
        if eligible is not None and not eligible(r):
            continue
        cur = best.get(r.alpha)
        if cur is None:
            best[r.alpha] = r
        elif pick_min and r.value < cur.value:
            best[r.alpha] = r
        elif not pick_min and r.value > cur.value:
            best[r.alpha] = r
    return best


def _parent_ids(record: BoundRecord) -> list[str]:
    prov = record.provenance
    for head in ("submultiplicative(", "complement("):
        if prov.startswith(head):
            return prov[len(head):-1].split(",")
    return []


def _derivation_depths(ledger: Ledger) -> dict[str, int]:
    """Product depth of every record: seeds are 0, a product is one deeper
    than its deepest parent, a complement transfer keeps its parent's depth.
    Records whose parents are unknown are treated as maximal depth."""
    depths: dict[str, int] = {}

    by_id = {r.record_id: r for r in ledger.records}

    def depth(r: BoundRecord) -> int:
        if r.record_id in depths:
            return depths[r.record_id]
        parents = _parent_ids(r)
        if not parents:
            d = 0
        elif any(p not in by_id for p in parents):
            d = 1 << 20
        elif r.provenance.startswith("complement("):
            d = depth(by_id[parents[0]])
        else:
            d = 1 + max(depth(by_id[p]) for p in parents)
        depths[r.record_id] = d
        return d

    for r in ledger.records:
        depth(r)
    return depths


def submultiplicative_closure(
    ledger: Ledger,
    depth: int = 2,
    max_denominator: int = 96,
) -> int:
    """Close the ledger under complement transfer and the product relations
    m3(ab) <= m3(a) m3(b), M3(ab) >= M3(a) M3(b).

    Products are formed up to the given derivation depth (a product of two
    records is one level deeper than its deeper parent; complement transfers
    do not increase depth), and product densities keep their unreduced
    denominator at most max_denominator.  Since depth-0 records never change,
    the pass structure terminates at an exact fixpoint: re-running adds
    nothing.  A record is added only when it improves the best bound at its
    density.  Returns the number of records added.
    """
    added = 0
    for _ in range(2 * depth + 2):
        improved = False
        depths = _derivation_depths(ledger)
        # complement transfers of current best records (depth preserved)
        for target, sides, pick_min in (
            ("m3", ("upper", "exact"), True),
            ("m3", ("lower", "exact"), False),
            ("M3", ("upper", "exact"), True),
            ("M3", ("lower", "exact"), False),
        ):
            for rec in _best_map(ledger, target, sides, pick_min).values():
                cand = complement_transfer(rec)
                if cand.side != "exact" and _improves(ledger, cand):
                    ledger.add(cand)
                    improved = True
                    added += 1
        depths = _derivation_depths(ledger)
        # product passes: parents must sit strictly below the depth cap
        for target, sides, pick_min in (("m3", ("upper", "exact"), True),
                                        ("M3", ("lower", "exact"), False)):
            best = _best_map(ledger, target, sides, pick_min,
                             eligible=lambda r: depths.get(r.record_id, 1 << 20) < depth)
            items = sorted(best.items(), key=lambda kv: (kv[0].denominator, kv[0]))
            for i, (a1, r1) in enumerate(items):
                q1 = a1.denominator
                if q1 * q1 > max_denominator:
                    break
                for a2, r2 in items[i:]:
                    if q1 * a2.denominator > max_denominator:
                        break
                    cand = BoundRecord(
                        target=target,
                        alpha=a1 * a2,
                        value=r1.value * r2.value,
                        side="upper" if target == "m3" else "lower",
                        provenance=f"submultiplicative({r1.record_id},{r2.record_id})",
                    )
                    if _improves(ledger, cand):
                        ledger.add(cand)
                        improved = True
                        added += 1
        if not improved:
            break
    return added


def _improves(ledger: Ledger, cand: BoundRecord) -> bool:
    if cand.side == "upper":
        cur = ledger.best_upper(cand.target, cand.alpha)
        return cur is None or cand.value < cur
    cur = ledger.best_lower(cand.target, cand.alpha)
    return cur is None or cand.value > cur


def construction_bound(A: ResidueSet, target: str, note: str = "") -> BoundRecord:
    """One-sided bound witnessed by a concrete subset of Z/NZ.

    Any set gives m3(n/N, N) <= T3/N^2 <= M3(n/N, N) at its own finite N; the
    record carries the modulus so it stays out of limit-function closures.
    """
    if target not in ("m3", "M3"):
        raise ValueError(f"target must be 'm3' or 'M3', got {target!r}")
    N = A.modulus
    t3 = t3_fast(A)
    return BoundRecord(
        target=target,
        alpha=Fraction(len(A), N),
        value=Fraction(t3, N * N),
        side="upper" if target == "m3" else "lower",
        provenance=f"construction({note or 'witness'},N={N})",
        finite_modulus=N,
    )


def build_default_ledger(max_denominator: int = 96) -> Ledger:
    """Seed a ledger with the closed-form bounds.

    m3 uppers: the wrap-around curve on [1/3, 2/3], the random-set value
    alpha^3, and the interval value alpha^2/2 (for alpha <= 1/2); M3 lowers:
    the interval value alpha^2/2; M3 uppers: the trivial pair bound alpha^2;
    m3 lowers: 0; plus the exact endpoints at densities 0 and 1.
    """
    led = Ledger()
    grid = sorted(
        {Fraction(p, max_denominator) for p in range(0, max_denominator + 1)}
    )
    lo, hi = Fraction(1, 3), Fraction(2, 3)
    for a in grid:
        if lo <= a <= hi:
            led.add(BoundRecord("m3", a, curve_m3_upper(a), "upper", "closed-form(wraparound-curve)"))
        if 0 < a < 1:
            led.add(BoundRecord("m3", a, a**3, "upper", "closed-form(random-set)"))
            if a <= Fraction(1, 2):
                led.add(BoundRecord("m3", a, a * a / 2, "upper", "closed-form(interval)"))
            led.add(BoundRecord("M3", a, a * a / 2, "lower", "closed-form(interval)"))
            led.add(BoundRecord("M3", a, a * a, "upper", "closed-form(pair-count)"))
            led.add(BoundRecord("m3", a, Fraction(0), "lower", "closed-form(trivial)"))
    for a, v in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))):
        led.add(BoundRecord("m3", a, v, "exact", "closed-form(endpoint)"))
        led.add(BoundRecord("M3", a, v, "exact", "closed-form(endpoint)"))
    return led


# ---------------------------------------------------------------------------
# Sharpness cutoff for the single-family curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffCertificate:
    """The constant 2(7 + 2*sqrt(6))/75 with an exact-rational comparison.

    Below the cutoff an intersection of two wrap-around complements (a
    product of two curve values) beats the single-family curve; the samples
    evaluate both sides exactly on a rational grid.  The flip of the
    comparison is bracketed and reported, not asserted, against the
    closed-form constant (which is a conservative threshold).
    """

    lower: Fraction
    upper: Fraction
    decimal: str
    samples: tuple[dict, ...]
    crossover_bracket: tuple[Fraction, Fraction]

    @property
    def value(self) -> float:
        return float((self.lower + self.upper) / 2)


def _sqrt6_interval(digits: int = 30) -> tuple[Fraction, Fraction]:
    scale = 10**digits
    s = isqrt(6 * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


def _best_curve_product(alpha: Fraction, max_denominator: int = 96) -> Fraction | None:
    """min over beta in the grid of f(beta) * f(alpha/beta), both factors in
    the curve domain; None when no factorization exists."""
    lo, hi = Fraction(1, 3), Fraction(2, 3)
    best = None
    seen = set()
    for q in range(1, max_denominator + 1):
        for p in range(q // 3, 2 * q // 3 + 2):
            beta = Fraction(p, q)
            if beta in seen or not (lo <= beta <= hi):
                continue
            seen.add(beta)
            gamma = alpha / beta
            if lo <= gamma <= hi:
                v = _curve_extension(beta) * _curve_extension(gamma)
                if best is None or v < best:
                    best = v
    return best


def ef_sharpness_cutoff(digits: int = 14) -> CutoffCertificate:
    """The cutoff density 2(7 + 2*sqrt(6))/75 = 0.317306119615..., to at
    least `digits` decimal digits, with its comparison certificate."""
    s_lo, s_hi = _sqrt6_interval(digits + 16)
    lower = 2 * (7 + 2 * s_lo) / 75
    upper = 2 * (7 + 2 * s_hi) / 75
    scale = 10**digits
    lo_digits = lower.numerator * scale // lower.denominator
    hi_digits = upper.numerator * scale // upper.denominator
    if lo_digits != hi_digits:
        raise RuntimeError("interval too wide for the requested digits")
    decimal = "0." + str(lo_digits).zfill(digits)

    samples = []
    flip_lo, flip_hi = None, None
    for i in range(60, 73):  # densities 0.300 .. 0.360
        alpha = Fraction(i, 200)
        product = _best_curve_product(alpha)
        single = _curve_extension(alpha)
        wins = product is not None and product < single
        samples.append(
            {
                "alpha": alpha,
                "product_bound": product,
                "single_family_extension": single,
                "product_wins": wins,
            }
        )
        if wins:
            flip_lo = alpha
        elif flip_lo is not None and flip_hi is None:
            flip_hi = alpha
    bracket = (flip_lo if flip_lo is not None else Fraction(0),
               flip_hi if flip_hi is not None else Fraction(1))
    return CutoffCertificate(lower, upper, decimal, tuple(samples), bracket)
