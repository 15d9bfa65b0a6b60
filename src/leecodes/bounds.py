"""Upper bounds on the minimum Lee distance, as exact-rational evaluators.

Every bound is a pure function of code parameters (length, type, rank, free
rank) returning a Fraction or an integer; nothing here touches floating
point.  Floor-style bounds of the shape floor((d-1)/M) <= R are exposed in
"max consistent d" form, i.e. the largest integer d satisfying them, which is
M*(R+1).  Where the literature floors a coefficient but plots the floor of
the product, both readings are returned, labelled `stated` and `plotted`.

`BOUNDS` names every bound once: its evaluator and its attainment rule.
`evaluate_bounds`, `attainment_check`, the census and the characterization
checks all read it.  A code attains a bound when its distance d (d_H for the
Hamming Singleton bounds, d_L otherwise) lies in a range [lo, hi]: for a
floor-form bound floor((d-1)/M) <= R, whose floored value is M(R+1),
lo = floored - M + 1 and hi = floored; for every other bound
lo = hi = floored.  The values and these ranges depend on the parameter
tuple only, so the census, the characterization checks and the per-code
calls `evaluate_bounds(code)` and `attainment_check` read them from one LRU
cache of `BOUND_CACHE_SIZE` (modulus, n, subtype) keys; the per-code calls
compare d against the cached range and hand out fresh `BoundCell`s on every
call.  `evaluate_bounds(params)` evaluates each bound directly.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .codes import LinearCode, subtype_type_k
from .ring import Modulus, ambient_average_weight, ideal_total_weight

__all__ = [
    "CodeParams",
    "Bound",
    "BoundCell",
    "BOUNDS",
    "coefficient_A",
    "type_form",
    "type_form_max_d",
    "singleton_hamming",
    "singleton_rank",
    "z4_singleton",
    "shiromoto_max_d",
    "shiromoto_rank_max_d",
    "alderson_huntemann",
    "wyner_graham",
    "chiang_wolf",
    "chiang_wolf_k1",
    "hamming_to_lee",
    "rank_plotkin",
    "subcode_plotkin",
    "applicable_levels",
    "attainment_check",
    "evaluate_bounds",
    "BOUND_IDS",
    "BOUND_CACHE_SIZE",
]

# Parameter tuples whose bound cells are kept.  The 2,058 seeded random codes
# of perfbench's library workload span 164-175 tuples.
BOUND_CACHE_SIZE = 1024


@dataclass(frozen=True)
class CodeParams:
    """The parameter tuple every bound is evaluated on."""

    modulus: Modulus
    n: int
    k: Fraction
    K: int
    k1: int
    ell: int | None = None

    def __post_init__(self):
        if not (0 <= self.k1 <= self.K <= self.n):
            raise ValueError(f"need 0 <= k1 <= K <= n, got k1={self.k1}, K={self.K}, n={self.n}")
        if self.k > self.K:
            raise ValueError(f"type k={self.k} cannot exceed rank K={self.K}")

    @property
    def ceil_k(self) -> int:
        return math.ceil(self.k)

    @property
    def cardinality(self) -> int:
        # |C| = p^(s*k); k has denominator dividing s, so this is exact.
        e = self.k * self.modulus.s
        if e.denominator != 1:
            raise ValueError(f"type k={self.k} times s={self.modulus.s} is not an integer")
        return self.modulus.p ** int(e)

    @property
    def is_free(self) -> bool:
        return self.k1 == self.K

    @classmethod
    def from_subtype(cls, modulus: Modulus, n: int, subtype, ell=None) -> "CodeParams":
        subtype = _check_subtype(modulus, n, subtype)
        return cls(modulus, n, subtype_type_k(subtype), sum(subtype), subtype[0], ell)

    @classmethod
    def from_code(cls, code: LinearCode, ell=None) -> "CodeParams":
        return cls(code.modulus, code.n, code.type_k, code.rank, code.free_rank, ell)


def _check_subtype(modulus: Modulus, n: int, subtype) -> tuple[int, ...]:
    """Read a subtype: return it as a tuple of Python ints, or refuse, with
    ValueError, a length and subtype that no code has.  A code has length
    n >= 1, and its subtype s integer entries, each at least 0, of sum (the
    rank) at most n.  This is the only reader of a subtype; `CodeParams` and
    `SearchSpace` keep what it returns."""
    subtype = tuple(subtype)
    try:
        entries = tuple(map(operator.index, subtype))
        valid = n >= 1 and len(entries) == modulus.s and min(entries) >= 0 and sum(entries) <= n
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"no code over {modulus} has length n = {n} and subtype {subtype}: "
                         f"need n >= 1 and {modulus.s} integer entries >= 0 of sum at most n")
    return entries


def coefficient_A(m: Modulus, i: int) -> Fraction:
    """The ideal-average Plotkin coefficient A(p, s, i): the mean Lee weight
    of the p^i - 1 nonzero elements of the ideal of order p^i, which is
    generated by p^(s-i).

    p^(s-i)(p^i + 1)/4 for odd p, 2^(s-2+i)/(2^i - 1) for p = 2.  At i = s it
    degenerates to the Chiang-Wolf coefficient.
    """
    if not (1 <= i <= m.s):
        raise ValueError(f"level {i} out of range [1, {m.s}]")
    return Fraction(ideal_total_weight(m, m.s - i), m.p**i - 1)


# -- Singleton-like bounds -----------------------------------------------------

def singleton_hamming(params: CodeParams) -> int:
    """d_H <= n - ceil(k) + 1 (integer form for linear codes)."""
    return params.n - params.ceil_k + 1


def singleton_rank(params: CodeParams) -> int:
    """d_H <= n - K + 1 for linear codes of rank K."""
    if params.K < 1:
        raise ValueError("rank bound needs K >= 1")
    return params.n - params.K + 1


def shiromoto_max_d(params: CodeParams) -> int:
    """Largest d with floor((d-1)/M) <= n - ceil(k), i.e. M(n - ceil(k) + 1)."""
    return params.modulus.M * singleton_hamming(params)


def shiromoto_rank_max_d(params: CodeParams) -> int:
    """Largest d with floor((d-1)/M) <= n - K, i.e. M(n - K + 1)."""
    return params.modulus.M * singleton_rank(params)


def type_form(params: CodeParams) -> Fraction:
    """M(n - k) for the exact rational type k; at integer k this is also the
    Alderson-Huntemann value."""
    return params.modulus.M * (params.n - params.k)


def type_form_max_d(params: CodeParams) -> int:
    """floor(M(n - k)) + 1: Shiromoto's bound in its original type form is
    attained when d_L > M(n - k), that is d_L >= this value."""
    return math.floor(type_form(params)) + 1


def z4_singleton(params: CodeParams) -> int:
    """Largest d with d <= 2(n - k) + 1 over Z/4 (k may be a half-integer):
    the type form at M = 2."""
    m = params.modulus
    if (m.p, m.s) != (2, 2):
        raise ValueError("this bound is specific to Z/4")
    return type_form_max_d(params)


def alderson_huntemann(params: CodeParams) -> int | None:
    """d_L <= M(n - k) for integer type 1 < k < n; None when inapplicable."""
    if params.k.denominator != 1 or not (1 < params.k < params.n):
        return None
    return int(type_form(params))


# -- Plotkin-like bounds -------------------------------------------------------

def wyner_graham(params: CodeParams) -> Fraction:
    """d_L <= n * avg(Z/p^s) / (1 - 1/|C|), exact."""
    if params.k <= 0:
        raise ValueError("Wyner-Graham needs k > 0")
    card = params.cardinality
    return params.n * ambient_average_weight(params.modulus) * Fraction(card, card - 1)


def chiang_wolf(params: CodeParams) -> Fraction | None:
    """d_L <= A(p,s,s) * (n - k + 1) for free codes of integer type k >= 2."""
    if not params.is_free or params.k.denominator != 1 or params.k < 2:
        return None
    return chiang_wolf_k1(params)  # a free code has k = K = k1


def chiang_wolf_k1(params: CodeParams) -> Fraction:
    """The free-rank generalisation: d_L <= A(p,s,s) * (n - k1 + 1), any k1 >= 1."""
    if params.k1 < 1:
        raise ValueError("needs free rank k1 >= 1")
    return coefficient_A(params.modulus, params.modulus.s) * (params.n - params.k1 + 1)


def hamming_to_lee(m: Modulus, ell: int, d_hamming: int) -> Fraction:
    """d_L <= A(p,s,ell) * d_H, valid when a level-ell witness exists."""
    return coefficient_A(m, ell) * d_hamming


def rank_plotkin(params: CodeParams) -> dict:
    """The rank/average-weight bound A(p,s,ell) * (n - K + 1), at level
    ell = params.ell, or 1 when unset.  A level above 1 needs a level-ell
    witness, which the caller vouches for (see applicable_levels).

    Returns both integer readings: `stated` floors the coefficient first,
    `plotted` floors the product (the convention comparison plots follow),
    plus the exact rational `value`.
    """
    if params.K < 1:
        raise ValueError("rank bound needs K >= 1")
    a = coefficient_A(params.modulus, 1 if params.ell is None else params.ell)
    exact = a * (params.n - params.K + 1)
    return {
        "value": exact,
        "stated": math.floor(a) * (params.n - params.K + 1),
        "plotted": math.floor(exact),
    }


def subcode_plotkin(code: LinearCode, subcode: LinearCode) -> Fraction:
    """d_L(C) <= |C'|/(|C'|-1) * avg(C') for any non-trivial subcode C'."""
    if not subcode.is_subcode_of(code):
        raise ValueError("second argument is not a subcode of the first")
    card = subcode.cardinality
    if card < 2:
        raise ValueError("subcode must be non-trivial")
    return Fraction(card, card - 1) * subcode.average_lee_weight()


def applicable_levels(code: LinearCode) -> set[int]:
    """Levels ell admitting a witness y with w_H(y) = d_H(C) = d_H(<y>) and
    y of order p^ell.  Level 1 is always applicable.

    Every codeword y of Hamming weight d_H(C) is a witness: <y> lies in C, so
    d_H(<y>) >= d_H(C), and y lies in <y>, so d_H(<y>) <= w_H(y) = d_H(C).
    The levels are s - v(y) over those words, read from the codeword
    profiles (order valuation v, Lee and Hamming weight)."""
    d_h = code.min_hamming_distance()
    profiles = code.codeword_profiles
    valuations = set(profiles[profiles[:, 2] == d_h, 0].tolist())
    return {1} | {code.modulus.s - v for v in valuations}


# -- the registry, reports and attainment -----------------------------------------

@dataclass
class BoundCell:
    value: Fraction | None
    floored: int | None
    applicable: bool
    attained: bool | None = None
    stated: int | None = None  # only for rank_plotkin's floor-the-coefficient reading


@dataclass(frozen=True)
class Bound:
    """One bound id: its evaluator and how a code attains it.

    The evaluator returns None, or raises ValueError, where the bound does
    not apply.  A code attains the bound when its distance (d_H if
    `hamming`, else d_L) lies in `attainment_range`: it equals the floored
    value, or, for a `floor_form` bound floor((d-1)/M) <= R with floored
    value M(R+1), floor((d-1)/M) = R, i.e. M(R+1) - M + 1 <= d <= M(R+1).
    """

    evaluate: Callable[[CodeParams], object]
    hamming: bool = False
    floor_form: bool = False

    def cell(self, params: CodeParams) -> BoundCell:
        try:
            value = self.evaluate(params)
        except ValueError:
            value = None
        if value is None:
            return BoundCell(None, None, False)
        if isinstance(value, dict):  # rank_plotkin's readings
            return BoundCell(value["value"], value["plotted"], True, stated=value["stated"])
        value = Fraction(value)
        return BoundCell(value, math.floor(value), True)

    def attainment_range(self, params: CodeParams, floored: int) -> tuple[int, int]:
        """The distances (lo, hi) at both ends of those that attain the bound
        whose floored value at `params` is `floored`."""
        lo = floored - params.modulus.M + 1 if self.floor_form else floored
        return lo, floored


def _in_range(lo: int, hi: int, d):
    """Whether the distance d (an int or a numpy array) lies in [lo, hi]."""
    return d == hi if lo == hi else (lo <= d) & (d <= hi)


BOUNDS = {
    "singleton_hamming": Bound(singleton_hamming, hamming=True),
    "singleton_rank": Bound(singleton_rank, hamming=True),
    "z4_singleton": Bound(z4_singleton),
    "shiromoto": Bound(shiromoto_max_d, floor_form=True),
    "shiromoto_rank": Bound(shiromoto_rank_max_d, floor_form=True),
    # the same value as shiromoto_rank, attained only at equality
    "lee_mdr": Bound(shiromoto_rank_max_d),
    "alderson_huntemann": Bound(alderson_huntemann),
    "wyner_graham": Bound(wyner_graham),
    "chiang_wolf": Bound(chiang_wolf),
    "chiang_wolf_k1": Bound(chiang_wolf_k1),
    "rank_plotkin": Bound(rank_plotkin),
}

BOUND_IDS = tuple(BOUNDS)


@functools.lru_cache(maxsize=BOUND_CACHE_SIZE)
def _cell_fields(modulus: Modulus, n: int, subtype) -> Mapping[str, tuple]:
    """Per bound id, in BOUNDS order, the row (value, floored, applicable,
    stated, span) of its cell at CodeParams.from_subtype(modulus, n,
    subtype), where span is (hamming, lo, hi) with the Bound.attainment_range
    [lo, hi], or None where the bound does not apply; a read-only mapping,
    so every caller of the cache shares it."""
    params = CodeParams.from_subtype(modulus, n, subtype)
    rows = {}
    for name, bound in BOUNDS.items():
        c = bound.cell(params)
        span = ((bound.hamming, *bound.attainment_range(params, c.floored))
                if c.applicable else None)
        rows[name] = (c.value, c.floored, c.applicable, c.stated, span)
    return MappingProxyType(rows)


def attainment_check(code: LinearCode, bound_id: str) -> bool:
    """Whether the code attains the named bound (see Bound); ValueError for
    an unknown bound id or one inapplicable to the code."""
    bound = BOUNDS.get(bound_id)
    if bound is None:
        raise ValueError(f"unknown bound id {bound_id!r}")
    d = code.min_hamming_distance() if bound.hamming else code.min_lee_distance()
    span = _cell_fields(code.modulus, code.n, code.subtype)[bound_id][-1]
    if span is None:
        raise ValueError(f"bound {bound_id!r} is inapplicable to these parameters")
    _, lo, hi = span
    return lo <= d <= hi


def evaluate_bounds(params_or_code) -> dict[str, BoundCell]:
    """BoundCell per bound id; with a concrete code, attainment flags are filled."""
    if not isinstance(params_or_code, LinearCode):
        return {name: bound.cell(params_or_code) for name, bound in BOUNDS.items()}
    code = params_or_code
    rows = _cell_fields(code.modulus, code.n, code.subtype)
    d_lee, d_ham = code.min_lee_distance(), code.min_hamming_distance()
    cells = {}
    for name, (value, floored, applicable, stated, span) in rows.items():
        attained = None
        if span is not None:
            hamming, lo, hi = span
            attained = lo <= (d_ham if hamming else d_lee) <= hi
        cells[name] = BoundCell(value, floored, applicable, attained, stated)
    return cells
