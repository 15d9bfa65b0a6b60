"""Upper bounds on the minimum Lee distance, as exact-rational evaluators.

Every bound is a pure function of code parameters (length, type, rank, free
rank) returning a Fraction or an integer; nothing here touches floating
point.  Floor-style bounds of the shape floor((d-1)/M) <= R are exposed in
"max consistent d" form, i.e. the largest integer d satisfying them, which is
M*(R+1).  Where the literature floors a coefficient but plots the floor of
the product, both readings are returned, labelled `stated` and `plotted`.

`BOUNDS` names every bound once: its evaluator and its attainment rule.
`evaluate_bounds`, `attainment_check` and the census all read it.  The
values depend on the parameter tuple only, so `evaluate_bounds` and
`attainment_check` compute them once per `CodeParams` (an LRU cache of
`BOUND_CACHE_SIZE` tuples) and hand out fresh `BoundCell`s on every call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .codes import LinearCode
from .ring import Modulus, ambient_average_weight

__all__ = [
    "CodeParams",
    "Bound",
    "BoundCell",
    "BOUNDS",
    "coefficient_A",
    "type_form",
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
        subtype = tuple(subtype)
        if len(subtype) != modulus.s:
            raise ValueError(f"subtype must have {modulus.s} entries")
        s = modulus.s
        k = Fraction(sum((s - i) * ki for i, ki in enumerate(subtype)), s)
        return cls(modulus, n, k, sum(subtype), subtype[0], ell)

    @classmethod
    def from_code(cls, code: LinearCode, ell=None) -> "CodeParams":
        return cls(code.modulus, code.n, code.type_k, code.rank, code.free_rank, ell)


def coefficient_A(m: Modulus, i: int) -> Fraction:
    """The ideal-average Plotkin coefficient A(p, s, i).

    p^(s-i)(p^i + 1)/4 for odd p, 2^(s-2+i)/(2^i - 1) for p = 2.  At i = s it
    degenerates to the Chiang-Wolf coefficient.
    """
    if not (1 <= i <= m.s):
        raise ValueError(f"level {i} out of range [1, {m.s}]")
    p, s = m.p, m.s
    if p == 2:
        return Fraction(2 ** (s - 2 + i), 2**i - 1)
    return Fraction(p ** (s - i) * (p**i + 1), 4)


# -- Singleton-like bounds -----------------------------------------------------

def singleton_hamming(params: CodeParams) -> int:
    """d_H <= n - ceil(k) + 1 (integer form for linear codes)."""
    return params.n - params.ceil_k + 1


def singleton_rank(params: CodeParams) -> int:
    """d_H <= n - K + 1 for linear codes of rank K."""
    if params.K < 1:
        raise ValueError("rank bound needs K >= 1")
    return params.n - params.K + 1


def z4_singleton(params: CodeParams) -> int:
    """Largest d with d <= 2(n - k) + 1 over Z/4 (k may be a half-integer)."""
    m = params.modulus
    if (m.p, m.s) != (2, 2):
        raise ValueError("this bound is specific to Z/4")
    return math.floor(2 * (params.n - params.k)) + 1


def shiromoto_max_d(params: CodeParams) -> int:
    """Largest d with floor((d-1)/M) <= n - ceil(k), i.e. M(n - ceil(k) + 1)."""
    return params.modulus.M * (params.n - params.ceil_k + 1)


def shiromoto_rank_max_d(params: CodeParams) -> int:
    """Largest d with floor((d-1)/M) <= n - K, i.e. M(n - K + 1)."""
    if params.K < 1:
        raise ValueError("rank bound needs K >= 1")
    return params.modulus.M * (params.n - params.K + 1)


def type_form(params: CodeParams) -> Fraction:
    """M(n - k) for the exact rational type k.  Shiromoto's bound in its
    original type form is attained when d_L > M(n - k), so its largest
    consistent d is floor(M(n - k)) + 1; at integer k this is also the
    Alderson-Huntemann value."""
    return params.modulus.M * (params.n - params.k)


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
    return coefficient_A(params.modulus, params.modulus.s) * (params.n - params.k + 1)


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
    y of order dividing p^ell.  Level 1 is always applicable."""
    m = code.modulus
    d_h = code.min_hamming_distance()
    levels = {1}
    for word in code.codewords():
        if sum(1 for e in word.entries if e) != d_h:
            continue
        order_val = min(m.val(e) for e in word.entries if e)
        ell = m.s - order_val
        if ell in levels:
            continue
        cyclic = LinearCode.from_generator(m, [word.entries], n=code.n)
        if cyclic.min_hamming_distance() == d_h:
            levels.add(ell)
    return levels


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
    `hamming`, else d_L) equals the floored value; for a `floor_form` bound
    floor((d-1)/M) <= R, when floor((d-1)/M) = R.
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

    def attained(self, params: CodeParams, target: int, d):
        """Whether the distance d (an int or a numpy array) attains the bound
        whose floored value at `params` is `target`."""
        if self.floor_form:
            M = params.modulus.M
            return (d - 1) // M == target // M - 1   # target = M(R + 1)
        return d == target


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
def _cell_fields(params: CodeParams) -> Mapping[str, tuple]:
    """The fields of every bound's cell at `params`, in BOUNDS order, as a
    read-only mapping: every caller of the cache shares it."""
    cells = ((name, bound.cell(params)) for name, bound in BOUNDS.items())
    return MappingProxyType({name: (c.value, c.floored, c.applicable, c.attained, c.stated)
                             for name, c in cells})


def attainment_check(code: LinearCode, bound_id: str) -> bool:
    """Whether the code attains the named bound (see Bound); ValueError for
    an unknown bound id or one inapplicable to the code."""
    bound = BOUNDS.get(bound_id)
    if bound is None:
        raise ValueError(f"unknown bound id {bound_id!r}")
    d = code.min_hamming_distance() if bound.hamming else code.min_lee_distance()
    params = CodeParams.from_code(code)
    cell = BoundCell(*_cell_fields(params)[bound_id])
    if not cell.applicable:
        raise ValueError(f"bound {bound_id!r} is inapplicable to these parameters")
    return bool(bound.attained(params, cell.floored, d))


def evaluate_bounds(params_or_code) -> dict[str, BoundCell]:
    """BoundCell per bound id; with a concrete code, attainment flags are filled."""
    code = params_or_code if isinstance(params_or_code, LinearCode) else None
    params = params_or_code if code is None else CodeParams.from_code(code)
    cells = {name: BoundCell(*fields) for name, fields in _cell_fields(params).items()}
    if code is not None:
        d_lee, d_ham = code.min_lee_distance(), code.min_hamming_distance()
        for name, cell in cells.items():
            if cell.applicable:
                bound = BOUNDS[name]
                d = d_ham if bound.hamming else d_lee
                cell.attained = bool(bound.attained(params, cell.floored, d))
    return cells
