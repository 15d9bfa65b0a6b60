"""Upper bounds on the minimum Lee distance, as exact-rational evaluators.

Every bound is a pure function of code parameters (length, type, rank, free
rank) returning a Fraction or an integer; nothing here touches floating
point.  Floor-style bounds of the shape floor((d-1)/M) <= R are exposed in
"max consistent d" form, i.e. the largest integer d satisfying them, which is
M*(R+1).  Where the literature floors a coefficient but plots the floor of
the product, both readings are returned, labelled `stated` and `plotted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .codes import LinearCode
from .ring import Modulus, ambient_average_weight

__all__ = [
    "CodeParams",
    "BoundCell",
    "coefficient_A",
    "singleton_hamming",
    "singleton_rank",
    "z4_singleton",
    "shiromoto_max_d",
    "shiromoto_rank_max_d",
    "lee_mdr",
    "alderson_huntemann",
    "wyner_graham",
    "chiang_wolf",
    "chiang_wolf_k1",
    "hamming_to_lee",
    "rank_plotkin",
    "rank_plotkin_level",
    "subcode_plotkin",
    "applicable_levels",
    "attainment_check",
    "evaluate_bounds",
    "BOUND_IDS",
]


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
        k = sum((Fraction(s - i, s) * ki for i, ki in enumerate(subtype)), Fraction(0))
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


def lee_mdr(params: CodeParams) -> int:
    """d_L <= M(n - K + 1)."""
    if params.K < 1:
        raise ValueError("rank bound needs K >= 1")
    return params.modulus.M * (params.n - params.K + 1)


def alderson_huntemann(params: CodeParams) -> int | None:
    """d_L <= M(n - k) for integer type 1 < k < n; None when inapplicable."""
    if params.k.denominator != 1 or not (1 < params.k < params.n):
        return None
    return params.modulus.M * (params.n - int(params.k))


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
    """The rank/average-weight bound A(p,s,1) * (n - K + 1).

    Returns both integer readings: `stated` floors the coefficient first,
    `plotted` floors the product (the convention comparison plots follow),
    plus the exact rational `value`.
    """
    if params.K < 1:
        raise ValueError("rank bound needs K >= 1")
    a = coefficient_A(params.modulus, 1)
    exact = a * (params.n - params.K + 1)
    return {
        "value": exact,
        "stated": math.floor(a) * (params.n - params.K + 1),
        "plotted": math.floor(exact),
    }


def rank_plotkin_level(params: CodeParams) -> dict:
    """Level-ell refinement A(p,s,ell) * (n - K + 1); the caller is responsible
    for the existence of a level-ell witness (see applicable_levels)."""
    ell = params.ell
    if ell is None:
        raise ValueError("params.ell must be set")
    a = coefficient_A(params.modulus, ell)
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


# -- reports and attainment ----------------------------------------------------

BOUND_IDS = (
    "singleton_hamming",
    "singleton_rank",
    "z4_singleton",
    "shiromoto",
    "shiromoto_rank",
    "lee_mdr",
    "alderson_huntemann",
    "wyner_graham",
    "chiang_wolf",
    "chiang_wolf_k1",
    "rank_plotkin",
)


@dataclass
class BoundCell:
    value: Fraction | None
    floored: int | None
    applicable: bool
    attained: bool | None = None
    stated: int | None = None  # only for rank_plotkin's floor-the-coefficient reading


def _cells(params: CodeParams) -> dict[str, BoundCell]:
    m = params.modulus
    cells: dict[str, BoundCell] = {}

    def put(name, value):
        if value is None:
            cells[name] = BoundCell(None, None, False)
        else:
            value = Fraction(value)
            cells[name] = BoundCell(value, math.floor(value), True)

    put("singleton_hamming", singleton_hamming(params))
    put("singleton_rank", singleton_rank(params) if params.K >= 1 else None)
    put("z4_singleton", z4_singleton(params) if (m.p, m.s) == (2, 2) else None)
    put("shiromoto", shiromoto_max_d(params))
    put("shiromoto_rank", shiromoto_rank_max_d(params) if params.K >= 1 else None)
    put("lee_mdr", lee_mdr(params) if params.K >= 1 else None)
    put("alderson_huntemann", alderson_huntemann(params))
    put("wyner_graham", wyner_graham(params) if params.k > 0 else None)
    put("chiang_wolf", chiang_wolf(params))
    put("chiang_wolf_k1", chiang_wolf_k1(params) if params.k1 >= 1 else None)
    if params.K >= 1:
        rp = rank_plotkin(params)
        cells["rank_plotkin"] = BoundCell(rp["value"], rp["plotted"], True, stated=rp["stated"])
    else:
        cells["rank_plotkin"] = BoundCell(None, None, False)
    return cells


def attainment_check(code: LinearCode, bound_id: str) -> bool:
    """Whether the code attains the named bound.

    Floor-style bounds are attained when the floor expression meets its
    right-hand side with equality; value-style Lee bounds when d_L equals the
    integer (floored) form; the two Hamming-metric Singleton bounds compare
    against d_H.
    """
    params = CodeParams.from_code(code)
    m = params.modulus
    if bound_id == "singleton_hamming":
        return code.min_hamming_distance() == singleton_hamming(params)
    if bound_id == "singleton_rank":
        return code.min_hamming_distance() == singleton_rank(params)
    d = code.min_lee_distance()
    if bound_id == "z4_singleton":
        return d == z4_singleton(params)
    if bound_id == "shiromoto":
        return (d - 1) // m.M == params.n - params.ceil_k
    if bound_id == "shiromoto_rank":
        return (d - 1) // m.M == params.n - params.K
    if bound_id == "lee_mdr":
        return d == lee_mdr(params)
    if bound_id == "alderson_huntemann":
        value = alderson_huntemann(params)
        if value is None:
            raise ValueError("Alderson-Huntemann is inapplicable to these parameters")
        return d == value
    if bound_id == "wyner_graham":
        return d == math.floor(wyner_graham(params))
    if bound_id == "chiang_wolf":
        value = chiang_wolf(params)
        if value is None:
            raise ValueError("Chiang-Wolf is inapplicable to these parameters")
        return d == math.floor(value)
    if bound_id == "chiang_wolf_k1":
        return d == math.floor(chiang_wolf_k1(params))
    if bound_id == "rank_plotkin":
        return d == rank_plotkin(params)["plotted"]
    if bound_id == "rank_plotkin_exact":
        return Fraction(d) == rank_plotkin(params)["value"]
    raise ValueError(f"unknown bound id {bound_id!r}")


def evaluate_bounds(params_or_code) -> dict[str, BoundCell]:
    """BoundCell per bound id; with a concrete code, attainment flags are filled."""
    if isinstance(params_or_code, LinearCode):
        code = params_or_code
        cells = _cells(CodeParams.from_code(code))
        for name, cell in cells.items():
            if cell.applicable:
                cell.attained = attainment_check(code, name)
        return cells
    return _cells(params_or_code)
