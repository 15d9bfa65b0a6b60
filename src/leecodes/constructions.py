"""Builders for the named optimal and Lee-equidistant code families.

Sign classes: elements a and -a share their Lee weight, so layers are listed
through canonical representatives in [1, M].  The shortest equidistant
constructions for odd p concatenate, in ascending layer order, p copies of
every sign class of the top layer and p-1 copies of every sign class of each
deeper non-socle layer; the rank-2 variant appends a zero block covered by a
second, socle generator built from repetitions of the socle itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codes import LinearCode
from .ring import Modulus

__all__ = [
    "EquidistantSpec",
    "sign_class_reps",
    "equidistant_weight",
    "equidistant_rank1",
    "equidistant_rank2",
    "predict_support_subtype",
    "predict_generator_subtypes",
    "catalog_mld",
]


@dataclass(frozen=True)
class EquidistantSpec:
    """Parameters of a shortest Lee-equidistant construction: odd p, level i
    of the non-socle generator, rank 1 or 2."""

    modulus: Modulus
    i: int
    rank: int

    def __post_init__(self):
        m = self.modulus
        if m.p == 2:
            raise ValueError("p = 2 families are covered by the catalog, not built here")
        if not (1 <= self.i <= m.s):
            raise ValueError(f"level i = {self.i} out of range [1, {m.s}]")
        if self.rank not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        if self.rank == 2 and m.s < 2:
            raise ValueError("the rank-2 construction needs s >= 2")

    @property
    def weight(self) -> int:
        return equidistant_weight(self.modulus, self.i)


def sign_class_reps(m: Modulus, level: int) -> list[int]:
    """Representatives in [1, M] of the sign classes {a, -a} with valuation
    exactly `level`, in ascending order."""
    return [a for a in range(1, m.M + 1) if m.val(a) == level]


def equidistant_weight(m: Modulus, i: int) -> int:
    """The constant weight p^(2s-i)(p^2 - 1)/8 of the level-i construction."""
    w = Fraction(m.p ** (2 * m.s - i) * (m.p**2 - 1), 8)
    if w.denominator != 1:
        raise ValueError(f"the level-{i} weight {w} over {m} is not an integer")
    return int(w)


def _repeat_each(elems, times):
    out = []
    for e in elems:
        out.extend([e] * times)
    return out


def _rank1_row(m: Modulus, i: int) -> list[int]:
    """The level-i generator for s >= 2: p copies of every level-(i-1) sign
    class, then p-1 copies of every deeper non-socle class."""
    row = _repeat_each(sign_class_reps(m, i - 1), m.p)
    for j in range(i, m.s):
        row.extend(_repeat_each(sign_class_reps(m, j), m.p - 1))
    return row


def _rank1_counts(m: Modulus, i: int) -> list[int]:
    """The support subtype (n_0, ..., n_s) of _rank1_row(m, i), in closed
    form: p^(s-j-1)(p-1)/2 sign classes at each level j < s, repeated p times
    at level i-1 and p-1 times below it."""
    p, s = m.p, m.s
    counts = [0] * (s + 1)
    counts[i - 1] = p ** (s - i + 1) * (p - 1) // 2
    for j in range(i, s):
        counts[j] = p ** (s - j - 1) * (p - 1) ** 2 // 2
    return counts


def equidistant_rank1(spec: EquidistantSpec) -> LinearCode:
    """Lee-equidistant cyclic code with k_i = 1.

    For s = 1 this is <(1, 2, ..., (p-1)/2)> (one copy per sign class); for
    s >= 2 the generator takes p copies of every level-(i-1) sign class and
    p-1 copies of every deeper non-socle class.  At level i = s >= 2 there is
    no deeper non-socle class, so the code is the p-fold replica of
    <p^(s-1) * (1, 2, ..., (p-1)/2)>, itself Lee-equidistant and p times
    shorter.
    """
    if spec.rank != 1:
        raise ValueError("spec is not rank 1")
    m = spec.modulus
    if m.s == 1:
        return LinearCode.from_generator(m, [list(range(1, (m.p - 1) // 2 + 1))])
    return LinearCode.from_generator(m, [_rank1_row(m, spec.i)])


def equidistant_rank2(spec: EquidistantSpec) -> LinearCode:
    """Shortest-length Lee-equidistant code with k_i = 1 and a socle generator.

    Row 1 is the rank-1 generator followed by (p-1)/2 zeroes.  Row 2 places
    the full socle (0, x, -x) under each run of p equal entries, the non-zero
    socle (x, -x) under each run of p-1 equal entries, and x under the zeroes.
    """
    if spec.rank != 2:
        raise ValueError("spec is not rank 2")
    m = spec.modulus
    p, s, q = m.p, m.s, m.q
    half = (p - 1) // 2

    x = sign_class_reps(m, s - 1)
    y = x + [(-e) % q for e in x]
    z = [0] + y

    row1 = _rank1_row(m, spec.i) + [0] * half

    reps = p ** (s - spec.i)
    row2 = z * (reps * half) + y * ((reps - 1) // 2) + x
    if len(row1) != len(row2):
        raise ValueError(f"generator rows of lengths {len(row1)} and {len(row2)} for {spec}")
    return LinearCode.from_generator(m, [row1, row2])


def predict_support_subtype(spec: EquidistantSpec) -> tuple[int, ...]:
    """Closed-form support subtype (n_0, ..., n_s) of the built code."""
    m = spec.modulus
    p, s = m.p, m.s
    if s == 1:  # rank 1: one copy of every sign class
        return ((p - 1) // 2, 0)
    counts = _rank1_counts(m, spec.i)
    if spec.rank == 2:
        # the socle row puts the (p-1)/2 zero columns of row 1 at level s-1
        counts[s - 1] += (p - 1) // 2
    return tuple(counts)


def predict_generator_subtypes(spec: EquidistantSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Closed-form support subtypes of the two cyclic subcodes of the rank-2
    construction (first the level-i generator, then the socle generator)."""
    if spec.rank != 2:
        raise ValueError("per-generator subtypes exist only for rank 2")
    m = spec.modulus
    p, s, i = m.p, m.s, spec.i
    g1 = _rank1_counts(m, i)
    g1[s] = (p - 1) // 2
    g2 = [0] * (s + 1)
    g2[s - 1] = p ** (s - i + 1) * (p - 1) // 2
    g2[s] = p ** (s - i) * (p - 1) // 2
    return tuple(g1), tuple(g2)


def catalog_mld(m: Modulus, n: int) -> list[LinearCode]:
    """The named witnesses of the Lee-metric Singleton-type bounds valid for
    (p, s, n): <(1,2)> over Z/5 at n = 2; <(2^(s-1), ..., 2^(s-1))> over any
    Z/2^s; over Z/4 at n >= 2 additionally the dual of <(2, ..., 2)>.

    This is the only list of them.  The `shiromoto`, `rank_sb` and
    `z4_singleton` checks of search.check_characterization allow the
    attainer classes of one of them, besides the spaces each allows whole;
    `shiromoto` and `z4_singleton` list a witness that misses their bound
    as missing; `leecodes construct mld` prints them.  A length below 1
    raises ValueError.

    Each witness is the first code of its signed-permutation class in the
    generator order of search.enumerate_codes and the scan, so it is the
    class root the characterization sweep hands back, and the checks name a
    class by equality with a witness: <(M, ..., M)> and the Z/4 even-sum
    dual are alone in their classes, and <(1,2)> over Z/5 comes before
    <(1,3)>, the other code of its class."""
    if n < 1:
        raise ValueError(f"the code length n = {n} is below 1")
    out: list[LinearCode] = []
    if m.q == 5 and n == 2:
        out.append(LinearCode.from_generator(m, [[1, 2]]))
    if m.p == 2:
        half = m.q // 2
        rep = LinearCode.from_generator(m, [[half] * n])
        out.append(rep)
        if m.s == 2 and n > 1:   # at n = 1, <(2)> is its own dual
            out.append(rep.dual())
    return out
