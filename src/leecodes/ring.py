"""Exact arithmetic over the residue ring Z/p^s Z and Lee weights.

Everything here is pure integer / Fraction arithmetic; floating point is
deliberately never used, so that downstream bound computations are bit-exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "Modulus",
    "RingVector",
    "lee_weight_elem",
    "lee_weight_vec",
    "hamming_weight_vec",
    "lee_distance",
    "ideal_elements",
    "ideal_total_weight",
    "ambient_average_weight",
    "gray_map",
]

MAX_Q = 2**31


def exact_int(value, what: str) -> int:
    """`value` as a Python int, read through operator.index so that numpy
    integers pass; a float, a string or any other value raises ValueError
    naming `what` and the value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are always small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, order=True)
class Modulus:
    """The pair (p, s) defining the ring Z/p^s Z, with q = p^s and the
    maximal Lee weight of one element M = floor(q/2) computed once."""

    p: int
    s: int
    q: int = field(init=False, repr=False, compare=False)
    M: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", exact_int(self.p, "p ="))
        object.__setattr__(self, "s", exact_int(self.s, "s ="))
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.s < 1:
            raise ValueError(f"s = {self.s} must be a positive integer")
        q = self.p**self.s
        if q > MAX_Q:
            raise ValueError(f"p^s = {q} exceeds the supported cap {MAX_Q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "M", q // 2)

    def val(self, a: int) -> int:
        """p-adic valuation of a mod q, with val(0) = s."""
        a %= self.q
        if a % self.p:
            return 0  # a unit
        if a == 0:
            return self.s
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def unit_inverse(self, u: int) -> int:
        u %= self.q
        if u % self.p == 0:
            raise ValueError(f"{u} is not a unit mod {self.q}")
        return pow(u, -1, self.q)

    def __str__(self):
        return f"Z/{self.p}^{self.s}" if self.s > 1 else f"Z/{self.p}"


@dataclass(frozen=True)
class RingVector:
    """A vector with entries in [0, q-1] over a fixed modulus, kept as
    Python ints."""

    modulus: Modulus
    entries: tuple[int, ...]

    def __post_init__(self):
        q = self.modulus.q
        object.__setattr__(self, "entries",
                           tuple(exact_int(e, "vector entry") for e in self.entries))
        if any(not (0 <= e < q) for e in self.entries):
            raise ValueError("vector entries must be reduced into [0, q-1]")

    def __len__(self):
        return len(self.entries)

    def __sub__(self, other: "RingVector") -> "RingVector":
        if self.modulus != other.modulus or len(self) != len(other):
            raise ValueError("mismatched vectors")
        q = self.modulus.q
        return RingVector(self.modulus, tuple((a - b) % q for a, b in zip(self.entries, other.entries)))


def lee_weight_elem(m: Modulus, a: int) -> int:
    """Lee weight of a single element: min(a, q - a) for a in [0, q-1]."""
    a = exact_int(a, "element")
    if not (0 <= a < m.q):
        raise ValueError(f"element {a} out of range [0, {m.q - 1}]")
    return min(a, m.q - a)


def lee_weight_vec(v: RingVector) -> int:
    q = v.modulus.q
    return sum(min(e, q - e) for e in v.entries)


def hamming_weight_vec(v: RingVector) -> int:
    return sum(1 for e in v.entries if e != 0)


def lee_distance(u: RingVector, v: RingVector) -> int:
    return lee_weight_vec(u - v)


def ideal_elements(m: Modulus, i: int) -> list[int]:
    """The elements of the ideal generated by p^i, as integers in [0, q-1]."""
    if not (0 <= i <= m.s):
        raise ValueError(f"ideal level {i} out of range [0, {m.s}]")
    return list(range(0, m.q, m.p**i))


def ideal_total_weight(m: Modulus, i: int) -> int:
    """Total Lee weight of the ideal generated by p^i, in closed form.

    The ideal is p^i * Z/N with N = p^(s-i), and wt_L(p^i a) = p^i wt_L(a)
    for a in Z/N, whose weights total floor(N^2/4): so p^i floor(N^2/4),
    that is 2^(2s-i-2) for p = 2 and (p^(2s-i) - p^i)/4 for odd p.  The
    bound coefficients and the average weights are all read from it.
    """
    if not (0 <= i <= m.s - 1):
        raise ValueError(f"ideal level {i} out of range [0, {m.s - 1}]")
    return m.p**i * (m.p ** (2 * (m.s - i)) // 4)


def ambient_average_weight(m: Modulus) -> Fraction:
    """Average Lee weight of the full ring, as an exact rational: the total
    weight of the level-0 ideal over its q elements."""
    return Fraction(ideal_total_weight(m, 0), m.q)


# The componentwise Gray map on Z/4.  Any table satisfying
# w_H(gray(v)) = w_L(v) works; this is the standard one.
_GRAY = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}


def gray_map(v: RingVector) -> tuple[int, ...]:
    """Isometry (Z/4, Lee) -> (F_2^{2n}, Hamming), applied componentwise."""
    m = v.modulus
    if (m.p, m.s) != (2, 2):
        raise ValueError("the Gray map is defined only over Z/4")
    out: list[int] = []
    for e in v.entries:
        out.extend(_GRAY[e])
    return tuple(out)
