"""Linear codes over Z/p^s Z: construction, structural parameters, duality.

A code is stored through a row-reduced generator matrix obtained by Gaussian
elimination with minimal-valuation pivoting.  Pivot t sits in column col_t
with entry p^(v_t) (unit normalised), rows are listed in pivot order, pivot
valuations are non-decreasing, and every row is zero at the pivot columns of
earlier rows.  Reordering the columns pivots-first yields the familiar
block-triangular systematic shape with diagonal blocks p^(i-1)*Id_{k_i}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .ring import Modulus, RingVector

ENUMERATION_BUDGET = 2**24


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed its configured budget."""


class TrivialCodeError(ValueError):
    """Raised when a distance is requested for the zero code."""


@dataclass(frozen=True)
class CodeMatrix:
    """An exact integer matrix with entries reduced mod p^s."""

    modulus: Modulus
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.modulus.q
        ncols = {len(r) for r in self.rows}
        if len(ncols) > 1:
            raise ValueError("ragged matrix")
        for r in self.rows:
            if any(not (0 <= e < q) for e in r):
                raise ValueError("matrix entries must be reduced into [0, q-1]")

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def _row_reduce(m: Modulus, work: list[list[int]]):
    """Reduce generator rows with entries in [0, q-1], in place; returns
    (pivot rows, pivots) with pivots[t] = (col, val).

    Pivot selection: smallest p-adic valuation over the active submatrix,
    leftmost column achieving it, first row within that column; the first
    unit met in that order wins at once.  All other active rows are cleared
    at the pivot column (their entries there have valuation >= the pivot's,
    so the quotient is exact).
    """
    q, p = m.q, m.p
    open_cols = list(range(len(work[0]) if work else 0))
    active = list(range(len(work)))
    pivot_rows: list[list[int]] = []
    pivots: list[tuple[int, int]] = []
    while active:
        best = None  # (val, col, row)
        for c in open_cols:
            for r in active:
                e = work[r][c]
                if e == 0:
                    continue
                if e % p:
                    best = (0, c, r)
                    break
                v = m.val(e)
                if best is None or v < best[0]:
                    best = (v, c, r)
            if best is not None and best[0] == 0:
                break  # a unit in the leftmost eligible column cannot be beaten
        if best is None:
            break
        v, c, r = best
        pv = p**v
        row = work[r]
        if row[c] != pv:
            inv = m.unit_inverse(row[c] // pv)
            row = [(e * inv) % q for e in row]
        for r2 in active:
            if r2 == r:
                continue
            e = work[r2][c]
            if e:
                f = e // pv
                work[r2] = [(a - f * b) % q for a, b in zip(work[r2], row)]
        work[r] = row
        pivot_rows.append(row)
        pivots.append((c, v))
        open_cols.remove(c)
        active.remove(r)
    return pivot_rows, pivots


def coefficient_grid(orders) -> np.ndarray:
    """Every coefficient tuple with entry i in [0, orders[i]), the last entry
    fastest and the zero tuple first; shape (prod(orders), len(orders))."""
    return np.indices(orders).reshape(len(orders), -1).T


def word_table(orders, gens, q: int) -> np.ndarray:
    """The words sum_i c_i gens[i] mod q for every coefficient tuple c of
    coefficient_grid(orders), stored column-major: entry [j, w] is coordinate
    j of word w, shape (N, prod(orders)) for gens of shape (len(orders), N).

    Row i adds the outer sum with arange(orders[i]) * gens[i] mod q and is
    reduced at once, so no entry ever reaches 2q: the table is int16 when
    2q <= 2^15 and int64 otherwise, exact either way, with no product of the
    whole grid."""
    gens = np.asarray(gens, dtype=np.int64)
    dtype, unsigned = (np.int16, np.uint16) if 2 * q <= 2**15 else (np.int64, np.uint64)
    steps = [(np.multiply.outer(g, np.arange(order, dtype=np.int64)) % q).astype(dtype)
             for order, g in zip(orders, gens)]
    table = steps[-1] if steps else np.zeros((gens.shape[1], 1), dtype=dtype)
    # rows join from the last: the words built so far form the inner, longest axis
    for step in reversed(steps[:-1]):
        table = (step[:, :, None] + table[:, None, :]).reshape(len(step), -1)
        # entries lie in [0, 2q): unsigned, t - q wraps above t exactly when t < q
        wide = table.view(unsigned)
        np.minimum(wide, wide - unsigned(q), out=wide)
    return table


def word_profiles(m: Modulus, words: np.ndarray) -> np.ndarray:
    """(order valuation, Lee weight, Hamming weight) of each row of `words`,
    shape (N, 3); each is invariant under signed coordinate permutations.

    The order valuation is the largest t <= s with p^t dividing every entry,
    so the zero word gets s.  It is counted by divisibility tests rather than
    a table of size q, which may be as large as 2^31."""
    q, p = m.q, m.p
    out = np.zeros((len(words), 3), dtype=np.int64)
    for t in range(1, m.s + 1):
        out[:, 0] += (words % p**t == 0).all(axis=1)
    out[:, 1] = np.minimum(words, q - words).sum(axis=1)
    out[:, 2] = (words != 0).sum(axis=1)
    return out


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code with cached structural parameters.

    Immutable after construction; expensive codeword-derived facts are cached
    lazily and at most once.
    """

    modulus: Modulus
    n: int
    rows: tuple[tuple[int, ...], ...]        # reduced generator rows, pivot order
    pivots: tuple[tuple[int, int], ...]      # (column, valuation) per row
    given_rows: tuple[tuple[int, ...], ...]  # generator as supplied (mod q)
    budget: int = field(default=ENUMERATION_BUDGET, repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_generator(cls, modulus: Modulus, rows, n: int | None = None,
                       budget: int = ENUMERATION_BUDGET) -> "LinearCode":
        """Build the row span of `rows`; redundant or zero rows are allowed."""
        q = modulus.q
        given = tuple(tuple(int(e) % q for e in row) for row in rows)
        if n is None:
            if not given:
                raise ValueError("cannot infer length from an empty generator")
            n = len(given[0])
        if any(len(r) != n for r in given):
            raise ValueError("generator rows disagree with the code length")
        reduced, pivots = _row_reduce(modulus, [list(r) for r in given])
        return cls(modulus, n, tuple(tuple(r) for r in reduced), tuple(pivots), given, budget)

    @classmethod
    def from_matrix(cls, mat: CodeMatrix, budget: int = ENUMERATION_BUDGET) -> "LinearCode":
        return cls.from_generator(mat.modulus, mat.rows, n=mat.ncols, budget=budget)

    @classmethod
    def zero(cls, modulus: Modulus, n: int) -> "LinearCode":
        return cls.from_generator(modulus, [[0] * n])

    # -- parameters --------------------------------------------------------

    @property
    def subtype(self) -> tuple[int, ...]:
        counts = [0] * self.modulus.s
        for _, v in self.pivots:
            counts[v] += 1
        return tuple(counts)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def free_rank(self) -> int:
        return self.subtype[0]

    @property
    def type_k(self) -> Fraction:
        s = self.modulus.s
        return Fraction(sum((s - i) * k for i, k in enumerate(self.subtype)), s)

    @property
    def cardinality(self) -> int:
        p, s = self.modulus.p, self.modulus.s
        return p ** sum((s - v) for _, v in self.pivots)

    @property
    def row_orders(self) -> tuple[int, ...]:
        p, s = self.modulus.p, self.modulus.s
        return tuple(p ** (s - v) for _, v in self.pivots)

    def generator_matrix(self) -> CodeMatrix:
        return CodeMatrix(self.modulus, self.rows if self.rows else ((0,) * self.n,))

    # -- systematic form ---------------------------------------------------

    def systematic_form(self) -> tuple[CodeMatrix, tuple[int, ...]]:
        """Column-permuted generator in block-triangular shape.

        Returns (matrix, perm) where perm[j] is the original index of column j
        of the returned matrix: pivot columns first in block order, then the
        remaining columns in ascending order.
        """
        pivot_cols = [c for c, _ in self.pivots]
        rest = [c for c in range(self.n) if c not in set(pivot_cols)]
        perm = tuple(pivot_cols + rest)
        rows = tuple(tuple(row[j] for j in perm) for row in self.rows)
        if not rows:
            rows = ((0,) * self.n,)
        return CodeMatrix(self.modulus, rows), perm

    # -- membership and equality -------------------------------------------

    def contains(self, vec) -> bool:
        q, p = self.modulus.q, self.modulus.p
        v = [int(e) % q for e in (vec.entries if isinstance(vec, RingVector) else vec)]
        if len(v) != self.n:
            raise ValueError("length mismatch")
        for row, (c, val) in zip(self.rows, self.pivots):
            pv = p**val
            if v[c] % pv:
                return False
            f = v[c] // pv
            if f:
                v = [(a - f * b) % q for a, b in zip(v, row)]
        return not any(v)

    def is_subcode_of(self, other: "LinearCode") -> bool:
        return (self.modulus == other.modulus and self.n == other.n
                and all(other.contains(r) for r in self.rows))

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.modulus == other.modulus and self.n == other.n
                and self.cardinality == other.cardinality
                and self.is_subcode_of(other))

    def __hash__(self):
        return hash((self.modulus, self.n, self.cardinality, self.subtype))

    # -- codeword enumeration ----------------------------------------------

    def _check_budget(self, budget: int | None = None):
        limit = self.budget if budget is None else budget
        if self.cardinality > limit:
            raise BudgetError(
                f"code has {self.cardinality} codewords, over the enumeration "
                f"budget of {limit}")

    def codewords(self, budget: int | None = None):
        """Yield every codeword once, as RingVector, in mixed-radix row order."""
        for word in self.codeword_array(budget).tolist():
            yield RingVector(self.modulus, tuple(word))

    def codeword_array(self, budget: int | None = None) -> np.ndarray:
        """All codewords as a read-only (|C|, n) integer array in mixed-radix
        row order, the last row's coefficient fastest; built once per code."""
        self._check_budget(budget)
        return self._codeword_array

    @cached_property
    def _codeword_array(self) -> np.ndarray:
        words = np.ascontiguousarray(self._word_table().T, dtype=np.int64)
        words.flags.writeable = False
        return words

    def _word_table(self) -> np.ndarray:
        """All codewords column-major, shape (n, |C|), in codeword_array() order."""
        gen = np.array(self.rows, dtype=np.int64).reshape(self.rank, self.n)
        return word_table(self.row_orders, gen, self.modulus.q)

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(Lee, Hamming) weight of every codeword, in codeword_array() order.
        The reduced rows with their orders reach each codeword once, so word 0
        is the only zero word."""
        table = self._word_table()
        q = self.modulus.q
        return np.minimum(table, q - table).sum(axis=0), (table != 0).sum(axis=0)

    @cached_property
    def codeword_profiles(self) -> np.ndarray:
        """The word_profiles of all codewords, in codeword_array() order."""
        return word_profiles(self.modulus, self.codeword_array())

    @cached_property
    def invariant_key(self) -> tuple:
        """Hashable invariants under signed coordinate permutations: modulus,
        length, subtype, support subtype and the multiset of codeword
        profiles (which fixes the Lee weight enumerator)."""
        profiles = self.codeword_profiles
        profiles = profiles[np.lexsort(profiles.T[::-1])]
        firsts = np.flatnonzero(np.r_[True, (profiles[1:] != profiles[:-1]).any(axis=1)])
        counts = np.diff(firsts, append=len(profiles))
        return (self.modulus, self.n, self.subtype, self.support_subtype(),
                profiles[firsts].tobytes(), counts.tobytes())

    def _nonzero_weights(self) -> tuple[np.ndarray, np.ndarray]:
        if self.cardinality < 2:
            raise TrivialCodeError("the zero code has no minimum distance")
        self._check_budget()
        lee, hamming = self._weights
        return lee[1:], hamming[1:]

    def min_lee_distance(self) -> int:
        return int(self._nonzero_weights()[0].min())

    def min_hamming_distance(self) -> int:
        return int(self._nonzero_weights()[1].min())

    # -- support and averages -----------------------------------------------

    def support_subtype(self) -> tuple[int, ...]:
        """Counts (n_0, ..., n_s) of coordinates by their projection ideal.

        The ideal of coordinate j is generated by p^v with v the minimal
        valuation of column j over the generator rows.
        """
        s = self.modulus.s
        counts = [0] * (s + 1)
        for j in range(self.n):
            v = min((self.modulus.val(row[j]) for row in self.rows), default=s)
            counts[v] += 1
        return tuple(counts)

    def average_lee_weight(self) -> Fraction:
        """Mean Lee weight over the code, from the support subtype closed form."""
        p, s, q = self.modulus.p, self.modulus.s, self.modulus.q
        ns = self.support_subtype()
        supp = self.n - ns[s]
        if p == 2:
            return Fraction(2**s * supp, 4)
        total = q * q * supp - sum(p ** (2 * i) * ns[i] for i in range(s))
        return Fraction(total, 4 * q)

    # -- derived codes -------------------------------------------------------

    def socle(self) -> "LinearCode":
        """The subcode of order-p codewords plus zero, spanned by scaled rows."""
        p, s, q = self.modulus.p, self.modulus.s, self.modulus.q
        gens = []
        for row, (_, v) in zip(self.rows, self.pivots):
            f = p ** (s - 1 - v)
            gens.append([(f * e) % q for e in row])
        if not gens:
            gens = [[0] * self.n]
        return LinearCode.from_generator(self.modulus, gens, n=self.n, budget=self.budget)

    def parity_check(self) -> CodeMatrix:
        """A generator matrix of the dual code (so G . H^T = 0)."""
        return self.dual().generator_matrix()

    def dual(self) -> "LinearCode":
        """The dual code, solved by back-substitution over the pivot structure."""
        m = self.modulus
        q, p = m.q, m.p
        pivot_cols = [c for c, _ in self.pivots]
        pivot_set = set(pivot_cols)
        free_cols = [c for c in range(self.n) if c not in pivot_set]

        def solve(x: list[int], bump: int | None = None) -> list[int]:
            # fill pivot coordinates from the deepest pivot upwards; x is zero
            # at every pivot column not yet filled
            for t in range(len(self.pivots) - 1, -1, -1):
                c, v = self.pivots[t]
                row = self.rows[t]
                pv = p**v
                acc = sum(row[j] // pv * xj for j, xj in enumerate(x) if xj)
                x[c] = (-acc) % (q // pv)
                if bump == t:
                    x[c] = (x[c] + q // pv) % q
            return x

        gens: list[list[int]] = []
        for c in free_cols:
            x = [0] * self.n
            x[c] = 1
            gens.append(solve(x))
        for t, (_, v) in enumerate(self.pivots):
            if v >= 1:
                gens.append(solve([0] * self.n, bump=t))
        if not gens:
            gens = [[0] * self.n]
        return LinearCode.from_generator(m, gens, n=self.n, budget=self.budget)

    # -- equidistance and replication ----------------------------------------

    def is_lee_equidistant(self) -> bool:
        if self.cardinality < 2:
            raise TrivialCodeError("equidistance is undefined for the zero code")
        lee = self._nonzero_weights()[0]
        return bool(lee.min() == lee.max())

    def equidistant_weight(self) -> int:
        if not self.is_lee_equidistant():
            raise ValueError("code is not Lee-equidistant")
        return self.min_lee_distance()

    def replicate(self, ell: int) -> "LinearCode":
        """Concatenate ell copies of the generator columns (length ell * n)."""
        if ell < 1:
            raise ValueError("replication count must be >= 1")
        rows = [tuple(row) * ell for row in self.given_rows]
        return LinearCode.from_generator(self.modulus, rows, n=self.n * ell, budget=self.budget)

    def __repr__(self):
        return (f"LinearCode({self.modulus}, n={self.n}, subtype={self.subtype}, "
                f"|C|={self.cardinality})")


# -- text code format ---------------------------------------------------------
#
# First line: "p s n"; each following non-comment line is one generator row of
# space-separated integers; '#' starts a comment line.


def parse_code_text(text: str, budget: int = ENUMERATION_BUDGET) -> LinearCode:
    numbered = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1)]
    numbered = [(i, ln) for i, ln in numbered if ln and not ln.startswith("#")]
    if not numbered:
        raise ValueError("empty code file")
    lineno, head_line = numbered[0]
    head = head_line.split()
    if len(head) != 3:
        raise ValueError(f"header must be 'p s n', got {head_line!r} (line {lineno})")
    try:
        p, s, n = (int(x) for x in head)
    except ValueError as exc:
        raise ValueError(f"bad header {head_line!r} (line {lineno})") from exc
    m = Modulus(p, s)
    rows = []
    for lineno, ln in numbered[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise ValueError(f"bad generator row on line {lineno}: {ln!r}") from exc
        if len(row) != n:
            raise ValueError(f"row on line {lineno} has {len(row)} entries, expected {n}")
        rows.append(row)
    if not rows:
        rows = [[0] * n]
    return LinearCode.from_generator(m, rows, n=n, budget=budget)


def format_code_text(code: LinearCode, comments: list[str] | None = None) -> str:
    m = code.modulus
    out = [f"{m.p} {m.s} {code.n}"]
    rows = code.given_rows if code.given_rows else ((0,) * code.n,)
    out.extend(" ".join(str(e) for e in row) for row in rows)
    out.extend(f"# {c}" for c in (comments or []))
    return "\n".join(out) + "\n"
