"""Linear codes over Z/p^s Z: construction, structural parameters, duality.

A code is stored through its standard form (Norton and Salagean, AAECC 10,
2000), found by Gaussian elimination with minimal-valuation pivoting.  Pivot
t sits in column col_t with entry p^(v_t) (unit normalised), rows are listed
in pivot order, pivot valuations are non-decreasing, and at col_t every later
row is zero and every earlier row lies in [0, p^(v_t)), so the rows depend on
the code alone.  Reordering the columns pivots-first yields the familiar
block-triangular systematic shape with diagonal blocks p^(i-1)*Id_{k_i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .ring import Modulus, RingVector, exact_int, ideal_total_weight

ENUMERATION_BUDGET = 2**24


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed its configured budget."""


def check_codewords(count: int, what: str, *args):
    """Refuse to list `count` codewords past ENUMERATION_BUDGET, the one cap
    on every codeword table; what.format(*args) opens the message ("code
    has"), formatted only on a refusal."""
    if count > ENUMERATION_BUDGET:
        raise BudgetError(f"{what.format(*args)} {count} codewords, over the "
                          f"enumeration budget of {ENUMERATION_BUDGET}")


class TrivialCodeError(ValueError):
    """Raised when a distance is requested for the zero code."""


def _row_reduce(m: Modulus, work: list[list[int]]):
    """The standard form of generator rows with entries in [0, q-1], reduced
    in place; returns (pivot rows, pivots) with pivots[t] = (col, val), rows
    in pivot order.

    Pivot selection: smallest p-adic valuation over the active submatrix,
    leftmost column achieving it, first row within that column; the first
    unit met in that order wins at once.  Every other row is then cleared at
    the pivot column as far as the pivot allows: the active rows exactly
    (their entries there have valuation >= the pivot's, so the quotient is
    exact), the earlier pivot rows modulo p^val.
    """
    q, p = m.q, m.p
    open_cols = list(range(len(work[0]) if work else 0))
    active = list(range(len(work)))
    done: list[int] = []
    pivots: list[tuple[int, int]] = []
    while active:
        best = (q, 0, 0)  # (p^val, col, row); gcd(e, q) is p^val(e), and q stands for none
        for c in open_cols:
            for r in active:
                e = work[r][c]
                if e % p:
                    best = (1, c, r)
                    break
                if e % best[0]:  # nonzero, and of lower valuation than the best
                    best = (math.gcd(e, q), c, r)
            if best[0] == 1:
                break  # a unit in the leftmost eligible column cannot be beaten
        pv, c, r = best
        if pv == q:
            break
        row = work[r]
        if row[c] != pv:
            inv = m.unit_inverse(row[c] // pv)
            row = [(e * inv) % q for e in row]
        work[r] = row
        active.remove(r)
        for r2 in active + done:
            f = work[r2][c] // pv
            if f:
                work[r2] = [(a - f * b) % q for a, b in zip(work[r2], row)]
        done.append(r)
        pivots.append((c, m.val(pv)))
        open_cols.remove(c)
    return [work[r] for r in done], pivots


def subtype_type_k(subtype) -> Fraction:
    """The type k = sum_i (s - i) k_i / s of a code of subtype (k_0, ...,
    k_(s-1)), s = len(subtype), so that |C| = p^(s k)."""
    s = len(subtype)
    return Fraction(sum((s - i) * k for i, k in enumerate(subtype)), s)


def coefficient_grid(orders) -> np.ndarray:
    """Every coefficient tuple with entry i in [0, orders[i]), the last entry
    fastest and the zero tuple first; shape (prod(orders), len(orders))."""
    return np.indices(orders).reshape(len(orders), -1).T


def signed_half(orders) -> list[int]:
    """The orders with the first cut to [0, orders[0] // 2]: a prefix of
    coefficient_grid(orders) holding at least one tuple of each pair c, -c.

    For row orders, -c has coefficients (o_i - c_i) mod o_i, so c or -c has
    its first coefficient in the cut; the zero tuple stays first and alone.
    Negation keeps Lee and Hamming weights and order valuations, so the words
    of the cut grid have the same weight extremes as the whole span."""
    return [orders[0] // 2 + 1, *orders[1:]]


def word_table(orders, gens, q: int) -> np.ndarray:
    """The words sum_i c_i gens[i] mod q for every coefficient tuple c of
    coefficient_grid(orders), stored column-major: entry [j, w] is coordinate
    j of word w, shape (N, prod(orders)) for gens of shape (len(orders), N).

    Row i adds the outer sum with arange(orders[i]) * gens[i] mod q and is
    reduced at once, so no entry ever reaches 2q: the table is int16 when
    2q <= 2^15 and int64 otherwise, exact either way, with no product of the
    whole grid.  With the orders cut by signed_half, the table is the first
    columns of the full one and holds one word of each pair c, -c of the
    span, which carry the same weights, so it has the span's weight extremes."""
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


def _lee_sum_dtype(n: int, q: int):
    """The narrowest integer dtype that holds every sum of n Lee weights
    over Z/q, each at most q // 2; Hamming weights, at most n, fit too."""
    top = n * (q // 2)
    if top < 2**15:
        return np.int16
    if top < 2**31:
        return np.int32
    return np.int64


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


@dataclass(frozen=True)
class LinearCode:
    """A linear code with cached structural parameters.

    Immutable after construction; expensive codeword-derived facts are cached
    lazily and at most once.  Equality and hashing read (modulus, n, rows):
    the rows are the code's standard form, whatever generator it came from.
    """

    modulus: Modulus
    n: int
    rows: tuple[tuple[int, ...], ...]        # standard form rows, pivot order
    # (column, valuation) per row, and the generator as supplied (mod q)
    pivots: tuple[tuple[int, int], ...] = field(compare=False)
    given_rows: tuple[tuple[int, ...], ...] = field(compare=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_generator(cls, modulus: Modulus, rows, n: int | None = None) -> "LinearCode":
        """Build the row span of `rows`; redundant or zero rows are allowed.
        The entries, read mod q, and a given length n are integers; anything
        else, and a length below 1, given or inferred, raise ValueError."""
        q = modulus.q
        work = [[exact_int(e, "generator entry") % q for e in row] for row in rows]
        if n is None:
            if not work:
                raise ValueError("cannot infer length from an empty generator")
            n = len(work[0])
        n = exact_int(n, "the code length n =")
        if n < 1:
            raise ValueError(f"the code length n = {n} is below 1")
        if any(len(r) != n for r in work):
            raise ValueError("generator rows disagree with the code length")
        given = tuple(map(tuple, work))
        reduced, pivots = _row_reduce(modulus, work)
        return cls(modulus, n, tuple(map(tuple, reduced)), tuple(pivots), given)

    @classmethod
    def zero(cls, modulus: Modulus, n: int) -> "LinearCode":
        return cls.from_generator(modulus, [[0] * n])

    # -- parameters --------------------------------------------------------

    @cached_property
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

    @cached_property
    def type_k(self) -> Fraction:
        return subtype_type_k(self.subtype)

    @cached_property
    def cardinality(self) -> int:
        p, s = self.modulus.p, self.modulus.s
        return p ** sum((s - v) for _, v in self.pivots)

    @cached_property
    def row_orders(self) -> tuple[int, ...]:
        p, s = self.modulus.p, self.modulus.s
        return tuple(p ** (s - v) for _, v in self.pivots)

    # -- systematic form ---------------------------------------------------

    def systematic_form(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Column-permuted generator rows in block-triangular shape.

        Returns (rows, perm) where perm[j] is the original index of column j
        of the returned rows: pivot columns first in block order, then the
        remaining columns in ascending order.  The zero code gives a zero row.
        """
        pivot_cols = [c for c, _ in self.pivots]
        rest = [c for c in range(self.n) if c not in set(pivot_cols)]
        perm = tuple(pivot_cols + rest)
        rows = tuple(tuple(row[j] for j in perm) for row in self.rows)
        return rows or ((0,) * self.n,), perm

    # -- membership --------------------------------------------------------

    def contains(self, vec) -> bool:
        """Whether `vec` is a codeword: whether the standard form is kept when
        it joins the rows, read as from_generator reads them.  A RingVector
        over another modulus and a vector of another length raise ValueError."""
        if isinstance(vec, RingVector):
            if vec.modulus != self.modulus:
                raise ValueError(f"a vector over {vec.modulus} is no word of a code "
                                 f"over {self.modulus}")
            vec = vec.entries
        if len(vec) != self.n:
            raise ValueError("length mismatch")
        return LinearCode.from_generator(self.modulus, [*self.rows, vec], n=self.n) == self

    def is_subcode_of(self, other: "LinearCode") -> bool:
        """Whether other's standard form is kept when these rows join it."""
        rows = [*other.rows, *self.rows]
        return (self.modulus == other.modulus and self.n == other.n and
                LinearCode.from_generator(other.modulus, rows, n=self.n) == other)

    # -- codeword enumeration ----------------------------------------------

    def codewords(self):
        """Yield every codeword once, as RingVector, in mixed-radix row order."""
        for word in self.codeword_array().tolist():
            yield RingVector(self.modulus, tuple(word))

    def codeword_array(self) -> np.ndarray:
        """All codewords as a read-only (|C|, n) integer array in mixed-radix
        row order, the last row's coefficient fastest; built once per code."""
        check_codewords(self.cardinality, "code has")
        return self._codeword_array

    @cached_property
    def _codeword_array(self) -> np.ndarray:
        words = np.ascontiguousarray(self._word_table(self.row_orders).T, dtype=np.int64)
        words.flags.writeable = False
        return words

    def _word_table(self, orders) -> np.ndarray:
        """The words of the reduced rows for coefficient_grid(orders),
        column-major, shape (n, prod(orders))."""
        gen = np.array(self.rows, dtype=np.int64).reshape(self.rank, self.n)
        return word_table(orders, gen, self.modulus.q)

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(Lee, Hamming) weight of the words of the signed_half of the row
        orders: a prefix of codeword_array() that holds c or -c for every
        codeword c.  Both weights are the same on c and -c, so their extremes
        over the nonzero words are those of the code; the reduced rows with
        their orders reach each codeword once, so word 0 is the only zero
        word.  Both sums take _lee_sum_dtype(n, q), which holds n * (q // 2)
        and so every Lee and Hamming weight of length n."""
        table = self._word_table(signed_half(self.row_orders))
        q = self.modulus.q
        dtype = _lee_sum_dtype(self.n, q)
        hamming = (table != 0).sum(axis=0, dtype=dtype)
        np.minimum(table, q - table, out=table)
        return table.sum(axis=0, dtype=dtype), hamming

    @cached_property
    def codeword_profiles(self) -> np.ndarray:
        """The word_profiles of all codewords, in codeword_array() order."""
        return word_profiles(self.modulus, self.codeword_array())

    def _nonzero_weights(self) -> tuple[np.ndarray, np.ndarray]:
        if self.cardinality < 2:
            raise TrivialCodeError("the zero code has no minimum distance")
        check_codewords(self.cardinality, "code has")
        lee, hamming = self._weights
        return lee[1:], hamming[1:]

    @cached_property
    def _min_weights(self) -> tuple[int, int]:
        """(d_L, d_H); not cached while the checks of _nonzero_weights raise."""
        lee, hamming = self._nonzero_weights()
        return int(lee.min()), int(hamming.min())

    def min_lee_distance(self) -> int:
        return self._min_weights[0]

    def min_hamming_distance(self) -> int:
        return self._min_weights[1]

    # -- support and averages -----------------------------------------------

    def support_subtype(self) -> tuple[int, ...]:
        """Counts (n_0, ..., n_s) of coordinates by their projection ideal.

        The ideal of coordinate j is generated by p^v with v the minimal
        valuation of column j over the generator rows, read off as
        gcd(column, q) = p^v; the zero code has no rows, so all n
        coordinates are at level s.
        """
        m = self.modulus
        counts = [0] * (m.s + 1)
        if not self.rows:
            counts[m.s] = self.n
        for column in zip(*self.rows):
            counts[m.val(math.gcd(*column, m.q))] += 1
        return tuple(counts)

    def average_lee_weight(self) -> Fraction:
        """Mean Lee weight over the code, from the support subtype: a
        coordinate whose projection is the ideal generated by p^i runs
        uniformly over its p^(s-i) elements, so its mean weight is
        ideal_total_weight(i) / p^(s-i) = ideal_total_weight(i) p^i / q."""
        m = self.modulus
        ns = self.support_subtype()
        return Fraction(sum(ns[i] * ideal_total_weight(m, i) * m.p**i for i in range(m.s)), m.q)

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
        return LinearCode.from_generator(self.modulus, gens, n=self.n)

    def parity_check(self) -> tuple[tuple[int, ...], ...]:
        """The dual code's standard rows H, so that G . H^T = 0; one zero row
        when the dual is the zero code."""
        return self.dual().rows or ((0,) * self.n,)

    def dual(self) -> "LinearCode":
        """The dual code in standard form, solved by back-substitution over
        the code's right-to-left pivots; only the code's own rows are reduced.

        The rows are reduced with their columns reversed, so in the code's
        columns pivot t sits at col_t with entry p^(v_t) and is its row's
        rightmost entry of least valuation: at selection every active row had
        valuation > v_t right of col_t, and later clearing keeps that.  With
        u_t = row_t / p^(v_t), x lies in the dual iff x_(col_t) = -sum over
        j != col_t of u_t[j] x_j mod p^(s-v_t) for every t; row t is zero at
        the shallower pivot columns, so the pivots are solved deepest first.
        One row per free column j has x_j = 1 and the other free columns 0,
        with pivot (j, 0); one row per pivot t with v_t >= 1 has x_(col_t) =
        p^(s-v_t), the free columns and deeper pivots 0, with pivot (col_t,
        s-v_t), and all its entries are multiples of p^(s-v_t).  These are
        n-K+k_1+...+k_(s-1) rows, as many as the dual's standard form has (its
        type is (n-K, k_(s-1), ..., k_1), Norton and Salagean 2000), and
        sorted by (valuation, column) they are that form:

        - each entry solved at col_t is reduced modulo p^(s-v_t), the order
          of the dual pivot there, and each row is zero at the pivot columns
          of the rows before it: free columns, deeper pivots, or pivots of its
          own valuation w, solved modulo p^w from multiples of p^w;
        - no row has an entry of its own valuation w left of its pivot (for
          a free row, no unit left of its 1): by induction from the left,
          each x_(col_t) there sums terms u_t[j] x_j that lie right of col_t,
          where p divides u_t[j], or left of it, where p^(w+1) divides x_j.

        So _row_reduce would pick these pivots in this order and clear
        nothing: the dual's rows need no reduction of their own."""
        m = self.modulus
        q, p, s, n = m.q, m.p, m.s, self.n
        # the code's rows and pivots with the columns reversed: column c here
        # is column n-1-c of the code
        reduced, pivots = _row_reduce(m, [r[::-1] for r in self.rows])
        last = n - 1
        # per pivot, deepest first: its column, the order q/p^v of its entry,
        # its row over p^v and the nonzero (c', row[c']/p^v) at deeper pivots
        steps = []
        for t in range(len(pivots) - 1, -1, -1):
            c, v = pivots[t]
            pv = p**v
            u = reduced[t] if v == 0 else [e // pv for e in reduced[t]]
            steps.append((c, q // pv, u, [(j, u[j]) for j, _ in pivots[t + 1:] if u[j]]))
        pivot_cols = {c for c, _ in pivots}
        rows: list[tuple[int, ...]] = []
        dual_pivots: list[tuple[int, int]] = []
        # one row per free column, x_c0 = 1, by ascending column of the code;
        # x is zero at the other free columns, so u[c0] is its only term there
        for c0 in range(last, -1, -1):
            if c0 not in pivot_cols:
                x = [0] * n
                x[c0] = 1
                for c, order, u, terms in steps:
                    acc = u[c0]
                    for j, f in terms:
                        acc += f * x[j]
                    x[c] = -acc % order
                rows.append(tuple(x[::-1]))
                dual_pivots.append((last - c0, 0))
        # one row per pivot of valuation v >= 1, x_c = p^(s-v) with the free
        # columns and deeper pivots 0, by (s-v, column of the code)
        for w, col, c0, t in sorted((s - v, last - c, c, t)
                                    for t, (c, v) in enumerate(pivots) if v):
            x = [0] * n
            x[c0] = p**w
            for c, order, _, terms in steps[len(steps) - t:]:
                acc = 0
                for j, f in terms:
                    acc += f * x[j]
                x[c] = -acc % order
            rows.append(tuple(x[::-1]))
            dual_pivots.append((col, w))
        return LinearCode(m, n, tuple(rows), tuple(dual_pivots), tuple(rows) or ((0,) * n,))

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
        return LinearCode.from_generator(self.modulus, rows, n=self.n * ell)

    def __repr__(self):
        return (f"LinearCode({self.modulus}, n={self.n}, subtype={self.subtype}, "
                f"|C|={self.cardinality})")


# -- text code format ---------------------------------------------------------
#
# First line: "p s n"; each following non-comment line is one generator row of
# space-separated integers; '#' starts a comment line.


def parse_code_text(text: str) -> LinearCode:
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
    if n < 1:
        raise ValueError(f"the code length n = {n} is below 1 (line {lineno})")
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
    return LinearCode.from_generator(m, rows, n=n)


def format_code_text(code: LinearCode, comments: list[str] | None = None) -> str:
    m = code.modulus
    out = [f"{m.p} {m.s} {code.n}"]
    rows = code.given_rows if code.given_rows else ((0,) * code.n,)
    out.extend(" ".join(str(e) for e in row) for row in rows)
    out.extend(f"# {c}" for c in (comments or []))
    return "\n".join(out) + "\n"
