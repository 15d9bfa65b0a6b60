"""Exhaustive enumeration of linear codes of fixed (p, s, n, subtype).

Candidates are the standard (Hermite-type) generator matrices over the
chain ring Z/p^s: one placement of the pivot columns among the n positions
composed with one assignment of the reduced free entries (each entry is
reduced modulo the pivot below it, and the pivot is the leftmost entry of
least valuation in its row).  Every code of the subtype is generated exactly
once, so counts of candidates are counts of codes; reported optima are
still merged up to signed-permutation equivalence.

The scan itself is vectorised, and the Lee weight of the word cG is summed
column by column, as each term wt_L(<c, col>) depends on its column alone.
Within one pivot placement each column runs over the options of its own
free entries, independently of the rest (a block-1 pivot column, the unit
column e_t, has one option), so the placement's Lee sums are an outer sum
of one small table per column: one broadcast add per column, each partial
sum formed once.  The tables come from one exact integer word_table per
space over the distinct column patterns, cut by signed_half to one word of
each pair c, -c.  Placements are batched into capped chunks, and a
placement past the cap is cut into runs of consecutive codes.

A code's index in generator order is the one handle on it.  The scan yields
each chunk's distances with the index of its first code, callers keep the
indices of the codes they want, and one decoder, _generators, maps indices
to generators through the placement layout each space builds once, so only
kept codes are decoded.

Optima and attainers are merged straight from the kept generators: the
scan emits standard forms, so each code is keyed by its generator, and one
batched exact row reduction gives the keys of the codes' images under two
generators of the signed-permutation group, each looked up among the codes'
keys.  A key is K n entries, exact for every modulus.  The two moves are
built once per length, and the reduction scales its pivot rows by unit
inverses taken as powers, with no sort of the units.

Every target is an interval [lo, hi] of d_L: the attainment range of a Lee
bound (_spans), Shiromoto's ceiling form from its floor up to n M, the
largest Lee weight of a word, or the census's running maximum.  The
characterization sweep takes one interval per space, counts its codes, and
where the space is kept decodes them and hands the check their classes.  A
characterization's predicted family is a filter on its target plus the
named witnesses of catalog_mld: a space the theorem allows whole is counted
but not kept, and a class kept elsewhere is named when its root equals a
witness.  The kept set of a whole space is closed under the group, and its
orbit components are its classes.  Each class root, the first code of its
class in generator order as every witness is, is built from its standard
generator as it stands, which is the form LinearCode keeps, so no root is
reduced twice.  signed_perm_equivalent and dedup_codes are plain pairwise
references that no library path calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .bounds import (BOUNDS, CodeParams, _cell_fields, _check_subtype, _in_range,
                     attainment_check, type_form_max_d)
from .codes import (BudgetError, LinearCode, _lee_sum_dtype, check_codewords, signed_half,
                    word_profiles, word_table)
from .constructions import catalog_mld
from .ring import Modulus

CENSUS_BUDGET = 10**8
ENUMERATION_CHUNK = 4096      # generators decoded, or rank-2 check scalars, at a time
SCAN_CHUNK_CELLS = 16_000_000  # scan_space chunks: this // (width * n) codes, width Lee sums each
EQUIVALENCE_CAP = 500_000     # generator tuples one equivalence check may walk

__all__ = [
    "SearchSpace",
    "CensusResult",
    "enumerate_codes",
    "scan_space",
    "max_lee_distance_census",
    "find_attaining_codes",
    "verify_mds_socle",
    "check_characterization",
    "signed_perm_equivalent",
    "dedup_codes",
    "all_subtypes",
]


@dataclass(frozen=True)
class SearchSpace:
    """One exhaustive family: every linear code over `modulus` of length n
    with the given subtype."""

    modulus: Modulus
    n: int
    subtype: tuple[int, ...]
    budget: int = field(default=CENSUS_BUDGET, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subtype", _check_subtype(self.modulus, self.n, self.subtype))

    @property
    def rank(self) -> int:
        return sum(self.subtype)

    @functools.cached_property
    def params(self) -> CodeParams:
        return CodeParams.from_subtype(self.modulus, self.n, self.subtype)

    @functools.cached_property
    def layout(self) -> tuple:
        """The (base, slots) of _placement_slots for each placement in
        turn, built once per space: the scan and the decoder read it."""
        return tuple(_placement_slots(self, placement) for placement in self.placements())

    def placements(self):
        """All assignments of pivot-column sets to blocks, deterministic order."""
        def rec(avail: tuple[int, ...], blocks: tuple[int, ...]):
            if not blocks:
                yield ()
                return
            k = blocks[0]
            for cols in itertools.combinations(avail, k):
                rest = tuple(c for c in avail if c not in cols)
                for tail in rec(rest, blocks[1:]):
                    yield (cols,) + tail
        yield from rec(tuple(range(self.n)), self.subtype)

    def candidate_count(self) -> int:
        """Number of codes of the subtype, which the scan generates once each:
        p^(sum_{i<s} K_i (n - K_{i+1})) times the Gaussian multinomial
        [n; k_1, ..., k_s, n - K]_p, where K_i = k_1 + ... + k_i."""
        p, n = self.modulus.p, self.n

        def q_factorial(m: int) -> int:
            return math.prod(p ** t - 1 for t in range(1, m + 1))

        partial = list(itertools.accumulate(self.subtype))
        exponent = sum(K_i * (n - K_next) for K_i, K_next in zip(partial, partial[1:]))
        denominator = q_factorial(n - self.rank)
        for k in self.subtype:
            denominator *= q_factorial(k)
        return p ** exponent * (q_factorial(n) // denominator)

    def check_budget(self):
        count = self.candidate_count()
        if count > self.budget:
            raise BudgetError(
                f"space {self} has {count} codes, over the "
                f"census budget of {self.budget}")

    def __str__(self):
        return f"({self.modulus}, n={self.n}, subtype={self.subtype})"


def _placement_slots(space: SearchSpace, placement):
    """Base matrix and free-entry slots (row, col, scale, radix) for one
    placement, slots in (row, col) order.

    A block-i row has pivot p^(i-1) at its column a.  Column b carries the
    letter j of the block pivoting there, or s+1 if no block does.  For j <= i
    the entry is 0; for j > i it is p^(i-1) * x with x in [0, p^(j-i)), i.e.
    reduced modulo the pivot below it, and x is a multiple of p when b < a, so
    the pivot is the row's leftmost entry of least valuation.  These are the
    standard forms over the chain ring, one per code; slots of radix 1 are
    dropped."""
    p, s = space.modulus.p, space.modulus.s
    K, n = space.rank, space.n
    letter = [s + 1] * n
    for i, cols in enumerate(placement, start=1):
        for c in cols:
            letter[c] = i
    base = np.zeros((max(K, 1), n), dtype=np.int64)
    slots = []
    row = 0
    for i, cols in enumerate(placement, start=1):
        for a in cols:
            base[row, a] = p ** (i - 1)
            for b in range(n):
                if letter[b] <= i:
                    continue
                left = int(b < a)
                radix = p ** (letter[b] - i - left)
                if radix > 1:
                    slots.append((row, b, p ** (i - 1 + left), radix))
            row += 1
    return base, slots


def _decode(base: np.ndarray, slots, rem: np.ndarray) -> np.ndarray:
    """The generators of one placement at its code indices `rem`, each index
    read in mixed radix over the slots' radices, the last slot fastest:
    shape (len(rem), K, n), int64."""
    G = np.repeat(base[None], len(rem), axis=0)
    for (row, col, scale, radix) in reversed(slots):
        G[:, row, col] = (rem % radix) * scale   # below p^s = q
        rem = rem // radix
    return G


def _generators(space: SearchSpace, index: np.ndarray) -> np.ndarray:
    """The standard generators of the codes at `index`, a 1-D int array of
    positions in generator order, in the order given: shape (len(index), K,
    n), int64.  Generator order runs placement by placement, as the layout
    lists them, and within a placement in the mixed radix of _decode."""
    if not len(index):   # most selections keep nothing
        return np.empty((0, space.rank, space.n), dtype=np.int64)
    layout = space.layout
    counts = [math.prod(radix for *_, radix in slots) for _, slots in layout]
    ends = np.cumsum(counts)
    placement = np.searchsorted(ends, index, side="right")
    G = np.empty((len(index), *layout[0][0].shape), dtype=np.int64)
    for r in np.flatnonzero(np.bincount(placement, minlength=len(layout))):
        base, slots = layout[r]
        pick = placement == r
        G[pick] = _decode(base, slots, index[pick] - (ends[r] - counts[r]))
    return G


def _generator_chunks(space: SearchSpace, chunk: int):
    """Yield the standard generators of the space in generator order, as
    (B, K, n) tensors of at most `chunk` each.  The zero-code space yields
    one all-zero (1, 1, n) generator."""
    space.check_budget()
    total = space.candidate_count()
    for start in range(0, total, chunk):
        yield _generators(space, np.arange(start, min(start + chunk, total)))


def enumerate_codes(space: SearchSpace):
    """Yield every code of the subtype exactly once, as LinearCode."""
    for G in _generator_chunks(space, ENUMERATION_CHUNK):
        for g in G:
            yield LinearCode.from_generator(space.modulus, g.tolist(), n=space.n)


def _space_orders(space: SearchSpace) -> list[int]:
    """The orders of the space's standard generator rows: row i of block j
    takes p^(s+1-j) coefficients, so word_table lists each codeword of the
    code once.  Codes of more codewords than the enumeration budget raise
    BudgetError through check_codewords, as codeword_array does."""
    p, s = space.modulus.p, space.modulus.s
    orders = [p ** (s + 1 - i) for i, k in enumerate(space.subtype, start=1) for _ in range(k)]
    check_codewords(math.prod(orders), "codes of {} have", space)
    return orders


def _placement_columns(base: np.ndarray, slots):
    """The columns of one placement as (options, pattern, slot indices),
    fewest options first.  A pattern is the column's base entries with the
    (row, scale, radix) of each of its slots, in row order; its options, the
    product of those radices, are the column's entries in the placement's
    codes."""
    at = [[] for _ in range(base.shape[1])]
    own = [[] for _ in range(base.shape[1])]
    for i, (row, col, scale, radix) in enumerate(slots):
        at[col].append(i)
        own[col].append((row, scale, radix))
    columns = []
    for b, entries in enumerate(base.T.tolist()):
        options = 1
        for _, _, radix in own[b]:
            options *= radix
        columns.append((options, (tuple(entries), tuple(own[b])), at[b]))
    columns.sort(key=itemgetter(0))
    return columns


def _pattern_columns(K: int, patterns) -> np.ndarray:
    """The columns of each (pattern, ranges) of `patterns` in turn, the
    pattern's slot digits running over its ranges, one (lo, hi) per slot, the
    last slot fastest: shape (N, K).  A column has at most one slot per row,
    so row k of the j-th column of a pattern is its base entry plus
    (lo + (j // stride) % size) times the scale of its row-k slot."""
    counts, rows, start = [], [], 0
    for (entries, slots), ranges in patterns:
        count = math.prod(hi - lo for lo, hi in ranges)
        # (lo, size, stride, scale, first column) of each row's slot
        step = [(0, 1, 1, 0, start)] * K
        stride = count
        for (row, scale, _), (lo, hi) in zip(slots, ranges):
            stride //= hi - lo
            step[row] = (lo, hi - lo, stride, scale, start)
        counts.append(count)
        rows.append([[entry, *fields] for entry, fields in zip(entries, step)])
        start += count
    rows = np.repeat(np.array(rows, dtype=np.int64), counts, axis=0)
    entry, lo, size, stride, scale, first = rows.transpose(2, 0, 1)
    j = np.arange(start)[:, None] - first
    return entry + (lo + j // stride % size) * scale


def _boxes(radices, cap: int):
    """Split the codes of one placement, indexed in mixed radix over the
    slots' `radices` (the last fastest), into boxes of at most `cap` codes,
    each a (lo, hi) digit range per slot.  A placement of at most `cap`
    codes is one box.  A larger one takes the longest run of last slots
    that fits whole, steps the slot before it in ranges that fit, and fixes
    the digits of the slots before that, so each box is a run of consecutive
    codes."""
    whole = [(0, radix) for radix in radices]
    free, tail = len(radices), 1
    while free and tail * radices[free - 1] <= cap:
        free -= 1
        tail *= radices[free]
    if not free:
        yield whole
        return
    split, step = free - 1, cap // tail
    for lead in itertools.product(*map(range, radices[:split])):
        for lo in range(0, radices[split], step):
            yield ([(x, x + 1) for x in lead] + [(lo, min(lo + step, radices[split]))]
                   + whole[free:])


def _outer_sums(tables) -> np.ndarray:
    """The sum of one row of each table (r_j, w), over every choice of rows,
    the first table's row slowest: shape (prod r_j, w).  Each add broadcasts
    the sums over a prefix of the tables against the next table's rows, so
    every partial sum is formed once."""
    lee = tables[0]
    for table in tables[1:]:
        lee = (lee[:, None] + table).reshape(-1, lee.shape[1])
    return lee


def scan_space(space: SearchSpace):
    """Yield (start, d) for each chunk of the space, in generator order:
    d holds the minimum Lee distances (B,), int64, of the B codes at indices
    start, ..., start + B - 1, so start is the number of codes the chunks
    before it held.  _generators(space, start + np.flatnonzero(mask))
    decodes the codes a mask of d keeps.

    d_L(cG) is the sum over the columns of wt_L(<c, col>), each term fixed by
    its column alone.  Within one pivot placement every column runs over its
    slots' options independently of the rest, so the placement's Lee sums
    are an outer sum of one small table per column.  The columns' patterns
    (base entries and slots) repeat across placements, and one exact integer
    word_table per space, cut by signed_half, weighs each option of each
    distinct pattern once, fewest options first, up to the chunk cap in rows;
    a pattern past that is weighed per box instead, so no table outgrows a
    chunk.  Each placement adds its columns' tables in one broadcast each,
    fewest options first (a slotless column, such as the unit column e_t of
    a block-1 pivot, is one row), takes the least nonzero weight of each
    code, and transposes the slot axes back to generator order.  The words
    kept hold c or -c for every codeword c, of the same Lee weight, so their
    least nonzero weight is d_L.  Placements are batched into chunks of at
    most SCAN_CHUNK_CELLS // (width * n) codes, and a larger placement is
    cut into boxes of consecutive codes, so no chunk forms more Lee sums
    than that many codes times the signed-half width."""
    q, K, n = space.modulus.q, space.rank, space.n
    if K == 0:
        raise ValueError("the zero-code space has no minimum distance")
    orders = signed_half(_space_orders(space))
    width = math.prod(orders)
    dtype = _lee_sum_dtype(n, q)
    space.check_budget()
    cap = max(1, SCAN_CHUNK_CELLS // (width * n))

    def lee_rows(selection):
        words = word_table(orders, _pattern_columns(K, selection).T, q)   # (columns, width)
        np.minimum(words, q - words, out=words)
        return words.astype(dtype, copy=False)

    layouts, patterns = [], {}   # pattern -> options
    for base, slots in space.layout:
        columns = _placement_columns(base, slots)
        for options, pattern, _ in columns:
            patterns[pattern] = options
        order = [i for *_, at in columns for i in at]   # the slots in column order
        radices = [radix for *_, radix in slots]
        axes = sorted(range(len(order)), key=order.__getitem__)
        layouts.append((columns, radices, math.prod(radices), order,
                        None if axes == list(range(len(axes))) else axes))
    # the patterns of fewest options, up to `cap` options in all, share one table
    held, rows = [], 0
    for options, pattern in sorted((options, pattern) for pattern, options in patterns.items()):
        if rows + options > cap:
            break
        held.append((pattern, rows, rows + options))
        rows += options
    tables = {}
    if held:
        table = lee_rows([(pattern, [(0, radix) for *_, radix in pattern[1]])
                          for pattern, _, _ in held])
        tables = {pattern: table[lo:hi] for pattern, lo, hi in held}

    start, parts, fill = 0, [], 0
    for columns, radices, total, order, axes in layouts:
        full = [tables.get(pattern) for _, pattern, _ in columns]
        whole = total <= cap and all(table is not None for table in full)
        # a column outside the shared table is weighed per box, and its rows
        # are kept while the next boxes of the placement share its digit ranges
        built = {}
        for box in [None] if whole else _boxes(radices, cap):
            if box is None:
                sizes, count, column_tables = radices, total, full
            else:
                sizes = [hi - lo for lo, hi in box]
                count = math.prod(sizes)
                column_tables = []
                for j, (_, pattern, at) in enumerate(columns):
                    ranges = [box[i] for i in at]
                    if pattern in tables:   # the box's rows of the pattern's options
                        table = tables[pattern].reshape(*(r for *_, r in pattern[1]), width)
                        table = table[tuple(itertools.starmap(slice, ranges))].reshape(-1, width)
                    elif j in built and built[j][0] == ranges:
                        table = built[j][1]
                    else:
                        table = lee_rows([(pattern, ranges)])
                        built[j] = ranges, table
                    column_tables.append(table)
            if fill + count > cap:
                yield start, np.concatenate(parts, dtype=np.int64)
                start, parts, fill = start + fill, [], 0
            d = _outer_sums(column_tables)[:, 1:].min(axis=1)
            if axes is not None:   # from column order back to slot order
                d = d.reshape([sizes[i] for i in order]).transpose(axes).reshape(-1)
            parts.append(d)
            fill += count
    yield start, np.concatenate(parts, dtype=np.int64)


@dataclass
class CensusResult:
    """The census of one space: its largest d_L, one optimal code per
    signed-permutation class, the number of codes examined, and per Lee bound
    that applies to the space, the number of codes (not classes) attaining it."""

    space: SearchSpace
    max_d: int
    optimal_codes: list[LinearCode]
    examined: int
    attainment_counts: dict[str, int]

    def to_json(self) -> str:
        m = self.space.modulus
        doc = {
            "version": 2,
            "space": {"p": m.p, "s": m.s, "n": self.space.n,
                      "subtype": list(self.space.subtype)},
            "max_lee_distance": self.max_d,
            "codes_examined": self.examined,
            "optimal_generators": [[list(r) for r in c.rows] for c in self.optimal_codes],
            "bound_attainment_counts": dict(sorted(self.attainment_counts.items())),
        }
        return json.dumps(doc, indent=2)


def _cells(space: SearchSpace):
    """The bound cells of the space's parameters, cached per (modulus, n,
    subtype): per bound id, its row (value, floored, applicable, stated, span)."""
    return _cell_fields(space.modulus, space.n, space.subtype)


def _spans(space: SearchSpace) -> dict[str, tuple[int, int]]:
    """The attainment range (lo, hi) of d_L of every Lee bound that applies
    to the space, per bound id in BOUNDS order, read from its cached cells."""
    return {name: (lo, hi) for name, (_, _, _, _, span) in _cells(space).items()
            if span is not None for hamming, lo, hi in [span] if not hamming}


def max_lee_distance_census(space: SearchSpace) -> CensusResult:
    """True maximal minimum Lee distance over the space, with the optimal
    codes retained (deduplicated up to signed-permutation equivalence).

    Counts are over codes: the enumeration generates each code of the space
    exactly once.  Each chunk's sorted distances are counted below the edges
    lo and hi + 1 of every applicable Lee bound's attainment range [lo, hi]
    in one searchsorted, so a count is the difference of two running tallies.
    """
    spans = _spans(space)
    edges = np.array([(lo, hi + 1) for lo, hi in spans.values()], dtype=np.int64).reshape(-1)
    below = np.zeros(len(edges), dtype=np.int64)   # codes of d_L below each edge
    examined, max_d = 0, -1
    best = []   # indices of the codes at max_d, decoded at the end
    for start, d in scan_space(space):
        examined += len(d)
        below += np.searchsorted(np.sort(d), edges)
        top = int(d.max())
        if top > max_d:
            max_d = top
            best = []
        if top == max_d:
            best.append(start + np.flatnonzero(d == max_d))
    codes = _dedup_generators(space, _generators(space, np.concatenate(best)))
    counts = dict(zip(spans, (below[1::2] - below[::2]).tolist()))
    return CensusResult(space, max_d, codes, examined, counts)


def find_attaining_codes(space: SearchSpace, bound_id: str) -> list[LinearCode]:
    """All codes of the space attaining the Lee bound, one representative per
    signed-permutation equivalence class, in generator order.  An unknown
    bound id, a bound on the Hamming distance and a Lee bound inapplicable to
    the space each raise ValueError, each with its own reason."""
    bound = BOUNDS.get(bound_id)
    if bound is None:
        raise ValueError(f"unknown bound id {bound_id!r}")
    if bound.hamming:
        raise ValueError(f"bound {bound_id!r} bounds the Hamming distance, "
                         "and find_attaining_codes scans Lee bounds only")
    for _, _, classes, _, _ in _sweep([space], _bound_target(bound_id)):
        return classes
    raise ValueError(f"bound {bound_id!r} not applicable to {space}")


# -- equivalence ---------------------------------------------------------------

def signed_perm_equivalent(a: LinearCode, b: LinearCode) -> bool:
    """Equivalence under coordinate permutations composed with sign flips.

    Codes that differ in modulus, length, subtype (so in cardinality) or
    support subtype are rejected before any codeword is listed, and equal
    codes (equal standard rows) are accepted.  Codes with different
    invariant keys are never equivalent.  Otherwise they are equivalent iff
    some tuple of codewords of `b`, each with the profile of the matching
    standard row of `a`, has the same sorted sign-canonical columns
    (min(col, -col) per column) as those rows, as such a tuple generates all
    of `b`.  The pool sizes are read from the profile masks, and more than
    EQUIVALENCE_CAP tuples raise BudgetError before any pool is listed.
    This is a plain reference for the tests: the library classes codes by
    the orbit walk of _dedup_generators, and names witnesses by equality.
    """
    if (a.modulus, a.n, a.subtype, a.support_subtype()) != \
            (b.modulus, b.n, b.subtype, b.support_subtype()):
        return False
    if a == b:
        return True
    if a.invariant_key != b.invariant_key:
        return False
    q = a.modulus.q
    profiles = word_profiles(a.modulus, np.array(a.rows, dtype=np.int64))
    match = (profiles[:, None, :] == b.codeword_profiles[None, :, :]).all(axis=2)
    total = math.prod(np.count_nonzero(mask) for mask in match)
    if total > EQUIVALENCE_CAP:
        raise BudgetError(f"equivalence search space too large ({total} tuples)")
    pools = [b.codeword_array()[mask].tolist() for mask in match]

    def columns(words):
        return sorted(min(col, tuple(-e % q for e in col)) for col in zip(*words))

    # a match is a signed permutation of a's rows inside b, so it spans
    # |a| = |b| codewords: all of b
    target = columns(a.rows)
    return any(columns(words) == target for words in itertools.product(*pools))


def dedup_codes(codes: list[LinearCode]) -> list[LinearCode]:
    """One representative per signed-permutation class, preserving order:
    the first-seen member of each class, in input order, each code compared
    with signed_perm_equivalent against the representatives kept before it.

    This is the pairwise reference for lists that need not be closed under
    the group, and the tests' oracle for the orbit walk: the scans' optima
    and attainers are closed, and go through _dedup_generators."""
    unique: list[LinearCode] = []
    for c in codes:
        if not any(signed_perm_equivalent(c, u) for u in unique):
            unique.append(c)
    return unique


def _unit_inverses(m: Modulus, u: np.ndarray) -> np.ndarray:
    """The inverse modulo q of each unit of the int64 array u, entries in
    [0, q): u^(phi(q) - 1) with phi(q) = p^(s-1) (p - 1), by square and
    multiply over the exponent's bits, O(len(u) log q) with no sort and no
    Python loop per entry.  Every product is of two residues below q <=
    2^31, so below 2^62."""
    q, e = m.q, m.p ** (m.s - 1) * (m.p - 1) - 1
    inverse = np.ones_like(u)
    while e:
        if e & 1:
            inverse = inverse * u % q
        e >>= 1
        if e:
            u = u * u % q
    return inverse


def _pivot_valuations(space: SearchSpace) -> list[int]:
    """The valuation v_t of each row's pivot that the subtype fixes: k_1
    rows at 0, then k_2 rows at 1, ..."""
    return [v for v, k in enumerate(space.subtype) for _ in range(k)]


def _standard_forms(space: SearchSpace, G: np.ndarray) -> np.ndarray:
    """The standard generator of the code generated by each G[i] of G (N, K,
    n), the one the scan emits for it: shape (N, K, n), int64.

    Row t pivots at the valuation v_t the subtype fixes.  Step t takes the
    leftmost column that holds an entry of valuation exactly v_t in rows
    t.., and the first such row.  It moves that row to t, scales it by the
    unit inverses of _unit_inverses (no sort of the units) so that the pivot
    is p^v_t, and subtracts f = e // p^v_t times it from every other row, e
    being that row's entry at the column: the rows after t are multiples of
    p^v_t, so they clear there, and the rows before t are left reduced
    modulo p^v_t.  Entries stay below q <= 2^31, so every product is below
    2^62.  The batch is reduced in a C-contiguous copy, whatever the layout
    it comes in.  A code whose subtype is not the space's raises ValueError."""
    p, q, K, n = space.modulus.p, space.modulus.q, space.rank, space.n
    G = np.asarray(G, dtype=np.int64)
    if G.ndim != 3 or G.shape[1:] != (K, n):
        raise ValueError(f"generators of {space} have shape (N, {K}, {n}), not {G.shape}")
    G = np.remainder(G, q, order="C")
    at = np.arange(len(G))
    valuations = _pivot_valuations(space)
    for t, v in enumerate(valuations):
        pivot = p ** v
        rest = G[:, t:]
        # entries of valuation exactly v, column by column: the first is the
        # leftmost column's first row
        exact = (rest % (pivot * p) != 0).transpose(0, 2, 1).reshape(len(G), -1)
        first = exact.argmax(axis=1)
        if (pivot > 1 and (rest % pivot).any()) or not exact[at, first].all():
            raise ValueError(f"a code has no row of valuation {v} left at row {t}, "
                             f"so its subtype is not {space.subtype}")
        col, row = np.divmod(first, len(valuations) - t)
        row += t
        top = G[at, row]
        G[at, row] = G[:, t]
        unit = top[at, col] // pivot
        scale = unit != 1
        if scale.any():
            top[scale] = top[scale] * _unit_inverses(space.modulus, unit[scale])[:, None] % q
        G[:, t] = top
        f = G[at, :, col] // pivot
        f[:, t] = 0
        G -= f[:, :, None] * top[:, None, :]
        G %= q
    return G


@functools.lru_cache(maxsize=None)
def _group_moves(n: int):
    """tau = (0 1) and sigma', which moves coordinate j to j + 1 and n - 1 to
    0 with its sign flipped, as (perm, sign) arrays: the image of
    generators G is G[..., perm] * sign.  At n = 1 only sigma', the global
    sign, is left.  The moves are built once per length and shared, so their
    arrays are read-only."""
    sign = np.ones(n, dtype=np.int64)
    sign[0] = -1
    moves = [(np.array([1, 0, *range(2, n)]), np.ones(n, dtype=np.int64))] * (n > 1)
    moves.append((np.array([n - 1, *range(n - 1)]), sign))
    for move in moves:
        for array in move:
            array.flags.writeable = False
    return tuple(moves)


def _orbit_labels(space: SearchSpace, G: np.ndarray) -> np.ndarray:
    """For each of the distinct codes generated by G (B, K, n), the least
    index of a code it is joined to by a chain of the _group_moves.

    These generate the signed-permutation group: conjugating tau by powers
    of sigma' gives every adjacent transposition, so the n-cycle sigma is in
    the group, and sigma' sigma^-1 is one sign flip.  A code's key is the
    byte view of its standard form, K n entries; the input must hold
    standard generators, as the scan emits, so its keys are G % q and only
    the 2B images are reduced, in one batch, and looked up among the sorted
    input keys.  The moves are built once per length and shared by every
    walk of that length.  The input must be closed under the group, so that
    each component is one class; a missing image, or a generator not in
    standard form, raises ValueError.  Each move's lookup is then a
    permutation `step` of the input, and a finite group's inverses are
    positive powers, so forward steps reach a whole class.  The walk lowers
    each label to the label one step ahead, for both steps, then follows
    labels to their labels, until nothing changes: labels then never rise
    along a step, so they are constant on each class, and the least index
    keeps its own."""
    q, B, moves = space.modulus.q, len(G), _group_moves(space.n)
    images = _standard_forms(space, np.concatenate([G[:, :, perm] * sign for perm, sign in moves]))
    own, images = (k.astype(np.min_scalar_type(q - 1), order="C").reshape(len(k), -1)
                   for k in (G % q, images))
    own, images = (k.view(np.dtype((np.void, k.shape[1] * k.itemsize))).ravel()
                   for k in (own, images))
    order = np.argsort(own, kind="stable")
    own = own[order]
    pos = np.minimum(np.searchsorted(own, images), B - 1)
    missing = np.count_nonzero(own[pos] != images)
    if missing:
        raise ValueError(f"{missing} images of codes of {space} fall outside the input, "
                         "which is not closed under the group or not in standard form")
    steps = order[pos].reshape(len(moves), B)
    label = np.arange(B)
    while True:
        new = label
        for step in steps:
            new = np.minimum(new, new[step])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _dedup_generators(space: SearchSpace, G: np.ndarray) -> list[LinearCode]:
    """One code per signed-permutation class of the distinct codes generated
    by G (B, K, n), the first of each class in input order, as dedup_codes
    gives.

    The input must be closed under the group, as the optimal or attaining
    codes of a whole space are: its classes are then the components of
    _orbit_labels, and a LinearCode is built for each component's least
    index only, by _standard_codes straight from its standard generator.
    The standard-form keys are exact for every modulus."""
    B = len(G)
    roots = np.flatnonzero(_orbit_labels(space, G) == np.arange(B)) if B > 1 else slice(None)
    return _standard_codes(space, G[roots])


def _standard_codes(space: SearchSpace, G: np.ndarray) -> list[LinearCode]:
    """The LinearCode of each standard generator of G (B, K, n), as the scan
    emits them, with no second row reduction: a standard generator is the
    form codes._row_reduce gives its code, so it gives both the rows and the
    given rows, and row t pivots at its first entry of valuation v_t, the
    valuation the subtype fixes for it, as in _standard_forms.  Nothing here
    checks the form: a generator that is not standard gets rows that are not
    the code's standard form, so its code equals no code from_generator
    builds, and only the orbit walk, on two codes or more, refuses one."""
    if not len(G):   # most sweep targets keep no code in a space
        return []
    m, n, valuations = space.modulus, space.n, _pivot_valuations(space)
    above = m.p ** (np.array(valuations, dtype=np.int64) + 1)   # p^(v_t + 1) per row
    cols = (G % above[:, None] != 0).argmax(axis=2)
    codes = []
    for g, c in zip(G.tolist(), cols.tolist()):
        rows = tuple(map(tuple, g))
        codes.append(LinearCode(m, n, rows, tuple(zip(c, valuations)), rows))
    return codes


# -- socle MDS -----------------------------------------------------------------

def verify_mds_socle(code: LinearCode) -> bool:
    """Whether the socle, read as a length-n dimension-K code over F_p, has
    Hamming distance n - K + 1."""
    soc = code.socle()
    return soc.rank > 0 and soc.min_hamming_distance() == code.n - soc.rank + 1


# -- characterization checks -----------------------------------------------------

def all_subtypes(m: Modulus, n: int):
    """All subtype tuples with 1 <= K <= n, ascending lexicographic."""
    for combo in itertools.product(range(n + 1), repeat=m.s):
        if 1 <= sum(combo) <= n:
            yield combo


def _spaces(rings, n_max: int, budget: int):
    """Every space of every ring, n = 1..n_max and each subtype of
    all_subtypes, in that order."""
    return (SearchSpace(m, n, subtype, budget)
            for m in rings for n in range(1, n_max + 1) for subtype in all_subtypes(m, n))


def _sweep(spaces, target):
    """Scan each of `spaces` once, in order.  `target(space)` is (lo, hi,
    keep), one interval of d_L and whether its codes are kept, or None to
    skip the space.  Yields (space, count, classes, examined, max_d): count
    is the number of codes with lo <= d_L <= hi, and classes holds one code
    per signed-permutation class of them, from _dedup_generators, where keep
    holds and is [] elsewhere, so a space that is only counted decodes no
    generator and is never classed."""
    for space in spaces:
        span = target(space)
        if span is None:
            continue
        lo, hi, keep = span
        kept, count, examined, max_d = [], 0, 0, 0
        for start, d in scan_space(space):
            examined += len(d)
            max_d = max(max_d, int(d.max()))
            hit = _in_range(lo, hi, d)
            count += int(np.count_nonzero(hit))
            if keep:
                kept.append(start + np.flatnonzero(hit))
        classes = (_dedup_generators(space, _generators(space, np.concatenate(kept)))
                   if keep else [])
        yield space, count, classes, examined, max_d


def _bound_target(bound_id: str, allowed=lambda space: False):
    """The sweep target of one Lee bound: None where it does not apply (the
    space is skipped), and otherwise its attainment range, counted on every
    space but kept only where `allowed(space)` fails, so a space the theorem
    allows whole keeps no code and none of its codes is classed."""
    def target(space):
        span = _spans(space).get(bound_id)
        return None if span is None else (*span, not allowed(space))
    return target


def _verdict(extra, missing=()) -> str:
    return "EXTRA" if extra else ("MISSING" if missing else "EQUAL")


def _catalogs(rings, n_max: int) -> dict:
    """The named witnesses, catalog_mld, of each ring at each length 1..n_max."""
    return {(m, n): catalog_mld(m, n) for m in rings for n in range(1, n_max + 1)}


def _check_shiromoto(rings, n_max, budget) -> dict:
    """Attainers of the Shiromoto bound in its original type form, i.e. codes
    with d_L > M(n - k) for the exact rational type k.

    The printed ceiling form floor((d-1)/M) <= n - ceil(k) admits further
    attainers once M >= 3 (socle repetition codes such as <(3,3)> over Z/9,
    whose minimal-weight words carry no entry of weight M); those fall
    outside the claimed family and are reported separately in
    `ceiling_form_extras` rather than as violations.  The family is the
    ambient and full-ceiling-rank codes, which are the whole of the spaces
    of ceil(k) = n (that forces K = n), and the named witnesses of
    catalog_mld, each of which must itself attain the strict form or is
    listed as missing.  A space of ceil(k) = n is scanned and counted but
    keeps no code.

    Each space is swept once over one interval, from the ceiling form's
    floor M(n - ceil(k)) + 1 up to n M, the largest Lee weight of a word, so
    it also keeps a code that broke the bound.  The strict floor
    floor(M(n - k)) + 1 lies between the ceiling floor and the ceiling top
    M(n - ceil(k) + 1) plus one, so this interval is the union of the two
    forms' ranges.  A class root that is no witness is extra when its d_L
    reaches the strict floor, and a ceiling-form extra when its d_L is at
    most the ceiling top, so it may be both.  Equivalent codes share d_L,
    so each class lies whole in a list.

    The theorem also names the codes over p = 2 of rank K = ceil(k) = n - 1,
    k not an integer, and d_L = q; the only one is <(M, M)>, the witness
    catalog_mld(m, 2)[0], so the catalog filter covers them.  Proof: s >= 2,
    as k is an integer for s = 1, and n = K + 1 >= 2.  With k_v the number
    of generator rows of valuation v, 0 < K - k = sum v k_v / s < 1, so
    k_(s-1) <= 1.  The socle {c : 2c = 0}, of dimension K, is M D for a
    binary [n, n - 1] code D whose words weigh at least d_L / M = 2, so D is
    the even-weight code E_n.  A word c with 4c = 0 but 2c != 0 has entries
    in {0, +-M/2, M}, and 2c = M x with x the support of its +-M/2 entries.
    Adding M e, for e in E_n the support of its M entries plus, if that is
    odd, one of its +-M/2 entries, leaves a word of the code with entries in
    {0, +-M/2} only, so d_L = 2M gives wt(x) >= 4.  These x form a binary
    code of dimension K - k_(s-1) >= n - 2 and minimum weight at least 4;
    punctured once it is an [n - 1, n - 2, >= 3] code, and the
    sphere-packing bound 2^(n-2) n <= 2^(n-1) gives n <= 2.  At n = 2 every
    x is 0, as no word has four entries, so the code is its socle
    M E_2 = <(M, M)>.
    """
    extra: list[str] = []
    ceiling_extras: list[str] = []
    examined = 0
    space_max: list[dict] = []
    catalogs = _catalogs(rings, n_max)

    def target(space):
        params = space.params
        lo, _ = _spans(space)["shiromoto"]
        return lo, params.n * params.modulus.M, params.ceil_k < params.n

    for space, _, classes, scanned, top in _sweep(_spaces(rings, n_max, budget), target):
        m = space.modulus
        examined += scanned
        space_max.append({"p": m.p, "s": m.s, "n": space.n,
                          "subtype": space.subtype, "max_d": top})
        if not classes:
            continue
        strict, (_, ceiling) = type_form_max_d(space.params), _spans(space)["shiromoto"]
        for c in classes:
            if c in catalogs[m, space.n]:
                continue
            d, entry = c.min_lee_distance(), f"{space}: {list(c.rows)}"
            if d >= strict:
                extra.append(entry)
            if d <= ceiling:
                ceiling_extras.append(entry)
    missing = [f"{m}, n={n}: {list(w.rows)}" for (m, n), witnesses in catalogs.items()
               for w in witnesses
               if w.min_lee_distance() < type_form_max_d(CodeParams.from_code(w))]
    return {"theorem": "shiromoto", "verdict": _verdict(extra, missing), "extra": extra,
            "missing": missing, "ceiling_form_extras": ceiling_extras,
            "examined": examined, "space_max": space_max}


def _check_z4_singleton(rings, n_max, budget) -> dict:
    """Attainers of the Z/4 Singleton-type bound over each Z/4 of `rings`
    (other rings are skipped).  The family is the ambient space, the free
    rank-n space, which is scanned and counted but keeps no code, and the
    named witnesses of catalog_mld.  An attainer class whose root is no
    witness is extra, and a witness that does not attain the bound is
    missing.  Each member is alone in its class, as <(2, ..., 2)>, its dual
    {x : sum x_i even} and the ambient space are fixed by every coordinate
    permutation and sign flip, so each witness is its class's root, and
    comparing roots with the witnesses by equality gives the answer that
    comparing codes would."""
    extra: list[str] = []
    examined = 0
    z4 = [m for m in rings if (m.p, m.s) == (2, 2)]
    catalogs = _catalogs(z4, n_max)
    target = _bound_target("z4_singleton", lambda space: space.subtype == (space.n, 0))
    for space, _, classes, scanned, _ in _sweep(_spaces(z4, n_max, budget), target):
        examined += scanned
        extra.extend(f"n={space.n}: {list(c.rows)}" for c in classes
                     if c not in catalogs[space.modulus, space.n])
    missing = [f"n={n}: {list(w.rows)}" for (_, n), witnesses in catalogs.items()
               for w in witnesses if not attainment_check(w, "z4_singleton")]
    return {"theorem": "z4_singleton", "verdict": _verdict(extra, missing), "extra": extra,
            "missing": missing, "examined": examined}


def _check_rank_sb(rings, n_max, budget) -> dict:
    """Attainers of the rank form of the Shiromoto bound below full rank;
    the family is the rank-(n-1) spaces over p = 2 and the named witnesses
    of catalog_mld.  Those spaces and the full-rank ones are scanned and
    counted but keep no code; a full-rank code that misses the vacuous
    bound is a failure."""
    extra: list[str] = []
    vacuous_failures = examined = 0
    catalogs = _catalogs(rings, n_max)
    target = _bound_target("shiromoto_rank", lambda space: space.rank == space.n or (
        space.modulus.p == 2 and space.rank == space.n - 1))
    for space, count, classes, scanned, _ in _sweep(_spaces(rings, n_max, budget), target):
        examined += scanned
        if space.rank == space.n:
            vacuous_failures += scanned - count
        extra.extend(f"{space}: {list(c.rows)}" for c in classes
                     if c not in catalogs[space.modulus, space.n])
    return {"theorem": "rank_sb", "verdict": _verdict(extra or vacuous_failures),
            "extra": extra, "vacuous_failures": vacuous_failures, "examined": examined}


def _check_alderson(rings, n_max, budget) -> dict:
    """Spaces holding attainers of the Alderson-Huntemann bound M(n - k), for
    integer type 1 < k < n.  The predicted spaces are hard-coded per ring:
    Z/5 with k + 1 <= n <= k + 3, free codes over Z/7 and Z/9 with n = k + 1,
    free codes over Z/4 with k + 1 <= n <= k + 2 and over Z/8 with n = k + 1,
    and over any Z/2^s the codes of rank K = k + 1 with K in {n, n - 1}.  A
    predicted space is scanned and counted but keeps no code; every
    attainer class of any other space is extra, so over a ring outside
    these five only the last family is allowed."""
    extra: list[str] = []
    examined = 0

    def predicted(space: SearchSpace) -> bool:
        m, params = space.modulus, space.params
        n, K, k, free = params.n, params.K, int(params.k), params.is_free
        if m.p != 2:
            return (m.q == 5 and k + 1 <= n <= k + 3) or \
                   (free and m.q in (7, 9) and n == k + 1)
        return (free and m.s == 2 and k + 1 <= n <= k + 2) or \
               (free and m.s == 3 and n == k + 1) or \
               (k + 1 == K and K in (n, n - 1))

    target = _bound_target("alderson_huntemann", predicted)
    for space, _, classes, scanned, _ in _sweep(_spaces(rings, n_max, budget), target):
        examined += scanned
        extra.extend(f"{space}: {list(c.rows)}" for c in classes)
    return {"theorem": "alderson_huntemann", "verdict": _verdict(extra), "extra": extra,
            "examined": examined}


def _check_plotkin_rank(rings, n_max, budget) -> dict:
    """Spaces holding attainers of the level-1 rank bound A(p,s,1)(n - K + 1)
    over odd p, each of which must have n <= p + 1 and n - K + 1 in
    {p - 1, (p - 1)/2}, where the bound reads p^(s-1)(p^2 - 1)/4 or half of it.
    Every space is scanned and counted but keeps no code: a space outside
    that family with a non-zero count is extra, and `attainers` counts the
    codes of all."""
    extra: list[str] = []
    examined = attainers = 0

    def family(space):
        n, K, p = space.n, space.rank, space.modulus.p
        return n <= p + 1 and n - K + 1 in (p - 1, (p - 1) // 2)

    bound = _bound_target("rank_plotkin", lambda space: True)

    def target(space):
        value, *_ = _cells(space)["rank_plotkin"]
        # an integer distance can never meet a fractional value exactly
        return bound(space) if value.denominator == 1 else None

    odd = [m for m in rings if m.p != 2]
    for space, count, _, scanned, _ in _sweep(_spaces(odd, n_max, budget), target):
        examined += scanned
        attainers += count
        if count and not family(space):
            _, floored, *_ = _cells(space)["rank_plotkin"]
            extra.append(f"{space}: d={floored}")
    return {"theorem": "plotkin_rank", "verdict": _verdict(extra), "extra": extra,
            "examined": examined, "attainers": attainers}


def _check_rank2_equidistant(rings, n_max, budget) -> dict:
    """A sufficient test, up to length n_max, that no Lee-equidistant rank-2
    code has both generators of order > p.

    Any such code contains a cyclic equidistant subcode generated by an
    element of order >= p^2, so it scans single generators: if no vector of
    valuation <= s-2 generates an equidistant cyclic code of length at most
    n_max, no such code of those lengths exists.  Each such cyclic code is
    scanned once, as the standard generator of a rank-1 space of subtype
    e_v, v <= s-2.

    The claim does not hold at every length.  Over Z/9 the 36 sign classes
    {v, -v} of (Z/9)^2 with a unit entry, as columns, give a free rank-2
    Lee-equidistant code of length 36 with d_L = 81 (the column-count
    argument of Wood, "The structure of linear codes of constant weight",
    Trans. AMS 354, 2002); the verdict over Z/9 is EQUAL up to n = 6 only
    because no cyclic code of order 9 is equidistant below length 11.  For
    p = 2 the test fails from n = 3 on (Z/4, Z/8): the survivors listed
    there are Lee-equidistant cyclic codes, so the verdict is EXTRA.
    """
    counterexamples: list[str] = []
    scanned = 0
    for m in rings:
        q, s = m.q, m.s
        for n in range(1, n_max + 1):
            for v in range(s - 1):
                space = SearchSpace(m, n, tuple(int(i == v) for i in range(s)), budget)
                order, = _space_orders(space)
                for G in _generator_chunks(space, ENUMERATION_CHUNK):
                    scanned += len(G)
                    lo, hi = np.full(len(G), n * q), np.zeros(len(G), dtype=np.int64)
                    # one scalar per nonzero codeword up to sign, in blocks:
                    # lam and order - lam give -c and c, of the same Lee weight
                    for start in range(1, order // 2 + 1, ENUMERATION_CHUNK):
                        lam = np.arange(start, min(start + ENUMERATION_CHUNK, order // 2 + 1))
                        words = np.multiply.outer(lam, G[:, 0]) % q
                        w = np.minimum(words, q - words).sum(axis=2)
                        lo, hi = np.minimum(lo, w.min(axis=0)), np.maximum(hi, w.max(axis=0))
                    counterexamples.extend(f"{m}, n={n}: cyclic {tuple(g.tolist())}"
                                           for g in G[lo == hi, 0])
    return {"theorem": "rank2_equidistant", "verdict": _verdict(counterexamples),
            "extra": counterexamples, "survivors": len(counterexamples),
            "generators_scanned": scanned}


_CHECKS = {
    "shiromoto": _check_shiromoto,
    "z4_singleton": _check_z4_singleton,
    "rank_sb": _check_rank_sb,
    "alderson_huntemann": _check_alderson,
    "plotkin_rank": _check_plotkin_rank,
    "rank2_equidistant": _check_rank2_equidistant,
}


def check_characterization(theorem_id: str, rings, n_max: int,
                           budget: int = CENSUS_BUDGET) -> dict:
    """Machine-check a characterization of bound-attaining codes.

    Known ids: 'shiromoto', 'z4_singleton', 'rank_sb', 'alderson_huntemann',
    'plotkin_rank', 'rank2_equidistant'.  Returns a report whose `verdict` is
    EQUAL when the enumerated attaining set is exactly the predicted family,
    with MISSING/EXTRA detail otherwise.  An n_max below 1, which would leave
    nothing to examine, raises ValueError.
    """
    if theorem_id not in _CHECKS:
        raise ValueError(f"unknown characterization id {theorem_id!r}")
    if n_max < 1:
        raise ValueError(f"n_max = {n_max} is below 1")
    return _CHECKS[theorem_id](list(rings), n_max, budget)
