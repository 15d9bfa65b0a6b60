import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leecodes import codes
from leecodes.codes import (BudgetError, LinearCode, TrivialCodeError, _lee_sum_dtype,
                            coefficient_grid, format_code_text, parse_code_text, signed_half,
                            word_table)
from leecodes.constructions import EquidistantSpec, equidistant_rank1, equidistant_rank2
from leecodes.report import inspect_code
from leecodes.ring import Modulus, lee_weight_vec, RingVector
from leecodes.search import SearchSpace, all_subtypes, enumerate_codes

Z4 = Modulus(2, 2)
Z5 = Modulus(5, 1)
Z8 = Modulus(2, 3)
Z9 = Modulus(3, 2)
Z25 = Modulus(5, 2)
Z27 = Modulus(3, 3)


def brute_codeword_set(code):
    return {w.entries for w in code.codewords()}


# -- construction and parameters -------------------------------------------------

def test_from_generator_examples():
    c = LinearCode.from_generator(Z5, [[1, 2]])
    assert (c.type_k, c.rank, c.cardinality) == (Fraction(1), 1, 5)
    c = LinearCode.from_generator(Z4, [[2, 2]])
    assert (c.type_k, c.rank, c.subtype) == (Fraction(1, 2), 1, (0, 1))
    c = LinearCode.from_generator(Z4, [[0, 0, 0], [0, 0, 0]])
    assert c.rank == 0 and c.cardinality == 1


def test_redundant_rows_are_dropped():
    c = LinearCode.from_generator(Z9, [[1, 2], [2, 4], [3, 6]])
    assert c.subtype == (1, 0)
    assert c.cardinality == 9


def test_cardinality_matches_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.choice([Z4, Z5, Z8, Z9])
        n = rng.randint(1, 4)
        rows = [[rng.randrange(m.q) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        c = LinearCode.from_generator(m, rows)
        assert len(brute_codeword_set(c)) == c.cardinality
        st = c.subtype
        expected = m.p ** sum((m.s - i) * k for i, k in enumerate(st))
        assert c.cardinality == expected


def test_structural_parameters_are_computed_once():
    c = LinearCode.from_generator(Z27, [[1, 3, 9], [0, 3, 6], [0, 0, 9]])
    params = ("cardinality", "subtype", "type_k", "row_orders")
    first = [getattr(c, name) for name in params]
    assert first == [27 * 9 * 3, (1, 1, 1), Fraction(2), (27, 9, 3)]
    assert all(getattr(c, name) is value for name, value in zip(params, first))
    assert repr(c) == "LinearCode(Z/3^3, n=3, subtype=(1, 1, 1), |C|=729)"


def test_systematic_form_examples():
    c = LinearCode.from_generator(Z4, [[2, 0, 0], [0, 1, 1], [0, 0, 2]])
    mat, perm = c.systematic_form()
    assert c.subtype == (1, 2)
    assert perm == (1, 0, 2)
    assert mat.rows == ((1, 0, 1), (0, 2, 0), (0, 0, 2))
    # the permuted matrix spans the permuted code
    permuted = {tuple(w.entries[j] for j in perm) for w in c.codewords()}
    assert brute_codeword_set(LinearCode.from_matrix(mat)) == permuted

    c = LinearCode.from_generator(Z9, [[1, 0], [0, 1]])
    mat, perm = c.systematic_form()
    assert mat.rows == ((1, 0), (0, 1)) and c.subtype == (2, 0)

    c = LinearCode.from_generator(Z9, [[3, 6]])
    mat, perm = c.systematic_form()
    assert c.subtype == (0, 1)
    assert mat.rows == ((3, 6),)


def test_parity_check_examples():
    c = LinearCode.from_generator(Z5, [[1, 2]])
    assert c.dual() == c  # self-dual

    c = LinearCode.from_generator(Z4, [[0, 1, 1], [2, 0, 0], [0, 0, 2]])
    assert c.dual() == LinearCode.from_generator(Z4, [[2, 0, 0], [0, 2, 2]])

    full = LinearCode.from_generator(Z4, [[1, 0], [0, 1]])
    assert full.dual().cardinality == 1


def test_generator_and_parity_check_matrices():
    # every code of Z/4, Z/8 and Z/9 with n <= 3, the zero code included
    for m in (Z4, Z8, Z9):
        for n in (1, 2, 3):
            for subtype in [(0,) * m.s, *all_subtypes(m, n)]:
                for c in enumerate_codes(SearchSpace(m, n, subtype)):
                    G = np.array(c.generator_matrix().rows)
                    H = c.parity_check()
                    assert not (G @ np.array(H.rows).T % m.q).any(), c
                    assert LinearCode.from_generator(m, G.tolist(), n=n) == c
                    dual = LinearCode.from_generator(m, H.rows, n=n)
                    assert c.cardinality * dual.cardinality == m.q ** n, c
    zero = LinearCode.from_generator(Z9, [[0, 0, 0]])
    assert zero.generator_matrix().rows == ((0, 0, 0),)
    assert LinearCode.from_generator(Z9, zero.parity_check().rows).cardinality == 9 ** 3


def exhaustive_small_codes():
    """A mixed bag of small codes over several rings, exhaustive over the
    generator entries for 1-2 rows."""
    out = []
    for m, n in [(Z4, 2), (Z5, 2), (Z9, 2)]:
        for row in itertools.product(range(m.q), repeat=n):
            if any(row):
                out.append(LinearCode.from_generator(m, [row]))
    rng = random.Random(3)
    for m, n in [(Z4, 3), (Z8, 3), (Z9, 3), (Z5, 4)]:
        for _ in range(40):
            rows = [[rng.randrange(m.q) for _ in range(n)] for _ in range(2)]
            out.append(LinearCode.from_generator(m, rows))
    return out


def every_small_code():
    """Every code of Z/4, Z/8, Z/9 and Z/5 with n <= 3 and of Z/27 and Z/25
    with n <= 2, each once, the zero codes too."""
    for m, n_max in [(Z4, 3), (Z8, 3), (Z9, 3), (Z5, 3), (Z27, 2), (Z25, 2)]:
        for n in range(1, n_max + 1):
            for subtype in all_subtypes(m, n):
                yield from enumerate_codes(SearchSpace(m, n, subtype))


def test_duality_properties():
    for c in exhaustive_small_codes():
        m = c.modulus
        dual = c.dual()
        # G . H^T = 0
        for row in c.rows:
            for drow in dual.rows:
                assert sum(a * b for a, b in zip(row, drow)) % m.q == 0
        assert c.cardinality * dual.cardinality == m.q**c.n
        # subtype of the dual: (n - K, k_s, ..., k_2)
        st = c.subtype
        expected = (c.n - c.rank,) + tuple(reversed(st[1:]))
        assert dual.subtype == expected
        assert dual.type_k == c.n - c.type_k
        assert dual.free_rank == c.n - c.rank
        assert dual.rank == c.n - c.free_rank
        assert dual.dual() == c


def test_codeword_enumeration_examples():
    c = LinearCode.from_generator(Z4, [[2, 2]])
    assert brute_codeword_set(c) == {(0, 0), (2, 2)}
    z = LinearCode.zero(Z4, 2)
    assert brute_codeword_set(z) == {(0, 0)}
    c = LinearCode.from_generator(Z5, [[1, 2]])
    assert len(brute_codeword_set(c)) == 5
    # deterministic order: coefficient sweep in row order
    words = [w.entries for w in c.codewords()]
    assert words == [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)]


def test_codeword_budget(monkeypatch):
    c = LinearCode.from_generator(Z8, [[1, 0], [0, 1]])
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 10)
    with pytest.raises(BudgetError, match="code has 64 codewords, over the enumeration "
                                          "budget of 10"):
        list(c.codewords())
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 100)
    assert len(list(c.codewords())) == 64
    # the codeword array is built once and shared read-only; the budget is
    # still checked on every call
    words = c.codeword_array()
    assert words.shape == (64, 2) and not words.flags.writeable
    assert c.codeword_array() is words
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 10)
    with pytest.raises(BudgetError):
        c.codeword_array()


def test_word_table_matches_the_grid_product():
    rng = np.random.default_rng(5)
    # (p, s, largest row order): 2q = 2^15 is the last int16 table
    for p, s, cap in [(2, 2, 4), (3, 2, 9), (5, 2, 25), (3, 3, 27),
                      (2, 14, 64), (2, 15, 64), (3, 9, 81)]:
        q = p**s
        powers = [p**t for t in range(1, s + 1) if p**t <= cap]
        for _ in range(6):
            orders = list(rng.choice(powers, size=rng.integers(1, 4)))
            G = rng.integers(0, q, size=(len(orders), rng.integers(1, 7)))
            table = word_table(orders, G, q)
            assert table.dtype == (np.int16 if 2 * q <= 2**15 else np.int64)
            assert np.array_equal(table, ((coefficient_grid(orders) @ G) % q).T), (q, orders)
    q = 2**31   # entries near q: the outer sums reach 2q - 2
    G = q - rng.integers(1, 1000, size=(3, 5))
    assert np.array_equal(word_table([2, 8, 16], G, q),
                          ((coefficient_grid([2, 8, 16]) @ G) % q).T)


@pytest.mark.parametrize("orders", [[2], [4, 2], [8, 4, 2], [16, 4], [3], [9, 3, 3],
                                    [27, 9], [2, 3], [3, 2, 16], [16, 8, 8, 2]])
def test_signed_half_keeps_one_word_of_each_sign_pair(orders):
    full = list(itertools.product(*(range(o) for o in orders)))
    cut = list(itertools.product(*(range(o) for o in signed_half(orders))))
    assert cut == full[:len(cut)]   # a prefix of the grid, so the zero tuple first
    negated = {tuple(-c % o for c, o in zip(row, orders)) for row in cut}
    assert set(cut) | negated == set(full)
    # at most half the grid, plus the self-negating first coefficients
    assert len(cut) <= len(full) // 2 + math.prod(orders[1:])


def test_distances_match_the_full_codeword_array():
    spaces = [(m, n) for m in (Z4, Z5, Modulus(7, 1), Z8, Z9) for n in (1, 2, 3)]
    spaces += [(m, n) for m in (Modulus(2, 4), Modulus(5, 2), Z27) for n in (1, 2)]
    for m, n in spaces:
        for subtype in all_subtypes(m, n):
            for c in enumerate_codes(SearchSpace(m, n, subtype)):
                words = c.codeword_array()[1:]
                lee = np.minimum(words, m.q - words).sum(axis=1)
                hamming = (words != 0).sum(axis=1)
                assert c.min_lee_distance() == lee.min(), c
                assert c.min_hamming_distance() == hamming.min(), c
                assert c.is_lee_equidistant() == (lee.min() == lee.max()), c


def test_distances_match_brute_force_over_large_rings():
    rng = random.Random(3)
    for m in (Modulus(2, 14), Modulus(2, 15), Modulus(3, 9)):
        q = m.q
        for n in (1, 3):
            row = [rng.randrange(q) for _ in range(n)]
            for gen in (row, [m.p * e % q for e in row]):   # and one of lower order
                c = LinearCode.from_generator(m, [gen])
                words = [w for w in ([lam * e % q for e in gen] for lam in range(q)) if any(w)]
                assert c.min_lee_distance() == min(sum(min(e, q - e) for e in w) for w in words)
                assert c.min_hamming_distance() == min(sum(e != 0 for e in w) for w in words)


def test_lee_sum_dtype_holds_n_times_the_largest_lee_weight():
    assert _lee_sum_dtype(2**15 - 1, 2) is np.int16
    assert _lee_sum_dtype(2**15, 2) is np.int32
    assert _lee_sum_dtype(1, 2**16) is np.int32
    assert _lee_sum_dtype(2**31 - 1, 2) is np.int32
    assert _lee_sum_dtype(2, 2**31) is np.int64


def test_weight_sums_are_exact_past_int16_and_int32():
    for c in every_small_code():
        if c.cardinality > 1:
            assert all(w.dtype == _lee_sum_dtype(c.n, c.modulus.q) for w in c._weights), c
    past_int16 = LinearCode.from_generator(Modulus(3, 9), [[1, 1, 1, 1]])   # sums to 39364
    past_int32 = LinearCode.from_generator(Modulus(2, 31), [[2**30, 2**30]])  # d_L = 2^31
    for c, dtype in [(past_int16, np.int32), (past_int32, np.int64)]:
        q = c.modulus.q
        assert [w.dtype for w in c._weights] == [dtype, dtype]
        words = c.codeword_array()[1:]
        lee = np.minimum(words, q - words).sum(axis=1)
        assert c.min_lee_distance() == lee.min()
        assert c.min_hamming_distance() == (words != 0).sum(axis=1).min()
        assert c.is_lee_equidistant() == (lee.min() == lee.max())
    assert (past_int16.min_lee_distance(), past_int16.is_lee_equidistant()) == (4, False)
    assert (past_int32.min_lee_distance(), past_int32.is_lee_equidistant()) == (2**31, True)


def test_distances_check_the_budget_and_reuse_the_weights(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return word_table(*args)

    monkeypatch.setattr(codes, "word_table", counted)
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 10)
    c = LinearCode.from_generator(Z8, [[1, 0], [0, 1]])
    for distance in (c.min_lee_distance, c.min_hamming_distance, c.is_lee_equidistant):
        with pytest.raises(BudgetError):
            distance()
    assert not built
    monkeypatch.setattr(codes, "ENUMERATION_BUDGET", 100)
    c = LinearCode.from_generator(Z8, [[1, 0], [0, 1]])
    assert c.min_hamming_distance() == 1
    assert c.min_hamming_distance() == 1 and c.min_lee_distance() == 1
    assert not c.is_lee_equidistant()
    assert len(built) == 1


def test_min_distance_examples():
    assert LinearCode.from_generator(Z4, [[2, 2]]).min_lee_distance() == 4
    assert LinearCode.from_generator(Z5, [[2, 0, 1], [1, 3, 4]]).min_lee_distance() == 2
    assert LinearCode.from_generator(Z5, [[1, 0, 3, 4], [0, 1, 2, 3]]).min_lee_distance() == 4
    assert LinearCode.from_generator(Z5, [[1, 2]]).min_hamming_distance() == 2
    assert LinearCode.from_generator(Z4, [[2, 2]]).min_hamming_distance() == 2
    assert LinearCode.from_generator(Z5, [[1, 0], [0, 1]]).min_hamming_distance() == 1
    with pytest.raises(TrivialCodeError):
        LinearCode.zero(Z5, 2).min_lee_distance()


def test_distance_sandwich_on_small_codes():
    for c in exhaustive_small_codes():
        if c.cardinality < 2:
            continue
        dl, dh = c.min_lee_distance(), c.min_hamming_distance()
        assert dh <= dl <= c.modulus.M * dh


def test_support_subtype_examples():
    assert LinearCode.from_generator(Z9, [[3, 6]]).support_subtype() == (0, 2, 0)
    assert LinearCode.from_generator(Z9, [[1, 3]]).support_subtype() == (1, 1, 0)
    assert LinearCode.zero(Z9, 3).support_subtype() == (0, 0, 3)


def test_support_subtype_matches_the_entry_valuations():
    # the definition: level of column j = least valuation of its entries over
    # the reduced rows, s for a column of zeros
    codes_ = list(every_small_code())
    codes_ += [LinearCode.zero(Z9, 3), LinearCode.from_generator(Z9, [[3, 0, 1], [0, 0, 6]]),
               LinearCode.from_generator(Z8, [[0, 4], [0, 2]])]
    assert len(codes_) > 1600
    for c in codes_:
        m = c.modulus
        counts = [0] * (m.s + 1)
        for j in range(c.n):
            counts[min((m.val(row[j]) for row in c.rows), default=m.s)] += 1
        assert c.support_subtype() == tuple(counts), c
    assert codes_[-3].support_subtype() == (0, 0, 3)
    assert codes_[-2].support_subtype() == (1, 1, 1)   # column 1 is all zero
    assert codes_[-1].support_subtype() == (0, 1, 0, 1)   # column 0 is all zero


def test_support_subtype_matches_column_projections():
    for c in exhaustive_small_codes():
        m = c.modulus
        counts = [0] * (m.s + 1)
        words = list(brute_codeword_set(c))
        for j in range(c.n):
            col = {w[j] for w in words}
            v = min((m.val(e) for e in col if e), default=m.s)
            counts[v] += 1
        assert c.support_subtype() == tuple(counts)


def test_average_lee_weight_examples():
    assert LinearCode.from_generator(Z4, [[2, 2]]).average_lee_weight() == 2
    assert LinearCode.from_generator(Z5, [[1, 2]]).average_lee_weight() == Fraction(12, 5)
    assert LinearCode.zero(Z5, 3).average_lee_weight() == 0


def test_average_lee_weight_matches_brute_force():
    for c in exhaustive_small_codes():
        brute = Fraction(sum(lee_weight_vec(RingVector(c.modulus, w))
                             for w in brute_codeword_set(c)), c.cardinality)
        assert c.average_lee_weight() == brute


def test_socle_examples():
    assert LinearCode.from_generator(Z9, [[1, 2]]).socle() == \
        LinearCode.from_generator(Z9, [[3, 6]])
    c22 = LinearCode.from_generator(Z4, [[2, 2]])
    assert c22.socle() == c22
    full = LinearCode.from_generator(Z4, [[1, 0], [0, 1]])
    assert full.socle() == LinearCode.from_generator(Z4, [[2, 0], [0, 2]])


def test_socle_size_is_p_to_rank():
    for c in exhaustive_small_codes():
        assert c.socle().cardinality == c.modulus.p**c.rank


def test_equidistance():
    c = LinearCode.from_generator(Z5, [[1, 2, 1, 3]])
    assert c.is_lee_equidistant() and c.min_lee_distance() == 6
    assert LinearCode.from_generator(Z5, [[1, 2]]).is_lee_equidistant()
    assert not LinearCode.from_generator(Z5, [[1, 0]]).is_lee_equidistant()
    with pytest.raises(TrivialCodeError):
        LinearCode.zero(Z5, 1).is_lee_equidistant()


def test_equidistance_is_the_plotkin_equality_case():
    for c in exhaustive_small_codes():
        if c.cardinality < 2:
            continue
        if c.is_lee_equidistant():
            lhs = c.min_lee_distance() * (c.cardinality - 1)
            assert lhs == c.cardinality * c.average_lee_weight()


def test_replicate():
    c = LinearCode.from_generator(Z5, [[1, 2]])
    r = c.replicate(2)
    assert r == LinearCode.from_generator(Z5, [[1, 2, 1, 2]])
    assert r.min_lee_distance() == 6
    assert c.replicate(1) == c
    r3 = LinearCode.from_generator(Z4, [[2, 2]]).replicate(3)
    assert r3.n == 6 and r3.min_lee_distance() == 12
    with pytest.raises(ValueError):
        c.replicate(0)


def test_membership():
    c = LinearCode.from_generator(Z4, [[0, 1, 1], [2, 0, 0], [0, 0, 2]])
    for w in c.codewords():
        assert c.contains(w)
    assert not c.contains([0, 1, 0])
    assert c.socle().is_subcode_of(c)
    # a plain sequence is read as integers mod q, but a vector over another
    # ring is refused: the Z/9 entries (4, 5, 5) would read as (0, 1, 1)
    assert c.contains([4, 5, 5])
    with pytest.raises(ValueError, match=r"over Z/3\^2 is no word of a code over Z/2\^2"):
        c.contains(RingVector(Z9, (4, 5, 5)))


def test_one_code_has_one_spelling():
    # two generators of one code over Z/9 reduce to the same standard rows,
    # which equality and hashing read
    a = LinearCode.from_generator(Z9, [[1, 2, 3], [0, 3, 6]])
    b = LinearCode.from_generator(Z9, [[1, 5, 0], [0, 3, 6]])
    assert a.given_rows != b.given_rows
    assert a.rows == b.rows == ((1, 2, 3), (0, 3, 6))
    assert a == b and hash(a) == hash(b)
    assert a.dual().dual().rows == a.rows


def back_substitution_dual(code):
    """The dual solved row by row: each row of the parity check fills the
    pivot coordinates from the deepest pivot upwards out of the reduced rows,
    and the rows go through from_generator, last-first (the same form, with
    fewer rows to clear on long codes).  An oracle for LinearCode.dual."""
    m = code.modulus
    q, p = m.q, m.p
    pivot_cols = {c for c, _ in code.pivots}

    def solve(x, bump=None):
        for t in range(len(code.pivots) - 1, -1, -1):
            c, v = code.pivots[t]
            pv = p**v
            acc = sum(code.rows[t][j] // pv * xj for j, xj in enumerate(x) if xj)
            x[c] = (-acc) % (q // pv)
            if bump == t:
                x[c] = (x[c] + q // pv) % q
        return x

    gens = [solve([int(j == c) for j in range(code.n)])
            for c in range(code.n) if c not in pivot_cols]
    gens += [solve([0] * code.n, bump=t) for t, (_, v) in enumerate(code.pivots) if v >= 1]
    return LinearCode.from_generator(m, gens[::-1] or [[0] * code.n], n=code.n)


def random_scaled_codes():
    """Seeded random codes over seven rings, n <= 9 and up to 5 rows, each
    row scaled by a random power of p, so pivots of every valuation and
    non-unit entries right of a pivot are common."""
    rng = random.Random(32)
    for m in [Modulus(2, 1), Modulus(3, 1), Modulus(2, 4), Z25, Z27, Modulus(3, 4),
              Modulus(2, 31)]:
        for _ in range(150):
            n = rng.randint(1, 9)
            rows = [[rng.randrange(m.q) * m.p**rng.randint(0, m.s) % m.q for _ in range(n)]
                    for _ in range(rng.randint(1, 5))]
            yield LinearCode.from_generator(m, rows)


def equidistant_grid_codes(n_max):
    """The equidistant codes of the library benchmark's grid of length at
    most n_max: p in (3, 5, 7), s in (2, 3), every level, rank 1 and 2."""
    for p, s in [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)]:
        for i in range(1, s + 1):
            for rank in (1, 2):
                spec = EquidistantSpec(Modulus(p, s), i, rank)
                code = (equidistant_rank1 if rank == 1 else equidistant_rank2)(spec)
                if code.n <= n_max:
                    yield code


def test_dual_matches_back_substitution():
    codes_ = list(every_small_code())
    for m, n in [(Z4, 3), (Z9, 2), (Z27, 2)]:
        codes_ += [LinearCode.zero(m, n),
                   LinearCode.from_generator(m, [[int(i == j) for j in range(n)] for i in range(n)])]
    assert len(codes_) > 1600
    equidistant = list(equidistant_grid_codes(300))
    assert len(equidistant) == 28
    codes_ += [*random_scaled_codes(), *equidistant]
    for c in codes_:
        m = c.modulus
        dual, oracle = c.dual(), back_substitution_dual(c)
        assert (dual.rows, dual.pivots) == (oracle.rows, oracle.pivots), c
        # a dual has no supplied generator: it is given by its rows
        assert dual.given_rows == (dual.rows or ((0,) * c.n,)), c
        for row in c.rows:
            for drow in dual.rows:
                assert sum(a * b for a, b in zip(row, drow)) % m.q == 0, c
        assert c.cardinality * dual.cardinality == m.q**c.n, c
        assert dual.dual() == c
    # the dual generators that `leecodes inspect` prints for criterion 8's examples
    for m, rows, expected in [(Z5, [[1, 0, 3, 4], [0, 1, 2, 3]], [[1, 0, 2, 2], [0, 1, 4, 2]]),
                              (Z4, [[0, 1, 1], [2, 0, 0], [0, 0, 2]], [[2, 0, 0], [0, 2, 2]])]:
        c = LinearCode.from_generator(m, rows)
        assert inspect_code(c)["dual_generators"] == expected
        assert [list(r) for r in back_substitution_dual(c).rows] == expected


def test_dual_row_reduces_only_the_code_rows(monkeypatch):
    # one reduction of the code's own rank rows, none of the dual's n - K or more
    calls = []

    def counted(m, work):
        calls.append(len(work))
        return row_reduce(m, work)

    row_reduce = codes._row_reduce
    monkeypatch.setattr(codes, "_row_reduce", counted)
    checked = 0
    for m in (Z8, Z9):
        for n in (1, 2, 3):
            for subtype in [(0,) * m.s, *all_subtypes(m, n)]:
                for c in enumerate_codes(SearchSpace(m, n, subtype)):
                    calls.clear()
                    c.dual()
                    assert calls == [c.rank], c
                    checked += 1
    assert checked == 1314


def test_dual_matches_brute_force_orthogonal_complement():
    # independent oracle: filter the whole ambient space on orthogonality
    for c in exhaustive_small_codes():
        m = c.modulus
        if m.q**c.n > 10_000:
            continue
        gens = c.rows
        brute = {
            v for v in itertools.product(range(m.q), repeat=c.n)
            if all(sum(a * b for a, b in zip(v, g)) % m.q == 0 for g in gens)
        }
        assert brute_codeword_set(c.dual()) == brute


def test_systematic_form_shape():
    # the permuted matrix is block upper triangular with scaled identities on
    # the diagonal and block rows contained in their ideal
    rng = random.Random(5)
    for _ in range(60):
        m = rng.choice([Z4, Z5, Z8, Z9])
        n = rng.randint(1, 5)
        rows = [[rng.randrange(m.q) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        c = LinearCode.from_generator(m, rows)
        mat, perm = c.systematic_form()
        assert sorted(perm) == list(range(n))
        vals = [v for _, v in c.pivots]
        assert vals == sorted(vals)
        for t, row in enumerate(mat.rows[:c.rank]):
            assert row[t] == m.p ** vals[t]
            assert all(row[u] == 0 for u in range(t))          # earlier pivots
            assert all(e % m.p ** vals[t] == 0 for e in row)   # ideal membership


# -- text format -----------------------------------------------------------------

def test_text_format_round_trip():
    c = LinearCode.from_generator(Z9, [[1, 2, 3], [0, 3, 6]])
    text = format_code_text(c, comments=["a comment"])
    again = parse_code_text(text)
    assert again == c
    assert again.given_rows == c.given_rows


def test_text_format_parsing_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_code_text("5 1\n1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_code_text("5 1 2\n1 x\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_code_text("5 1 2\n# fine\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_code_text("# nothing\n")


def test_a_code_of_length_below_1_is_refused():
    for build in (lambda: LinearCode.from_generator(Z5, [[]]),
                  lambda: LinearCode.from_generator(Z5, [], n=0),
                  lambda: LinearCode.zero(Z5, 0)):
        with pytest.raises(ValueError, match="the code length n = 0 is below 1"):
            build()
    # the header is refused before any row is read
    for text in ("5 1 0\n", "5 1 -2\n1 2\n"):
        with pytest.raises(ValueError, match="is below 1 \\(line 1\\)"):
            parse_code_text(text)


def test_text_format_comments_and_reduction():
    code = parse_code_text("3 2 2\n# generator below\n10 2\n")
    assert code.given_rows == ((1, 2),)


# -- hypothesis properties ---------------------------------------------------------

@given(st.sampled_from([Z4, Z5, Z8, Z9]), st.data())
@settings(max_examples=60, deadline=None)
def test_random_code_invariants(m, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    nrows = data.draw(st.integers(min_value=1, max_value=3))
    rows = [[data.draw(st.integers(min_value=0, max_value=m.q - 1))
             for _ in range(n)] for _ in range(nrows)]
    c = LinearCode.from_generator(m, rows)
    assert c.free_rank <= c.rank <= n
    assert c.type_k <= c.rank
    assert sum(c.support_subtype()) == n
    assert c.socle().cardinality == m.p**c.rank
    dual = c.dual()
    assert c.cardinality * dual.cardinality == m.q**n
    if c.cardinality >= 2:
        assert c.min_hamming_distance() <= c.min_lee_distance() \
            <= m.M * c.min_hamming_distance()


def _closure(q, rows):
    """Every word of the row span over Z/q, by repeated closure under adding
    each row's multiples."""
    words = {(0,) * len(rows[0])}
    for row in rows:
        words = {tuple((a + lam * b) % q for a, b in zip(w, row))
                 for w in words for lam in range(q)}
    return words


@given(st.sampled_from([Z4, Z8, Z9, Z27, Modulus(2, 15)]), st.data())
@settings(max_examples=120, deadline=None)
def test_row_reduction_shape_and_span(m, data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    nrows = data.draw(st.integers(min_value=1, max_value=4))
    # entries p^v * u with v drawn on its own, so non-units are common
    entry = st.builds(lambda v, u: m.p**v * u % m.q,
                      st.integers(min_value=0, max_value=m.s),
                      st.integers(min_value=0, max_value=m.q - 1))
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(nrows)]
    c = LinearCode.from_generator(m, rows)
    assert len(c.rows) == len(c.pivots) <= nrows
    for t, (row, (col, v)) in enumerate(zip(c.rows, c.pivots)):
        assert row[col] == m.p**v
        assert all(row[earlier] == 0 for earlier, _ in c.pivots[:t])
    vals = [v for _, v in c.pivots]
    assert vals == sorted(vals) and all(v < m.s for v in vals)
    if m.q**n <= 10**4:
        assert _closure(m.q, c.rows or [[0] * n]) == _closure(m.q, rows)
