import ast
import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from leecodes import bounds, search
from leecodes.bounds import BOUND_IDS, BOUNDS, attainment_check, evaluate_bounds
from leecodes.codes import BudgetError, LinearCode
from leecodes.ring import Modulus
from leecodes.search import (SearchSpace, _dedup_generators, _generator_chunks, _generators,
                             _placement_slots, _space_orders, all_subtypes, check_characterization,
                             dedup_codes, enumerate_codes, find_attaining_codes,
                             max_lee_distance_census, scan_space, signed_perm_equivalent,
                             verify_mds_socle)

Z2 = Modulus(2, 1)
Z3 = Modulus(3, 1)
Z4 = Modulus(2, 2)
Z5 = Modulus(5, 1)
Z7 = Modulus(7, 1)
Z8 = Modulus(2, 3)
Z9 = Modulus(3, 2)
Z27 = Modulus(3, 3)

DATA = Path(__file__).resolve().parent / "data"


def test_space_validation_and_counts():
    with pytest.raises(ValueError):
        SearchSpace(Z4, 2, (1,))        # wrong subtype length
    with pytest.raises(ValueError):
        SearchSpace(Z4, 1, (1, 1))      # rank over length
    # the same check refuses the parameters that no code has
    for n, subtype in [(3, (1, -1, 1)), (0, (0, 0, 0)), (-1, (0, 0, 0)), (2, (1, 1, 1))]:
        for build in (SearchSpace, bounds.CodeParams.from_subtype):
            with pytest.raises(ValueError, match="no code over Z/2\\^3 has length"):
                build(Z8, n, subtype)
    space = SearchSpace(Z5, 2, (1,))
    assert space.candidate_count() == 6      # [2; 1]_5, the lines of F_5^2



def test_space_builds_its_params_once():
    space, twin = SearchSpace(Z9, 4, (2, 1)), SearchSpace(Z9, 4, (2, 1))
    before = hash(space)
    assert space.params is space.params and space.layout is space.layout
    assert space.params == bounds.CodeParams.from_subtype(Z9, 4, (2, 1))
    # the cached values are no fields: equality and hash ignore them
    assert hash(space) == before == hash(twin) and space == twin

def test_space_keeps_its_subtype_as_a_tuple_of_ints():
    space = SearchSpace(Z5, 2, [1])
    assert space == SearchSpace(Z5, 2, (1,)) and hash(space) == hash(SearchSpace(Z5, 2, (1,)))
    assert space.subtype == (1,) and max_lee_distance_census(space).max_d == 3
    space = SearchSpace(Z9, 4, np.array([2, 1]))
    assert space.subtype == (2, 1) and all(type(k) is int for k in space.subtype)
    assert bounds.CodeParams.from_subtype(Z9, 4, np.array([2, 1])) == space.params
    # an entry that is no integer is refused by the same check
    for subtype in [(1, 0.5), (1, "1"), (1, None)]:
        for build in (SearchSpace, bounds.CodeParams.from_subtype):
            with pytest.raises(ValueError, match="integer entries"):
                build(Z9, 2, subtype)


def test_budget_refusal_reports_count():
    space = SearchSpace(Z9, 4, (2, 1), budget=100)
    with pytest.raises(BudgetError, match=str(space.candidate_count())):
        list(enumerate_codes(space))


def test_enumerate_codes_examples():
    codes = list(enumerate_codes(SearchSpace(Z5, 2, (1,))))
    assert len(codes) == 6
    target = LinearCode.from_generator(Z5, [[1, 2]])
    assert any(c == target for c in codes)

    codes = list(enumerate_codes(SearchSpace(Z4, 2, (0, 1))))
    rep = LinearCode.from_generator(Z4, [[2, 2]])
    assert any(c == rep for c in codes)
    assert all(c.subtype == (0, 1) for c in codes)

    z = list(enumerate_codes(SearchSpace(Z4, 2, (0, 0))))
    assert len(z) == 1 and z[0].cardinality == 1


def test_enumeration_covers_every_code_of_the_subtype():
    rng = random.Random(11)
    for m, n, tries in [(Z4, 3, 12), (Z9, 3, 12), (Z5, 3, 12), (Z4, 4, 6), (Z9, 4, 4)]:
        for _ in range(tries):
            rows = [[rng.randrange(m.q) for _ in range(n)] for _ in range(2)]
            c = LinearCode.from_generator(m, rows)
            if c.rank == 0:
                continue
            space = SearchSpace(m, n, c.subtype)
            assert any(c == e for e in enumerate_codes(space)), (m, rows)


def _gaussian_binomial(p, n, k):
    """[n; k]_p by the recursion [n; k] = [n-1; k-1] + p^k [n-1; k]."""
    if k < 0 or k > n:
        return 0
    if k in (0, n):
        return 1
    return _gaussian_binomial(p, n - 1, k - 1) + p**k * _gaussian_binomial(p, n - 1, k)


def _code_count(p, n, subtype):
    """Codes of the subtype in (Z/p^s)^n: p^(sum_{i<s} K_i (n - K_{i+1}))
    times [n; k_1, ..., k_s, n - K]_p, the multinomial written as the product
    of the binomials [n - K_{i-1}; k_i]_p."""
    K = list(itertools.accumulate(subtype, initial=0))
    count = p ** sum(K[i] * (n - K[i + 1]) for i in range(1, len(subtype)))
    for i, k in enumerate(subtype, start=1):
        count *= _gaussian_binomial(p, n - K[i - 1], k)
    return count


def _span_keys(q, G):
    """One key per generator of G, shape (B, rows, n): the indices of all its
    coefficient combinations, sorted.  Each word of a code C is hit
    q^rows / |C| times, so generators with as many rows share a key iff they
    span the same code."""
    rows, n = G.shape[1:]
    U = np.array(list(itertools.product(range(q), repeat=rows)), dtype=np.int64)
    words = np.matmul(U, G) % q
    return np.sort(words @ q ** np.arange(n, dtype=np.int64), axis=1)


def _key_subtype(m, n, key):
    """Subtype of the code with this key.  With |p^t C| = p^(e_t), the ranks
    K_i = k_1 + ... + k_i are K_{s-t} = e_t - e_{t+1}."""
    words = np.unique(key)[:, None] // m.q ** np.arange(n) % m.q
    e = []
    for t in range(m.s + 1):
        size, exp = len(np.unique(m.p**t * words % m.q, axis=0)), 0
        while size > 1:
            size, exp = size // m.p, exp + 1
        e.append(exp)
    K = [0] + [e[m.s - i] - e[m.s - i + 1] for i in range(1, m.s + 1)]
    return tuple(K[i] - K[i - 1] for i in range(1, m.s + 1))


def _brute_force_codes(m, n, rows):
    """Keys of all codes spanned by `rows` rows, grouped by subtype.  A matrix
    spans the sum of its rows' cyclic codes, so the closure of every such
    matrix is reached with one row per cyclic code."""
    vectors = np.array(list(itertools.product(range(m.q), repeat=n)), dtype=np.int64)
    _, first = np.unique(_span_keys(m.q, vectors[:, None, :]), axis=0, return_index=True)
    G = np.array(list(itertools.combinations_with_replacement(vectors[first], rows)))
    codes = defaultdict(set)
    for key in np.unique(_span_keys(m.q, G), axis=0):
        codes[_key_subtype(m, n, key)].add(key.tobytes())
    return codes


def test_scan_generates_each_code_exactly_once():
    for m in (Z4, Z5, Z7, Z8, Z9):
        for n in (1, 2, 3):
            rows = min(n, 6 // n)
            brute = _brute_force_codes(m, n, rows)
            del brute[(0,) * m.s]
            for subtype in all_subtypes(m, n):
                space = SearchSpace(m, n, subtype)
                G = _scan_generators(space)
                assert len(G) == _code_count(m.p, n, subtype) == space.candidate_count(), \
                    (m, n, subtype)
                assert len(np.unique(_span_keys(m.q, G), axis=0)) == len(G), (m, n, subtype)
                if space.rank <= rows:
                    pad = np.zeros((len(G), rows - space.rank, n), dtype=np.int64)
                    keys = _span_keys(m.q, np.concatenate([G, pad], axis=1))
                    assert {k.tobytes() for k in keys} == brute.pop(subtype), (m, n, subtype)
            assert not brute, (m, n, sorted(brute))


def test_scan_distances_match_brute_force():
    rings = [(m, n) for m in (Z4, Z5, Z7, Z8, Z9) for n in (1, 2, 3)]
    rings += [(m, n) for m in (Modulus(2, 4), Modulus(5, 2), Z27) for n in (1, 2)]
    # n = 4 holds spaces with k_1 = n, with k_1 = 0 and with mixed subtypes
    rings += [(Z4, 4), (Z5, 4)]
    spaces = [SearchSpace(m, n, subtype) for m, n in rings for subtype in all_subtypes(m, n)]
    # many distinct columns over several placements
    spaces += [SearchSpace(Z8, 4, (1, 1, 1)), SearchSpace(Z9, 4, (2, 1))]
    for space in spaces:
        q, n = space.modulus.q, space.n
        for start, d in scan_space(space):
            G = _chunk_generators(space, start, d)
            words = _span_keys(q, G)[:, :, None] // q ** np.arange(n) % q
            lee = np.minimum(words, q - words).sum(axis=2)
            brute = np.where(lee > 0, lee, lee.max() + 1).min(axis=1)
            assert np.array_equal(d, brute), space


def test_scan_sums_lee_weights_past_int32():
    # the socle codes of Z/2^31 at n = 2: <(2^30, 2^30)> has d_L = 2^31,
    # one past the int32 range
    space = SearchSpace(Modulus(2, 31), 2, (0,) * 30 + (1,))
    assert np.concatenate([d for _, d in scan_space(space)]).tolist() == [2**30, 2**31, 2**30]
    assert max_lee_distance_census(space).max_d == 2**31


def _placement_blocks(space):
    """(placement, generators) for each placement of the space in turn, the
    generators decoded from np.indices over its free slots' radices, the
    last slot fastest."""
    for placement in space.placements():
        base, slots = _placement_slots(space, placement)
        radices = [radix for (_, _, _, radix) in slots]
        digits = np.indices(radices).reshape(len(radices), math.prod(radices))
        G = np.repeat(base[None], digits.shape[1], axis=0)
        for (row, col, scale, _), x in zip(slots, digits):
            G[:, row, col] = x * scale
        yield placement, G


_MULTI_PLACEMENT_SPACES = [
    SearchSpace(m, n, subtype)
    for m, n in [(Z4, 3), (Z4, 4), (Z8, 3), (Z9, 3)] for subtype in all_subtypes(m, n)
    if len(list(SearchSpace(m, n, subtype).placements())) > 1
] + [SearchSpace(Z8, 4, (1, 1, 1)), SearchSpace(Z9, 4, (1, 1)), SearchSpace(Z9, 4, (2, 1))]


# the socle codes of rank 3 over Z/2^31 at n = 4: q^K passes 2^63, so no
# exact key of a column in base q fits an int64
_SOCLE_2_31 = SearchSpace(Modulus(2, 31), 4, (0,) * 30 + (3,))

# spaces with many distinct columns over several placements
_CAPPED_SPACES = [SearchSpace(Z9, 4, (2, 1)), SearchSpace(Z8, 4, (1, 1, 1)), _SOCLE_2_31]


def _column_patterns(space):
    """The distinct patterns of the space's columns, each as its base column
    and the (row, scale, radix) of its slots, with its options; a block-1
    pivot column, the unit column e_t, is a pattern of one option."""
    patterns = {}
    for placement in space.placements():
        base, slots = _placement_slots(space, placement)
        for b in range(space.n):
            own = tuple((row, scale, radix) for row, col, scale, radix in slots if col == b)
            patterns[tuple(base[:, b]), own] = math.prod(radix for *_, radix in own)
    return patterns


def _cap(space) -> int:
    width = math.prod(search.signed_half(_space_orders(space)))
    return max(1, search.SCAN_CHUNK_CELLS // (width * space.n))


def test_scan_sums_socle_codes_past_2_63():
    assert _SOCLE_2_31.modulus.q ** _SOCLE_2_31.rank > 2**63
    chunks = list(scan_space(_SOCLE_2_31))
    G = _scan_generators(_SOCLE_2_31)
    assert np.array_equal(G, np.concatenate(list(_generator_chunks(_SOCLE_2_31, 4096))))
    d = np.concatenate([d for _, d in chunks])
    # 2^30 times the binary [4, 3] codes: only the even-weight code has d_H 2
    assert Counter(d.tolist()) == {2**30: 14, 2**31: 1}


@pytest.mark.parametrize("cells", [1, 500, 5000])
def test_multi_chunk_scans_match_one_chunk(monkeypatch, cells):
    tables, build = [], search.word_table

    def word_table(orders, gens, q):
        tables.append(build(orders, gens, q))
        return tables[-1]

    monkeypatch.setattr(search, "word_table", word_table)
    whole = {}
    for space in _CAPPED_SPACES:
        tables.clear()
        whole[space] = list(scan_space(space))
        assert len(whole[space]) == 1, space
        # one table per space, one row per option of each distinct column pattern
        assert [len(table) for table in tables] == [sum(_column_patterns(space).values())], space
    monkeypatch.setattr(search, "SCAN_CHUNK_CELLS", cells)
    splits = 0
    for space, [(start, d_one)] in whole.items():
        tables.clear()
        chunks = list(scan_space(space))
        G = np.concatenate([_chunk_generators(space, *chunk) for chunk in chunks])
        assert np.array_equal(G, _chunk_generators(space, start, d_one)), space
        assert np.array_equal(np.concatenate([d for _, d in chunks]), d_one), space
        # no table, shared by the space or built for one box, outgrows a chunk
        assert tables and all(len(table) <= _cap(space) for table in tables), space
        ends = set(itertools.accumulate(len(G) for _, G in _placement_blocks(space)))
        splits += sum(end not in ends for end in itertools.accumulate(len(d) for _, d in chunks))
    assert splits > 0


def test_scan_splits_placements_past_the_chunk_cap(monkeypatch):
    sums, outer = [], search._outer_sums

    def outer_sums(tables):
        sums.append(outer(tables))
        return sums[-1]

    decoded, decode = [], search._decode

    def counted_decode(base, slots, rem):
        decoded.append(len(rem))
        return decode(base, slots, rem)

    monkeypatch.setattr(search, "_outer_sums", outer_sums)
    monkeypatch.setattr(search, "_decode", counted_decode)
    cells = search.SCAN_CHUNK_CELLS
    for space in _CAPPED_SPACES:
        monkeypatch.setattr(search, "SCAN_CHUNK_CELLS", cells)
        [(start, d_one)] = scan_space(space)
        G_one = _chunk_generators(space, start, d_one)
        width = math.prod(search.signed_half(_space_orders(space)))
        sizes = [len(G) for _, G in _placement_blocks(space)]
        # a cap of a third of the largest placement
        monkeypatch.setattr(search, "SCAN_CHUNK_CELLS", max(sizes) // 3 * width * space.n)
        cap = _cap(space)
        assert max(sizes) > 2 * cap, space
        chunks, sums[:] = [], []
        for start, d in scan_space(space):
            chunks.append((_chunk_generators(space, start, d), d))
            # the Lee sums this chunk formed
            assert len(d) <= cap and sum(lee.size for lee in sums) <= cap * width, space
            assert all(lee.shape[1] == width for lee in sums), space
            sums.clear()
        # each chunk is a run of consecutive codes in generator order
        assert np.array_equal(np.concatenate([G for G, _ in chunks]), G_one), space
        assert np.array_equal(np.concatenate([d for _, d in chunks]), d_one), space
        # the largest placement spans at least three chunks
        start = sum(sizes[:sizes.index(max(sizes))])
        inner = [end for end in itertools.accumulate(len(d) for _, d in chunks)
                 if start < end < start + max(sizes)]
        assert len(inner) >= 2, space
        # the census decodes only the codes it keeps, the optimal ones
        decoded.clear()
        result = max_lee_distance_census(space)
        assert result.max_d == d_one.max()
        assert sum(decoded) == (d_one == d_one.max()).sum() > 0, space


def test_generators_decode_every_index_as_the_oracle():
    for space in _MULTI_PLACEMENT_SPACES + [_SOCLE_2_31]:
        oracle = np.concatenate([G for _, G in _placement_blocks(space)])
        G = _generators(space, np.arange(space.candidate_count()))
        assert G.dtype == np.int64 and np.array_equal(G, oracle), space
        # enumeration reads the same generators in ranges of `chunk` indices
        for chunk in (7, 4096):
            chunks = list(_generator_chunks(space, chunk))
            assert all(1 <= len(G) <= chunk for G in chunks), (space, chunk)
            assert np.array_equal(np.concatenate(chunks), oracle), (space, chunk)


def test_generators_decode_any_selection_in_its_order():
    rng = np.random.default_rng(1)
    for space in _MULTI_PLACEMENT_SPACES + [_SOCLE_2_31]:
        oracle = np.concatenate([G for _, G in _placement_blocks(space)])
        index = np.arange(len(oracle))
        subset = rng.permutation(index)[:len(index) // 2 + 1]
        assert np.array_equal(_generators(space, subset), oracle[subset]), space
        assert np.array_equal(_generators(space, index[::-1]), oracle[::-1]), space


def test_generators_of_an_empty_selection_decode_nothing(monkeypatch):
    def no_decode(*args):
        raise AssertionError("_decode was called")

    monkeypatch.setattr(search, "_decode", no_decode)
    for space in _MULTI_PLACEMENT_SPACES:
        for index in (np.arange(0), np.flatnonzero(np.zeros(5, dtype=bool))):
            G = _generators(space, index)
            assert G.shape == (0, space.rank, space.n) and G.dtype == np.int64, space


def test_scan_chunks_start_where_the_chunks_before_end(monkeypatch):
    space = SearchSpace(Z9, 4, (2, 1))
    # a cap of 1000 codes: the largest placement, of 2187, is split, and the
    # small ones share chunks
    monkeypatch.setattr(search, "SCAN_CHUNK_CELLS", 1000 * 135 * 4)
    assert _cap(space) == 1000
    chunks = list(scan_space(space))
    lengths = [len(d) for _, d in chunks]
    assert [start for start, _ in chunks] == list(itertools.accumulate(lengths[:-1], initial=0))
    assert sum(lengths) == space.candidate_count()
    # some chunk holds the codes of more than one placement
    ends = set(itertools.accumulate(len(G) for _, G in _placement_blocks(space)))
    offsets = list(itertools.accumulate(lengths))
    assert any(a < end < b for a, b in zip([0] + offsets, offsets) for end in ends)


def test_block1_pivot_columns_are_slotless_unit_columns():
    # in standard form the pivot column of block-1 row t is the unit column
    # e_t in every code of the placement: it carries no free entry
    for space in _MULTI_PLACEMENT_SPACES:
        unit = np.eye(space.rank, dtype=np.int64)
        for placement, G in _placement_blocks(space):
            base, slots = _placement_slots(space, placement)
            for t, col in enumerate(placement[0]):
                assert (base[:, col] == unit[t]).all(), (space, placement)
                assert all(c != col for _, c, _, _ in slots), (space, placement)
                assert (G[:, :, col] == unit[t]).all(), (space, placement)


def test_census_examples():
    res = max_lee_distance_census(SearchSpace(Z4, 2, (0, 1)))
    assert res.max_d == 4
    rep = LinearCode.from_generator(Z4, [[2, 2]])
    assert len(res.optimal_codes) == 1 and res.optimal_codes[0] == rep

    assert max_lee_distance_census(SearchSpace(Z4, 3, (1, 1))).max_d == 2
    assert max_lee_distance_census(SearchSpace(Z4, 4, (2, 0))).max_d == 4
    assert max_lee_distance_census(SearchSpace(Z5, 2, (1,))).max_d == 3


def test_census_of_many_optima_in_one_class():
    # the 32 optimal codes of Z/3 n=6 subtype (5,) are the duals of the
    # full-weight +-1 vectors up to global sign, all joined by sign flips; a
    # pairwise search between two of them spans 24.3 M generator tuples
    res = max_lee_distance_census(SearchSpace(Z3, 6, (5,)))
    assert res.max_d == 2 and len(res.optimal_codes) == 1
    dual = res.optimal_codes[0].dual()
    assert dual.rank == 1 and all(e in (1, 2) for e in dual.rows[0])
    assert len(max_lee_distance_census(SearchSpace(Z2, 7, (5,))).optimal_codes) == 7


def test_census_determinism_and_json():
    a = max_lee_distance_census(SearchSpace(Z4, 3, (0, 1)))
    b = max_lee_distance_census(SearchSpace(Z4, 3, (0, 1)))
    assert a.to_json() == b.to_json()
    doc = json.loads(a.to_json())
    assert doc["version"] == 2
    assert doc["space"] == {"p": 2, "s": 2, "n": 3, "subtype": [0, 1]}
    assert doc["max_lee_distance"] == 6
    assert doc["codes_examined"] == a.examined


def test_census_attainment_counts():
    res = max_lee_distance_census(SearchSpace(Z5, 2, (1,)))
    # every code of the space is counted once: the 6 lines of F_5^2
    assert res.examined == 6
    assert res.attainment_counts["shiromoto"] >= 1
    # lee_mdr shares shiromoto_rank's value but is attained only at equality
    for m, n, subtype, counts in [
            (Z9, 3, (1, 1), {"chiang_wolf_k1": 0, "lee_mdr": 0, "rank_plotkin": 0,
                             "shiromoto": 4, "shiromoto_rank": 4, "wyner_graham": 0}),
            (Z9, 3, (0, 1), {"lee_mdr": 0, "rank_plotkin": 4, "shiromoto": 4,
                             "shiromoto_rank": 4, "wyner_graham": 0}),
            (Z5, 3, (1,), {"chiang_wolf_k1": 12, "lee_mdr": 0, "rank_plotkin": 12,
                           "shiromoto": 0, "shiromoto_rank": 0, "wyner_graham": 12})]:
        assert max_lee_distance_census(SearchSpace(m, n, subtype)).attainment_counts \
            == counts, (m, n, subtype)


def test_census_counts_agree_with_per_code_attainment():
    # the vectorised census counts and attainers against the scalar
    # attainment_check, code by code, and the pairwise dedup_codes
    lee_bounds = set(BOUND_IDS) - {"singleton_hamming", "singleton_rank"}
    pairs = 0
    for m in (Z4, Z5, Z7, Z8, Z9):
        for n in (1, 2, 3):
            for subtype in all_subtypes(m, n):
                space = SearchSpace(m, n, subtype)
                cells = evaluate_bounds(space.params)
                applicable = {name for name in lee_bounds if cells[name].applicable}
                counts = max_lee_distance_census(space).attainment_counts
                assert set(counts) == applicable, (m, n, subtype)
                codes = list(enumerate_codes(space))
                for name in applicable:
                    attaining = [c for c in codes if attainment_check(c, name)]
                    assert counts[name] == len(attaining), (m, n, subtype, name)
                    found = find_attaining_codes(space, name)
                    expected = dedup_codes(attaining)
                    assert found == expected, (m, n, subtype, name)
                    assert [c.rows for c in found] == [c.rows for c in expected]
                    pairs += 1
    assert pairs == 462


def test_find_attaining_codes():
    hits = find_attaining_codes(SearchSpace(Z5, 2, (1,)), "shiromoto")
    assert len(hits) == 1
    assert signed_perm_equivalent(hits[0], LinearCode.from_generator(Z5, [[1, 2]]))

    hits = find_attaining_codes(SearchSpace(Z4, 3, (0, 1)), "shiromoto")
    assert len(hits) == 1
    assert hits[0] == LinearCode.from_generator(Z4, [[2, 2, 2]])

    assert find_attaining_codes(SearchSpace(Z7, 2, (1,)), "shiromoto") == []


def test_find_attaining_codes_refuses_an_unknown_bound():
    with pytest.raises(ValueError, match="unknown bound id 'no_such_bound'"):
        find_attaining_codes(SearchSpace(Z5, 2, (1,)), "no_such_bound")


@pytest.mark.parametrize("bound_id", ["singleton_hamming", "singleton_rank"])
def test_find_attaining_codes_refuses_a_hamming_bound(bound_id):
    # both apply to every space, so the refusal names the distance instead
    space = SearchSpace(Z5, 2, (1,))
    assert evaluate_bounds(space.params)[bound_id].applicable
    with pytest.raises(ValueError, match=f"bound '{bound_id}' bounds the Hamming distance, "
                                         "and find_attaining_codes scans Lee bounds only"):
        find_attaining_codes(space, bound_id)


def test_find_attaining_codes_refuses_an_inapplicable_lee_bound():
    with pytest.raises(ValueError, match="bound 'z4_singleton' not applicable to "
                                         r"\(Z/5, n=2, subtype=\(1,\)\)"):
        find_attaining_codes(SearchSpace(Z5, 2, (1,)), "z4_singleton")


@pytest.mark.parametrize("cells", [1, 500, 5000])
def test_census_results_match_across_chunk_sizes(monkeypatch, cells):
    # the attainment tallies and the running maximum span chunks
    whole = [max_lee_distance_census(space).to_json() for space in _CAPPED_SPACES]
    monkeypatch.setattr(search, "SCAN_CHUNK_CELLS", cells)
    assert len(list(scan_space(_CAPPED_SPACES[0]))) > 1
    assert [max_lee_distance_census(space).to_json() for space in _CAPPED_SPACES] == whole


def test_verify_mds_socle():
    assert verify_mds_socle(LinearCode.from_generator(Z5, [[1, 2]]))
    assert not verify_mds_socle(LinearCode.from_generator(Z4, [[2, 2, 0]]))
    assert verify_mds_socle(LinearCode.from_generator(Z5, [[1, 0], [0, 1]]))


def test_signed_perm_equivalence():
    a = LinearCode.from_generator(Z9, [[1, 2, 3]])
    # permute columns and flip signs
    b = LinearCode.from_generator(Z9, [[6, 1, 2]])  # (-3, 1, 2)
    assert signed_perm_equivalent(a, b)
    c = LinearCode.from_generator(Z9, [[1, 2, 2]])
    assert not signed_perm_equivalent(a, c)
    # equivalence is invariant under a change of generators
    d = LinearCode.from_generator(Z9, [[2, 4, 6]])  # 2 * (1,2,3), same code
    assert signed_perm_equivalent(a, d)


def test_signed_perm_equivalence_decides_cheap_cases_without_codewords():
    # 5^11 codewords, past the enumeration budget: codes of another length,
    # subtype or support subtype are refused, and an equal code accepted,
    # before any codeword is listed
    big = LinearCode.from_generator(Z5, [[int(i == j) for j in range(12)] for i in range(11)])
    with pytest.raises(BudgetError):
        big.codeword_array()
    spread = LinearCode.from_generator(Z5, [[int(i == j or j == 11) for j in range(12)]
                                            for i in range(11)])
    assert spread.subtype == big.subtype and spread.support_subtype() != big.support_subtype()
    assert not signed_perm_equivalent(big, spread)
    assert not signed_perm_equivalent(big, LinearCode.from_generator(Z5, big.rows[1:]))
    assert not signed_perm_equivalent(big, LinearCode.from_generator(Z5, [[1] * 13]))
    assert signed_perm_equivalent(big, LinearCode.from_generator(Z5, big.rows[::-1]))


def test_equivalence_search_cap_raises_budget_error(monkeypatch):
    a = LinearCode.from_generator(Z9, [[1, 2, 3]])
    b = LinearCode.from_generator(Z9, [[6, 1, 2]])  # pool holds +-(6, 1, 2)
    assert signed_perm_equivalent(a, b)
    monkeypatch.setattr(search, "EQUIVALENCE_CAP", 1)
    with pytest.raises(BudgetError, match="too large"):
        signed_perm_equivalent(a, b)


def test_dedup_codes():
    a = LinearCode.from_generator(Z5, [[1, 2]])
    b = LinearCode.from_generator(Z5, [[2, 1]])   # swapped columns
    c = LinearCode.from_generator(Z5, [[1, 1]])
    assert len(dedup_codes([a, b, c])) == 2
    # the first-seen member of each class is kept, in input order
    kept = dedup_codes([c, b, a])
    assert len(kept) == 2 and kept[0] is c and kept[1] is b


def test_dedup_joins_codes_the_orbit_walk_cannot_reach():
    # <(1,2,3)> and <(3,2,1)> = <(1,3,5)> differ by the transposition of
    # coordinates 0 and 2 only; no code between them is in the input, so the
    # orbit walk refuses the input and only the pairwise check joins them
    a, b, c = [[1, 2, 3]], [[1, 3, 5]], [[1, 1, 0]]
    with pytest.raises(ValueError, match="not closed under the group"):
        _dedup_generators(SearchSpace(Z7, 3, (1,)), np.array([a, b, c]))
    codes = [LinearCode.from_generator(Z7, g) for g in (a, b, c)]
    assert [k.rows for k in dedup_codes(codes)] == [((1, 2, 3),), ((1, 1, 0),)]


def test_dedup_past_exact_int64_keys():
    # over Z/4 at n = 33, q^n = 2^66, past any int64 encoding of a codeword:
    # coordinate 32 would weigh 4^32 = 2^64, so <e_0> and <e_0 + e_32> would
    # share such a key.  The standard-form keys hold every modulus.  The
    # input, every <e_i + e_j> and <e_i - e_j> (i < j) then every <e_i>, is
    # closed under the group and holds two classes.
    n = 33
    pairs = [(i, j, sign) for i, j in itertools.combinations(range(n), 2) for sign in (1, 3)]
    gens = np.zeros((len(pairs) + n, 1, n), dtype=np.int64)
    for g, (i, j, sign) in zip(gens, pairs):
        g[0, [i, j]] = 1, sign
    gens[len(pairs):, 0] = np.eye(n, dtype=np.int64)
    space = SearchSpace(Z4, n, (1, 0))
    assert np.array_equal(search._standard_forms(space, gens), gens)
    labels = search._orbit_labels(space, gens)
    assert Counter(labels.tolist()) == {0: len(pairs), len(pairs): n} and len(pairs) == 1056
    kept = _dedup_generators(space, gens)
    assert [k.given_rows for k in kept] == [((1, 1) + (0,) * (n - 2),),
                                           ((1,) + (0,) * (n - 1),)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_moves_generate_the_signed_permutation_group(n):
    # the orbit of a point of distinct nonzero entries under the forward
    # moves, which a finite group's inverses need not extend, is the group
    moves = search._group_moves(n)
    seen = {tuple(range(1, n + 1))}
    frontier = np.array(list(seen))
    while len(frontier):
        images = {tuple(x) for perm, sign in moves for x in (frontier[:, perm] * sign).tolist()}
        frontier = np.array(sorted(images - seen), dtype=np.int64).reshape(-1, n)
        seen |= images
    assert len(seen) == math.factorial(n) * 2**n
    # the moves are built once per length and shared, so they are read-only
    again = search._group_moves(n)
    assert all(a is b for move, same in zip(moves, again) for a, b in zip(move, same))
    for move in moves:
        for array in move:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_orbit_walk_refuses_a_generator_not_in_standard_form():
    space = SearchSpace(Z5, 3, (1,))
    G = _scan_generators(space)
    assert len(_dedup_generators(space, G)) > 1
    # the same code, but its row times the unit 2 is not its standard form
    G[7] = G[7] * 2 % 5
    assert LinearCode.from_generator(Z5, G[7].tolist()) \
        == LinearCode.from_generator(Z5, _scan_generators(space)[7].tolist())
    with pytest.raises(ValueError, match="not in standard form"):
        _dedup_generators(space, G)


def test_orbit_walk_keeps_each_code_of_length_one():
    # at n = 1 the group is the global sign, which fixes every code; each
    # space holds one code, and the walk still looks up its image
    for m in (Z4, Z5, Z8, Z9, Z27):
        for subtype in all_subtypes(m, 1):
            space = SearchSpace(m, 1, subtype)
            G = _scan_generators(space)
            assert np.array_equal(search._orbit_labels(space, G), np.arange(len(G)))
            assert [c.rows for c in _dedup_generators(space, G)] \
                == [c.rows for c in enumerate_codes(space)]


def _orbit_key(code):
    """The least sorted tuple of codeword encodings over all n! 2^(n-1)
    signed permutations (the global sign maps a code onto itself), so two
    codes share it iff they are signed-permutation equivalent."""
    q, n = code.modulus.q, code.n
    words = code.codeword_array()
    place = q ** np.arange(n, dtype=np.int64)
    signs = [(1,) + rest for rest in itertools.product((1, -1), repeat=n - 1)]
    return min(tuple(np.sort((words[:, list(perm)] * sign % q) @ place))
               for perm in itertools.permutations(range(n)) for sign in signs)


def test_dedup_codes_keeps_one_code_per_orbit():
    # a whole space is closed under the group, so _dedup_generators joins its
    # classes by the orbit walk; dedup_codes compares the codes pairwise
    total = 0
    for m in (Z4, Z5, Z7, Z8, Z9):
        for n in (1, 2, 3):
            for subtype in all_subtypes(m, n):
                space = SearchSpace(m, n, subtype)
                codes = list(enumerate_codes(space))
                total += len(codes)
                unique = dedup_codes(codes)
                kept = [_orbit_key(c) for c in unique]
                assert len(set(kept)) == len(kept), (m, n, subtype)
                assert set(kept) == {_orbit_key(c) for c in codes}, (m, n, subtype)
                G = _scan_generators(space)
                assert [c.rows for c in _dedup_generators(space, G)] \
                    == [c.rows for c in unique], (m, n, subtype)
    assert total == 1648


# -- standard forms ----------------------------------------------------------------

_FORM_SPACES = [SearchSpace(m, n, subtype) for m in (Z4, Z5, Z7, Z8, Z9)
                for n in range(1, 5) for subtype in all_subtypes(m, n)]
_FORM_SPACES += [_SOCLE_2_31, SearchSpace(Modulus(2, 16), 4, (0,) * 13 + (1, 1, 1))]


def _chunk_generators(space, start, d):
    """The generators of one scan chunk, each at the index of its distance."""
    return _generators(space, start + np.arange(len(d)))


def _scan_generators(space):
    return np.concatenate([_chunk_generators(space, *chunk) for chunk in scan_space(space)])


def _row_mixes(rng, q, K, count):
    """`count` random invertible K x K matrices over Z/q: a permutation times
    a unit diagonal times unitriangular lower and upper factors, drawn as
    one batch.  Entries stay below q <= 2^16, so each product of two factors
    sums K terms below 2^32."""
    units = np.array([u for u in range(1, q) if math.gcd(u, q) == 1], dtype=np.int64)
    eye = np.eye(K, dtype=np.int64)
    lower = np.tril(rng.integers(0, q, (count, K, K)), -1) + eye
    upper = np.triu(rng.integers(0, q, (count, K, K)), 1) + eye
    diag = rng.choice(units, (count, K, 1))
    U = diag * lower % q @ upper % q
    rows = rng.permuted(np.tile(np.arange(K), (count, 1)), axis=1)
    return U[np.arange(count)[:, None], rows]


def test_standard_forms_fix_every_scan_generator():
    total = 0
    for space in _FORM_SPACES:
        G = _scan_generators(space)
        assert np.array_equal(search._standard_forms(space, G), G), space
        total += len(G)
    assert total == sum(space.candidate_count() for space in _FORM_SPACES) == 80_825


def test_standard_codes_match_a_second_reduction():
    # a scan generator is its own reduced form, so building its code from it
    # directly gives what a second row reduction gives
    total = 0
    for space in _FORM_SPACES:
        m, n = space.modulus, space.n
        G = _scan_generators(space)
        for code, g in zip(search._standard_codes(space, G), G, strict=True):
            expected = LinearCode.from_generator(m, g.tolist(), n=n)
            assert (code.rows, code.pivots, code.given_rows) \
                == (expected.rows, expected.pivots, expected.given_rows), (space, g)
        total += len(G)
    assert total == 80_825


def test_unit_inverses_match_pow():
    # every unit of each modulus of _FORM_SPACES with fewer than 2^30 units
    for m in sorted({space.modulus for space in _FORM_SPACES if space.modulus.q < 2**31},
                    key=lambda m: m.q):
        units = np.array([u for u in range(1, m.q) if u % m.p], dtype=np.int64)
        assert search._unit_inverses(m, units).tolist() \
            == [pow(u, -1, m.q) for u in units.tolist()], m
    # seeded random units where the products come close to 2^62
    rng = np.random.default_rng(13)
    for m in (Modulus(2, 31), Modulus(2**31 - 1, 1), Modulus(3, 19)):
        units = rng.integers(1, m.q, 20_000)
        units = units[units % m.p != 0][:10_000]
        assert len(units) == 10_000
        assert search._unit_inverses(m, units).tolist() \
            == [pow(u, -1, m.q) for u in units.tolist()], m


def test_standard_forms_are_canonical_under_row_mixes():
    rng = np.random.default_rng(5)
    spaces = [s for s in _FORM_SPACES if s.rank > 1 and s.modulus.q < 2**16]
    spaces += [SearchSpace(Modulus(2, 16), 4, (0,) * 13 + (1, 1, 1))]
    moved = total = 0
    for space in spaces:
        q = space.modulus.q
        G = _scan_generators(space)[:300]
        U = _row_mixes(rng, q, space.rank, len(G))
        mixed = np.einsum("bij,bjn->bin", U, G) % q
        assert np.array_equal(search._standard_forms(space, mixed), G), space
        moved += int((mixed != G).any(axis=(1, 2)).sum())
        total += len(G)
    assert moved > 0.9 * total


def test_standard_forms_agree_with_codeword_sets():
    # inputs: every code of the space under three random row mixes, so each
    # code comes as several generators; two share a form iff they span the
    # same codewords
    rng = np.random.default_rng(9)
    for space in [SearchSpace(Z8, 3, (1, 1, 0)), SearchSpace(Z9, 3, (1, 1)),
                  SearchSpace(Z4, 4, (1, 1)), SearchSpace(Z7, 3, (2,))]:
        q = space.modulus.q
        G = np.concatenate([_scan_generators(space)] * 3)
        G = np.einsum("bij,bjn->bin", _row_mixes(rng, q, space.rank, len(G)), G) % q
        forms = [g.tobytes() for g in search._standard_forms(space, G)]
        spans = [k.tobytes() for k in _span_keys(q, G)]
        assert len(set(forms)) == len(set(spans)) == len(set(zip(forms, spans))) \
            == len(G) // 3, space


def test_standard_forms_refuse_another_subtype():
    space = SearchSpace(Z9, 3, (1, 1))
    for G in ([[1, 2, 3], [2, 4, 6]],     # rank 1: the second row is twice the first
              [[1, 0, 0], [0, 1, 0]],     # subtype (2, 0)
              [[3, 0, 0], [0, 3, 0]],     # subtype (0, 2)
              [[1, 0, 0], [0, 0, 0]]):    # a zero row
        with pytest.raises(ValueError, match="subtype is not"):
            search._standard_forms(space, np.array([G]))
    with pytest.raises(ValueError, match="shape"):
        search._standard_forms(space, np.zeros((1, 3, 3), dtype=np.int64))
    # a refusal for one code of a batch refuses the batch
    good = _scan_generators(space)[:5]
    with pytest.raises(ValueError, match="subtype is not"):
        search._standard_forms(space, np.concatenate([good, [[[1, 0, 0], [0, 1, 0]]]]))


def test_all_subtypes():
    subs = list(all_subtypes(Z4, 2))
    assert (1, 0) in subs and (0, 2) in subs and (0, 0) not in subs
    assert all(1 <= sum(s) <= 2 for s in subs)


def test_characterization_z4_singleton_small():
    rep = check_characterization("z4_singleton", [Z4], 3)
    assert rep["verdict"] == "EQUAL"


def test_characterization_rank2_equidistant_small():
    rep = check_characterization("rank2_equidistant", [Z9], 4)
    assert rep["verdict"] == "EQUAL"
    assert rep["generators_scanned"] > 0
    with pytest.raises(BudgetError):   # Z/9 n=4 holds 1,080 free cyclic codes
        check_characterization("rank2_equidistant", [Z9], 4, budget=1_000)


def test_characterization_rank2_equidistant_needs_no_table_of_the_ring():
    # a q-entry table of Lee weights per ring peaks at 96 MiB over Z/2^22;
    # the 2^21 scalars of the unit generator are taken in blocks instead
    tracemalloc.start()
    try:
        rep = check_characterization("rank2_equidistant", [Modulus(2, 22)], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["survivors"] == 0 and rep["generators_scanned"] == 21
    assert peak < 24 * 2**20


def test_characterization_rank2_equidistant_blocks_of_scalars_agree(monkeypatch):
    # one scalar and one generator per block: every code's extremes are
    # joined across blocks, and the p = 2 survivors must come out the same
    whole = check_characterization("rank2_equidistant", [Z4, Z8, Z9], 3)
    monkeypatch.setattr(search, "ENUMERATION_CHUNK", 1)
    assert check_characterization("rank2_equidistant", [Z4, Z8, Z9], 3) == whole
    assert whole["survivors"] > 0


@pytest.mark.parametrize("m, n_max, scanned", [(Z9, 6, 99_463), (Z27, 3, 1_220)])
def test_characterization_rank2_equidistant_scans_each_cyclic_code_once(m, n_max, scanned):
    p, s = m.p, m.s
    spaces = [SearchSpace(m, n, tuple(int(i == v) for i in range(s)))
              for n in range(1, n_max + 1) for v in range(s - 1)]
    # words of valuation v, over the p^(s-v-1)(p-1) unit multiples giving each code
    words = sum((p ** ((s - v) * n) - p ** ((s - v - 1) * n)) // (p ** (s - v - 1) * (p - 1))
                for n in range(1, n_max + 1) for v in range(s - 1))
    rep = check_characterization("rank2_equidistant", [m], n_max)
    assert rep["verdict"] == "EQUAL" and rep["survivors"] == 0
    assert rep["generators_scanned"] == sum(sp.candidate_count() for sp in spaces) \
        == words == scanned


def test_characterization_rank2_equidistant_p2_survivors_are_cyclic_codes():
    # the single-generator reduction is only sufficient: over Z/4 at n = 3 it
    # lists Lee-equidistant cyclic codes, which are no rank-2 counterexamples
    rep = check_characterization("rank2_equidistant", [Z4], 3)
    assert rep["verdict"] == "EXTRA" and rep["survivors"] == len(rep["extra"]) == 6
    codes = set()
    for entry in rep["extra"]:
        assert entry.startswith("Z/2^2, n=3: cyclic ")
        code = LinearCode.from_generator(Z4, [list(ast.literal_eval(entry.split("cyclic ")[1]))])
        assert code.rank == 1 and code.is_lee_equidistant()
        codes.add(frozenset(tuple(w.entries) for w in code.codewords()))
    assert len(codes) == 6


def test_rank2_equidistant_witness_of_length_36_over_z9():
    # the claim "no Lee-equidistant rank-2 code with both generators of order
    # above p" fails at n = 36: one column per sign class {v, -v} of (Z/9)^2
    # with a unit entry gives a free Lee-equidistant code; the cyclic check
    # stays EQUAL because it stops at n = 6
    columns = [v for v in itertools.product(range(9), repeat=2)
               if any(e % 3 for e in v) and v < tuple(-e % 9 for e in v)]
    assert len(columns) == 36
    code = LinearCode.from_generator(Z9, [list(row) for row in zip(*columns)])
    assert code.subtype == (2, 0)
    assert code.is_lee_equidistant() and code.min_lee_distance() == 81
    assert check_characterization("rank2_equidistant", [Z9], 6)["verdict"] == "EQUAL"


def test_characterization_alderson_small():
    rep = check_characterization("alderson_huntemann", [Z5, Z4], 4)
    assert rep["verdict"] == "EQUAL"


def test_characterization_plotkin_rank_small():
    rep = check_characterization("plotkin_rank", [Z5], 4)
    assert rep["verdict"] == "EQUAL"
    assert rep["attainers"] > 0  # the equidistant witnesses are found


def test_characterization_rank_sb_small():
    rep = check_characterization("rank_sb", [Z4, Z5], 3)
    assert rep["verdict"] == "EQUAL"


def test_characterization_rank_sb_z9_has_known_counterexamples():
    # the floor-form rank characterization genuinely fails over Z/9: the
    # scaled repetition code <(3,3)> attains floor((d-1)/M) = n - K without
    # being in the claimed family
    rep = check_characterization("rank_sb", [Z9], 2)
    assert rep["verdict"] == "EXTRA"
    assert any("(3, 3)" in x for x in rep["extra"])


def test_characterization_plotkin_rank_z9_has_non_free_extras():
    # non-free socle codes such as <(3,3,3)> meet A(3,2,1)(n-K+1) exactly but
    # lie outside the predicted family
    rep = check_characterization("plotkin_rank", [Z9], 4)
    assert rep["verdict"] == "EXTRA"
    assert rep["extra"] == ["(Z/3^2, n=3, subtype=(0, 1)): d=9",
                            "(Z/3^2, n=4, subtype=(0, 1)): d=12",
                            "(Z/3^2, n=4, subtype=(0, 2)): d=9"]


def test_characterization_shiromoto_small():
    rep = check_characterization("shiromoto", [Z4, Z5, Z7], 3)
    assert rep["verdict"] == "EQUAL"
    assert rep["ceiling_form_extras"] == []


def test_characterization_shiromoto_z9_ceiling_form_extras():
    rep = check_characterization("shiromoto", [Z9], 3)
    assert rep["verdict"] == "EQUAL"   # strict original form: family is exact
    assert any("(3, 3)" in x for x in rep["ceiling_form_extras"])


def test_shiromoto_per_code_family_is_the_catalog_witness():
    # the theorem's codes over p = 2 of rank K = ceil(k) = n - 1, k no
    # integer, and d_L = q are <(M, M)> alone, the first witness of
    # catalog_mld at n = 2 (the proof is in _check_shiromoto's docstring),
    # so the check filters them through the catalog
    for m, n_max, spaces in [(Z4, 5, 4), (Z8, 5, 11), (Modulus(2, 4), 4, 14),
                             (Modulus(2, 5), 3, 12)]:
        found, scanned = [], 0
        for space in search._spaces([m], n_max, search.CENSUS_BUDGET):
            params = space.params
            if params.k != params.K == params.ceil_k == space.n - 1:
                scanned += 1
                for start, d in scan_space(space):
                    G = _chunk_generators(space, start, d)
                    found.extend(LinearCode.from_generator(m, g.tolist()) for g in G[d == m.q])
        assert scanned == spaces, m
        assert found == [search.catalog_mld(m, 2)[0]]
        assert found == [LinearCode.from_generator(m, [[m.M, m.M]])]


def test_characterizations_read_the_witness_catalog(monkeypatch):
    # the Singleton-type checks name their witnesses through catalog_mld alone
    catalog = search.catalog_mld
    rep = check_characterization("shiromoto", [Z5], 2)
    assert (rep["verdict"], rep["extra"], rep["missing"]) == ("EQUAL", [], [])
    monkeypatch.setattr(search, "catalog_mld",
                        lambda m, n: [c for c in catalog(m, n) if m != Z5])
    witness = ["(Z/5, n=2, subtype=(1,)): [(1, 2)]"]
    rep = check_characterization("shiromoto", [Z5], 2)
    assert (rep["verdict"], rep["extra"], rep["missing"]) == ("EXTRA", witness, [])
    assert check_characterization("rank_sb", [Z5], 2)["extra"] == witness
    # the Z/4 check predicts the catalog, so without the duals they are extras
    monkeypatch.setattr(search, "catalog_mld", lambda m, n: catalog(m, n)[:1])
    rep = check_characterization("z4_singleton", [Z4], 3)
    extras = [entry.split(": ") for entry in rep["extra"]]
    assert [n for n, _ in extras] == ["n=2", "n=3"]
    assert [LinearCode.from_generator(Z4, ast.literal_eval(rows)) for _, rows in extras] == \
        [catalog(Z4, n)[1] for n in (2, 3)]
    assert rep["missing"] == []
    # a witness that misses the strict type form is listed in the extras' format
    weak = LinearCode.from_generator(Z5, [[1, 1]])
    monkeypatch.setattr(search, "catalog_mld", lambda m, n: catalog(m, n) + [weak] * (n == 2))
    rep = check_characterization("shiromoto", [Z5], 2)
    assert (rep["verdict"], rep["missing"]) == ("MISSING", ["Z/5, n=2: [(1, 1)]"])


def test_characterization_z4_singleton_lists_a_witness_that_misses_the_bound(monkeypatch):
    # <(1, 1)> has d_L = 2, below the bound at n = 2, and no attainer is
    # equivalent to it
    catalog = search.catalog_mld
    weak = LinearCode.from_generator(Z4, [[1, 1]])
    monkeypatch.setattr(search, "catalog_mld", lambda m, n: catalog(m, n) + [weak] * (n == 2))
    rep = check_characterization("z4_singleton", [Z4], 3)
    assert (rep["verdict"], rep["extra"], rep["missing"]) == ("MISSING", [], ["n=2: [(1, 1)]"])


def _alderson_predicted(space):
    params = space.params
    m, n, K, k, free = space.modulus, space.n, space.rank, params.k, params.is_free
    if m.p != 2:
        return (m.q == 5 and k + 1 <= n <= k + 3) or (free and m.q in (7, 9) and n == k + 1)
    return (free and m.s == 2 and k + 1 <= n <= k + 2) or (free and m.s == 3 and n == k + 1) \
        or (k + 1 == K and K in (n, n - 1))


def _plotkin_family(space):
    n, K, p = space.n, space.rank, space.modulus.p
    return n <= p + 1 and n - K + 1 in (p - 1, (p - 1) // 2)


# the spaces each scanning check allows whole
_ALLOWED = {
    "shiromoto": lambda space: math.ceil(space.params.k) == space.n,
    "rank_sb": lambda space: space.rank == space.n or (space.modulus.p == 2
                                                      and space.rank == space.n - 1),
    "alderson_huntemann": _alderson_predicted,
    "z4_singleton": lambda space: space.subtype == (space.n, 0),
    "plotkin_rank": _plotkin_family,
}


def test_characterizations_keep_no_code_of_an_allowed_space(monkeypatch):
    # a space whose every code the theorem allows is scanned and counted,
    # but none of its codes is kept, so none is classed
    allowed = {theorem: _ALLOWED[theorem]
               for theorem in ["shiromoto", "rank_sb", "alderson_huntemann", "z4_singleton"]}
    examined = {"shiromoto": 683, "rank_sb": 683, "alderson_huntemann": 196,
                "z4_singleton": 144}
    classed = []
    dedup = search._dedup_generators

    def recorded(space, G):
        classed.append(space)
        return dedup(space, G)

    monkeypatch.setattr(search, "_dedup_generators", recorded)
    for theorem, whole in allowed.items():
        classed.clear()
        assert check_characterization(theorem, [Z4, Z5, Z9], 3)["examined"] == examined[theorem]
        assert classed and not [space for space in classed if whole(space)], theorem



def test_characterizations_class_each_space_once(monkeypatch):
    # the sweep keeps one interval per space and classes its codes itself,
    # so no check classes a space twice, Shiromoto's two forms included;
    # plotkin_rank keeps no code, so it classes none
    classed = Counter()
    dedup = search._dedup_generators

    def recorded(space, G):
        classed[space] += 1
        return dedup(space, G)

    monkeypatch.setattr(search, "_dedup_generators", recorded)
    for theorem in ["shiromoto", "z4_singleton", "rank_sb", "alderson_huntemann"]:
        classed.clear()
        check_characterization(theorem, [Z4, Z5, Z9], 3)
        assert classed and set(classed.values()) == {1}, theorem

def test_characterizations_decode_no_code_of_an_allowed_space(monkeypatch):
    # the sweep counts the attainers of an allowed space without decoding
    # any generator of it: plotkin_rank counts 19 attainers and, keeping no
    # code, decodes none
    decoded, scanning = Counter(), []
    scan, decode = search.scan_space, search._decode

    def scanned(space):
        scanning.append(space)
        return scan(space)

    def counted(base, slots, rem):
        decoded[scanning[-1]] += len(rem)
        return decode(base, slots, rem)

    monkeypatch.setattr(search, "scan_space", scanned)
    monkeypatch.setattr(search, "_decode", counted)
    totals, reports = {}, {}
    for theorem, whole in _ALLOWED.items():
        decoded.clear()
        scanning.clear()
        reports[theorem] = check_characterization(theorem, [Z4, Z5, Z9], 3)
        assert [space for space in scanning if whole(space)], theorem
        assert not [space for space in decoded if whole(space)], theorem
        totals[theorem] = sum(decoded.values())
    # only the attainers of spaces outside the families are decoded
    assert totals == {"shiromoto": 14, "rank_sb": 17, "alderson_huntemann": 0,
                      "z4_singleton": 5, "plotkin_rank": 0}
    assert reports["plotkin_rank"]["attainers"] == 19


def test_characterization_reports_at_n3_match_the_stored_reports():
    # every field of the six reports, including those the sweep script
    # leaves out: space_max, attainers, vacuous_failures, survivors and
    # generators_scanned
    reports = {theorem: check_characterization(theorem, [Z4, Z5, Z7, Z8, Z9], 3)
               for theorem in ["shiromoto", "z4_singleton", "rank_sb", "alderson_huntemann",
                               "plotkin_rank", "rank2_equidistant"]}
    stored = json.loads((DATA / "characterization_reports_n3.json").read_text())
    assert json.loads(json.dumps(reports)) == stored


@pytest.mark.parametrize("theorem", ["shiromoto", "z4_singleton", "rank_sb",
                                     "alderson_huntemann", "plotkin_rank"])
def test_characterization_scans_each_space_once(monkeypatch, theorem):
    calls = Counter()
    scan = search.scan_space

    def counted(space, *args, **kwargs):
        calls[space] += 1
        return scan(space, *args, **kwargs)

    monkeypatch.setattr(search, "scan_space", counted)
    check_characterization(theorem, [Z4, Z5, Z9], 3)
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("theorem", ["shiromoto", "z4_singleton", "rank_sb",
                                     "alderson_huntemann", "plotkin_rank"])
def test_characterizations_match_across_many_chunks(monkeypatch, theorem):
    # with one code per chunk, the sweep keeps and joins each target's codes
    # over as many chunks as codes (683 for shiromoto)
    whole = check_characterization(theorem, [Z4, Z5, Z9], 3)
    chunks = 0
    scan = search.scan_space

    def counted(space):
        nonlocal chunks
        for chunk in scan(space):
            chunks += 1
            yield chunk

    monkeypatch.setattr(search, "SCAN_CHUNK_CELLS", 1)
    monkeypatch.setattr(search, "scan_space", counted)
    assert check_characterization(theorem, [Z4, Z5, Z9], 3) == whole
    assert chunks == whole["examined"]


def test_characterization_plotkin_rank_evaluates_the_bound_once_per_space(monkeypatch):
    calls = Counter()
    bound = BOUNDS["rank_plotkin"]

    def counted(params):
        calls[params] += 1
        return bound.evaluate(params)

    monkeypatch.setitem(BOUNDS, "rank_plotkin", dataclasses.replace(bound, evaluate=counted))
    # the check reads the bound cells through their cache
    bounds._cell_fields.cache_clear()
    try:
        report = check_characterization("plotkin_rank", [Z5, Z9], 3)
    finally:
        bounds._cell_fields.cache_clear()
    spaces = [SearchSpace(m, n, subtype).params
              for m in (Z5, Z9) for n in range(1, 4) for subtype in all_subtypes(m, n)]
    assert report["attainers"] and calls == Counter(spaces)


def test_characterization_rejects_unknown_theorem():
    with pytest.raises(ValueError, match="unknown characterization id"):
        check_characterization("singleton", [Z4], 2)


@pytest.mark.parametrize("theorem", ["shiromoto", "z4_singleton", "rank_sb",
                                     "alderson_huntemann", "plotkin_rank", "rank2_equidistant"])
def test_characterization_refuses_n_max_below_1(monkeypatch, theorem):
    def no_space(*args, **kwargs):
        raise AssertionError("a space was built")
    monkeypatch.setattr(search, "SearchSpace", no_space)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match=f"n_max = {n_max} is below 1"):
            check_characterization(theorem, [Z4, Z5], n_max)
