import ast
import dataclasses
import itertools
import json
import random
from collections import Counter, defaultdict

import numpy as np
import pytest

from leecodes import search
from leecodes.bounds import BOUND_IDS, BOUNDS, attainment_check, evaluate_bounds
from leecodes.codes import BudgetError, LinearCode
from leecodes.ring import Modulus
from leecodes.search import (SearchSpace, _dedup_generators, all_subtypes,
                             check_characterization, dedup_codes, enumerate_codes,
                             find_attaining_codes, max_lee_distance_census, scan_space,
                             signed_perm_equivalent, verify_mds_socle)

Z2 = Modulus(2, 1)
Z3 = Modulus(3, 1)
Z4 = Modulus(2, 2)
Z5 = Modulus(5, 1)
Z7 = Modulus(7, 1)
Z8 = Modulus(2, 3)
Z9 = Modulus(3, 2)
Z27 = Modulus(3, 3)


def test_space_validation_and_counts():
    with pytest.raises(ValueError):
        SearchSpace(Z4, 2, (1,))        # wrong subtype length
    with pytest.raises(ValueError):
        SearchSpace(Z4, 1, (1, 1))      # rank over length
    space = SearchSpace(Z5, 2, (1,))
    assert space.candidate_count() == 6      # [2; 1]_5, the lines of F_5^2


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
                G = np.concatenate([G for G, _ in scan_space(space)])
                assert len(G) == _code_count(m.p, n, subtype) == space.candidate_count(), \
                    (m, n, subtype)
                assert len(np.unique(_span_keys(m.q, G), axis=0)) == len(G), (m, n, subtype)
                if space.rank <= rows:
                    pad = np.zeros((len(G), rows - space.rank, n), dtype=np.int64)
                    keys = _span_keys(m.q, np.concatenate([G, pad], axis=1))
                    assert {k.tobytes() for k in keys} == brute.pop(subtype), (m, n, subtype)
            assert not brute, (m, n, sorted(brute))


def test_scan_distances_match_brute_force():
    for m in (Z4, Z5, Z7, Z8, Z9):
        for n in (1, 2, 3):
            for subtype in all_subtypes(m, n):
                for G, d in scan_space(SearchSpace(m, n, subtype)):
                    words = _span_keys(m.q, G)[:, :, None] // m.q ** np.arange(n) % m.q
                    lee = np.minimum(words, m.q - words).sum(axis=2)
                    brute = np.where(lee > 0, lee, lee.max() + 1).min(axis=1)
                    assert np.array_equal(d, brute), (m, n, subtype)


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
    # the vectorised census counts against the scalar attainment_check
    lee_bounds = set(BOUND_IDS) - {"singleton_hamming", "singleton_rank"}
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
                    assert counts[name] == sum(attainment_check(c, name) for c in codes), \
                        (m, n, subtype, name)


def test_find_attaining_codes():
    hits = find_attaining_codes(SearchSpace(Z5, 2, (1,)), "shiromoto")
    assert len(hits) == 1
    assert signed_perm_equivalent(hits[0], LinearCode.from_generator(Z5, [[1, 2]]))

    hits = find_attaining_codes(SearchSpace(Z4, 3, (0, 1)), "shiromoto")
    assert len(hits) == 1
    assert hits[0] == LinearCode.from_generator(Z4, [[2, 2, 2]])

    assert find_attaining_codes(SearchSpace(Z7, 2, (1,)), "shiromoto") == []


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
    # over Z/4 at n = 33, q^n = 2^66: coordinate 32 would weigh 4^32 = 2^64,
    # which vanishes in int64, so <e_0> and <e_0 + e_32> would share a key;
    # such inputs skip the orbit walk and are compared pairwise
    n = 33
    gens = np.zeros((4, 1, n), dtype=np.int64)
    gens[0, 0, :2] = (1, 2)
    gens[1, 0, :2] = (2, 1)        # a swap of the first
    gens[2, 0, 0] = 1
    gens[3, 0, [0, n - 1]] = 1
    kept = _dedup_generators(SearchSpace(Z4, n, (1, 0)), gens)
    assert [k.given_rows for k in kept] == [tuple(map(tuple, gens[i].tolist()))
                                           for i in (0, 2, 3)]


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
                G = np.concatenate([G for G, _ in scan_space(space)])
                assert [c.rows for c in _dedup_generators(space, G)] \
                    == [c.rows for c in unique], (m, n, subtype)
    assert total == 1648


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


def test_characterization_plotkin_rank_evaluates_the_bound_once_per_space(monkeypatch):
    calls = Counter()
    bound = BOUNDS["rank_plotkin"]

    def counted(params):
        calls[params] += 1
        return bound.evaluate(params)

    monkeypatch.setitem(BOUNDS, "rank_plotkin", dataclasses.replace(bound, evaluate=counted))
    report = check_characterization("plotkin_rank", [Z5, Z9], 3)
    spaces = [SearchSpace(m, n, subtype).params
              for m in (Z5, Z9) for n in range(1, 4) for subtype in all_subtypes(m, n)]
    assert report["attainers"] and calls == Counter(spaces)


def test_characterization_rejects_unknown_theorem():
    with pytest.raises(ValueError, match="unknown characterization id"):
        check_characterization("singleton", [Z4], 2)
