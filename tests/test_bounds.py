import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from leecodes import bounds
from leecodes.bounds import (BOUND_CACHE_SIZE, BOUNDS, Bound, CodeParams,
                             alderson_huntemann, applicable_levels,
                             attainment_check, chiang_wolf, chiang_wolf_k1,
                             coefficient_A, evaluate_bounds, hamming_to_lee,
                             rank_plotkin, shiromoto_max_d, shiromoto_rank_max_d,
                             singleton_hamming, singleton_rank, subcode_plotkin,
                             wyner_graham, z4_singleton)
from leecodes.codes import LinearCode
from leecodes.constructions import EquidistantSpec, equidistant_rank1
from leecodes.ring import Modulus
from leecodes.search import SearchSpace, all_subtypes, enumerate_codes

Z4 = Modulus(2, 2)
Z5 = Modulus(5, 1)
Z9 = Modulus(3, 2)
Z243 = Modulus(3, 5)
Z25 = Modulus(5, 2)
Z3125 = Modulus(5, 5)


def P(m, n, k, K, k1, ell=None):
    return CodeParams(m, n, Fraction(k), K, k1, ell)


def test_singleton_hamming():
    assert singleton_hamming(P(Z5, 2, 1, 1, 1)) == 2
    assert singleton_hamming(P(Z5, 3, 3, 3, 3)) == 1
    assert singleton_hamming(P(Z4, 3, 2, 2, 2)) == 2


def test_singleton_rank():
    assert singleton_rank(P(Z4, 3, 2, 3, 1)) == 1
    assert singleton_rank(P(Z9, 5, 2, 2, 2)) == 4
    assert singleton_rank(P(Z5, 3, 3, 3, 3)) == 1


def test_z4_singleton():
    assert z4_singleton(P(Z4, 2, Fraction(1, 2), 1, 0)) == 4
    assert z4_singleton(P(Z4, 3, Fraction(3, 2), 2, 1)) == 4
    assert z4_singleton(P(Z4, 3, 3, 3, 3)) == 1
    with pytest.raises(ValueError):
        z4_singleton(P(Z5, 2, 1, 1, 1))


def test_shiromoto_max_d():
    assert shiromoto_max_d(P(Z5, 2, 1, 1, 1)) == 4
    assert shiromoto_max_d(P(Z243, 20, 10, 10, 10)) == 1331
    assert shiromoto_max_d(P(Z5, 2, 2, 2, 2)) == Z5.M


def test_shiromoto_rank_and_mdr():
    assert shiromoto_rank_max_d(P(Z4, 2, 1, 1, 1)) == 4
    assert shiromoto_rank_max_d(P(Z4, 3, 2, 2, 2)) == 4
    assert shiromoto_rank_max_d(P(Z4, 2, 2, 2, 2)) == Z4.M
    assert shiromoto_rank_max_d(P(Z4, 3, 2, 3, 1)) == 2
    assert shiromoto_rank_max_d(P(Z4, 3, Fraction(3, 2), 2, 0)) == 4
    assert shiromoto_rank_max_d(P(Z4, 3, 3, 3, 3)) == 2


def test_alderson_huntemann():
    assert alderson_huntemann(P(Z5, 3, 2, 2, 2)) == 2
    assert alderson_huntemann(P(Z243, 20, 10, 10, 10)) == 1210
    assert alderson_huntemann(P(Z5, 3, 1, 1, 1)) is None
    assert alderson_huntemann(P(Z4, 3, Fraction(3, 2), 2, 1)) is None


def test_wyner_graham():
    assert math.floor(wyner_graham(P(Z243, 20, 10, 10, 10))) == 1214
    assert wyner_graham(P(Z4, 2, Fraction(1, 2), 1, 0)) == 4
    assert math.floor(wyner_graham(P(Z25, 30, 15, 15, 15))) == 187


def test_chiang_wolf():
    assert math.floor(chiang_wolf(P(Z243, 20, 10, 10, 10))) == 671
    assert math.floor(chiang_wolf(P(Z25, 30, 15, 15, 15))) == 104
    assert math.floor(chiang_wolf(P(Z3125, 20, 10, 10, 10))) == 8596
    assert chiang_wolf(P(Z4, 2, Fraction(1, 2), 1, 0)) is None   # not free
    assert chiang_wolf(P(Z5, 3, 1, 1, 1)) is None                # k < 2


def test_chiang_wolf_k1():
    # the curve convention: value at the point one step into the sweep
    assert math.floor(chiang_wolf_k1(P(Z243, 22, Fraction(54, 5), 11, 10))) == 793
    assert chiang_wolf_k1(P(Z4, 3, 3, 3, 3)) == Fraction(4, 3)
    assert chiang_wolf_k1(P(Z4, 3, 3, 3, 3)) == coefficient_A(Z4, 2) * 1
    with pytest.raises(ValueError):
        chiang_wolf_k1(P(Z4, 2, Fraction(1, 2), 1, 0))


def test_coefficient_A():
    assert coefficient_A(Z243, 1) == 81
    assert coefficient_A(Z25, 1) == Fraction(15, 2)
    assert coefficient_A(Z4, 2) == Fraction(4, 3)
    with pytest.raises(ValueError):
        coefficient_A(Z4, 3)


def test_coefficient_A_monotone_and_degenerate():
    for m in [Z4, Z9, Z243, Z25, Modulus(2, 4), Modulus(7, 3)]:
        values = [coefficient_A(m, i) for i in range(1, m.s + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # at the top level it equals the Chiang-Wolf coefficient
        if m.p == 2:
            assert values[-1] == Fraction(2 ** (2 * m.s - 2), 2**m.s - 1)
        else:
            assert values[-1] == Fraction(m.q + 1, 4)


def test_rank_plotkin_stated_vs_plotted():
    rp = rank_plotkin(P(Z243, 20, 10, 10, 10))
    assert rp["stated"] == 891 and rp["plotted"] == 891
    rp = rank_plotkin(P(Z25, 30, 15, 15, 15))
    assert rp["stated"] == 112 and rp["plotted"] == 120
    rp = rank_plotkin(P(Z3125, 20, 10, 10, 10))
    assert rp["plotted"] == 10312


def test_rank_plotkin_reduces_to_chiang_wolf_for_prime_fields():
    # s = 1, odd p, free code: both bounds are (p+1)/4 * (n - k + 1)
    for p, n, k in [(5, 4, 2), (7, 5, 3), (13, 6, 2)]:
        params = P(Modulus(p, 1), n, k, k, k)
        assert rank_plotkin(params)["value"] == chiang_wolf(params)
    c = LinearCode.from_generator(Z5, [[1, 2, 1, 3]])
    params = CodeParams.from_code(c)
    assert rank_plotkin(params)["value"] == Fraction(6, 4) * 4 == 6
    assert c.min_lee_distance() == 6  # the equidistant witness is tight


def test_rank_plotkin_level():
    assert rank_plotkin(P(Z4, 3, 1, 1, 1, ell=2))["plotted"] == 4
    assert rank_plotkin(P(Z4, 4, 1, 1, 1, ell=2))["plotted"] == 5
    assert rank_plotkin(P(Z9, 4, 1, 1, 1, ell=1)) == rank_plotkin(P(Z9, 4, 1, 1, 1))


def test_hamming_to_lee():
    assert hamming_to_lee(Z9, 1, 2) == 6
    assert hamming_to_lee(Z4, 1, 1) == 2
    assert hamming_to_lee(Z9, 2, 0) == 0


def test_subcode_plotkin():
    big = LinearCode.from_generator(Z5, [[1, 0], [0, 1]])
    sub = LinearCode.from_generator(Z5, [[1, 2]])
    assert subcode_plotkin(big, sub) == 3
    c22 = LinearCode.from_generator(Z4, [[2, 2]])
    assert subcode_plotkin(c22, c22) == 4
    line = LinearCode.from_generator(Z4, [[1]])
    assert subcode_plotkin(line, line.socle()) == 2
    with pytest.raises(ValueError):
        subcode_plotkin(sub, big)


def test_subcode_plotkin_equality_iff_equidistant():
    for gens in [[[1, 2]], [[1, 2, 1, 3]], [[1, 0]], [[2, 0, 1], [1, 3, 4]]]:
        c = LinearCode.from_generator(Z5, gens)
        equality = subcode_plotkin(c, c) == c.min_lee_distance()
        assert equality == c.is_lee_equidistant()
    r1 = equidistant_rank1(EquidistantSpec(Z9, 1, 1))
    assert subcode_plotkin(r1, r1) == r1.min_lee_distance()


def test_applicable_levels():
    c = LinearCode.from_generator(Z4, [[0, 1, 1], [2, 0, 0], [0, 0, 2]])
    assert applicable_levels(c) == {1}
    assert applicable_levels(LinearCode.from_generator(Z5, [[1, 2]])) == {1}
    assert applicable_levels(LinearCode.from_generator(Z4, [[1, 1, 1]])) == {1, 2}


def _levels_oracle(code):
    # definition-literal recomputation: a witness of exact order p^l and
    # minimal Hamming weight whose cyclic code has the same Hamming distance
    m = code.modulus
    words = [w.entries for w in code.codewords()]
    d_h = min(sum(1 for e in w if e) for w in words if any(w))
    levels = {1}
    for y in words:
        if not any(y) or sum(1 for e in y if e) != d_h:
            continue
        cyc = {tuple(lam * e % m.q for e in y) for lam in range(m.q)}
        if min(sum(1 for e in w if e) for w in cyc if any(w)) != d_h:
            continue
        levels.add(m.s - min(m.val(e) for e in y if e))
    return levels


def test_applicable_levels_matches_oracle():
    import random

    from leecodes.ring import Modulus
    rng = random.Random(17)
    rings = [Z4, Z9, Modulus(2, 3), Modulus(3, 3)]
    for _ in range(60):
        m = rng.choice(rings)
        n = rng.randint(1, 4)
        rows = [[rng.randrange(m.q) for _ in range(n)]
                for _ in range(rng.randint(1, 2))]
        c = LinearCode.from_generator(m, rows)
        if c.cardinality < 2:
            continue
        assert applicable_levels(c) == _levels_oracle(c)


def test_level_bound_soundness():
    # for every admissible level, both the Hamming-to-Lee comparison and the
    # rank form of the level bound must hold on the code itself
    import itertools as it
    for m in (Z4, Z9):
        for row in it.product(range(m.q), repeat=3):
            if not any(row):
                continue
            c = LinearCode.from_generator(m, [row])
            d_lee, d_ham = c.min_lee_distance(), c.min_hamming_distance()
            for ell in applicable_levels(c):
                assert d_lee <= hamming_to_lee(m, ell, d_ham)
                level_params = CodeParams.from_code(c, ell=ell)
                assert d_lee <= rank_plotkin(level_params)["plotted"]


def test_attainment_check_examples():
    assert attainment_check(LinearCode.from_generator(Z5, [[1, 2]]), "shiromoto")
    dual_ex = LinearCode.from_generator(Z5, [[1, 0, 3, 4], [0, 1, 2, 3]])
    assert attainment_check(dual_ex, "alderson_huntemann")
    c = LinearCode.from_generator(Z4, [[2, 0, 0], [0, 2, 2]])
    assert not attainment_check(c, "lee_mdr")
    # the three-generator example attains the rank form
    c = LinearCode.from_generator(Z4, [[0, 1, 1], [2, 0, 0], [0, 0, 2]])
    assert attainment_check(c, "lee_mdr")
    # unknown and inapplicable bounds are refused
    with pytest.raises(ValueError, match="unknown"):
        attainment_check(c, "rank_plotkin_exact")
    with pytest.raises(ValueError, match="inapplicable"):
        attainment_check(LinearCode.from_generator(Z5, [[1, 2]]), "z4_singleton")


def test_attainment_matches_the_scalar_rule_on_every_small_code():
    # floor((d-1)/M) = R for the floor-form bounds, whose floored value is
    # M(R+1); d equal to the floored value for the others
    def rule(bound, params, floored, d):
        if bound.floor_form:
            M = params.modulus.M
            return (d - 1) // M == floored // M - 1
        return d == floored

    checked = attainers = 0
    for m in (Z4, Modulus(2, 3), Z9):
        for n in (1, 2, 3):
            for subtype in all_subtypes(m, n):
                for code in enumerate_codes(SearchSpace(m, n, subtype)):
                    if code.cardinality < 2:
                        continue
                    params = CodeParams.from_code(code)
                    d = {True: code.min_hamming_distance(), False: code.min_lee_distance()}
                    cells = evaluate_bounds(code)
                    assert list(cells) == list(BOUNDS)
                    for name, bound in BOUNDS.items():
                        direct = bound.cell(params)
                        if not direct.applicable:
                            assert cells[name].attained is None
                            with pytest.raises(ValueError, match="inapplicable"):
                                attainment_check(code, name)
                            continue
                        expected = rule(bound, params, direct.floored, d[bound.hamming])
                        assert cells[name].attained is expected, (code, name)
                        assert attainment_check(code, name) is expected, (code, name)
                        assert bool(bound.attained(params, direct.floored,
                                                   d[bound.hamming])) is expected
                        checked += 1
                        attainers += expected
    assert checked > 10_000 and attainers > 1_000
    # on arrays, as the census reads it
    d = np.arange(1, 20)
    for name in ("shiromoto", "lee_mdr", "wyner_graham", "singleton_hamming"):
        bound, params = BOUNDS[name], P(Z9, 3, 1, 1, 1)
        floored = bound.cell(params).floored
        assert bound.attained(params, floored, d).tolist() == [
            rule(bound, params, floored, int(x)) for x in d]


def test_evaluate_bounds_report():
    cells = evaluate_bounds(P(Z4, 2, Fraction(1, 2), 1, 0))
    assert cells["z4_singleton"].floored == 4
    assert cells["shiromoto"].floored == 4
    assert cells["shiromoto_rank"].floored == 4
    assert cells["wyner_graham"].floored == 4
    assert cells["rank_plotkin"].floored == 4
    assert not cells["alderson_huntemann"].applicable
    assert not cells["chiang_wolf"].applicable
    assert not cells["chiang_wolf_k1"].applicable

    code = LinearCode.from_generator(Z4, [[2, 2]])
    cells = evaluate_bounds(code)
    assert cells["z4_singleton"].attained is True
    assert cells["wyner_graham"].attained is True

    # exact rationals survive in the cells
    cells = evaluate_bounds(P(Z25, 30, 15, 15, 15))
    assert cells["rank_plotkin"].value == Fraction(15, 2) * 16
    assert cells["rank_plotkin"].stated == 112


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams(Z5, 2, Fraction(3), 2, 1)  # k > K
    with pytest.raises(ValueError):
        CodeParams(Z5, 2, Fraction(1), 3, 1)  # K > n
    p = CodeParams.from_subtype(Z9, 4, (1, 2))
    assert p.k == Fraction(2) and p.K == 3 and p.k1 == 1
    assert p.cardinality == 9 * 3 * 3


# -- the per-parameter cache ----------------------------------------------------

CACHE_RINGS = [Modulus(2, 1), Z4, Modulus(2, 3), Modulus(3, 1), Z5, Z9, Z25,
               Modulus(3, 3)]


def every_subtype_params(n_max=6):
    """CodeParams of every subtype (the zero one too) of CACHE_RINGS with
    n <= n_max, with ell unset and with ell = 1..s."""
    for m in CACHE_RINGS:
        for n in range(1, n_max + 1):
            for subtype in itertools.product(range(n + 1), repeat=m.s):
                if sum(subtype) <= n:
                    for ell in (None, *range(1, m.s + 1)):
                        yield CodeParams.from_subtype(m, n, subtype, ell)


def test_cached_cells_equal_direct_evaluation():
    checked = 0
    for params in every_subtype_params():
        direct = {name: bound.cell(params) for name, bound in BOUNDS.items()}
        assert evaluate_bounds(params) == direct, params
        checked += 1
    assert checked > BOUND_CACHE_SIZE  # the cache also evicts on the way
    assert bounds._cell_fields.cache_info().maxsize == BOUND_CACHE_SIZE


def test_each_call_returns_fresh_cells():
    params = CodeParams.from_subtype(Z9, 4, (1, 1))
    first, second = evaluate_bounds(params), evaluate_bounds(params)
    assert all(first[name] is not second[name] for name in BOUNDS)
    first["shiromoto"].attained = True
    assert second["shiromoto"].attained is None
    assert evaluate_bounds(params)["shiromoto"].attained is None

    code = LinearCode.from_generator(Z9, [[1, 2, 3, 4]])
    cells = evaluate_bounds(code)
    attained = cells["shiromoto"].attained
    cells["shiromoto"].attained = not attained
    assert evaluate_bounds(code)["shiromoto"].attained is attained
    assert evaluate_bounds(CodeParams.from_code(code))["shiromoto"].attained is None


def test_bound_values_are_computed_once_per_parameter_tuple(monkeypatch):
    calls = []

    def counting(params):
        calls.append(params)
        return params.n

    monkeypatch.setitem(BOUNDS, "counting", Bound(counting))
    bounds._cell_fields.cache_clear()
    try:
        codes = list(itertools.islice(enumerate_codes(SearchSpace(Z9, 4, (1, 1))), 100))
        assert len(codes) == 100 and len({c.rows for c in codes}) == 100
        for code in codes:
            cells = evaluate_bounds(code)
            assert cells["counting"].floored == 4
            assert attainment_check(code, "counting") == (code.min_lee_distance() == 4)
        assert len(calls) == 1
    finally:
        bounds._cell_fields.cache_clear()
