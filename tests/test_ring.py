import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leecodes.ring import (Modulus, RingVector, ambient_average_weight,
                           gray_map, hamming_weight_vec, ideal_elements,
                           ideal_total_weight, lee_distance, lee_weight_elem,
                           lee_weight_vec)

Z4 = Modulus(2, 2)
Z5 = Modulus(5, 1)
Z9 = Modulus(3, 2)


def all_small_moduli(q_cap):
    out = []
    for p in range(2, q_cap + 1):
        try:
            Modulus(p, 1)
        except ValueError:
            continue
        s = 1
        while p**s <= q_cap:
            out.append(Modulus(p, s))
            s += 1
    return out


def _divide_out(m, a):
    a %= m.q
    if a == 0:
        return m.s
    v = 0
    while a % m.p == 0:
        a //= m.p
        v += 1
    return v


def test_val_matches_divide_out():
    for m in (Z4, Modulus(2, 3), Z9, Modulus(5, 2), Modulus(3, 3)):
        assert [m.val(a) for a in range(m.q)] == [_divide_out(m, a) for a in range(m.q)]
    rng = random.Random(31)
    for m in (Modulus(2, 31), Modulus(3, 19), Modulus(46337, 2)):  # q at or just below 2^31
        near = [m.q - 1 - rng.randrange(1000) for _ in range(200)]
        scaled = [m.p ** rng.randrange(m.s + 1) * rng.randrange(m.q) for _ in range(200)]
        for a in near + scaled + [0, m.q, -1, -m.p, 3 * m.q + m.p]:
            assert m.val(a) == _divide_out(m, a), (m, a)


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(4, 1)
    with pytest.raises(ValueError):
        Modulus(1, 2)
    with pytest.raises(ValueError):
        Modulus(3, 0)
    with pytest.raises(ValueError):
        Modulus(2, 40)  # q over the cap
    assert Modulus(3, 5).q == 243
    assert Modulus(3, 5).M == 121
    assert Modulus(5, 1).M == 2


def test_lee_weight_elem_examples():
    assert lee_weight_elem(Z4, 3) == 1
    assert lee_weight_elem(Z5, 0) == 0
    # cross-check against the full table of Z/9
    table = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 4, 6: 3, 7: 2, 8: 1}
    for a, w in table.items():
        assert lee_weight_elem(Z9, a) == w
    assert lee_weight_elem(Z9, 5) == 4


def test_lee_weight_elem_range_errors():
    with pytest.raises(ValueError):
        lee_weight_elem(Z4, 4)
    with pytest.raises(ValueError):
        lee_weight_elem(Z4, -1)


def test_lee_sign_symmetry_exhaustive():
    for m in all_small_moduli(343):
        for a in range(m.q):
            assert lee_weight_elem(m, a) == lee_weight_elem(m, (m.q - a) % m.q)
            assert lee_weight_elem(m, a) <= m.M


def test_vector_weights():
    assert lee_weight_vec(RingVector(Z4, (2, 2))) == 4
    assert lee_weight_vec(RingVector(Z5, (1, 2))) == 3
    assert lee_weight_vec(RingVector(Z5, (0, 0, 0))) == 0
    assert hamming_weight_vec(RingVector(Z5, (2, 0, 1))) == 2
    assert hamming_weight_vec(RingVector(Z5, (0, 0))) == 0
    assert hamming_weight_vec(RingVector(Z5, (1, 2, 1, 3))) == 4
    with pytest.raises(ValueError):
        RingVector(Z4, (4, 0))


def test_ideal_total_weight_examples():
    assert ideal_total_weight(Z5, 0) == 6
    assert sum(lee_weight_elem(Z5, a) for a in range(5)) == 6
    assert ideal_total_weight(Z4, 0) == 4
    assert ideal_total_weight(Z9, 1) == 6
    with pytest.raises(ValueError):
        ideal_total_weight(Z9, 2)


def test_ideal_total_weight_matches_brute_force_everywhere():
    for m in all_small_moduli(343):
        for i in range(m.s):
            brute = sum(lee_weight_elem(m, a) for a in ideal_elements(m, i))
            assert ideal_total_weight(m, i) == brute


def test_ambient_average_weight():
    assert ambient_average_weight(Z4) == 1
    assert ambient_average_weight(Z5) == Fraction(6, 5)
    assert ambient_average_weight(Modulus(3, 5)) == Fraction(59048, 972)
    for m in all_small_moduli(125):
        assert ambient_average_weight(m) == Fraction(ideal_total_weight(m, 0), m.q)


def test_gray_map_examples():
    assert gray_map(RingVector(Z4, (2, 2))) == (1, 1, 1, 1)
    assert gray_map(RingVector(Z4, (0,))) == (0, 0)
    assert gray_map(RingVector(Z4, (1, 3))) == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        gray_map(RingVector(Z5, (1,)))


def test_gray_map_is_an_isometry_exhaustively():
    import itertools
    for n in (1, 2):
        vectors = [RingVector(Z4, t) for t in itertools.product(range(4), repeat=n)]
        for u in vectors:
            assert sum(gray_map(u)) == lee_weight_vec(u)
            for v in vectors:
                gu, gv = gray_map(u), gray_map(v)
                d_ham = sum(1 for a, b in zip(gu, gv) if a != b)
                assert d_ham == lee_distance(u, v)


def test_gray_map_isometry_exhaustive_n3_n4():
    # all pairs, vectorised through the component table
    import itertools

    import numpy as np
    table = np.array([gray_map(RingVector(Z4, (a,))) for a in range(4)])
    lee = np.minimum(np.arange(4), 4 - np.arange(4))
    for n in (3, 4):
        vecs = np.array(list(itertools.product(range(4), repeat=n)))
        images = table[vecs].reshape(len(vecs), 2 * n)
        diffs = (vecs[:, None, :] - vecs[None, :, :]) % 4
        d_lee = lee[diffs].sum(axis=2)
        d_ham = (images[:, None, :] != images[None, :, :]).sum(axis=2)
        assert (d_lee == d_ham).all()


@given(st.sampled_from([Z4, Z5, Z9, Modulus(2, 3), Modulus(3, 3), Modulus(5, 2)]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_weight_sandwich_property(m, data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    entries = tuple(data.draw(st.integers(min_value=0, max_value=m.q - 1))
                    for _ in range(n))
    v = RingVector(m, entries)
    wl, wh = lee_weight_vec(v), hamming_weight_vec(v)
    assert wh <= wl <= m.M * wh
    assert wl <= n * m.M
