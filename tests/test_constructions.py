import pytest
from fractions import Fraction

from leecodes.bounds import CodeParams, attainment_check, type_form_max_d
from leecodes.codes import LinearCode
from leecodes.constructions import (EquidistantSpec, catalog_mld,
                                    equidistant_rank1, equidistant_rank2,
                                    equidistant_weight,
                                    predict_generator_subtypes,
                                    predict_support_subtype, sign_class_reps)
from leecodes.ring import Modulus
from leecodes.search import SearchSpace, enumerate_codes, signed_perm_equivalent

Z4 = Modulus(2, 2)
Z5 = Modulus(5, 1)
Z8 = Modulus(2, 3)
Z9 = Modulus(3, 2)
Z27 = Modulus(3, 3)

# the published example generators
EX_RANK1_Z9 = (1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 4)
EX_RANK1_Z27 = (3, 3, 6, 6, 9, 12, 12, 15, 18, 21, 24)
EX_RANK2_Z9_I1 = [(1, 1, 1, 2, 2, 2, 4, 4, 4, 3, 3, 0),
                  (0, 3, 6, 0, 3, 6, 0, 3, 6, 3, 6, 3)]
EX_RANK2_Z9_I2 = [(3, 3, 3, 3, 3, 3, 0, 0),
                  (0, 3, 6, 0, 3, 6, 3, 3)]
EX_RANK2_Z27_I1 = [
    tuple(e for x in (1, 2, 4, 5, 7, 8, 10, 11, 13) for e in (x, x, x))
    + (3, 3, 6, 6, 12, 12) + (9, 9) + (0,),
    (0, 9, 18) * 9 + (9, 18) * 4 + (9,),
]
EX_RANK2_Z27_I2 = [(3, 3, 3, 6, 6, 6, 12, 12, 12, 9, 9, 0),
                   (0, 9, 18, 0, 9, 18, 0, 9, 18, 9, 18, 9)]


def test_sign_class_reps():
    assert sign_class_reps(Z9, 0) == [1, 2, 4]
    assert sign_class_reps(Z9, 1) == [3]
    assert sign_class_reps(Z27, 1) == [3, 6, 12]
    assert sign_class_reps(Z27, 2) == [9]


def test_spec_validation():
    with pytest.raises(ValueError):
        EquidistantSpec(Z4, 1, 1)       # p = 2 is catalog territory
    with pytest.raises(ValueError):
        EquidistantSpec(Z9, 3, 1)       # level out of range
    with pytest.raises(ValueError):
        EquidistantSpec(Z5, 1, 2)       # rank 2 needs s >= 2


def test_equidistant_weight_rejects_a_fractional_weight():
    # 2^2 (2^2 - 1) / 8 = 12/8 over Z/4 at level 2
    with pytest.raises(ValueError, match="not an integer"):
        equidistant_weight(Z4, 2)


def test_rank1_z9_matches_published_example():
    code = equidistant_rank1(EquidistantSpec(Z9, 1, 1))
    assert code.n == 11
    assert code.is_lee_equidistant()
    assert code.min_lee_distance() == 27 == equidistant_weight(Z9, 1)
    published = LinearCode.from_generator(Z9, [EX_RANK1_Z9])
    assert published.is_lee_equidistant()
    assert published.min_lee_distance() == 27
    assert signed_perm_equivalent(code, published)


def test_rank1_z27_matches_published_example():
    code = equidistant_rank1(EquidistantSpec(Z27, 2, 1))
    assert code.n == 11
    assert code.min_lee_distance() == 81 == equidistant_weight(Z27, 2)
    published = LinearCode.from_generator(Z27, [EX_RANK1_Z27])
    assert signed_perm_equivalent(code, published)


def test_rank1_prime_field_special_case():
    code = equidistant_rank1(EquidistantSpec(Z5, 1, 1))
    assert code == LinearCode.from_generator(Z5, [[1, 2]])
    assert code.min_lee_distance() == 3
    code7 = equidistant_rank1(EquidistantSpec(Modulus(7, 1), 1, 1))
    assert code7.given_rows == ((1, 2, 3),)
    assert code7.is_lee_equidistant()


def test_rank2_z9_level1_matches_published_example():
    code = equidistant_rank2(EquidistantSpec(Z9, 1, 2))
    assert [tuple(r) for r in code.given_rows] == EX_RANK2_Z9_I1
    published = LinearCode.from_generator(Z9, EX_RANK2_Z9_I1)
    assert signed_perm_equivalent(code, published)
    assert code.is_lee_equidistant() and code.min_lee_distance() == 27
    assert code.subtype == (1, 1)


def test_rank2_z9_level2_vs_published_replication():
    code = equidistant_rank2(EquidistantSpec(Z9, 2, 2))
    assert code.n == 4
    assert code.is_lee_equidistant() and code.min_lee_distance() == 9
    assert code.subtype == (0, 2)
    published = LinearCode.from_generator(Z9, EX_RANK2_Z9_I2)
    assert published.is_lee_equidistant()
    assert published.min_lee_distance() == 18
    # the published 8-column matrix is the 2-fold replication of the minimal code
    assert signed_perm_equivalent(code.replicate(2), published)


def test_rank2_z27_level1_matches_published_example():
    code = equidistant_rank2(EquidistantSpec(Z27, 1, 2))
    assert [tuple(r) for r in code.given_rows] == [tuple(r) for r in EX_RANK2_Z27_I1]
    assert code.n == 36
    assert code.is_lee_equidistant()
    assert code.min_lee_distance() == equidistant_weight(Z27, 1) == 243


def test_rank2_z27_level2_matches_published_example():
    code = equidistant_rank2(EquidistantSpec(Z27, 2, 2))
    assert [tuple(r) for r in code.given_rows] == EX_RANK2_Z27_I2
    published = LinearCode.from_generator(Z27, EX_RANK2_Z27_I2)
    assert signed_perm_equivalent(code, published)
    assert code.min_lee_distance() == 81


def test_predicted_support_subtypes():
    assert predict_support_subtype(EquidistantSpec(Z9, 1, 1)) == (9, 2, 0)
    assert predict_support_subtype(EquidistantSpec(Z27, 2, 1)) == (0, 9, 2, 0)
    assert sum(predict_support_subtype(EquidistantSpec(Z9, 1, 2))) == 12
    g1, g2 = predict_generator_subtypes(EquidistantSpec(Z9, 1, 2))
    assert g1 == (9, 2, 1)
    assert g2 == (0, 9, 3)


def test_constructions_meet_their_predictions_small():
    for m, ranks in [(Z9, (1, 2)), (Z27, (1, 2)), (Modulus(5, 2), (1, 2))]:
        for i in range(1, m.s + 1):
            for rank in ranks:
                spec = EquidistantSpec(m, i, rank)
                code = equidistant_rank1(spec) if rank == 1 else equidistant_rank2(spec)
                assert code.is_lee_equidistant()
                assert code.min_lee_distance() == spec.weight
                assert code.support_subtype() == predict_support_subtype(spec)
                if rank == 2:
                    got1 = LinearCode.from_generator(m, [code.given_rows[0]]).support_subtype()
                    got2 = LinearCode.from_generator(m, [code.given_rows[1]]).support_subtype()
                    p1, p2 = predict_generator_subtypes(spec)
                    assert got1 == p1 and got2 == p2


def test_support_identity_on_built_codes():
    # (|C|-1) * w == |C|/(4 p^s) * sum_i n_i (p^(2s) - p^(2i)) on every build
    for m in (Z9, Z27):
        for i in range(1, m.s + 1):
            for rank in (1, 2):
                spec = EquidistantSpec(m, i, rank)
                code = equidistant_rank1(spec) if rank == 1 else equidistant_rank2(spec)
                w = code.min_lee_distance()
                ns = code.support_subtype()
                rhs = Fraction(code.cardinality, 4 * m.q) * sum(
                    ns[j] * (m.q**2 - m.p ** (2 * j)) for j in range(m.s))
                assert (code.cardinality - 1) * w == rhs


def test_scalar_stability():
    spec = EquidistantSpec(Z27, 1, 1)
    code = equidistant_rank1(spec)
    g = code.given_rows[0]
    for lam in (2, 5, 26):
        scaled = LinearCode.from_generator(Z27, [[(lam * e) % 27 for e in g]])
        assert scaled == code
    # p*g generates the p-fold replication of the next level's construction
    # (padded with zero coordinates), so it keeps the original constant weight
    # p * w(level i+1) = w(level i)
    bumped = LinearCode.from_generator(Z27, [[(3 * e) % 27 for e in g]])
    assert bumped.is_lee_equidistant()
    assert bumped.min_lee_distance() == 3 * equidistant_weight(Z27, 2)
    assert bumped.min_lee_distance() == equidistant_weight(Z27, 1)
    nxt = equidistant_rank1(EquidistantSpec(Z27, 2, 1))
    zeros = bumped.support_subtype()[-1]
    padded = LinearCode.from_generator(
        Z27, [tuple(nxt.given_rows[0]) * 3 + (0,) * zeros])
    assert signed_perm_equivalent(bumped, padded)


def test_rank1_at_the_socle_level_replicates_the_socle_code():
    # at level i = s the rank-1 construction is p copies of the socle code
    # <p^(s-1) * (1, ..., (p-1)/2)>, which is Lee-equidistant and p times shorter
    for m in (Z9, Modulus(5, 2), Z27):
        p, s = m.p, m.s
        code = equidistant_rank1(EquidistantSpec(m, s, 1))
        base = LinearCode.from_generator(m, [[p ** (s - 1) * a for a in range(1, (p + 1) // 2)]])
        assert base.is_lee_equidistant() and base.n * p == code.n
        assert signed_perm_equivalent(code, base.replicate(p)), m


def test_catalog_mld():
    cat = catalog_mld(Z5, 2)
    assert len(cat) == 1 and cat[0] == LinearCode.from_generator(Z5, [[1, 2]])
    assert cat[0].min_lee_distance() == 3

    cat = catalog_mld(Z8, 3)
    assert cat[0] == LinearCode.from_generator(Z8, [[4, 4, 4]])
    assert cat[0].min_lee_distance() == 12

    cat = catalog_mld(Z4, 2)
    rep = LinearCode.from_generator(Z4, [[2, 2]])
    assert any(c == rep for c in cat)
    assert any(c == rep.dual() for c in cat)

    assert catalog_mld(Z5, 3) == []

    # at n = 1 the repetition code <(2)> is its own dual, listed once
    assert catalog_mld(Z4, 1) == [LinearCode.from_generator(Z4, [[2]])]

    # the Shiromoto check lists a witness as missing unless it strictly
    # attains the type form, and the rank-SB check allows the witnesses
    # below full rank as rank-form attainers
    for m in (Z4, Z8, Modulus(2, 4), Z5):
        for n in range(1, 6):
            for w in catalog_mld(m, n):
                assert w.min_lee_distance() >= type_form_max_d(CodeParams.from_code(w)), (m, n)
                assert w.rank == n or attainment_check(w, "shiromoto_rank"), (m, n)


def test_each_catalog_witness_is_the_first_code_of_its_class():
    # the characterization checks name a class by equality of its root, the
    # first code of the class in generator order, with a witness
    rings = [Modulus(p, s) for p, s in
             [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5)]]
    witnesses = 0
    for m in rings:
        for n in range(1, 7):
            for w in catalog_mld(m, n):
                space = SearchSpace(m, n, w.subtype)
                first = next(c for c in enumerate_codes(space) if signed_perm_equivalent(c, w))
                assert first == w, (m, n, w.rows)
                witnesses += 1
    assert witnesses == 30


@pytest.mark.parametrize("n", [0, -2])
def test_catalog_mld_refuses_a_length_below_1(n):
    # no code of length n < 1 exists, so there is no witness to name
    with pytest.raises(ValueError, match=f"n = {n} "):
        catalog_mld(Z4, n)
