"""Schubert points, lower ideals, and the union comparison."""

from __future__ import annotations

import json

import pytest

from hesscomb import (
    ParabolicData,
    Partition,
    Permutation,
    bruhat_leq,
    bruhat_lower_ideal,
    compare_with_schubert_union,
    enumerate_sn,
    identity,
    parabolics,
    partitions,
    perm_from_word,
    poincare_schubert_union,
    schubert_point,
    schubert_point_respects_cosets,
    schubert_union_tops,
    springer_cell_dim,
    springer_contains,
    union_hypothesis,
)

from conftest import subword_ideal


# --- Schubert points ---------------------------------------------------------


def test_schubert_point_identity_flag():
    sp = schubert_point(identity(4), Partition((2, 1, 1)))
    assert sp.point == identity(4)
    assert sp.string_lengths == (0, 0, 0)
    assert sp.word() == ()


def test_schubert_point_example():
    sp = schubert_point(Permutation((3, 4, 1, 2)), Partition((2, 1, 1)))
    assert sp.word() == (3, 2)
    assert sp.point.images == (1, 4, 2, 3)
    assert sp.string_lengths == (0, 1, 1)
    assert sp.tableau.rows == ((1, 2), (4,), (3,))
    assert sp.source.images == (3, 4, 1, 2)


def test_schubert_point_zero_nilpotent_is_inverse_map():
    # for lambda = (1^n) the tableau is the column word of w^(-1) and the
    # Schubert point reproduces the source permutation's cell: its length
    # equals l(w) since every root lies outside the (empty) ideal
    shape = Partition((1, 1, 1, 1))
    for w in enumerate_sn(4):
        sp = schubert_point(w, shape)
        assert sp.point.length() == w.length()


def test_schubert_point_word_multiplies_to_point():
    for total in (2, 3, 4, 5):
        for shape in partitions(total):
            for w in enumerate_sn(total):
                if not springer_contains(w, shape):
                    continue
                sp = schubert_point(w, shape)
                assert perm_from_word(sp.word(), total) == sp.point
                assert sp.point.length() == sum(sp.string_lengths)


def test_schubert_point_length_is_cell_dim():
    for total in (2, 3, 4, 5):
        for shape in partitions(total):
            for w in enumerate_sn(total):
                if springer_contains(w, shape):
                    sp = schubert_point(w, shape)
                    assert sp.point.length() == springer_cell_dim(w, shape)


def test_schubert_point_outside_fiber():
    with pytest.raises(ValueError, match="not in the Springer fiber"):
        schubert_point(Permutation((3, 2, 1, 4)), Partition((2, 2)))


# --- Bruhat lower ideals --------------------------------------------------------


def test_bruhat_lower_ideal_identity():
    assert bruhat_lower_ideal([identity(3)], 3) == {identity(3)}


def test_bruhat_lower_ideal_two_simple_tops():
    s1 = perm_from_word([1], 3)
    s2 = perm_from_word([2], 3)
    assert bruhat_lower_ideal([s1, s2], 3) == {identity(3), s1, s2}


def test_bruhat_lower_ideal_pinned_12_elements():
    # the ideal below s_1 s_2 s_3 s_1 in S_4
    top = perm_from_word([1, 2, 3, 1], 4)
    assert top.images == (3, 2, 4, 1)
    words = [
        [1, 2, 3, 1],
        [1, 2, 3],
        [1, 2, 1],
        [2, 3, 1],
        [1, 2],
        [2, 1],
        [2, 3],
        [1, 3],
        [1],
        [2],
        [3],
        [],
    ]
    expected = {perm_from_word(word, 4) for word in words}
    assert len(expected) == 12
    assert bruhat_lower_ideal([top], 4) == expected


def test_bruhat_lower_ideal_matches_subword_oracle():
    for n in (1, 2, 3, 4):
        for w in enumerate_sn(n):
            got = {u.images for u in bruhat_lower_ideal([w], n)}
            assert got == set(subword_ideal(w.images))


def test_bruhat_lower_ideal_union_of_tops():
    tops = [perm_from_word([1, 2], 4), perm_from_word([3, 2], 4)]
    got = bruhat_lower_ideal(tops, 4)
    expected = {
        u for u in enumerate_sn(4) if any(bruhat_leq(u, t) for t in tops)
    }
    assert got == expected


def test_bruhat_lower_ideal_duplicate_and_dominated_tops():
    w0 = Permutation((4, 3, 2, 1))
    small = perm_from_word([2], 4)
    assert bruhat_lower_ideal([w0, w0, small], 4) == set(enumerate_sn(4))


def test_bruhat_lower_ideal_degree_mismatch():
    with pytest.raises(ValueError):
        bruhat_lower_ideal([identity(3)], 4)


def test_poincare_schubert_union_examples():
    assert str(poincare_schubert_union([perm_from_word([1, 2, 3, 1], 4)], 4)) == (
        "1 + 3t + 4t^2 + 3t^3 + t^4"
    )
    assert poincare_schubert_union([identity(3)], 3).coeffs == (1,)
    w0 = Permutation((3, 2, 1))
    assert poincare_schubert_union([w0], 3).coeffs == (1, 2, 2, 1)


def test_poincare_schubert_union_counts_ideal():
    tops = [perm_from_word([1, 3], 4), perm_from_word([2, 1], 4)]
    poly = poincare_schubert_union(tops, 4)
    assert poly(1) == len(bruhat_lower_ideal(tops, 4))


# --- Union of Schubert varieties ---------------------------------------------------


def test_schubert_union_tops_2_2():
    tops = schubert_union_tops(Partition((2, 2)), ParabolicData.from_iterable(4, (1, 3)))
    assert [t.one_line() for t in tops] == ["2,1,4,3", "3,1,4,2", "4,1,3,2"]


def test_schubert_union_tops_2_1_1():
    tops = schubert_union_tops(
        Partition((2, 1, 1)), ParabolicData.from_iterable(4, (1, 3))
    )
    assert [t.one_line() for t in tops] == [
        "2,1,4,3",
        "3,1,4,2",
        "3,2,4,1",
        "4,1,3,2",
    ]


def test_schubert_union_tops_products_are_reduced():
    from hesscomb import longest_element

    for total in (2, 3, 4, 5):
        for shape in partitions(total):
            for p in parabolics(total):
                w_j = longest_element(p)
                for top in schubert_union_tops(shape, p):
                    # every top splits as (point) * w_J with lengths adding
                    v_part = top * w_j.inverse()
                    assert v_part.length() + w_j.length() == top.length()


def test_union_hypothesis():
    assert union_hypothesis(Partition((2, 2)))
    assert union_hypothesis(Partition((2, 2, 2)))  # two columns
    assert union_hypothesis(Partition((5, 3, 1)))  # three rows
    assert union_hypothesis(Partition((1, 1, 1, 1)))  # one column
    assert not union_hypothesis(Partition((3, 1, 1, 1)))  # four rows, three columns
    assert not union_hypothesis(Partition((3, 3, 3, 1)))


def test_compare_with_schubert_union_2_2():
    report = compare_with_schubert_union(
        Partition((2, 2)), ParabolicData.from_iterable(4, (1, 3))
    )
    assert report.equal
    assert report.in_hypothesis
    assert report.hessenberg_poly.coeffs == (1, 3, 4, 3, 1)
    assert report.schubert_union_poly.coeffs == (1, 3, 4, 3, 1)
    assert len(report.tops) == 3


def test_compare_to_json_dict():
    report = compare_with_schubert_union(
        Partition((2, 2)), ParabolicData.from_iterable(4, (1, 3))
    )
    d = report.to_json_dict()
    assert d["lambda"] == [2, 2]
    assert d["J"] == [1, 3]
    assert d["hessenberg_poly"] == [1, 3, 4, 3, 1]
    assert d["schubert_union_poly"] == [1, 3, 4, 3, 1]
    assert d["equal"] is True
    assert d["in_hypothesis"] is True
    assert [2, 1, 4, 3] in d["tops"]
    json.dumps(d)  # must be serializable as is


def test_main_comparison_holds_in_hypothesis_n_le_5():
    for total in (1, 2, 3, 4, 5):
        for shape in partitions(total):
            for p in parabolics(total):
                report = compare_with_schubert_union(shape, p)
                if report.in_hypothesis:
                    assert report.equal, (shape, p)


def test_schubert_point_respects_cosets_small():
    for total in (1, 2, 3, 4, 5):
        for shape in partitions(total):
            for p in parabolics(total):
                assert schubert_point_respects_cosets(shape, p)


def test_schubert_point_respects_cosets_degree_mismatch():
    with pytest.raises(ValueError):
        schubert_point_respects_cosets(Partition((2, 2)), ParabolicData.from_iterable(3, ()))
