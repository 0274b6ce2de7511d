"""Schubert points, lower ideals, and the union comparison."""

from __future__ import annotations

import json
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscomb import (
    ParabolicData,
    Partition,
    Permutation,
    Poly,
    bruhat_leq,
    bruhat_lower_ideal,
    compare_with_schubert_union,
    coset_factor,
    enumerate_sn,
    identity,
    is_min_coset_rep,
    longest_element,
    parabolics,
    partitions,
    perm_from_word,
    poincare_schubert_union,
    run_checks,
    schubert_point,
    schubert_union_tops,
    springer_cell_dim,
    springer_contains,
    springer_min_reps,
    springer_tableau,
    string_decompose,
    union_hypothesis,
)
from hesscomb.nilpotent import _fiber_by_descents, _row_inversion_vector
from hesscomb.schubert import _lower_ideal, _poincare_pair, _point_groups, _points, _union_poly, _union_tops
from hesscomb.symgroup import _bit_indices, _split_index

from conftest import bruhat_leq_subword, one_line_arrays, permutations_of, subword_ideal


# --- Schubert points ---------------------------------------------------------


def test_schubert_point_identity_flag():
    point = schubert_point(identity(4), Partition((2, 1, 1)))
    assert point == identity(4)
    assert string_decompose(point).lengths() == (0, 0, 0)
    assert string_decompose(point).word() == ()


def test_schubert_point_example():
    w, shape = Permutation((3, 4, 1, 2)), Partition((2, 1, 1))
    point = schubert_point(w, shape)
    assert string_decompose(point).word() == (3, 2)
    assert point.images == (1, 4, 2, 3)
    assert string_decompose(point).lengths() == (0, 1, 1)
    assert springer_tableau(w, shape).rows == ((1, 2), (4,), (3,))


def test_schubert_point_zero_nilpotent_is_inverse_map():
    # for lambda = (1^n) the tableau is the column word of w^(-1) and the
    # Schubert point reproduces the source permutation's cell: its length
    # equals l(w) since every root lies outside the (empty) ideal
    shape = Partition((1, 1, 1, 1))
    for w in enumerate_sn(4):
        assert schubert_point(w, shape).length() == w.length()


def test_schubert_point_word_multiplies_to_point():
    for total in (2, 3, 4, 5):
        for shape in partitions(total):
            for w in enumerate_sn(total):
                if not springer_contains(w, shape):
                    continue
                point = schubert_point(w, shape)
                strings = string_decompose(point)
                assert perm_from_word(strings.word(), total) == point
                assert strings.lengths() == _row_inversion_vector(w.images, shape)
                assert point.length() == sum(strings.lengths())


def test_schubert_point_length_is_cell_dim():
    for total in (2, 3, 4, 5):
        for shape in partitions(total):
            for w in enumerate_sn(total):
                if springer_contains(w, shape):
                    point = schubert_point(w, shape)
                    assert point.length() == springer_cell_dim(w, shape)


def test_schubert_point_outside_fiber():
    with pytest.raises(ValueError, match="not in the Springer fiber"):
        schubert_point(Permutation((3, 2, 1, 4)), Partition((2, 2)))


@pytest.mark.parametrize("n", range(1, 9))
def test_group_points_match_schubert_point_flag_by_flag(n):
    # the walk's points against a reference that scans each flag's tableau
    # and multiplies out its strings, once by schubert_point (uncached, so
    # degree 8 keeps no Permutation per flag) and once letter by letter
    images = one_line_arrays(n)
    point_of = schubert_point.__wrapped__
    for shape in partitions(n):
        for descents, (flags, *_) in _fiber_by_descents(shape).items():
            points, point_descents = _points(shape, descents)
            assert len(points) == len(point_descents) == len(flags)
            for idx, point, point_set in zip(flags, points, point_descents):
                w = Permutation(images[idx])
                lengths = _row_inversion_vector(w.images, shape)
                # the strings multiplied out letter by letter, highest first
                word = [k for q in range(n, 1, -1) for k in range(q - lengths[q - 2], q)]
                assert images[point] == point_of(w, shape).images == perm_from_word(word, n).images
                assert point_set == sum(1 << i for i in range(1, n) if images[point][i - 1] > images[point][i])


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
    with pytest.raises(ValueError):
        poincare_schubert_union([identity(3)], 4)


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


@st.composite
def union_tops(draw) -> tuple[int, list[Permutation]]:
    """Degree and one to three tops: random, or all of the form v w_J so
    that the tops share the right descents J."""
    n = draw(st.integers(min_value=1, max_value=5))
    p = draw(st.sampled_from(parabolics(n)))
    w_j = longest_element(p)
    ends_cosets = draw(st.booleans())
    tops = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        w = draw(permutations_of(n))
        tops.append(coset_factor(w, p)[0] * w_j if ends_cosets else w)
    return n, tops


@given(union_tops())
@settings(max_examples=150, deadline=None)
def test_poincare_schubert_union_matches_subword_count(case):
    n, tops = case
    ideal = [u for u in enumerate_sn(n) if any(bruhat_leq_subword(u, top) for top in tops)]
    assert poincare_schubert_union(tops, n) == Poly.from_exponents(u.length() for u in ideal)


@st.composite
def top_sets(draw) -> tuple[int, list[Permutation]]:
    """Degree and zero to four tops, with repeats, and with elements of a
    drawn top's ideal added so that some tops are comparable."""
    n = draw(st.integers(min_value=1, max_value=5))
    tops = draw(st.lists(permutations_of(n), max_size=4))
    if tops and draw(st.booleans()):
        tops.append(draw(st.sampled_from(tops)))
    if tops and draw(st.booleans()):
        below = sorted(subword_ideal(draw(st.sampled_from(tops)).images))
        tops.append(Permutation(draw(st.sampled_from(below))))
    return n, draw(st.permutations(tops))


@given(top_sets())
@settings(max_examples=150, deadline=None)
def test_lower_ideal_matches_subword_ideal_and_pairwise_maximality(case):
    n, tops = case
    images = one_line_arrays(n)
    ideal, maximal = _lower_ideal([_split_index(n)(top.images) for top in tops], n)
    expected = set().union(*(subword_ideal(top.images) for top in tops))
    assert {images[idx] for idx in _bit_indices(ideal)} == expected
    maximal = [Permutation(images[idx]) for idx in maximal]
    dominated = {u for u in tops for w in tops if u != w and bruhat_leq_subword(u, w)}
    assert sorted(maximal) == sorted(set(tops) - dominated)
    assert [top.length() for top in maximal] == sorted((top.length() for top in maximal), reverse=True)


@pytest.mark.parametrize("n", range(1, 7))
def test_lower_ideal_byte_view_matches_bruhat_leq_closure(n):
    # at n = 1, 2 and 3 the n! bits fill only part of the view's one byte
    rng = random.Random(n)
    images = one_line_arrays(n)
    perms = list(enumerate_sn(n))
    index = _split_index(n)
    for _ in range(12):
        tops = rng.sample(perms, rng.randint(1, min(len(perms), 4)))
        # e and w0 hold the first and the last bit of the view
        tops += rng.choice([[], [perms[0]], [perms[-1]]])
        # tops below a longer top, which the view must skip
        tops += rng.sample([u for u in perms if bruhat_leq(u, tops[0])], 1)
        ideal, maximal = _lower_ideal([index(top.images) for top in tops], n)
        expected = {u.images for u in perms if any(bruhat_leq(u, top) for top in tops)}
        assert {images[idx] for idx in _bit_indices(ideal)} == expected
        above = {u for u in tops for w in tops if u != w and bruhat_leq(u, w)}
        assert sorted(maximal) == sorted(index(top.images) for top in set(tops) - above)


@pytest.mark.parametrize("n", range(1, 6))
def test_bruhat_order_on_w_j_reads_the_same_below_the_coset_tops(n):
    # for u, v in W^J: u <= v w_J exactly when u <= v, by the subword oracle
    perms = list(enumerate_sn(n))
    for p in parabolics(n):
        w_j = longest_element(p)
        quotient = [w for w in perms if is_min_coset_rep(w, p)]
        for v in quotient:
            below_v, below_top = subword_ideal(v.images), subword_ideal((v * w_j).images)
            assert [u.images in below_top for u in quotient] == [u.images in below_v for u in quotient], (p, v)


@pytest.mark.parametrize("n", range(1, 7))
def test_ideal_of_the_points_is_the_ideal_of_every_top(n):
    # only the tops of the maximal points are ranked, and the union reads
    # only the maximal points of each descent group
    images, index = one_line_arrays(n), _split_index(n)
    for shape in partitions(n):
        for p in parabolics(n):
            tops = sorted(set(_union_tops(shape, p).values()))
            expected, expected_maximal = _lower_ideal(tops, n)
            points = [point for _, _, _, group, _ in _point_groups(shape, p.mask) for point in group]
            ideal, maximal = _lower_ideal(points, n, p.blocks)
            assert ideal == expected, (shape, p)
            w_j = longest_element(p)
            maximal_tops = [index((Permutation(images[point]) * w_j).images) for point in maximal]
            assert sorted(maximal_tops) == sorted(expected_maximal), (shape, p)
            assert _poincare_pair(shape, p)[1] == _union_poly(tops, n), (shape, p)


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


def test_index_tops_are_the_point_products_n_le_6():
    # the tops as they were defined, Permutation products point * w_J
    for total in range(1, 7):
        index = _split_index(total)
        for shape in partitions(total):
            for p in parabolics(total):
                w_j = longest_element(p)
                products = {v: schubert_point(v, shape) * w_j for v in springer_min_reps(shape, p)}
                assert schubert_union_tops(shape, p) == tuple(sorted(set(products.values())))
                by_index = {index(v.images): index(top.images) for v, top in products.items()}
                assert _union_tops(shape, p) == by_index, (shape, p)


def test_union_hypothesis():
    assert union_hypothesis(Partition((2, 2)))
    assert union_hypothesis(Partition((2, 2, 2)))  # two columns
    assert union_hypothesis(Partition((5, 3, 1)))  # three rows
    assert union_hypothesis(Partition((1, 1, 1, 1)))  # one column
    assert not union_hypothesis(Partition((3, 1, 1, 1)))  # four rows, three columns
    assert not union_hypothesis(Partition((3, 3, 3, 1)))


def test_observed_out_of_regime_equal_j_form_an_up_set_n_le_7():
    # an observation, not a theorem: outside the proved regime the J whose
    # two polynomials agree stay so when any i joins J
    partial = 0
    for total in range(1, 8):
        for shape in partitions(total):
            if union_hypothesis(shape):
                continue
            equal = {p.J for p in parabolics(total) if operator.eq(*_poincare_pair(shape, p))}
            assert all(j | {i} in equal for j in equal for i in range(1, total)), shape
            partial += 0 < len(equal) < 2 ** (total - 1)
    # (3,1,1,1), (3,2,1,1), (4,1,1,1) and (3,1,1,1,1) agree on some J, not all
    assert partial == 4


def test_compare_with_schubert_union_2_2():
    report = compare_with_schubert_union(
        Partition((2, 2)), ParabolicData.from_iterable(4, (1, 3))
    )
    assert report.equal
    assert report.in_hypothesis
    assert report.hessenberg_poly.coeffs == (1, 3, 4, 3, 1)
    assert report.schubert_union_poly.coeffs == (1, 3, 4, 3, 1)
    assert len(report.tops) == 3


@pytest.mark.parametrize(
    "parts, j, tops",
    [
        ((2, 2), (1, 3), ["2,1,4,3", "3,1,4,2", "4,1,3,2"]),
        ((2, 1, 1), (1, 3), ["2,1,4,3", "3,1,4,2", "3,2,4,1", "4,1,3,2"]),
        ((3, 1), (2,), ["1,3,2,4", "1,4,2,3", "2,3,1,4"]),
        ((2, 2), (), ["1,2,3,4", "1,2,4,3", "1,3,2,4", "1,4,2,3", "2,1,3,4", "2,1,4,3"]),
        ((2, 1, 1), (2, 3), ["1,4,3,2", "2,4,3,1", "3,4,2,1"]),
    ],
)
def test_compare_with_schubert_union_pinned_tops(parts, j, tops):
    report = compare_with_schubert_union(Partition(parts), ParabolicData.from_iterable(4, j))
    assert [t.one_line() for t in report.tops] == tops


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
    assert all(report.passed for report in run_checks(5, ["schubert-coset"]))
