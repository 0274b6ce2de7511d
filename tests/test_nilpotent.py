"""Partitions, fillings, dominance ideals, and the Springer fiber."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from hesscomb import (
    Partition,
    Permutation,
    RootSet,
    Tableau,
    base_filling,
    dominance_ideal,
    dominance_ideal_from_filling,
    enumerate_sn,
    highest_form_roots,
    is_highest_form,
    partitions,
    root_act,
    row_inversions,
    springer_cell_dim,
    springer_contains,
    springer_tableau,
)
from hesscomb import nilpotent
from hesscomb.nilpotent import _fiber_by_descents, _row_inversion_vector

from conftest import root_set, small_partitions


# --- Partition basics --------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_accessors():
    shape = Partition((3, 2))
    assert shape.n == 5
    assert shape.num_rows == 2
    assert shape.num_cols == 3
    assert shape.column_heights() == (2, 2, 1)
    assert str(shape) == "3,2"
    assert Partition.from_string("3,2") == shape


def test_partition_from_string_gives_the_integer_list_diagnostic():
    with pytest.raises(ValueError) as info:
        Partition.from_string("2,x")
    assert str(info.value) == "expected comma separated integers, got '2,x'"


def test_partitions_enumeration():
    assert [p.parts for p in partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(list(partitions(8))) == 22
    with pytest.raises(ValueError):
        list(partitions(0))


# --- Base filling -------------------------------------------------------------


def test_base_filling_examples():
    assert base_filling(Partition((3, 2))).rows == ((2, 4, 5), (1, 3))
    assert base_filling(Partition((2, 1, 1))).rows == ((3, 4), (2,), (1,))
    assert base_filling(Partition((2, 2))).rows == ((2, 4), (1, 3))
    assert base_filling(Partition((4,))).rows == ((1, 2, 3, 4),)
    assert base_filling(Partition((1, 1, 1))).rows == ((3,), (2,), (1,))


def test_base_filling_lookups():
    f = base_filling(Partition((3, 2)))
    assert f.box_of(4) == (1, 2)
    assert f.box_of(1) == (2, 1)
    assert f.boxes == {2: (1, 1), 4: (1, 2), 5: (1, 3), 1: (2, 1), 3: (2, 2)}
    assert f.rows[0][0] == 2
    assert f.right_of(2) == 4
    assert f.right_of(5) == 0
    with pytest.raises(ValueError):
        f.box_of(9)


# --- Highest form -------------------------------------------------------------


def test_highest_form_roots_examples():
    assert highest_form_roots(Partition((3, 2))).sorted_roots() == (
        (1, 3),
        (2, 4),
        (4, 5),
    )
    assert highest_form_roots(Partition((2, 2))).sorted_roots() == ((1, 3), (2, 4))
    assert highest_form_roots(Partition((2, 1, 1))).sorted_roots() == ((3, 4),)
    assert highest_form_roots(Partition((1, 1, 1, 1))).sorted_roots() == ()


def test_highest_form_root_count_is_rank():
    # one pivot per box with a right neighbor, and each row of length l
    # contributes l - 1 of those, so the rank of X is n - num_rows
    for total in range(1, 8):
        for shape in partitions(total):
            assert len(highest_form_roots(shape)) == shape.n - shape.num_rows


def test_is_highest_form_accepts_canonical():
    for total in range(1, 8):
        for shape in partitions(total):
            assert is_highest_form(highest_form_roots(shape))


def test_is_highest_form_rejects_jordan_block_order():
    assert not is_highest_form(root_set(4, [(1, 2), (3, 4)]))


def test_is_highest_form_errors():
    with pytest.raises(ValueError):
        is_highest_form(root_set(3, [(2, 1)]))
    with pytest.raises(ValueError):
        is_highest_form(root_set(4, [(1, 3), (2, 3)]))
    with pytest.raises(ValueError):
        is_highest_form(root_set(4, [(1, 3), (1, 4)]))


# --- Dominance ideal ----------------------------------------------------------


def test_dominance_ideal_examples():
    assert dominance_ideal(highest_form_roots(Partition((2, 2))), 4).sorted_roots() == (
        (1, 4),
    )
    assert dominance_ideal_from_filling(Partition((2, 1, 1))).sorted_roots() == (
        (1, 4),
        (2, 4),
    )
    assert dominance_ideal_from_filling(Partition((1, 1, 1))).sorted_roots() == ()
    # regular nilpotent: ideal is everything above the superdiagonal
    assert dominance_ideal_from_filling(Partition((4,))).sorted_roots() == (
        (1, 3),
        (1, 4),
        (2, 4),
    )


def test_dominance_ideal_matches_filling_reading():
    for total in range(1, 9):
        for shape in partitions(total):
            direct = dominance_ideal(highest_form_roots(shape), shape.n)
            assert direct.sorted_roots() == dominance_ideal_from_filling(shape).sorted_roots()


def test_dominance_ideal_errors():
    with pytest.raises(ValueError):
        dominance_ideal(root_set(3, [(1, 2)]), 4)
    with pytest.raises(ValueError):
        dominance_ideal(root_set(3, [(2, 1)]), 3)


# --- Springer tableau and fiber -------------------------------------------------


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(Partition((2, 1)), ((1, 2, 3),))
    with pytest.raises(ValueError):
        Tableau(Partition((2, 1)), ((1, 1), (2,)))


def test_tableau_accessors():
    t = Tableau(Partition((2, 1)), ((1, 3), (2,)))
    assert t.rows[0][1] == 3
    assert t.row_of(2) == 2
    assert t.is_row_strict()
    assert t.rows == ((1, 3), (2,))
    assert not Tableau(Partition((2, 1)), ((3, 1), (2,))).is_row_strict()


def test_springer_tableau_example():
    t = springer_tableau(Permutation((3, 4, 1, 2)), Partition((2, 1, 1)))
    assert t.rows == ((1, 2), (4,), (3,))
    assert t.is_row_strict()


def test_springer_tableau_identity_inverts_filling():
    shape = Partition((3, 2))
    t = springer_tableau(Permutation((1, 2, 3, 4, 5)), shape)
    assert t.rows == base_filling(shape).rows


def test_springer_contains_matches_row_strictness():
    for total in (2, 3, 4, 5):
        for shape in partitions(total):
            for w in enumerate_sn(total):
                assert springer_contains(w, shape) == springer_tableau(
                    w, shape
                ).is_row_strict()


def test_springer_contains_matches_root_positivity():
    # membership reading: w^(-1) sends every root of X to a positive root
    for total in (2, 3, 4, 5):
        for shape in partitions(total):
            phi_x = highest_form_roots(shape).sorted_roots()
            for w in enumerate_sn(total):
                by_roots = all(
                    root_act(w.inverse(), root)[0] < root_act(w.inverse(), root)[1]
                    for root in phi_x
                )
                assert springer_contains(w, shape) == by_roots


def test_fiber_size_is_row_strict_count():
    # row strict fillings of shape lambda number n! / prod(lambda_i!)
    for total in (3, 4, 5, 6):
        for shape in partitions(total):
            count = sum(1 for w in enumerate_sn(total) if springer_contains(w, shape))
            expected = math.factorial(total)
            for part in shape.parts:
                expected //= math.factorial(part)
            assert count == expected


# --- Row inversions and cell dimension ------------------------------------------


def test_row_inversions_example():
    t = Tableau(Partition((2, 1, 1)), ((2, 4), (1,), (3,)))
    assert [row_inversions(t, q) for q in (2, 3, 4)] == [0, 2, 0]


def test_row_inversions_errors():
    t = Tableau(Partition((2, 1, 1)), ((2, 4), (1,), (3,)))
    with pytest.raises(ValueError):
        row_inversions(t, 0)
    with pytest.raises(ValueError):
        row_inversions(t, 5)
    skew = Tableau(Partition((2, 1)), ((3, 1), (2,)))
    with pytest.raises(ValueError):
        row_inversions(skew, 2)


def test_row_inversion_vector_matches_public_reading():
    # every flag of S_n: the scan gives None exactly off the fiber
    for total in (1, 2, 3, 4, 5):
        for shape in partitions(total):
            fiber = {idx for flags, _ in _fiber_by_descents(shape).values() for idx in flags}
            for idx, w in enumerate(enumerate_sn(total)):
                t = springer_tableau(w, shape)
                vector = _row_inversion_vector(w.images, shape)
                assert (vector is not None) == t.is_row_strict() == (idx in fiber), (w, shape)
                if vector is not None:
                    assert vector == tuple(row_inversions(t, q) for q in range(2, total + 1))


def test_row_inversion_vector_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        _row_inversion_vector((2, 1), Partition((2, 1)))


def test_springer_cell_dim_examples():
    shape = Partition((2, 2))
    dims = {
        (1, 2, 3, 4): 0,
        (1, 3, 2, 4): 1,
        (2, 4, 1, 3): 2,
    }
    for images, dim in dims.items():
        assert springer_cell_dim(Permutation(images), shape) == dim


def test_springer_cell_dim_outside_fiber():
    # w^(-1) = (3, 2, 1, 4) puts 3 before 1 in the bottom row
    assert not springer_contains(Permutation((3, 2, 1, 4)), Partition((2, 2)))
    with pytest.raises(ValueError):
        springer_cell_dim(Permutation((3, 2, 1, 4)), Partition((2, 2)))


def test_springer_cell_dim_names_w_and_the_shape_when_the_formulas_disagree(monkeypatch):
    # without its one root (1, 4), the ideal of (2, 2) lets that inversion
    # of w^(-1) = 3,1,4,2 count toward the root side
    ideal = nilpotent.dominance_ideal_from_filling

    def one_root_short(shape):
        roots = ideal(shape).roots
        return RootSet(shape.n, roots - {min(roots)})

    monkeypatch.setattr(nilpotent, "dominance_ideal_from_filling", one_root_short)
    with pytest.raises(RuntimeError) as info:
        springer_cell_dim(Permutation((2, 4, 1, 3)), Partition((2, 2)))
    assert str(info.value) == "dimension formulas disagree for w=2,4,1,3, shape=2,2: 2 by rows, 3 by roots"


def test_springer_cell_dim_bounded_by_fiber_dimension():
    # the fiber of shape lambda has dimension sum binom(column heights, 2)
    for total in (2, 3, 4, 5, 6):
        for shape in partitions(total):
            top = sum(h * (h - 1) // 2 for h in shape.column_heights())
            best = 0
            for w in enumerate_sn(total):
                if springer_contains(w, shape):
                    best = max(best, springer_cell_dim(w, shape))
            assert best == top


@given(small_partitions(6))
@settings(max_examples=40, deadline=None)
def test_identity_cell_is_zero_dimensional(parts):
    shape = Partition(parts)
    w = Permutation(tuple(range(1, shape.n + 1)))
    assert springer_contains(w, shape)
    assert springer_cell_dim(w, shape) == 0
