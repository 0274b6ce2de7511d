"""Hessenberg functions, cells, dimensions, Poincare polynomials."""

from __future__ import annotations

import math
import sys

import pytest

from hesscomb import (
    HessenbergFunction,
    ParabolicData,
    Partition,
    Permutation,
    Poly,
    cell_dim,
    coset_factor,
    enumerate_sn,
    h_from_parabolic,
    hess_cells,
    hess_contains,
    identity,
    is_min_coset_rep,
    is_parabolic_function,
    parabolic_cell_dim,
    parabolic_from_h,
    parabolics,
    partitions,
    poincare_hessenberg,
    poincare_parabolic_formula,
    springer_cell_dim,
    springer_contains,
    springer_min_reps,
    springer_tableau,
    t_factorial,
)
from hesscomb import harness, nilpotent, symgroup
from hesscomb.hessvar import _dimension_sets, _min_rep_indices, _staircase_members, _staircase_planes

from conftest import hessenberg_functions, staircase_dims


# --- Hessenberg functions ------------------------------------------------------


def test_hessenberg_function_validation():
    with pytest.raises(ValueError):
        HessenbergFunction(())
    with pytest.raises(ValueError):
        HessenbergFunction((0, 2))  # h(1) < 1
    with pytest.raises(ValueError):
        HessenbergFunction((1, 1))  # h(2) < 2
    with pytest.raises(ValueError):
        HessenbergFunction((3, 2, 3))  # decreasing
    with pytest.raises(ValueError):
        HessenbergFunction((2, 2, 4))  # h(3) > n


def test_hessenberg_function_accessors():
    h = HessenbergFunction((2, 2, 4, 4))
    assert h.n == 4
    assert (h(1), h(3)) == (2, 4)
    assert str(h) == "2,2,4,4"
    assert HessenbergFunction.from_string("2,2,4,4") == h
    assert HessenbergFunction.identity(3).values == (1, 2, 3)
    with pytest.raises(ValueError):
        h(0)


def test_h_from_parabolic():
    p = ParabolicData.from_iterable(4, (1, 3))
    assert h_from_parabolic(p).values == (2, 2, 4, 4)
    assert h_from_parabolic(ParabolicData.from_iterable(3, ())).values == (1, 2, 3)
    assert h_from_parabolic(ParabolicData.from_iterable(3, (1, 2))).values == (3, 3, 3)


def test_is_parabolic_function():
    assert is_parabolic_function(HessenbergFunction((2, 2, 4, 4)))
    assert is_parabolic_function(HessenbergFunction.identity(5))
    assert not is_parabolic_function(HessenbergFunction((2, 2, 4, 5, 5)))
    assert not is_parabolic_function(HessenbergFunction((2, 3, 3)))


def test_parabolic_round_trip():
    for n in (1, 2, 3, 4, 5):
        for p in parabolics(n):
            h = h_from_parabolic(p)
            assert is_parabolic_function(h)
            back = parabolic_from_h(h)
            assert back.n == p.n and back.J == p.J


def test_parabolic_from_h_error_names_predicate():
    with pytest.raises(ValueError, match=r"is_parabolic_function fails for h = 2,3,3"):
        parabolic_from_h(HessenbergFunction((2, 3, 3)))


# --- Cell membership -------------------------------------------------------------


def test_hess_contains_springer_case_matches_fiber():
    for total in (2, 3, 4, 5):
        identity_h = HessenbergFunction.identity(total)
        for shape in partitions(total):
            for w in enumerate_sn(total):
                assert hess_contains(w, shape, identity_h) == springer_contains(
                    w, shape
                )


def test_hess_contains_full_staircase_is_everything():
    h = HessenbergFunction((4, 4, 4, 4))
    for shape in partitions(4):
        assert all(hess_contains(w, shape, h) for w in enumerate_sn(4))


def test_hess_contains_monotone_in_h():
    # enlarging h can only add cells
    shape = Partition((2, 2))
    smaller = HessenbergFunction((2, 2, 4, 4))
    larger = HessenbergFunction((2, 3, 4, 4))
    for w in enumerate_sn(4):
        if hess_contains(w, shape, smaller):
            assert hess_contains(w, shape, larger)


def test_hess_contains_degree_mismatch():
    with pytest.raises(ValueError):
        hess_contains(Permutation((1, 2)), Partition((2, 1)), HessenbergFunction((2, 2, 3)))


# --- Cell dimensions --------------------------------------------------------------


def test_cell_dim_example():
    assert (
        cell_dim(
            Permutation((2, 4, 1, 3)), Partition((2, 2)), HessenbergFunction((2, 2, 4, 4))
        )
        == 2
    )


def test_cell_dim_empty_cell():
    shape = Partition((2, 2))
    h = HessenbergFunction.identity(4)
    w = Permutation((3, 2, 1, 4))
    assert not hess_contains(w, shape, h)
    with pytest.raises(ValueError):
        cell_dim(w, shape, h)


def test_cell_dim_springer_case_matches_springer_cell_dim():
    for total in (2, 3, 4, 5):
        identity_h = HessenbergFunction.identity(total)
        for shape in partitions(total):
            for w in enumerate_sn(total):
                if springer_contains(w, shape):
                    assert cell_dim(w, shape, identity_h) == springer_cell_dim(w, shape)


def test_parabolic_cell_dim_matches_cell_dim():
    for total in (2, 3, 4, 5):
        for shape in partitions(total):
            for p in parabolics(total):
                h = h_from_parabolic(p)
                for w in enumerate_sn(total):
                    if hess_contains(w, shape, h):
                        assert parabolic_cell_dim(w, shape, p) == cell_dim(w, shape, h)


def test_parabolic_cell_dim_empty_cell():
    p = ParabolicData.from_iterable(4, ())
    with pytest.raises(ValueError):
        parabolic_cell_dim(Permutation((3, 2, 1, 4)), Partition((2, 2)), p)


# --- Minimal representatives --------------------------------------------------------


def test_springer_min_reps_example():
    reps = springer_min_reps(Partition((2, 2)), ParabolicData.from_iterable(4, (1, 3)))
    assert [v.one_line() for v in reps] == ["1,2,3,4", "1,3,2,4", "2,4,1,3"]


def test_springer_min_reps_2_1_1():
    reps = springer_min_reps(
        Partition((2, 1, 1)), ParabolicData.from_iterable(4, (1, 3))
    )
    assert [v.one_line() for v in reps] == ["1,2,3,4", "1,3,2,4", "2,3,1,4", "3,4,1,2"]


def test_springer_min_reps_is_filtered_intersection():
    for total in (2, 3, 4):
        for shape in partitions(total):
            for p in parabolics(total):
                expected = [
                    w.images
                    for w in enumerate_sn(total)
                    if springer_contains(w, shape) and is_min_coset_rep(w, p)
                ]
                got = [v.images for v in springer_min_reps(shape, p)]
                assert got == expected


def test_fiber_walk_tables_match_the_per_permutation_reference():
    # one flag at a time: the Springer tableau, both dimension formulas of
    # springer_cell_dim, and the descent test of W^J
    for total in range(1, 7):
        perms = list(enumerate_sn(total))
        for shape in partitions(total):
            member = [springer_tableau(w, shape).is_row_strict() for w in perms]
            assert list(nilpotent._fiber_bitmap(shape)) == member, shape
            dims = [springer_cell_dim(w, shape) if m else -1 for w, m in zip(perms, member)]
            assert nilpotent._springer_dim_table(shape) == tuple(dims), shape
            for p in parabolics(total):
                expected = [idx for idx, w in enumerate(perms) if member[idx] and is_min_coset_rep(w, p)]
                got = _min_rep_indices(shape, p)
                # walk order, the identity first
                assert sorted(got) == expected and got[0] == 0, (shape, p)


def test_fiber_walk_reads_no_scan_plane_or_coset_table(monkeypatch):
    for module in (symgroup, nilpotent):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def scan(w, shape):
        raise AssertionError("the fiber tables read the tableau scan")

    monkeypatch.setattr(nilpotent, "_row_inversion_vector", scan)
    shape = Partition((4, 2, 2))
    assert springer_min_reps(shape, ParabolicData.from_iterable(8, (2, 5)))
    nilpotent._fiber_bitmap(shape)
    nilpotent._springer_dim_table(shape)
    tables = (symgroup._sn_planes, symgroup._sn_rank_planes, symgroup._coset_table, symgroup._sn_length_planes)
    assert [table.cache_info().currsize for table in tables] == [0, 0, 0, 0]
    # 8! / (4! 2! 2!) flags, not 8! permutations
    assert sum(map(len, nilpotent._fiber_by_descents(shape).values())) == 420


# --- Poincare polynomials -------------------------------------------------------------


def test_poincare_hessenberg_example():
    poly = poincare_hessenberg(Partition((2, 2)), HessenbergFunction((2, 2, 4, 4)))
    assert str(poly) == "1 + 3t + 4t^2 + 3t^3 + t^4"


def test_poincare_hessenberg_springer_zero_nilpotent():
    # lambda = (1^n) with h the full staircase gives the whole flag variety
    poly = poincare_hessenberg(Partition((1, 1, 1, 1)), HessenbergFunction((4, 4, 4, 4)))
    assert poly.coeffs == t_factorial(4).coeffs


def test_poincare_hessenberg_regular_nilpotent_is_point():
    poly = poincare_hessenberg(Partition((4,)), HessenbergFunction.identity(4))
    assert poly.coeffs == (1,)


def test_poincare_hessenberg_counts_cells():
    for shape in partitions(4):
        for p in parabolics(4):
            h = h_from_parabolic(p)
            poly = poincare_hessenberg(shape, h)
            assert poly(1) == len(hess_cells(shape, p))


def test_poincare_formula_matches_sweep():
    for total in (1, 2, 3, 4, 5):
        for shape in partitions(total):
            for p in parabolics(total):
                sweep = poincare_hessenberg(shape, h_from_parabolic(p))
                formula = poincare_parabolic_formula(shape, p)
                assert sweep.coeffs == formula.coeffs, (shape, p)


def test_poincare_hessenberg_matches_per_permutation_cells():
    # the reference goes through the public per permutation API only, so
    # it covers the non parabolic staircases the formula cannot
    for total in range(1, 6):
        perms = list(enumerate_sn(total))
        functions = hessenberg_functions(total)
        assert len(functions) == math.comb(2 * total, total) // (total + 1)  # Catalan
        for h in functions:
            for shape in partitions(total):
                expected = Poly.from_exponents(
                    cell_dim(w, shape, h) for w in perms if hess_contains(w, shape, h)
                )
                assert poincare_hessenberg(shape, h) == expected, (shape, h)


def test_poincare_hessenberg_builds_no_sn_table():
    tables = [
        f for name, f in vars(symgroup).items()
        if name.startswith("_sn_") or name == "_coset_table"
    ]
    for table in tables:
        table.cache_clear()
    shape = Partition((3, 2, 2, 1))
    h = HessenbergFunction((2, 3, 5, 5, 6, 8, 8, 8))
    # bypass the result cache so the sweep itself runs
    assert poincare_hessenberg.__wrapped__(shape, h)(1) > 0
    sizes = {table.__name__: table.cache_info().currsize for table in tables}
    # the value planes, built up degree by degree, are the only table read
    assert sizes.pop("_sn_planes") == 8
    assert not any(sizes.values()), sizes
    # n (n + 1) planes, none larger than the plane of all of S_8
    ge = symgroup._sn_planes(8)
    size = sum(sys.getsizeof(plane) for row in ge for plane in row)
    assert size <= 8 * 9 * sys.getsizeof((1 << math.factorial(8)) - 1)


def _kernel_dims(shape, h):
    """Cell dimension per S_n index from the plane kernel, -1 where empty."""
    dims = [-1] * math.factorial(shape.n)
    for dim, cells in enumerate(_dimension_sets(*_staircase_planes(shape, h))):
        for idx in symgroup._bit_indices(cells):
            dims[idx] = dim
    return dims


def test_staircase_planes_match_the_per_permutation_sweep():
    for total in range(1, 7):
        winvs = [w.inverse().images for w in enumerate_sn(total)]
        for h in hessenberg_functions(total):
            for shape in partitions(total):
                dims = _kernel_dims(shape, h)
                assert dims == list(staircase_dims(shape, h, winvs)), (shape, h)
                members = _staircase_members(shape, h)
                assert members == sum(1 << idx for idx, dim in enumerate(dims) if dim >= 0)


def test_staircase_planes_match_hess_contains_and_cell_dim():
    for total in range(1, 6):
        perms = list(enumerate_sn(total))
        for h in hessenberg_functions(total):
            for shape in partitions(total):
                expected = [
                    cell_dim(w, shape, h) if hess_contains(w, shape, h) else -1 for w in perms
                ]
                assert _kernel_dims(shape, h) == expected, (shape, h)


def test_coset_route_builds_no_plane():
    symgroup._sn_planes.cache_clear()
    shapes = list(partitions(6))
    fibers = harness._records(
        [bytes(nilpotent._fiber_bitmap.__wrapped__(shape)) for shape in shapes]
    )
    for shape in shapes:
        nilpotent._springer_dim_table.__wrapped__(shape)
    for p in parabolics(6):
        symgroup._coset_table.__wrapped__(6, p.sorted_j())
        harness._by_coset(fibers, 6, p)
        for shape in shapes:
            poincare_parabolic_formula.__wrapped__(shape, p)
            springer_min_reps(shape, p)
    assert symgroup._sn_planes.cache_info().currsize == 0


def test_poincare_hessenberg_nonparabolic_staircase():
    # h = (2, 3, 3) is not a block staircase but the sweep still works
    h = HessenbergFunction((2, 3, 3))
    assert not is_parabolic_function(h)
    for shape in partitions(3):
        poly = poincare_hessenberg(shape, h)
        assert poly(1) == sum(1 for w in enumerate_sn(3) if hess_contains(w, shape, h))


# --- Cells -------------------------------------------------------------------------


def test_hess_cells_2_2_example():
    cells = hess_cells(Partition((2, 2)), ParabolicData.from_iterable(4, (1, 3)))
    assert len(cells) == 12
    by_w = {c.w.one_line(): c for c in cells}
    assert sorted(by_w) == [c.w.one_line() for c in cells]  # lex order
    top = by_w["2,4,1,3"]
    assert top.dim == 2 and top.v.one_line() == "2,4,1,3" and top.y == identity(4)
    assert by_w["4,2,3,1"].dim == 4


def test_hess_cells_factorization_consistent():
    for shape in partitions(4):
        for p in parabolics(4):
            for cell in hess_cells(shape, p):
                v, y = coset_factor(cell.w, p)
                assert (cell.v, cell.y) == (v, y)
                assert cell.v * cell.y == cell.w
                assert cell.dim == springer_cell_dim(cell.v, shape) + cell.y.length()


def test_hess_cells_degree_mismatch():
    with pytest.raises(ValueError):
        hess_cells(Partition((2, 1)), ParabolicData.from_iterable(4, ()))
