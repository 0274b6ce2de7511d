"""Acceptance suite: seven end to end criteria with pinned values and time budgets.

Each criterion prints one PASS or FAIL line on the terminal (bypassing
capture) so a full run reads as a seven line report.  Expected values are
frozen here; nothing is recomputed from the implementation under test
except the quantity being checked.
"""

from __future__ import annotations

import contextlib
import time

import pytest

from hesscomb import (
    ParabolicData,
    Partition,
    bruhat_leq,
    bruhat_lower_ideal,
    cell_dim,
    component_candidates,
    coset_factor,
    dominance_ideal,
    dominance_ideal_from_filling,
    enumerate_sn,
    h_from_parabolic,
    hess_contains,
    highest_form_roots,
    identity,
    is_min_coset_rep,
    is_min_coset_rep_strings,
    longest_element,
    parabolic_cell_dim,
    parabolics,
    partitions,
    perm_from_word,
    poincare_hessenberg,
    poincare_parabolic_formula,
    poincare_schubert_union,
    poincare_subgroup,
    root_act,
    run_checks,
    schubert_point,
    springer_cell_dim,
    springer_contains,
    springer_min_reps,
    springer_tableau,
    string_decompose,
    t_factorial,
)

from conftest import brute_poincare_subgroup, bruhat_leq_subword

# Pinned tolerances: wall clock budgets in seconds.
SMALL_EXAMPLE_BUDGET = 1.0
SWEEP_BUDGET = 120.0


@contextlib.contextmanager
def criterion(capsys, number: int, label: str):
    start = time.perf_counter()
    try:
        yield start
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {number}: FAIL - {label}")
        raise
    with capsys.disabled():
        print(f"CRITERION {number}: PASS - {label} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_schubert_variety_polynomial(capsys):
    """The Schubert variety of s1 s2 s3 s1: its 12 points and its polynomial."""
    with criterion(capsys, 1, "Schubert variety below s1 s2 s3 s1") as start:
        top = perm_from_word([1, 2, 3, 1], 4)
        assert top.images == (3, 2, 4, 1)
        listed_words = [
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
        listed = {perm_from_word(word, 4) for word in listed_words}
        assert len(listed) == 12
        assert bruhat_lower_ideal([top], 4) == listed
        poly = poincare_schubert_union([top], 4)
        assert poly.coeffs == (1, 3, 4, 3, 1)
        assert str(poly) == "1 + 3t + 4t^2 + 3t^3 + t^4"
        assert time.perf_counter() - start < SMALL_EXAMPLE_BUDGET


def test_criterion_2_shape_2_2_worked_example(capsys):
    """lambda = (2,2), J = {1,3}: representatives, dimensions, polynomial."""
    with criterion(capsys, 2, "(2,2) worked example") as start:
        shape = Partition((2, 2))
        p = ParabolicData.from_iterable(4, (1, 3))

        listed_minreps = [
            identity(4),
            perm_from_word([2], 4),
            perm_from_word([1, 2], 4),
            perm_from_word([1, 3, 2], 4),
            perm_from_word([2, 1, 3, 2], 4),
        ]
        # every listed element really is a minimal coset representative
        assert all(is_min_coset_rep(w, p) for w in listed_minreps)
        assert len({w.images for w in listed_minreps}) == 5
        # the quotient S_4 / W_J has index 24 / 4 = 6
        assert sum(1 for w in enumerate_sn(4) if is_min_coset_rep(w, p)) == 6

        reps = springer_min_reps(shape, p)
        assert [v.one_line() for v in reps] == ["1,2,3,4", "1,3,2,4", "2,4,1,3"]
        assert reps == (
            identity(4),
            perm_from_word([2], 4),
            perm_from_word([1, 3, 2], 4),
        )
        assert [springer_cell_dim(v, shape) for v in reps] == [0, 1, 2]

        product = (
            poincare_parabolic_formula(shape, p).coeffs,
            poincare_hessenberg(shape, h_from_parabolic(p)).coeffs,
        )
        assert product == ((1, 3, 4, 3, 1), (1, 3, 4, 3, 1))
        # (1 + t + t^2)(1 + 2t + t^2)
        from hesscomb import Poly

        assert (Poly((1, 1, 1)) * Poly((1, 2, 1))).coeffs == (1, 3, 4, 3, 1)
        assert time.perf_counter() - start < SMALL_EXAMPLE_BUDGET


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a five element listing cannot equal W^J: the quotient S_4 / W_{1,3} "
        "has 24 / 4 = 6 cosets, and the sixth representative s3 s2 = 1,4,2,3 "
        "is missing from the list"
    ),
)
def test_criterion_2_literal_minimal_representative_listing(capsys):
    """The pinned five element listing of W^J, asserted verbatim.

    The other clauses of the (2,2) example are consistent and pass above;
    this equality is recorded as stated and expected to fail, because a
    five element set cannot exhaust a six coset quotient.
    """
    with capsys.disabled():
        print(
            "CRITERION 2 (literal W^J listing): FAIL expected - "
            "the five element listing omits s3 s2"
        )
    p = ParabolicData.from_iterable(4, (1, 3))
    computed = {w.one_line() for w in enumerate_sn(4) if is_min_coset_rep(w, p)}
    listed = {
        identity(4).one_line(),
        perm_from_word([2], 4).one_line(),
        perm_from_word([1, 2], 4).one_line(),
        perm_from_word([1, 3, 2], 4).one_line(),
        perm_from_word([2, 1, 3, 2], 4).one_line(),
    }
    assert computed == listed


def test_criterion_3_shape_2_1_1_worked_example(capsys):
    """lambda = (2,1,1), J = {1,3}: roots, points, tops, full cell."""
    with criterion(capsys, 3, "(2,1,1) worked example") as start:
        shape = Partition((2, 1, 1))
        p = ParabolicData.from_iterable(4, (1, 3))

        assert highest_form_roots(shape).sorted_roots() == ((3, 4),)
        assert dominance_ideal_from_filling(shape).sorted_roots() == ((1, 4), (2, 4))

        reps = springer_min_reps(shape, p)
        assert reps == (
            identity(4),
            perm_from_word([2], 4),
            perm_from_word([1, 2], 4),
            perm_from_word([2, 1, 3, 2], 4),
        )

        v1 = perm_from_word([1, 2], 4)
        v2 = perm_from_word([2, 1, 3, 2], 4)
        assert schubert_point(v1, shape) == v1
        assert schubert_point(v2, shape) == perm_from_word([3, 2], 4)

        w_j = longest_element(p)
        top1 = schubert_point(v1, shape) * w_j
        top2 = schubert_point(v2, shape) * w_j
        assert top1 == perm_from_word([1, 2, 1, 3], 4)
        assert top2 == perm_from_word([3, 2, 1, 3], 4)

        candidates = component_candidates(shape, p)
        flags = {c.schubert_top: c.bruhat_maximal for c in candidates}
        assert flags[top1] and flags[top2]
        assert sum(flags.values()) == 2

        # the cell over v1 w_J fills its Schubert cell: dimension = length
        full = next(c for c in candidates if c.v == v1)
        assert full.top_cell == v1 * w_j
        assert full.cell_dim == (v1 * w_j).length() == 4
        assert full.full_cell
        assert parabolic_cell_dim(v1 * w_j, shape, p) == 4
        assert time.perf_counter() - start < SMALL_EXAMPLE_BUDGET


def test_criterion_4_main_theorem_sweep(capsys):
    """Hessenberg polynomial = Schubert union polynomial, in regime, n <= 7."""
    with criterion(capsys, 4, "main comparison sweep n <= 7") as start:
        reports = run_checks(7, checks=["main-theorem"])
        assert len(reports) == 7
        for report in reports:
            assert report.failures == (), report
        # every (shape, J) pair is a case: p(n) * 2^(n-1)
        assert [r.cases_run for r in reports] == [1, 4, 12, 40, 112, 352, 960]
        # outside the regime: (pairs with equal polynomials, pairs)
        assert [r.out_of_regime for r in reports] == [(0, 0)] * 5 + [(20, 32), (89, 192)]
        assert time.perf_counter() - start < SWEEP_BUDGET


def test_criterion_4_main_theorem_sweep_n8(capsys):
    """The same comparison at n = 8, the degree below the sweep cap."""
    with criterion(capsys, 4, "main comparison sweep n = 8") as start:
        (report,) = [r for r in run_checks(8, checks=["main-theorem"]) if r.n == 8]
        assert report.failures == (), report
        assert report.cases_run == 22 * 128
        assert report.out_of_regime == (312, 896)
        assert time.perf_counter() - start < SWEEP_BUDGET


def _item_a_ideal_equivalence():
    for total in range(1, 9):
        for shape in partitions(total):
            closure = dominance_ideal(highest_form_roots(shape), total)
            filling = dominance_ideal_from_filling(shape)
            assert closure.sorted_roots() == filling.sorted_roots(), shape


def _item_b_membership_equivalence():
    for total in range(1, 7):
        for shape in partitions(total):
            phi_x = highest_form_roots(shape).sorted_roots()
            for w in enumerate_sn(total):
                winv = w.inverse()
                by_roots = all(
                    root_act(winv, root)[0] < root_act(winv, root)[1] for root in phi_x
                )
                by_tableau = springer_tableau(w, shape).is_row_strict()
                assert springer_contains(w, shape) == by_roots == by_tableau, (w, shape)


def _item_c_dimension_formulas():
    # springer_cell_dim computes by rows and by roots and raises on mismatch
    for total in range(1, 7):
        for shape in partitions(total):
            for w in enumerate_sn(total):
                if springer_contains(w, shape):
                    springer_cell_dim(w, shape)


def _item_d_parabolic_dimension():
    for total in range(1, 7):
        for shape in partitions(total):
            for p in parabolics(total):
                h = h_from_parabolic(p)
                for w in enumerate_sn(total):
                    if hess_contains(w, shape, h):
                        assert cell_dim(w, shape, h) == parabolic_cell_dim(
                            w, shape, p
                        ), (w, shape, p)


def _item_e_poincare_formula():
    for total in range(1, 7):
        for shape in partitions(total):
            for p in parabolics(total):
                swept = poincare_hessenberg(shape, h_from_parabolic(p))
                assert swept == poincare_parabolic_formula(shape, p), (shape, p)


def _item_f_coset_criteria():
    for total in range(1, 7):
        for p in parabolics(total):
            for w in enumerate_sn(total):
                strings = string_decompose(w)
                assert is_min_coset_rep(w, p) == is_min_coset_rep_strings(strings, p), (w, p)


def _item_g_bruhat_oracle():
    for total in range(1, 6):
        for u in enumerate_sn(total):
            for w in enumerate_sn(total):
                assert bruhat_leq(u, w) == bruhat_leq_subword(u, w), (u, w)


def _item_h_fixed_points():
    for total in range(1, 7):
        for shape in partitions(total):
            for p in parabolics(total):
                h = h_from_parabolic(p)
                for w in enumerate_sn(total):
                    v, _ = coset_factor(w, p)
                    assert hess_contains(w, shape, h) == springer_contains(v, shape), (
                        w,
                        shape,
                        p,
                    )


def test_criterion_5_oracle_equivalences(capsys):
    """Eight independent double computations, exhaustive at small degree."""
    with criterion(capsys, 5, "oracle equivalences (a)-(h)"):
        _item_a_ideal_equivalence()
        _item_b_membership_equivalence()
        _item_c_dimension_formulas()
        _item_d_parabolic_dimension()
        _item_e_poincare_formula()
        _item_f_coset_criteria()
        _item_g_bruhat_oracle()
        _item_h_fixed_points()


def test_criterion_6_schubert_point_structure(capsys):
    """Point lengths are cell dimensions; images are Bruhat lower ideals."""
    with criterion(capsys, 6, "Schubert point structure n <= 6"):
        for total in range(1, 7):
            for shape in partitions(total):
                for w in enumerate_sn(total):
                    if springer_contains(w, shape):
                        point = schubert_point(w, shape)
                        assert point.length() == springer_cell_dim(w, shape), (w, shape)
        reports = run_checks(6, checks=["schubert-ideal"])
        for report in reports:
            assert report.failures == (), report


def test_criterion_7_q_factorial_identity(capsys):
    """poincare_subgroup is the product of block t-factorials, n <= 7."""
    with criterion(capsys, 7, "q-factorial identity n <= 7"):
        for total in range(1, 8):
            for p in parabolics(total):
                expected = brute_poincare_subgroup(p)
                assert poincare_subgroup(p) == expected, p
        full = ParabolicData.from_iterable(4, (1, 2, 3))
        assert poincare_subgroup(full).coeffs == (1, 3, 5, 6, 5, 3, 1)
        assert poincare_subgroup(full) == t_factorial(4)
        assert str(poincare_subgroup(full)) == "1 + 3t + 5t^2 + 6t^3 + 5t^4 + 3t^5 + t^6"
