"""Candidate top cells and the heuristic maximality filter."""

from __future__ import annotations

import json

import pytest

from hesscomb import (
    ComponentCandidate,
    ParabolicData,
    Partition,
    bruhat_leq,
    cell_dim,
    component_candidates,
    h_from_parabolic,
    hess_contains,
    identity,
    longest_element,
    parabolics,
    schubert_point,
    springer_cell_dim,
    springer_min_reps,
)

from conftest import brute_subgroup


def test_trivial_case():
    shape = Partition((1,))
    p = ParabolicData.from_iterable(1, ())
    cands = component_candidates(shape, p)
    assert len(cands) == 1
    only = cands[0]
    assert only.v == only.top_cell == only.schubert_top == identity(1)
    assert only.cell_dim == 0
    assert only.full_cell and only.bruhat_maximal


def test_2_1_1_example():
    cands = component_candidates(
        Partition((2, 1, 1)), ParabolicData.from_iterable(4, (1, 3))
    )
    rows = [
        (
            c.v.one_line(),
            c.top_cell.one_line(),
            c.schubert_top.one_line(),
            c.cell_dim,
            c.full_cell,
            c.bruhat_maximal,
        )
        for c in cands
    ]
    assert rows == [
        ("2,3,1,4", "3,2,4,1", "3,2,4,1", 4, True, True),
        ("3,4,1,2", "4,3,2,1", "4,1,3,2", 4, False, True),
        ("1,3,2,4", "3,1,4,2", "3,1,4,2", 3, True, False),
        ("1,2,3,4", "2,1,4,3", "2,1,4,3", 2, True, False),
    ]


def test_sorted_by_dim_then_v():
    for total in (3, 4, 5):
        for p in parabolics(total):
            for shape in (Partition((total,)), Partition((1,) * total)):
                cands = component_candidates(shape, p)
                keys = [(-c.cell_dim, c.v.images) for c in cands]
                assert keys == sorted(keys)


def test_candidate_fields_consistent():
    shape = Partition((2, 2))
    p = ParabolicData.from_iterable(4, (1, 3))
    w_j = longest_element(p)
    for c in component_candidates(shape, p):
        assert c.top_cell == c.v * w_j
        assert c.schubert_top == schubert_point(c.v, shape).point * w_j
        assert c.cell_dim == springer_cell_dim(c.v, shape) + w_j.length()
        assert c.full_cell == (c.cell_dim == c.top_cell.length())


def test_maximality_flag_matches_pairwise_bruhat():
    for total in (2, 3, 4):
        for p in parabolics(total):
            for shape in (Partition((2,) + (1,) * (total - 2)) if total > 2 else Partition((total,)),):
                cands = component_candidates(shape, p)
                tops = [c.schubert_top for c in cands]
                for c in cands:
                    dominated = any(
                        c.schubert_top != other and bruhat_leq(c.schubert_top, other)
                        for other in tops
                    )
                    assert c.bruhat_maximal == (not dominated)


def test_top_cell_dominates_its_coset():
    # the candidate at v w_J has the largest dimension among cells over v
    for total in (2, 3, 4):
        for shape in (Partition((2,) + (1,) * (total - 2)) if total > 2 else Partition((total,)),):
            for p in parabolics(total):
                h = h_from_parabolic(p)
                w_j = longest_element(p)
                for v in springer_min_reps(shape, p):
                    best = springer_cell_dim(v, shape) + w_j.length()
                    for y in brute_subgroup(p):
                        w = v * y
                        assert hess_contains(w, shape, h)
                        assert cell_dim(w, shape, h) <= best


def test_to_json_dict_uses_heuristic_maximal_key():
    cands = component_candidates(
        Partition((2, 1, 1)), ParabolicData.from_iterable(4, (1, 3))
    )
    d = cands[0].to_json_dict()
    assert d == {
        "v": [2, 3, 1, 4],
        "top_cell": [3, 2, 4, 1],
        "schubert_top": [3, 2, 4, 1],
        "cell_dim": 4,
        "full_cell": True,
        "heuristic_maximal": True,
    }
    json.dumps(d)


def test_degree_mismatch():
    with pytest.raises(ValueError):
        component_candidates(Partition((2, 1)), ParabolicData.from_iterable(4, ()))
