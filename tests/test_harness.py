"""Check harness and census generation."""

from __future__ import annotations

import json
import types

import pytest

from hesscomb import (
    CHECKS,
    ParabolicData,
    Partition,
    Permutation,
    Poly,
    RootSet,
    census,
    harness,
    hess_cells,
    hessvar,
    nilpotent,
    rows_to_csv,
    rows_to_json,
    run_checks,
    schubert,
    symgroup,
)
from hesscomb.harness import CELL_FIELDS, SUMMARY_FIELDS

EXPECTED_IDS = [
    "fixed-points",
    "parabolic-dimension",
    "poincare-corollary",
    "strings-coset",
    "schubert-coset",
    "schubert-ideal",
    "main-theorem",
    "phi-V-equivalence",
    "dim-formulas-agree",
]


def test_check_registry():
    assert list(CHECKS) == EXPECTED_IDS


def test_run_checks_degree_1():
    reports = run_checks(1)
    assert [r.check_id for r in reports] == EXPECTED_IDS
    assert all(r.n == 1 for r in reports)
    assert all(r.passed for r in reports)
    assert all(r.elapsed >= 0 for r in reports)


def test_run_checks_all_pass_to_degree_4():
    reports = run_checks(4)
    assert len(reports) == 4 * len(EXPECTED_IDS)
    assert all(r.passed for r in reports)
    # degrees come in outer order 1, 2, 3, 4
    assert [r.n for r in reports] == sorted(r.n for r in reports)


def test_run_checks_subset_preserves_canonical_order():
    reports = run_checks(3, checks={"main-theorem", "fixed-points"})
    assert [(r.check_id, r.n) for r in reports] == [
        ("fixed-points", 1),
        ("main-theorem", 1),
        ("fixed-points", 2),
        ("main-theorem", 2),
        ("fixed-points", 3),
        ("main-theorem", 3),
    ]


def test_run_checks_main_theorem_cases():
    (report,) = run_checks(1, checks=["main-theorem"])
    # p(1) partitions times 2^0 parabolics
    assert report.cases_run == 1
    reports = run_checks(4, checks=["main-theorem"])
    assert reports[-1].cases_run == 5 * 8  # p(4) = 5 shapes, 8 subsets


def test_run_checks_validation():
    with pytest.raises(ValueError):
        run_checks(0)
    with pytest.raises(ValueError):
        run_checks(9)
    with pytest.raises(ValueError, match="unknown check id: bogus"):
        run_checks(2, checks=["bogus"])


def test_check_report_json():
    (report,) = run_checks(1, checks=["dim-formulas-agree"])
    d = report.to_json_dict()
    assert d["check_id"] == "dim-formulas-agree"
    assert d["n"] == 1
    assert d["failures"] == []
    assert d["failures_total"] == 0
    assert isinstance(d["elapsed"], float)
    json.dumps(d)


def test_failures_total_counts_past_the_stored_witnesses(fifteen_hundred_failures):
    (report,) = run_checks(1, checks=["phi-V-equivalence"])
    assert not report.passed
    assert report.failures_total == 1500
    assert len(report.failures) == 1000
    assert report.failures[-1].witness == "999"
    assert report.to_json_dict()["failures_total"] == 1500


# --- Each check can fail ----------------------------------------------------------


def _clear_caches():
    for module in (symgroup, nilpotent, hessvar, schubert):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


def _off_by_one(kernel):
    return lambda shape, h, winvs: (dim + 1 for dim in kernel(shape, h, winvs))


def _reversed_point(schubert_point):
    def point(w, shape):
        images = schubert_point(w, shape).point.images
        return types.SimpleNamespace(point=Permutation(tuple(reversed(images))))

    return point


# check id -> (module, name, wrong version of the named route)
WRONG_ROUTES = {
    "fixed-points": (harness, "_staircase_dims", _off_by_one),
    "parabolic-dimension": (harness, "_staircase_dims", _off_by_one),
    "poincare-corollary": (
        harness,
        "poincare_parabolic_formula",
        lambda formula: lambda shape, p: formula(shape, p) * Poly((1, 1)),
    ),
    "strings-coset": (
        harness,
        "is_min_coset_rep_strings",
        lambda test: lambda w, p: not test(w, p),
    ),
    "schubert-coset": (harness, "schubert_point", _reversed_point),
    # the identity is the lowest point, so dropping it opens a hole in the ideal
    "schubert-ideal": (
        harness,
        "springer_min_reps",
        lambda reps: lambda shape, p: reps(shape, p)[1:],
    ),
    "main-theorem": (hessvar, "_staircase_dims", _off_by_one),
    "phi-V-equivalence": (
        harness,
        "dominance_ideal",
        lambda ideal: lambda phi_x, n: RootSet(n, frozenset()),
    ),
    "dim-formulas-agree": (
        nilpotent,
        "_row_inversion_vector",
        lambda vector: lambda w, shape: vector(w, shape) + (1,),
    ),
}


@pytest.mark.parametrize("check_id", EXPECTED_IDS)
def test_each_check_fails_when_one_route_is_wrong(check_id, clean_caches, monkeypatch):
    module, name, wrong = WRONG_ROUTES[check_id]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    report = run_checks(4, checks=[check_id])[-1]
    assert report.n == 4
    assert not report.passed
    assert report.failures_total >= len(report.failures) > 0


# --- Census ---------------------------------------------------------------------


def test_census_degree_1():
    assert census(1, "summaries") == [
        {
            "lambda": (1,),
            "J": (),
            "hessenberg_poly": (1,),
            "schubert_union_poly": (1,),
            "equal": True,
        }
    ]
    cells = census(1, "cells")
    assert len(cells) == 1
    assert cells[0]["w"] == "1" and cells[0]["dim"] == 0


def test_census_summary_row_count():
    # p(n) partitions times 2^(n-1) parabolic subsets
    assert len(census(3, "summaries")) == 3 * 4
    assert len(census(4, "summaries")) == 5 * 8


def test_census_cells_match_hess_cells():
    rows = census(4, "cells")
    pair_rows = [
        r for r in rows if r["lambda"] == (2, 2) and r["J"] == (1, 3)
    ]
    cells = hess_cells(Partition((2, 2)), ParabolicData.from_iterable(4, (1, 3)))
    assert len(pair_rows) == len(cells) == 12
    assert [r["w"] for r in pair_rows] == [c.w.one_line() for c in cells]
    assert [r["dim"] for r in pair_rows] == [c.dim for c in cells]


def test_census_cells_springer_flag():
    rows = census(4, "cells")
    for row in rows:
        if row["lambda"] == (2, 2) and row["J"] == (1, 3) and row["w"] == "1,2,4,3":
            # s_3 fixes the bottom row, flag stays in the fiber
            assert row["springer"] is True
            break
    else:
        pytest.fail("expected row missing")


def test_census_validation():
    with pytest.raises(ValueError):
        census(0, "cells")
    with pytest.raises(ValueError):
        census(9, "cells")
    with pytest.raises(ValueError):
        census(2, "rows")


def test_census_deterministic():
    a = rows_to_csv(census(4, "summaries"), "summaries")
    b = rows_to_csv(census(4, "summaries"), "summaries")
    assert a == b


# --- Serialization -----------------------------------------------------------------


def test_csv_headers():
    assert CELL_FIELDS == ("lambda", "J", "w", "v", "y", "dim", "springer", "schubert_point")
    assert SUMMARY_FIELDS == (
        "lambda",
        "J",
        "hessenberg_poly",
        "schubert_union_poly",
        "equal",
    )
    cells_csv = rows_to_csv(census(1, "cells"), "cells")
    assert cells_csv.splitlines()[0] == "lambda,J,w,v,y,dim,springer,schubert_point"
    summary_csv = rows_to_csv(census(1, "summaries"), "summaries")
    assert summary_csv.splitlines()[0] == (
        "lambda,J,hessenberg_poly,schubert_union_poly,equal"
    )


def test_csv_value_rendering():
    rows = census(4, "summaries")
    text = rows_to_csv(rows, "summaries")
    lines = text.splitlines()
    # tuple fields are comma joined inside quotes, booleans lowercased
    row = next(line for line in lines if line.startswith('"2,2","1,3"'))
    assert row == '"2,2","1,3","1,3,4,3,1","1,3,4,3,1",true'


def test_rows_to_csv_unknown_granularity():
    with pytest.raises(ValueError):
        rows_to_csv([], "rows")


def test_rows_to_json_round_trip():
    rows = census(2, "summaries")
    text = rows_to_json(rows)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert len(parsed) == len(rows)
    assert parsed[0]["lambda"] == [2]
    assert parsed[0]["equal"] is True
