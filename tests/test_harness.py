"""Check harness and census generation."""

from __future__ import annotations

import json
import math

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


def test_run_checks_rejects_an_empty_selection():
    # an empty selection would run nothing and pass silently
    with pytest.raises(ValueError, match="no check id given"):
        run_checks(3, checks=[])


def test_poincare_corollary_at_degree_8():
    report = run_checks(8, checks=["poincare-corollary"])[-1]
    assert (report.n, report.cases_run) == (8, 2816)  # p(8) = 22 shapes, 128 subsets
    assert report.passed


def test_coset_checks_count_flags():
    reports = run_checks(4, checks=["strings-coset", "schubert-coset"])
    # strings-coset visits S_n, schubert-coset every Springer fiber flag
    assert [r.cases_run for r in reports if r.check_id == "strings-coset"] == [1, 2, 6, 24]
    flags = ParabolicData(4, frozenset())
    fibers = [len(hessvar.springer_min_reps(shape, flags)) for shape in nilpotent.partitions(4)]
    assert reports[-1].cases_run == sum(fibers)


def test_strings_coset_at_degree_8():
    (*_, report) = run_checks(8, checks=["strings-coset"])
    assert (report.n, report.cases_run) == (8, math.factorial(8))
    assert report.passed


@pytest.mark.parametrize(
    ("check_id", "cases"),
    [
        ("parabolic-dimension", [1, 7, 52, 537, 5822, 79450]),
        ("schubert-ideal", [3, 12, 59, 469, 4279, 49794]),
    ],
)
def test_sweep_case_counts_are_pinned(check_id, cases):
    # parabolic-dimension counts nonempty cells, schubert-ideal points,
    # ideal elements and quotient sizes
    assert [r.cases_run for r in run_checks(6, checks=[check_id])] == cases


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
    def wrong(shape, h):
        members, counter = kernel(shape, h)
        counter = list(counter)
        hessvar._add_plane(counter, members)
        return members, counter

    return wrong


def _without_identity(kernel):
    # index 0 is the identity, whose cell is never empty
    return lambda shape, h: kernel(shape, h) & ~1


def _reps_without_identity(reps):
    # index 0 is the identity, the first fiber flag in every W^J
    return lambda shape, p: reps(shape, p)[1:]


def _moved_points(move):
    """A wrong version of the group route schubert._points: each point's one
    line array passed through move, its index and descents read again."""

    def wrong_route(points):
        def wrong(shape, descents):
            images = symgroup._sn_images(shape.n)
            moved = [move(images[point]) for point in points(shape, descents)[0]]
            return [symgroup._split_index(shape.n)(w) for w in moved], [symgroup._descents(w) for w in moved]

        return wrong

    return wrong_route


def _points_without_identity(points):
    # the identity, index 0, heads the descent free group and is its own
    # point, the lowest one, so dropping it opens a hole in the ideal of
    # any other points
    return lambda shape, descents: tuple(column[1:] if descents == 0 else column for column in points(shape, descents))


# check id -> (module, name, wrong version of the named route)
WRONG_ROUTES = {
    "fixed-points": (harness, "_staircase_members", _without_identity),
    "parabolic-dimension": (harness, "_staircase_planes", _off_by_one),
    "poincare-corollary": (
        harness,
        "poincare_parabolic_formula",
        lambda formula: lambda shape, p: formula(shape, p) * Poly((1, 1)),
    ),
    # flip bit 1 of the string ascents, inside 1..n-1 from n = 2 on
    "strings-coset": (harness, "_string_ascents", lambda ascents: lambda s: ascents(s) ^ 2),
    "schubert-coset": (schubert, "_points", _moved_points(lambda w: w[::-1])),
    "schubert-ideal": (schubert, "_points", _points_without_identity),
    "main-theorem": (hessvar, "_staircase_planes", _off_by_one),
    "phi-V-equivalence": (
        harness,
        "dominance_ideal",
        lambda ideal: lambda phi_x, n: RootSet(n, frozenset()),
    ),
    "dim-formulas-agree": (
        harness,
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


def test_dim_formulas_fail_when_the_schubert_point_is_one_too_long(clean_caches, monkeypatch):
    # point * s_1: every n = 4 point has a right ascent or descent at 1, so
    # its length moves by one
    wrong = _moved_points(lambda w: (w[1], w[0]) + w[2:])
    monkeypatch.setattr(schubert, "_points", wrong(schubert._points))
    cases, failures = harness.CHECKS["dim-formulas-agree"](4)
    assert failures.total == cases > 0


def test_dim_formulas_fail_when_the_root_count_table_is_one_too_high(clean_caches, monkeypatch):
    table = harness._springer_dim_table
    shape = Partition((2, 1, 1))
    # the last fiber index of one shape: a single wrong entry is found
    last = max(i for i, dim in enumerate(table(shape)) if dim >= 0)

    def wrong(other):
        dims = table(other)
        return dims[:last] + (dims[last] + 1,) + dims[last + 1 :] if other == shape else dims

    monkeypatch.setattr(harness, "_springer_dim_table", wrong)
    (report,) = [r for r in run_checks(4, checks=["dim-formulas-agree"]) if r.n == 4]
    assert report.failures_total == 1
    assert report.failures[0].shape == shape.parts
    assert report.failures[0].witness == ",".join(map(str, symgroup._sn_images(4)[last]))


def test_schubert_checks_build_no_inverse(clean_caches, monkeypatch):
    calls = []
    inverse = Permutation.inverse

    def counted(w):
        calls.append(w)
        return inverse(w)

    monkeypatch.setattr(Permutation, "inverse", counted)
    reports = run_checks(5, ["schubert-coset", "dim-formulas-agree"])
    assert all(r.passed for r in reports)
    assert calls == []


def test_schubert_checks_build_no_permutation(clean_caches, monkeypatch):
    # the points, the tableau scan and the descents all read one line arrays
    calls = []
    post_init = Permutation.__post_init__

    def counted(w):
        calls.append(w.images)
        post_init(w)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    reports = run_checks(5, ["schubert-coset", "dim-formulas-agree"])
    assert all(r.passed for r in reports)
    assert calls == []


def _descent_mismatches(n, flags_and_sets):
    """Flags whose right descents differ from the given set, with the least
    member of the difference."""
    out = []
    for images, other in flags_and_sets:
        diff = [i for i in range(1, n) if (images[i - 1] > images[i]) != bool(other >> i & 1)]
        if diff:
            out.append((images, diff[0]))
    return out


@pytest.mark.parametrize("check_id", ["strings-coset", "schubert-coset"])
def test_coset_checks_witness_a_one_element_j(check_id, clean_caches, monkeypatch):
    module, name, wrong = WRONG_ROUTES[check_id]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    report = run_checks(4, checks=[check_id])[-1]
    if check_id == "strings-coset":
        sets = [
            (w, harness._string_ascents(symgroup.string_decompose(Permutation(w))))
            for w in symgroup._sn_images(4)
        ]
    else:
        # the witnesses of a shape come by descent group, then by flag index
        sets = [
            (symgroup._sn_images(4)[idx], descents)
            for shape in nilpotent.partitions(4)
            for flags, _, point_descents in schubert._point_groups(shape, 0)
            for idx, descents in zip(flags, point_descents)
        ]
    expected = _descent_mismatches(4, sets)
    assert report.failures_total == len(expected) > 0
    assert [(f.witness, f.j) for f in report.failures] == [
        (",".join(map(str, images)), (least,)) for images, least in expected
    ]


def _with_longest(kernel):
    # the last index is w0, whose cell is empty for some (shape, J) at n = 4
    return lambda shape, h: kernel(shape, h) | 1 << (math.factorial(shape.n) - 1)


def _members_without_identity(kernel):
    def wrong(shape, h):
        members, counter = kernel(shape, h)
        return members & ~1, counter

    return wrong


@pytest.mark.parametrize(
    ("name", "wrong", "check_id"),
    [
        ("_staircase_members", _with_longest, "fixed-points"),
        ("_staircase_planes", _members_without_identity, "parabolic-dimension"),
    ],
    ids=["fixed-points-extra-member", "parabolic-dimension-missing-member"],
)
def test_set_checks_fail_on_a_member_either_side(name, wrong, check_id, clean_caches, monkeypatch):
    monkeypatch.setattr(harness, name, wrong(getattr(harness, name)))
    report = run_checks(4, checks=[check_id])[-1]
    assert report.n == 4
    assert not report.passed


def _one_bit_flipped(kernel, shape, p, level):
    """The staircase side with bit `level` of one member's dimension flipped:
    w0, whose cell is full at J = {1..n-1}."""
    w0 = math.factorial(shape.n) - 1

    def wrong(other, h):
        members, counter = kernel(other, h)
        if (other, h) != (shape, hessvar.h_from_parabolic(p)):
            return members, counter
        counter = list(counter)
        counter[level] ^= 1 << w0
        return members, counter

    return wrong


@pytest.mark.parametrize("level", range(3))
def test_parabolic_dimension_fails_on_one_flipped_dimension_bit(level, clean_caches, monkeypatch):
    # w0 has dimension 6 = 0b110, three counter levels; its excess is 1, so
    # flipping bit 0 makes the sum 8 and carries out past l(w0) + 1 = 0b111
    shape, p = Partition((1, 1, 1, 1)), ParabolicData(4, frozenset({1, 2, 3}))
    members, counter = hessvar._staircase_planes(shape, hessvar.h_from_parabolic(p))
    assert len(counter) == 3 and members >> math.factorial(4) - 1 & 1
    monkeypatch.setattr(harness, "_staircase_planes", _one_bit_flipped(harness._staircase_planes, shape, p, level))
    cases, failures = harness.CHECKS["parabolic-dimension"](4)
    assert cases == 537
    assert failures.total == 1
    assert failures.witnesses == [harness.Failure((1, 1, 1, 1), (1, 2, 3), "4,3,2,1")]


def _without_identity_in_length_planes(planes):
    # index 0 is the identity, the only permutation of length 0
    return lambda n: (planes(n)[0] & ~1, *planes(n)[1:])


@pytest.mark.parametrize(
    ("module", "name", "wrong", "check_id"),
    [
        (schubert, "_sn_length_planes", _without_identity_in_length_planes, "main-theorem"),
        (hessvar, "_min_rep_indices", _reps_without_identity, "poincare-corollary"),
    ],
    ids=["schubert-main-theorem", "hessvar-poincare-corollary"],
)
def test_each_check_fails_without_the_identity_in_the_quotient(
    module, name, wrong, check_id, clean_caches, monkeypatch
):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    report = run_checks(4, checks=[check_id])[-1]
    assert report.n == 4
    assert not report.passed


def test_main_theorem_fails_when_the_union_points_are_wrong(clean_caches, monkeypatch):
    # each flag stands in for its own point: the same descents, so every
    # point stays in W^J and the union side records failures, not raises
    def flags_as_points(shape, descents):
        flags = nilpotent._fiber_by_descents(shape)[descents]
        return flags, [descents] * len(flags)

    monkeypatch.setattr(schubert, "_points", flags_as_points)
    report = run_checks(4, checks=["main-theorem"])[-1]
    assert report.n == 4
    assert not report.passed
    assert report.failures_total >= len(report.failures) > 0


def test_schubert_ideal_names_the_missing_element(clean_caches, monkeypatch):
    # without the identity flag the image loses its bottom, the identity, in
    # the closure of the whole fiber and in that of every W^J that holds
    # another flag
    monkeypatch.setattr(schubert, "_points", _points_without_identity(schubert._points))
    report = run_checks(4, checks=["schubert-ideal"])[-1]
    # every shape of degree 4 is in the hypothesis
    expected = []
    for shape in nilpotent.partitions(4):
        if len(hessvar._min_rep_indices(shape, ParabolicData(4, frozenset()))) > 1:
            expected.append((shape.parts, None, "1,2,3,4"))
        expected += [
            (shape.parts, p.sorted_j(), "1,2,3,4")
            for p in symgroup.parabolics(4)
            if len(hessvar._min_rep_indices(shape, p)) > 1
        ]
    assert len(expected) > 8
    assert [(f.shape, f.j, f.witness) for f in report.failures] == expected


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
