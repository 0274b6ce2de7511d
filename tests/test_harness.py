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
    compare_with_schubert_union,
    component_candidates,
    components,
    harness,
    hess_cells,
    hessvar,
    nilpotent,
    parabolics,
    partitions,
    rows_to_csv,
    rows_to_json,
    run_checks,
    schubert,
    symgroup,
)
from hesscomb.harness import CELL_FIELDS, COMPONENT_FIELDS, SUMMARY_FIELDS

from conftest import built_tables, clear_caches, one_line_arrays

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
        run_checks(10)
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


def _off_by_one(kernel):
    def wrong(shape, h):
        members, counter = kernel(shape, h)
        counter = list(counter)
        hessvar._add_plane(counter, members)
        return members, counter

    return wrong


def _one_more(free):
    # every staircase fold starts one higher, so every cell dimension is one too high
    return lambda shape: hessvar._sliced_sum(free(shape), [(1 << math.factorial(shape.n)) - 1])


def _moving_out(change):
    """A wrong version of the kernel step hessvar._staircase_step: the set
    of w that it moves out of the staircase passed through change, with
    the order of S_n."""

    def wrong_route(step):
        def wrong(shape, counter, outside, *run):
            counter, outside = step(shape, counter, outside, *run)
            return counter, change(outside, math.factorial(shape.n))

        return wrong

    return wrong_route


# index 0 is the identity, whose cell is never empty
_without_identity = _moving_out(lambda outside, order: outside | 1)
# the last index is w0, whose cell is empty for some (shape, J) at n = 4
_with_longest = _moving_out(lambda outside, order: outside & ~(1 << order - 1))


def _reps_without_identity(groups):
    # index 0 is the identity, the first flag of the first fiber group in every W^J
    def wrong(shape, j_mask):
        (descents, flags, dims), *rest = groups(shape, j_mask)
        return [(descents, flags[1:], dims[1:]), *rest]

    return wrong


def _moved_points(move):
    """A wrong version of the group route schubert._points: each point's one
    line array passed through move, its index and descents read again."""

    def wrong_route(points):
        def wrong(shape, descents):
            image = symgroup._sn_image(shape.n)
            moved = [move(image(point)) for point in points(shape, descents)[0]]
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
    # the coset pass folds the staircase side from hessvar._free_counter
    # through hessvar._staircase_step, one block of J at a time
    "fixed-points": (harness, "_staircase_step", _without_identity),
    "parabolic-dimension": (harness, "_free_counter", _one_more),
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
    groups = schubert._fiber_groups
    shape = Partition((2, 1, 1))
    # the last flag of one shape's walk: a single wrong root count is found
    last = groups(shape, 0)[-1][1][-1]

    def wrong(other, j_mask):
        out = groups(other, j_mask)
        if other != shape:
            return out
        *rest, (descents, flags, dims) = out
        return [*rest, (descents, flags, [*dims[:-1], dims[-1] + 1])]

    monkeypatch.setattr(schubert, "_fiber_groups", wrong)
    (report,) = [r for r in run_checks(4, checks=["dim-formulas-agree"]) if r.n == 4]
    assert report.failures_total == 1
    assert report.failures[0].shape == shape.parts
    assert report.failures[0].witness == ",".join(map(str, one_line_arrays(4)[last]))


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
    init = Permutation.__init__

    def counted(w, images):
        calls.append(tuple(images))
        init(w, images)

    monkeypatch.setattr(Permutation, "__init__", counted)
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
            (w, harness._string_ascents(symgroup.string_decompose(Permutation(w)).lengths()))
            for w in one_line_arrays(4)
        ]
    else:
        images = one_line_arrays(4)
        # the witnesses of a shape come by descent group, then by flag index
        sets = [
            (images[idx], descents)
            for shape in nilpotent.partitions(4)
            for _, flags, _, _, point_descents in schubert._point_groups(shape, 0)
            for idx, descents in zip(flags, point_descents)
        ]
    expected = _descent_mismatches(4, sets)
    assert report.failures_total == len(expected) > 0
    assert [(f.witness, f.j) for f in report.failures] == [
        (",".join(map(str, images)), (least,)) for images, least in expected
    ]


def test_main_theorem_keeps_the_quotient_guard(clean_caches, monkeypatch):
    # a reversed point has a descent wherever its flag has an ascent, so
    # some J that misses a group's descents meets one of its points'
    monkeypatch.setattr(schubert, "_points", _moved_points(lambda w: w[::-1])(schubert._points))
    with pytest.raises(RuntimeError, match="^product not reduced for v="):
        run_checks(4, ["main-theorem"])


@pytest.mark.parametrize(
    ("name", "wrong"),
    [
        # the union side counts W^J alone, without the factor P_{W_J}
        ("poincare_subgroup", lambda p: Poly.one()),
        # the ideal of the points, not cut down to W^J
        ("_quotient", lambda p: (1 << math.factorial(p.n)) - 1),
    ],
    ids=["without-the-subgroup-factor", "without-the-quotient-and"],
)
def test_main_theorem_fails_when_the_union_drops_a_coset_step(name, wrong, clean_caches, monkeypatch):
    monkeypatch.setattr(schubert, name, wrong)
    report = run_checks(4, checks=["main-theorem"])[-1]
    assert report.n == 4
    assert not report.passed


@pytest.mark.parametrize(
    ("module", "name", "wrong", "check_id"),
    [
        (harness, "_staircase_step", _with_longest, "fixed-points"),
        (harness, "_staircase_step", _without_identity, "parabolic-dimension"),
    ],
    ids=["fixed-points-extra-member", "parabolic-dimension-missing-member"],
)
def test_set_checks_fail_on_a_member_either_side(module, name, wrong, check_id, clean_caches, monkeypatch):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    report = run_checks(4, checks=[check_id])[-1]
    assert report.n == 4
    assert not report.passed


def test_coset_checks_share_one_pass_per_degree(clean_caches, monkeypatch):
    # one coset sweep per degree and each (shape, J) leaf finished once,
    # whichever of the two checks reads the pass first
    sweeps = _counted(monkeypatch, "_by_coset", (harness,))
    leaves = _counted(monkeypatch, "_leaf", (harness,))
    assert all(r.passed for r in run_checks(7))
    assert sweeps == [(n,) for n in range(1, 8)]
    assert len(leaves) == len({args[:2] for args in leaves}) == 1481


@pytest.mark.parametrize("n", range(1, 7))
def test_each_leaf_holds_the_kernel_of_its_pair(n, clean_caches, monkeypatch):
    # the tree's fold for J, extended block by block, is the kernel's for
    # h_J, up to the dimension bits off the members, which it keeps
    leaves = _counted(monkeypatch, "_leaf", (harness,))
    harness._coset_pass(n)
    assert len(leaves) == len(partitions(n)) * len(parabolics(n))
    full = (1 << math.factorial(n)) - 1
    for shape, p, _, counter, outside, _ in leaves:
        members = full ^ outside
        kernel = hessvar._staircase_planes(shape, hessvar.h_from_parabolic(p))
        assert (members, [plane & members for plane in counter]) == kernel, (shape, p)


def test_run_cache_holds_one_shape_of_runs(clean_caches):
    # the coset pass goes shape by shape, and a shape's J draw on its
    # C(n + 1, 2) blocks as runs, so each (shape, run) is built once while
    # the cache holds no more than one shape's runs at the largest degree
    assert all(r.passed for r in run_checks(7))
    info = hessvar._run_pieces.cache_info()
    assert info.maxsize == math.comb(symgroup.MAX_DEGREE + 1, 2) == 45
    assert info.currsize == info.maxsize
    assert info.misses == sum(len(partitions(n)) * math.comb(n + 1, 2) for n in range(1, 8)) == 831


def test_group_ideal_cache_holds_one_shape_of_groups(clean_caches):
    # main-theorem goes shape by shape and a shape has at most 2^(n - 1)
    # descent groups, so each group's ideal is built once while the cache
    # holds no more than one shape's groups at the largest degree
    assert all(r.passed for r in run_checks(7, ["main-theorem"]))
    info = schubert._group_ideal.cache_info()
    assert info.maxsize == 2 ** (symgroup.MAX_DEGREE - 1) == 256
    assert info.currsize == info.maxsize
    groups = [len(nilpotent._fiber_by_descents(shape)) for n in range(1, 8) for shape in partitions(n)]
    assert info.misses == sum(groups) == 907


def test_poincare_corollary_fails_when_one_group_polynomial_is_shifted(clean_caches, monkeypatch):
    groups = hessvar._group_polys
    shape = Partition((2, 1, 1))
    last = groups(shape)[1][-1][0]

    def wrong(other):
        width, out = groups(other)
        if other != shape:
            return width, out
        # times t: every coefficient one width up
        *rest, (descents, poly) = out
        return width, (*rest, (descents, poly << width))

    monkeypatch.setattr(hessvar, "_group_polys", wrong)
    cases, failures = CHECKS["poincare-corollary"](4)
    # the J that miss the shifted group
    expected = [((2, 1, 1), p.sorted_j()) for p in parabolics(4) if not last & p.mask]
    assert 0 < len(expected) < len(parabolics(4))
    assert [(f.shape, f.j) for f in failures.witnesses] == expected


def _coset_reports(checks):
    return {(r.check_id, r.n): (r.cases_run, r.failures_total, r.failures) for r in run_checks(4, checks)}


@pytest.mark.parametrize("wrong", [_with_longest, _without_identity], ids=["extra-member", "missing-member"])
def test_coset_checks_report_the_same_alone_and_together(wrong, clean_caches, monkeypatch):
    # run alone, each check pays for the pass itself; together, fixed-points pays
    monkeypatch.setattr(harness, "_staircase_step", wrong(harness._staircase_step))
    alone = {}
    for check_id in ("fixed-points", "parabolic-dimension"):
        clear_caches()
        alone.update(_coset_reports([check_id]))
    clear_caches()
    assert _coset_reports(["fixed-points", "parabolic-dimension"]) == alone
    assert all(alone[check_id, 4][1] for check_id in ("fixed-points", "parabolic-dimension"))


def _one_bit_flipped(step, shape, level):
    """The staircase side with bit `level` of one member's dimension flipped:
    w0, whose cell is full at J = {1..n-1}.  The step that appends the one
    block 1..n of that J is the only step of its leaf."""
    n = shape.n
    w0 = math.factorial(n) - 1

    def wrong(other, counter, outside, *run):
        counter, outside = step(other, counter, outside, *run)
        if (other, run) != (shape, (1, n, n)):
            return counter, outside
        counter = list(counter)
        counter[level] ^= 1 << w0
        return counter, outside

    return wrong


@pytest.mark.parametrize("level", range(3))
def test_parabolic_dimension_fails_on_one_flipped_dimension_bit(level, clean_caches, monkeypatch):
    # w0 has dimension 6 = 0b110, three counter levels; its excess is 1, so
    # flipping bit 0 makes the sum 8 and carries out past l(w0) + 1 = 0b111
    shape, p = Partition((1, 1, 1, 1)), ParabolicData(4, frozenset({1, 2, 3}))
    members, counter = hessvar._staircase_planes(shape, hessvar.h_from_parabolic(p))
    assert len(counter) == 3 and members >> math.factorial(4) - 1 & 1
    monkeypatch.setattr(harness, "_staircase_step", _one_bit_flipped(harness._staircase_step, shape, level))
    cases, failures = harness.CHECKS["parabolic-dimension"](4)
    assert cases == 537
    assert failures.total == 1
    assert failures.witnesses == [harness.Failure((1, 1, 1, 1), (1, 2, 3), "4,3,2,1")]


def test_excess_is_one_plus_length_minus_springer_dimension_on_the_fiber():
    for n in range(1, 7):
        for shape in nilpotent.partitions(n):
            expected = bytes(
                1 + w.length() - nilpotent.springer_cell_dim(w, shape) if nilpotent.springer_contains(w, shape) else 0
                for w in symgroup.enumerate_sn(n)
            )
            assert harness._excess(shape) == expected, shape


def test_coset_checks_build_no_table_per_j():
    # the coset side gathers J by J through the sorting masks and keeps
    # nothing per J: only the degree tables that the two checks read stay
    clear_caches()
    CHECKS["fixed-points"](7)
    CHECKS["parabolic-dimension"](7)
    assert built_tables() == {
        "_split_tables": 1,
        "_sn_image": 1,
        "_sn_lengths": 7,
        "_sn_planes": 7,
        "_sn_sorting_masks": 7,
        "_sn_ascent_plane": 21,
    }


def _without_one_source(masks):
    # position 1 loses the pair of distance 1, so the descents with
    # w(1) = w(2) + 1 gather nothing
    def wrong(n):
        (ascents, moves), *rest = masks(n)
        return ((ascents, moves[1:]), *rest)

    return wrong


@pytest.mark.parametrize("check_id", ["fixed-points", "parabolic-dimension"])
def test_coset_checks_fail_when_a_sorting_source_is_dropped(check_id, clean_caches, monkeypatch):
    monkeypatch.setattr(harness, "_sn_sorting_masks", _without_one_source(harness._sn_sorting_masks))
    cases, failures = CHECKS[check_id](4)
    assert failures.total > 0 < cases


def _without_identity_in_length_planes(planes):
    # index 0 is the identity, the only permutation of length 0
    return lambda n: (planes(n)[0] & ~1, *planes(n)[1:])


@pytest.mark.parametrize(
    ("module", "name", "wrong", "check_id"),
    [
        (schubert, "_sn_length_planes", _without_identity_in_length_planes, "main-theorem"),
        (hessvar, "_fiber_groups", _reps_without_identity, "poincare-corollary"),
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


def _counted(monkeypatch, name, modules):
    """Count the calls of the function that the modules import as name."""
    calls = []
    for module in modules:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn: calls.append(args) or fn(*args))
    return calls


def test_each_pair_is_swept_and_each_flag_scanned_once(clean_caches, monkeypatch):
    # the coset pass finishes each pair's leaf once and keeps its polynomial
    # for poincare-corollary and main-theorem, which sweep nothing more, and
    # only dim-formulas scans tableaux: 1,481 (degree, shape, J) pairs and
    # 13,390 fiber flags up to degree 7
    leaves = _counted(monkeypatch, "_leaf", (harness,))
    sweeps = _counted(monkeypatch, "_staircase_planes", (hessvar,))
    scans = _counted(monkeypatch, "_row_inversion_vector", (harness, nilpotent, schubert))
    assert all(r.passed for r in run_checks(7))
    assert len(leaves) == len({args[:2] for args in leaves}) == 1481
    assert sweeps == []
    assert len(scans) == len(set(scans)) == 13390


def test_poincare_corollary_sweeps_alone(clean_caches, monkeypatch):
    sweeps = _counted(monkeypatch, "_staircase_planes", (hessvar,))
    reports = run_checks(6, ["poincare-corollary"])
    assert all(r.passed for r in reports)
    # one sweep per (shape, J) pair of degrees 1..6
    assert len(sweeps) == sum(r.cases_run for r in reports) == 521


def test_clearing_the_caches_forgets_the_kept_polynomials(clean_caches, monkeypatch):
    # parabolic-dimension keeps the polynomials of wrong planes, and
    # poincare-corollary finds them until the caches are cleared
    monkeypatch.setattr(harness, "_free_counter", _one_more(harness._free_counter))
    assert not run_checks(4, ["parabolic-dimension"])[-1].passed
    monkeypatch.undo()
    assert not run_checks(4, ["poincare-corollary"])[-1].passed
    clear_caches()
    assert all(r.passed for r in run_checks(4, ["poincare-corollary"]))


def _mask_without(shape, label, lost):
    """nilpotent._row_inversion_masks with label's mask missing lost, for shape."""
    masks = nilpotent._row_inversion_masks

    def wrong(other):
        out = dict(masks(other))
        if other == shape:
            out[1 << label] &= ~(1 << lost)
        return out

    return wrong


def test_checks_fail_when_a_row_inversion_mask_loses_a_label(clean_caches, monkeypatch):
    # label 3 of (2, 2) sits below label 4: values placed at 3 after 4 lose a
    # row inversion, so those flags' points come out one too short
    monkeypatch.setattr(nilpotent, "_row_inversion_masks", _mask_without(Partition((2, 2)), 3, 4))
    for check_id in ("dim-formulas-agree", "main-theorem"):
        report = run_checks(4, [check_id])[-1]
        assert report.n == 4
        assert not report.passed, check_id
        assert {f.shape for f in report.failures} == {(2, 2)}, check_id


def test_main_theorem_fails_when_the_union_points_are_wrong(clean_caches, monkeypatch):
    # each flag stands in for its own point: the same descents, so every
    # point stays in W^J and the union side records failures, not raises
    def flags_as_points(shape, descents):
        flags, *_ = nilpotent._fiber_by_descents(shape)[descents]
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
    parabolics = symgroup.parabolics(4)
    for shape in nilpotent.partitions(4):
        sizes = [sum(len(flags) for _, flags, _ in nilpotent._fiber_groups(shape, p.mask)) for p in parabolics]
        # parabolics(4) opens with the empty J
        if sizes[0] > 1:
            expected.append((shape.parts, None, "1,2,3,4"))
        expected += [(shape.parts, p.sorted_j(), "1,2,3,4") for p, size in zip(parabolics, sizes) if size > 1]
    assert len(expected) > 8
    assert [(f.shape, f.j, f.witness) for f in report.failures] == expected


def test_schubert_ideal_fails_when_two_flags_share_a_point(clean_caches, monkeypatch):
    # the second flag of each descent group takes the group's first point:
    # the point map stops being injective, and each such flag is named
    # with no J, ahead of its shape's closure failures
    points = schubert._points

    def shared(shape, descents):
        group_points, point_descents = points(shape, descents)
        if len(group_points) < 2:
            return group_points, point_descents
        return group_points[:1] * 2 + group_points[2:], point_descents[:1] * 2 + point_descents[2:]

    monkeypatch.setattr(schubert, "_points", shared)
    report = run_checks(4, checks=["schubert-ideal"])[-1]
    image = symgroup._sn_image(4)
    expected = [
        (shape.parts, None, ",".join(map(str, image(flags[1]))))
        for shape in nilpotent.partitions(4)
        for flags, *_ in nilpotent._fiber_by_descents(shape).values()
        if len(flags) > 1
    ]
    assert expected[0] == ((2, 2), None, "2,4,1,3")
    found = [(f.shape, f.j, f.witness) for f in report.failures]
    at = 0
    for witness in expected:
        at = found.index(witness, at) + 1
    assert report.failures_total == len(found) == 44


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


def test_census_summaries_build_no_union_tops(monkeypatch):
    # the rows hold the two polynomials, never the union's tops
    expected = [compare_with_schubert_union(shape, p) for shape in partitions(5) for p in parabolics(5)]

    def tops(shape, p):
        raise AssertionError("census summaries built the union tops")

    monkeypatch.setattr(schubert, "schubert_union_tops", tops)
    monkeypatch.setattr(components, "component_candidates", tops)
    rows = census(5, "summaries")
    assert [(row["hessenberg_poly"], row["schubert_union_poly"], row["equal"]) for row in rows] == [
        (c.hessenberg_poly.coeffs, c.schubert_union_poly.coeffs, c.equal) for c in expected
    ]


def test_census_deterministic():
    a = rows_to_csv(census(4, "summaries"), "summaries")
    b = rows_to_csv(census(4, "summaries"), "summaries")
    assert a == b


@pytest.mark.parametrize("n, rows, mixed", [(3, 12, 0), (4, 40, 3), (5, 112, 23)])
def test_census_components_count_the_mixed_pairs(n, rows, mixed):
    # one row per (shape, J) pair; mixed: the maximal candidates span several dimensions
    census_rows = census(n, "components")
    assert len(census_rows) == rows
    assert sum(len(row["dims"]) > 1 for row in census_rows) == mixed


def test_census_components_match_the_candidates():
    rows = census(4, "components")
    shape, p = Partition((2, 2)), ParabolicData.from_iterable(4, (3,))
    (row,) = [r for r in rows if r["lambda"] == shape.parts and r["J"] == p.sorted_j()]
    candidates = component_candidates(shape, p)
    maximal = [c for c in candidates if c.bruhat_maximal]
    assert row == {
        "lambda": (2, 2),
        "J": (3,),
        "candidates": len(candidates),
        "maximal": len(maximal),
        "full": sum(c.full_cell for c in maximal),
        "dims": (3, 2),
    }


def test_census_components_dims_round_trip():
    rows = census(4, "components")
    lines = rows_to_csv(rows, "components").splitlines()
    assert lines[0] == "lambda,J,candidates,maximal,full,dims"
    assert '"2,2",3,4,2,1,"3,2"' in lines
    parsed = json.loads(rows_to_json(rows))
    assert [tuple(row["dims"]) for row in parsed] == [row["dims"] for row in rows]
    assert [row["dims"] for row in parsed if row["lambda"] == [2, 2] and row["J"] == [3]] == [[3, 2]]


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
    assert COMPONENT_FIELDS == ("lambda", "J", "candidates", "maximal", "full", "dims")


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
