"""Command line behavior: outputs, formats, exit statuses."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import time

import pytest

from hesscomb import (
    ParabolicData,
    Partition,
    Permutation,
    bruhat_lower_ideal,
    census,
    cli,
    nilpotent,
    rows_to_csv,
    schubert,
    schubert_union_tops,
    springer_min_reps,
    symgroup,
)
from hesscomb.cli import main

from conftest import built_tables, clear_caches, one_line_arrays


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# --- poincare -----------------------------------------------------------------


def test_poincare_2_2_parabolic(capsys):
    status, out, err = run(
        capsys, "poincare", "--partition", "2,2", "--parabolic", "1,3", "--format", "text"
    )
    assert status == 0 and err == ""
    assert out == "1 + 3t + 4t^2 + 3t^3 + t^4\n"


def test_poincare_trivial(capsys):
    status, out, _ = run(capsys, "poincare", "--partition", "1", "--parabolic", "")
    assert status == 0
    assert out == "1\n"


def test_poincare_json(capsys):
    status, out, _ = run(
        capsys,
        "poincare",
        "--partition",
        "2,2",
        "--parabolic",
        "1,3",
        "--format",
        "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "lambda": [2, 2],
        "J": [1, 3],
        "h": [2, 2, 4, 4],
        "poincare": [1, 3, 4, 3, 1],
    }


def test_poincare_accepts_nonparabolic_hessenberg(capsys):
    status, out, _ = run(
        capsys, "poincare", "--partition", "1,1,1", "--hessenberg", "2,3,3"
    )
    assert status == 0
    from hesscomb import HessenbergFunction, poincare_hessenberg

    expected = poincare_hessenberg(Partition((1, 1, 1)), HessenbergFunction((2, 3, 3)))
    assert out == str(expected) + "\n"


def test_poincare_bad_partition(capsys):
    status, out, err = run(capsys, "poincare", "--partition", "2,3", "--parabolic", "")
    assert status == 1 and out == ""
    assert err.startswith("error: ")
    assert "\n" not in err.strip()


def test_poincare_degree_mismatch(capsys):
    status, _, err = run(
        capsys, "poincare", "--partition", "2,2", "--hessenberg", "2,3,3"
    )
    assert status == 1
    assert "degree" in err


def test_poincare_bad_ints(capsys):
    status, _, err = run(capsys, "poincare", "--partition", "2,2", "--parabolic", "1;3")
    assert status == 1
    assert "expected comma separated integers" in err


def test_poincare_unparseable_partition(capsys):
    status, out, err = run(capsys, "poincare", "--partition", "2,x", "--parabolic", "")
    assert status == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("2,x", "error: expected comma separated integers, got '2,x'\n"),
        ("2,,1", "error: expected comma separated integers, got '2,,1'\n"),
        ("", "error: empty partition\n"),
    ],
)
def test_partition_pieces_get_the_integer_list_diagnostic(capsys, text, message):
    status, out, err = run(capsys, "poincare", "--partition", text, "--parabolic", "")
    assert (status, out, err) == (1, "", message)


def test_missing_space_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["poincare", "--partition", "2,2"])
    assert info.value.code == 2


def test_mutually_exclusive_space_flags(capsys):
    with pytest.raises(SystemExit) as info:
        main(
            [
                "poincare",
                "--partition",
                "2,2",
                "--parabolic",
                "1,3",
                "--hessenberg",
                "2,2,4,4",
            ]
        )
    assert info.value.code == 2


# --- springer -----------------------------------------------------------------


def test_springer_text(capsys):
    # six fiber flags with cell dimensions 0, 1, 1, 1, 2, 2
    status, out, _ = run(capsys, "springer", "--partition", "2,2")
    assert status == 0
    assert out == "1 + 3t + 2t^2\n"


def test_springer_text_builds_no_cell_row(capsys, monkeypatch):
    calls = []

    def counted(name):
        return lambda *args: calls.append(name)

    monkeypatch.setattr(cli, "_point_groups", counted("_point_groups"))
    monkeypatch.setattr(cli, "_sn_lengths", counted("_sn_lengths"))
    status, out, _ = run(capsys, "springer", "--partition", "2,1,1", "--format", "text")
    assert status == 0
    assert out == "1 + 3t + 5t^2 + 3t^3\n"
    assert calls == []


def test_springer_csv(capsys):
    status, out, _ = run(capsys, "springer", "--partition", "2,2", "--format", "csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "w,dim,schubert_point"
    assert len(lines) == 1 + 6  # 4!/(2!2!) = 6 fiber flags
    assert lines[1] == '"1,2,3,4",0,"1,2,3,4"'


def test_springer_csv_quotes_like_the_census_rows(capsys):
    # the census writer quotes a field only when it holds a comma
    status, out, _ = run(capsys, "springer", "--partition", "1", "--format", "csv")
    assert status == 0
    assert out == "w,dim,schubert_point\n1,0,1\n"


def test_springer_json(capsys):
    status, out, _ = run(capsys, "springer", "--partition", "2,1,1", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["lambda"] == [2, 1, 1]
    assert sum(payload["poincare"]) == len(payload["cells"]) == 12
    assert payload["cells"][0] == {"w": "1,2,3,4", "dim": 0, "schubert_point": "1,2,3,4"}


def test_single_queries_build_no_table_of_the_sn_arrays(capsys):
    # the queries unrank their S_n indices one at a time (symgroup._sn_image)
    clear_caches()
    queries = [
        ("union", "--partition", "3,3,2", "--parabolic", "1,4", "--format", "json"),
        ("components", "--partition", "4,2,2", "--parabolic", "2,5,6", "--format", "json"),
        ("springer", "--partition", "3,3,2", "--format", "csv"),
        ("springer", "--partition", "3,3,2", "--format", "json"),
    ]
    for argv in queries:
        status, out, _ = run(capsys, *argv)
        assert status == 0 and out
    shape, p = Partition((4, 2, 1, 1)), ParabolicData.from_iterable(8, (2, 5))
    assert springer_min_reps(shape, p)
    tops = schubert_union_tops(shape, p)
    assert len(bruhat_lower_ideal(tops[:1], 8)) > 1
    # the sorting masks serve only the harness sweeps
    assert built_tables().keys() == {
        "_split_tables",
        "_split_index",
        "_sn_image",
        "_sn_lengths",
        "_sn_planes",
        "_sn_rank_planes",
        "_sn_length_planes",
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_springer_scans_no_tableau(fmt, capsys, monkeypatch):
    # the fiber walk carries both counts of each flag and its point, so the
    # command scans no tableau and its rows stay those of the per flag routes
    calls = []
    for module in (nilpotent, schubert):
        scan = module._row_inversion_vector
        monkeypatch.setattr(
            module, "_row_inversion_vector", lambda images, shape, scan=scan: calls.append(images) or scan(images, shape)
        )
    caches = (schubert._points, schubert.schubert_point)
    for cache in caches:
        cache.cache_clear()
    status, out, _ = run(capsys, "springer", "--partition", "4,2,2", "--format", fmt)
    for cache in caches:
        cache.cache_clear()
    assert status == 0
    assert calls == []
    if fmt == "csv":
        rows = [tuple(row) for row in csv.reader(io.StringIO(out))][1:]
    else:
        rows = [(cell["w"], str(cell["dim"]), cell["schubert_point"]) for cell in json.loads(out)["cells"]]
    shape = Partition((4, 2, 2))
    flags = [w for w in map(Permutation, one_line_arrays(8)) if nilpotent.springer_contains(w, shape)]
    # 8! / (4! 2! 2!) fiber flags
    assert len(flags) == 420
    assert rows == [
        (w.one_line(), str(nilpotent.springer_cell_dim(w, shape)), schubert.schubert_point(w, shape).one_line())
        for w in flags
    ]


# --- schubert-point ---------------------------------------------------------------


def test_schubert_point_word_example(capsys):
    status, out, _ = run(
        capsys, "schubert-point", "--partition", "2,1,1", "--word", "2,1,3,2"
    )
    assert status == 0
    assert out == "s3 s2\n1,4,2,3\n"


def test_schubert_point_perm_matches_word(capsys):
    status, out, _ = run(
        capsys, "schubert-point", "--partition", "2,1,1", "--perm", "3,4,1,2"
    )
    assert status == 0
    assert out == "s3 s2\n1,4,2,3\n"


def test_schubert_point_identity_prints_e(capsys):
    status, out, _ = run(
        capsys, "schubert-point", "--partition", "2,1,1", "--perm", "1,2,3,4"
    )
    assert status == 0
    assert out == "e\n1,2,3,4\n"


def test_schubert_point_json(capsys):
    status, out, _ = run(
        capsys,
        "schubert-point",
        "--partition",
        "2,1,1",
        "--word",
        "2,1,3,2",
        "--format",
        "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "lambda": [2, 1, 1],
        "source": [3, 4, 1, 2],
        "tableau": [[1, 2], [4], [3]],
        "string_lengths": [0, 1, 1],
        "word": [3, 2],
        "point": [1, 4, 2, 3],
    }


def test_schubert_point_outside_fiber(capsys):
    status, _, err = run(
        capsys, "schubert-point", "--partition", "2,2", "--perm", "3,2,1,4"
    )
    assert status == 1
    assert "not in the Springer fiber" in err


def test_schubert_point_degree_mismatch(capsys):
    status, out, err = run(capsys, "schubert-point", "--partition", "2,2", "--perm", "2,1,3")
    assert status == 1
    assert out == ""
    assert err == "error: permutation has degree 3, partition has 4\n"


def test_schubert_point_requires_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["schubert-point", "--partition", "2,1,1"])
    assert info.value.code == 2


# --- union ------------------------------------------------------------------------


def test_union_text(capsys):
    status, out, _ = run(
        capsys, "union", "--partition", "2,1,1", "--parabolic", "1,3"
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "hessenberg:     1 + 3t + 5t^2 + 5t^3 + 2t^4"
    assert lines[1] == "schubert union: 1 + 3t + 5t^2 + 5t^3 + 2t^4"
    assert lines[2] == "equal:          true"
    assert lines[3] == "in hypothesis:  true"
    assert lines[4] == "tops:           2,1,4,3  3,1,4,2  3,2,4,1  4,1,3,2"


def test_union_json_idempotent(capsys):
    status, out, _ = run(
        capsys,
        "union",
        "--partition",
        "2,2",
        "--parabolic",
        "1,3",
        "--format",
        "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert json.loads(json.dumps(payload)) == payload


def test_union_at_degree_nine(capsys):
    status, out, _ = run(
        capsys, "union", "--partition", "3,3,3", "--parabolic", "1,4", "--format", "json"
    )
    assert status == 0
    assert json.loads(out)["equal"] is True


def test_union_computes_only_the_points_it_needs(capsys):
    # W^J = {e} for J = {1..8}: of the 2^8 descent groups of the 9! flags,
    # only the one without descents misses J, and it holds e alone
    schubert._points.cache_clear()
    status, out, _ = run(
        capsys, "union", "--partition", "1,1,1,1,1,1,1,1,1", "--parabolic", "1,2,3,4,5,6,7,8", "--format", "json"
    )
    assert status == 0
    assert json.loads(out)["tops"] == [[9, 8, 7, 6, 5, 4, 3, 2, 1]]
    assert schubert._points.cache_info().currsize == 1
    hits = schubert._points.cache_info().hits
    points, _ = schubert._points(Partition((1,) * 9), 0)
    assert schubert._points.cache_info().hits == hits + 1
    assert list(points) == [0]


def test_union_rejects_nonparabolic_h(capsys):
    status, _, err = run(
        capsys, "union", "--partition", "1,1,1", "--hessenberg", "2,3,3"
    )
    assert status == 1
    assert "is_parabolic_function fails for h = 2,3,3" in err


def test_union_accepts_parabolic_h(capsys):
    status_h, out_h, _ = run(
        capsys, "union", "--partition", "2,2", "--hessenberg", "2,2,4,4"
    )
    status_j, out_j, _ = run(
        capsys, "union", "--partition", "2,2", "--parabolic", "1,3"
    )
    assert status_h == status_j == 0
    assert out_h == out_j


# --- components ---------------------------------------------------------------------


def test_components_text(capsys):
    status, out, _ = run(
        capsys, "components", "--partition", "2,1,1", "--parabolic", "1,3"
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == (
        "v=2,3,1,4  top=3,2,4,1  schubert_top=3,2,4,1  dim=4  "
        "full_cell=true  heuristic_maximal=true"
    )
    assert lines[1] == (
        "v=3,4,1,2  top=4,3,2,1  schubert_top=4,1,3,2  dim=4  "
        "full_cell=false  heuristic_maximal=true"
    )
    assert len(lines) == 4


def test_components_json(capsys):
    status, out, _ = run(
        capsys,
        "components",
        "--partition",
        "2,1,1",
        "--parabolic",
        "1,3",
        "--format",
        "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert [c["heuristic_maximal"] for c in payload] == [True, True, False, False]
    assert payload[1]["schubert_top"] == [4, 1, 3, 2]


# --- verify --------------------------------------------------------------------------


def test_verify_text(capsys):
    status, out, _ = run(capsys, "verify", "--n", "2")
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 18  # 9 checks x 2 degrees
    assert all(line.startswith("ok  ") for line in lines)
    assert "fixed-points" in lines[0]
    # only main-theorem keeps an out-of-regime tally, empty below n = 6
    tallied = [line for line in lines if "out_of_regime_equal=" in line]
    assert tallied == [line for line in lines if "main-theorem" in line]
    assert all(line.endswith("  out_of_regime_equal=0/0") for line in tallied)


def test_verify_main_theorem_line_ends_in_the_out_of_regime_tally(capsys):
    status, out, _ = run(capsys, "verify", "--n", "6", "--checks", "main-theorem")
    assert status == 0
    assert out.splitlines()[-1].endswith("  out_of_regime_equal=20/32")


def test_verify_selected_checks_json(capsys):
    status, out, _ = run(
        capsys,
        "verify",
        "--n",
        "3",
        "--checks",
        "main-theorem,poincare-corollary",
        "--format",
        "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert [(r["check_id"], r["n"]) for r in payload] == [
        ("poincare-corollary", 1),
        ("main-theorem", 1),
        ("poincare-corollary", 2),
        ("main-theorem", 2),
        ("poincare-corollary", 3),
        ("main-theorem", 3),
    ]
    assert all(r["failures"] == [] for r in payload)
    assert [r["out_of_regime"] for r in payload] == [None, {"equal": 0, "total": 0}] * 3


def test_verify_unknown_check(capsys):
    status, _, err = run(capsys, "verify", "--n", "2", "--checks", "bogus")
    assert status == 1
    assert "unknown check id" in err


@pytest.mark.parametrize("checks", ["", ","])
def test_verify_empty_check_list_fails_fast(capsys, checks):
    status, out, err = run(capsys, "verify", "--n", "3", "--checks", checks)
    assert (status, out) == (1, "")
    assert err == "error: no check id given\n"


def test_verify_bad_degree(capsys):
    status, _, err = run(capsys, "verify", "--n", "9")
    assert status == 1
    assert "between 1 and 8" in err


def test_verify_prints_every_failure_not_only_the_stored(fifteen_hundred_failures, capsys):
    status, out, _ = run(capsys, "verify", "--n", "1", "--checks", "phi-V-equivalence")
    assert status == 3
    assert out.startswith("FAIL") and "failures=1500" in out.splitlines()[0]
    status, out, _ = run(
        capsys, "verify", "--n", "1", "--checks", "phi-V-equivalence", "--format", "json"
    )
    (report,) = json.loads(out)
    assert report["failures_total"] == 1500 and len(report["failures"]) == 1000


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_reports_failures_and_time_on_stderr(fifteen_hundred_failures, capsys, fmt):
    status, out, err = run(capsys, "verify", "--n", "2", "--checks", "phi-V-equivalence,fixed-points", "--format", fmt)
    assert status == 3
    lines = out.splitlines()
    reports = json.loads(out) if fmt == "json" else [line for line in lines if not line.startswith(" ")]
    assert len(reports) == 4
    # two phi-V-equivalence reports of 1500 failures each, two passing fixed-points
    assert re.fullmatch(r"verify: 4 reports, 3000 failures in \d+\.\d\ds\n", err)


# --- boundaries ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("poincare", "--partition", "10", "--parabolic", ""),
        ("poincare", "--partition", "5,5", "--hessenberg", "2,3,4,5,6,7,8,9,10,10"),
        ("springer", "--partition", "10"),
        ("union", "--partition", "10", "--parabolic", ""),
        ("components", "--partition", "4,3,3", "--parabolic", "1"),
    ],
)
def test_degree_above_the_limit_fails_fast(capsys, argv):
    start = time.perf_counter()
    status, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert status == 1 and out == ""
    assert err == "error: partition has degree 10, at most 9 is supported\n"


def test_degree_limit_admits_nine(capsys):
    status, out, _ = run(capsys, "poincare", "--partition", "9", "--parabolic", "")
    assert status == 0
    assert out == "1\n"


def test_internal_error_is_status_4(monkeypatch, capsys):
    # the root count one too high for every flag; the fiber of (2) is the identity
    groups = cli._point_groups

    def wrong(shape, j_mask):
        return [(d, flags, [dim + 1 for dim in dims], *rest) for d, flags, dims, *rest in groups(shape, j_mask)]

    monkeypatch.setattr(cli, "_point_groups", wrong)
    status, out, err = run(capsys, "springer", "--partition", "2", "--format", "csv")
    assert status == 4
    assert out == ""
    assert err == "internal error: dimension formulas disagree for w=1,2, shape=2: 0 by rows, 1 by roots\n"


def test_union_point_outside_quotient_is_status_4(monkeypatch, capsys):
    points = schubert._points

    def reversed_points(shape, descents):
        image = symgroup._sn_image(shape.n)
        flipped = [image(point)[::-1] for point in points(shape, descents)[0]]
        return [symgroup._split_index(shape.n)(w) for w in flipped], [symgroup._descents(w) for w in flipped]

    monkeypatch.setattr(schubert, "_points", reversed_points)
    status, out, err = run(capsys, "union", "--partition", "2,1,1", "--parabolic", "1,3")
    assert status == 4
    assert out == ""
    assert err.startswith("internal error: product not reduced for v=")
    assert err.count("\n") == 1


# --- census ---------------------------------------------------------------------------


def test_census_csv_matches_library(capsys):
    status, out, _ = run(capsys, "census", "--n", "3", "--granularity", "summaries")
    assert status == 0
    assert out == rows_to_csv(census(3, "summaries"), "summaries")


def test_census_cells_csv(capsys):
    status, out, _ = run(capsys, "census", "--n", "4", "--granularity", "cells")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,J,w,v,y,dim,springer,schubert_point"
    assert '"2,2","1,3","2,4,1,3","2,4,1,3","1,2,3,4",2,true,"1,4,2,3"' in lines


def test_census_reports_rows_and_time_on_stderr(capsys):
    status, out, err = run(capsys, "census", "--n", "3", "--granularity", "cells")
    assert status == 0
    assert out == rows_to_csv(census(3, "cells"), "cells")
    rows = len(out.splitlines()) - 1
    assert re.fullmatch(rf"census: {rows} rows in \d+\.\d\ds\n", err)


def test_census_cells_stop_at_degree_seven(tmp_path, capsys):
    # degree 8 has 19,048,197 cells: one line, status 1, no rows, no traceback
    target = tmp_path / "cells.csv"
    for out_flag in ((), ("--out", str(target))):
        status, out, err = run(capsys, "census", "--n", "8", "--granularity", "cells", *out_flag)
        assert status == 1 and out == ""
        assert err == "error: cells granularity supports degree at most 7, got 8\n"
    assert not target.exists()


def test_census_components_stop_at_the_sweep_degree(capsys):
    status, out, err = run(capsys, "census", "--n", "9", "--granularity", "components")
    assert status == 1
    assert out == ""
    assert err == "error: degree must be between 1 and 8, got 9\n"


def test_census_json(capsys):
    status, out, _ = run(
        capsys, "census", "--n", "2", "--granularity", "summaries", "--format", "json"
    )
    assert status == 0
    payload = json.loads(out)
    assert len(payload) == 2 * 2  # p(2) = 2 shapes, 2 subsets
    assert payload[0]["lambda"] == [2]


def test_census_summaries_n6_matches_pinned_digest(capsys):
    # both polynomials of all 11 * 32 (shape, J) pairs of degree 6
    status, out, _ = run(capsys, "census", "--n", "6", "--granularity", "summaries", "--format", "csv")
    assert status == 0
    assert len(out.splitlines()) == 1 + 352
    assert hashlib.sha256(out.encode()).hexdigest() == "9b10e060019da9ef760d916573b6386a7860bb16de7c8268083455477888de63"


# --- --out ----------------------------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    status, out, _ = run(
        capsys,
        "poincare",
        "--partition",
        "2,2",
        "--parabolic",
        "1,3",
        "--out",
        str(target),
    )
    assert status == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "1 + 3t + 4t^2 + 3t^3 + t^4\n"


def test_out_into_missing_directory_is_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "result.txt"
    status, out, err = run(
        capsys,
        "poincare",
        "--partition",
        "2,2",
        "--parabolic",
        "1,3",
        "--out",
        str(target),
    )
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert err.count("\n") == 1
    assert not target.exists()
