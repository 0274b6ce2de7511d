"""Tests of the benchmark itself, at small degrees so they stay fast."""

import contextlib
import csv
import io
import json
import random
import sys
import time

import pytest

import calibrate
import checks
import run
import tracer
import workloads
from workloads import Op

TINY = {
    "verify": lambda rng, out_dir: workloads.verify_pass(2),
    "census": lambda rng, out_dir: workloads.census_pass(3, out_dir / "census-tiny.csv"),
    "queries": lambda rng, out_dir: workloads.query_pass(rng, 4, 5),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_runs_and_checks_at_a_tiny_degree(name, trace, capsys):
    result = run.run_workload(TINY[name], f"tiny-{name}", seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracer.metric_units() if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate" in capsys.readouterr().out


def test_traced_verify_reports_every_check_and_cache():
    result = run.run_workload(TINY["verify"], "tiny-verify", seed=0, seconds=0, trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(metrics[f"harness.check.{c}.s"] > 0 for c in tracer.CHECK_IDS)
    assert metrics["hessvar.poincare_hessenberg.calls"] > 0
    assert metrics["schubert.schubert_point.hit_ratio"] > 0


def test_the_query_generator_depends_only_on_the_seed():
    first = workloads.query_pass(random.Random(7), 8, 9)
    assert first == workloads.query_pass(random.Random(7), 8, 9)
    assert first != workloads.query_pass(random.Random(8), 8, 9)
    for seed in range(50):
        for op in workloads.query_pass(random.Random(seed), 8, 9):
            shape = tuple(int(x) for x in op.argv[op.argv.index("--partition") + 1].split(","))
            if op.argv[0] in ("components", "union"):
                assert len(shape) <= 3
            if op.argv[0] == "springer":
                assert workloads.fiber_size(shape) <= 2520


def test_verify_items_are_the_degree_shape_j_pairs():
    assert workloads.verify_pass(7)[0].items == 1481


def test_self_time_subtracts_the_covered_part_of_child_spans():
    spans = [
        (1, 0, "root", 0.0, 10.0, 0.5),  # 0.5 s in leaf calls made directly
        (2, 1, "a", 1.0, 4.0, 0.0),
        (3, 1, "b", 3.0, 6.0, 0.0),  # overlaps a by 1 s: covered 1..6
        (4, 1, "c", 9.0, 12.0, 0.0),  # only 9..10 lies inside the root
        (5, 2, "d", 2.0, 3.0, 0.0),
    ]
    assert tracer.self_times(spans) == pytest.approx({1: 3.5, 2: 2.0, 3: 3.0, 4: 3.0, 5: 1.0})


def _bindings():
    import hesscomb.harness

    mods = {n: m for n, m in sys.modules.items() if n == "hesscomb" or n.startswith("hesscomb.")}
    return {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}, dict(hesscomb.harness.CHECKS)


def test_the_tracer_patches_every_namespace_and_leaves_nothing_behind():
    import hesscomb
    import hesscomb.cli
    from hesscomb import ParabolicData, Partition, Permutation

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert hesscomb.schubert_point is not before[0][("hesscomb.schubert", "schubert_point")]
        assert hesscomb.cli.schubert_point is hesscomb.schubert.schubert_point
        w, shape = Permutation((3, 4, 1, 2)), Partition((2, 1, 1))
        hesscomb.schubert.schubert_point(w, shape)
        hesscomb.cli.schubert_point(w, shape)
        hesscomb.component_candidates(shape, ParabolicData.from_iterable(4, (1,)))
    finally:
        t.uninstall()
    after = _bindings()
    assert after[1] == before[1]
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())
    payload = t.payload()
    assert payload["leaves"]["schubert.schubert_point"][0] >= 2
    hits, misses, _ = payload["caches"]["schubert.schubert_point"]
    assert hits >= 1 and hits + misses == payload["leaves"]["schubert.schubert_point"][0]
    assert any(span[2] == "components.component_candidates" for span in payload["spans"])


def test_a_missing_private_name_is_reported_absent(monkeypatch):
    import hesscomb.symgroup

    monkeypatch.delattr(hesscomb.symgroup, "_coset_table")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["symgroup._coset_table"]
    metrics, absent = tracer.layer_metrics([dict(t.payload(), wall_s=0.0, outside_s=0.0)], 0.0)
    assert absent == ["symgroup._coset_table"]
    assert set(metrics) == set(tracer.metric_units())


def _output(argv):
    """What the CLI prints for argv, from the program in this checkout."""
    from hesscomb.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return buffer.getvalue().encode()


def test_each_check_accepts_the_right_answer_and_rejects_a_corrupted_one():
    poincare = ("poincare", "--partition", "2,2", "--parabolic", "1", "--format", "json")
    good = _output(poincare)
    assert checks.check(poincare, 0, good) == []
    answer = json.loads(good)
    answer["poincare"][1] += 1
    assert checks.check(poincare, 0, json.dumps(answer).encode())
    assert checks.check(poincare, 1, good) == ["exit status 1"]

    pool = checks.PINNED["hessenberg_pool"]["5"][0]
    pooled = ("poincare", "--partition", pool["partition"], "--hessenberg", pool["hessenberg"], "--format", "json")
    good = _output(pooled)
    assert checks.check(pooled, 0, good) == []
    answer = json.loads(good)
    answer["poincare"][-1] += 1
    assert checks.check(pooled, 0, json.dumps(answer).encode())

    union = ("union", "--partition", "3,2", "--parabolic", "2", "--format", "json")
    good = _output(union)
    assert checks.check(union, 0, good) == []
    answer = json.loads(good)
    answer["equal"] = False
    assert checks.check(union, 0, json.dumps(answer).encode())

    components = ("components", "--partition", "2,2", "--parabolic", "", "--format", "json")
    good = _output(components)
    assert checks.check(components, 0, good) == []
    assert checks.check(components, 0, json.dumps(json.loads(good)[1:]).encode())

    springer = ("springer", "--partition", "2,2", "--format", "csv")
    good = _output(springer)
    assert checks.check(springer, 0, good) == []
    rows = list(csv.reader(io.StringIO(good.decode())))
    rows[2][1] = str(int(rows[2][1]) + 1)
    corrupted = io.StringIO()
    csv.writer(corrupted, lineterminator="\n").writerows(rows)
    assert checks.check(springer, 0, corrupted.getvalue().encode())
    assert checks.check(springer, 0, b"\n".join(good.splitlines()[:-1]) + b"\n")

    verify = ("verify", "--n", "2", "--format", "json")
    good = _output(verify)
    assert checks.check(verify, 0, good) == []
    reports = json.loads(good)
    reports[0]["failures"] = [{"lambda": [2], "J": [], "witness": None}]
    assert checks.check(verify, 0, json.dumps(reports).encode())
    assert checks.check(verify, 0, json.dumps(reports[1:]).encode())


def test_the_census_check_catches_one_flipped_byte(tmp_path):
    out = tmp_path / "census.csv"
    from hesscomb.cli import main

    op = workloads.census_pass(3, out)[0]
    assert main(list(op.argv)) == 0
    good = out.read_bytes()
    assert checks.check(op.argv, 0, good) == []
    for position in (0, len(good) // 2, len(good) - 2):
        flipped = bytearray(good)
        flipped[position] ^= 1
        assert checks.check(op.argv, 0, bytes(flipped))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"census-cells-6"}


def test_the_calibration_scale_is_the_reference_over_the_trimmed_mean_slice():
    assert 0 < calibrate.one_slice() < 1
    sampler = calibrate.Sampler()
    sampler.slices = [100.0] + [2 * calibrate.REFERENCE_S] * 8 + [0.0]
    assert sampler.scale() == 0.5


def test_slices_are_taken_while_waiting_for_a_child():
    sampler = calibrate.Sampler()
    op = Op(("verify", "--n", "7", "--format", "json"), 1)
    run.run_op(run.ROOT, op, "run", time.monotonic() + 2.0, sampler)
    assert len(sampler.slices) >= 1 + int(2.0 / calibrate.EVERY_S) - 1


def test_end_to_end_scales_operation_times_and_rates_but_not_set_up_or_memory():
    procs = [run.Proc(("q",), 0, wall, 0.1, 50.0, b"") for wall in (1.0, 3.0)]
    ops = [[Op(("q",), 1), Op(("q",), 1)]]
    plain = run.end_to_end([procs], ops, [])
    scaled = run.end_to_end([procs], ops, [], 2.0)
    assert scaled["wall_s"] == 2 * plain["wall_s"] == 8.0
    assert scaled["items_per_s"] == plain["items_per_s"] / 2 == 0.25
    assert scaled["setup_s"] == plain["setup_s"] == 0.1
    assert scaled["peak_rss_mb"] == plain["peak_rss_mb"] == 50.0


def test_nearest_rank_never_mixes_two_samples():
    latencies = [1.0, 1.1, 1.2, 1.3, 7.0]
    assert run.nearest_rank(latencies, 0.5) == 1.2
    assert run.nearest_rank(latencies, 0.9) == 7.0
    assert run.nearest_rank([5.0], 0.9) == 5.0


def test_the_benchmark_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "verify-7", "--seed", "1"]) == 2


def test_an_operation_past_the_deadline_is_killed_and_counted_as_failed():
    op = Op(("verify", "--n", "7", "--format", "json"), 1)
    proc = run.run_op(run.ROOT, op, "run", time.monotonic() + 0.5)
    assert proc.problems == ["timed out"] and proc.wall_s < 5
