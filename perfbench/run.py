"""Benchmark of the hesscomb command line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it runs the sources under ``src``.
The load is one client in a closed loop: each operation is a fresh
``hesscomb`` process, started when the previous one has exited, so one
core stays free for the rest of the machine.

With ``--trace 0`` the benchmark first imports the package once, untimed,
so that compiling bytecode is not timed, then starts a few import-only
processes for set-up time, then runs passes of the workload for
``--seconds``: at least one pass, and another only while it is expected to
end in time, with one more import-only process after each operation and a
few after the last.  It
runs pinned to one CPU, and while it waits for a child it times a short
calibration slice on that CPU twice a second (``calibrate.py``); the
operations' times are scaled to the slice's reference speed.  With ``--trace 1`` it runs
one pass untraced and the same pass again with the layer tracer in every
process, and reports per-layer metrics; ``trace.overhead_s`` is the traced
pass's wall time minus the untraced one's.  Every output is checked after
timing.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 1 when any
output was wrong and 2 when the sources are missing.

Records of each run (the operations, their latencies, the machine and the
spans of a traced run) go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path

import calibrate
from checks import check
from tracer import layer_metrics, metric_units
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
# Import-only processes for set-up time: some before the first operation,
# one after each operation and some after the last, so that the median
# samples the whole run and not one stretch of it, even when the run is one
# long operation; one import's time varies by a third from moment to moment.
PROBES_FIRST = 10
PROBES_AFTER_OP = 1
PROBES_LAST = 10
# The whole run, checks included, must end within 180 s.
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
}


@dataclasses.dataclass
class Proc:
    """One finished child process."""

    argv: tuple[str, ...]
    status: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    output: bytes
    trace: dict | None = None
    problems: list[str] = dataclasses.field(default_factory=list)


def spawn(root: Path, mode: str, argv: Sequence[str], deadline: float,
          sampler: calibrate.Sampler | None = None) -> Proc:
    """Run launch.py in a child and wait for it, killing it at ``deadline``.

    Wall time runs from just before the spawn to the moment the child
    exits, which a pidfd reports without polling.  While it waits, it
    takes the sampler's calibration slices when they are due.
    """
    env = dict(os.environ)
    # Let the untimed first import write bytecode, as Python does by default,
    # so that compiling it never lands in set-up time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    side_r, side_w = os.pipe()
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "launch.py"), str(side_w), mode, *argv],
        pass_fds=(side_w,),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=env,
        cwd=root,
    )
    os.close(side_w)
    pidfd = os.pidfd_open(proc.pid)
    out_fd = proc.stdout.fileno()
    streams = {out_fd: bytearray(), side_r: bytearray()}
    exited = None
    with selectors.DefaultSelector() as sel:
        for fd in (*streams, pidfd):
            sel.register(fd, selectors.EVENT_READ)
        try:
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if sampler is not None:
                    if sampler.due_in() <= 0:
                        sampler.sample()
                    remaining = min(remaining, max(sampler.due_in(), 0.0))
                for key, _ in sel.select(remaining):
                    if key.fd == pidfd:
                        exited = time.monotonic()
                        sel.unregister(pidfd)
                        continue
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        streams[key.fd] += data
                    else:
                        sel.unregister(key.fd)
        finally:
            if exited is None:
                proc.kill()
            _, wait_status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
            proc.stdout.close()
            os.close(side_r)
            os.close(pidfd)
    status = proc.returncode if exited is not None else -1
    setup_s, trace = None, None
    for line in bytes(streams[side_r]).splitlines():
        kind, _, rest = line.partition(b" ")
        if kind == b"ready":
            setup_s = float(rest) - start
        elif kind == b"trace":
            outside, _, payload = rest.partition(b" ")
            trace = json.loads(payload)
            trace["outside_s"] = float(outside)
    wall = (exited if exited is not None else time.monotonic()) - start
    return Proc(tuple(argv), status, wall, setup_s, usage.ru_maxrss / 1024, bytes(streams[out_fd]), trace)


def run_op(root: Path, op: Op, mode: str, deadline: float, sampler: calibrate.Sampler | None = None) -> Proc:
    proc = spawn(root, mode, op.argv, deadline, sampler)
    if proc.status == -1:
        proc.problems.append("timed out")
    if op.out is not None and op.out.exists():
        proc.output = op.out.read_bytes()
        op.out.unlink()
    return proc


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-quantile by nearest rank, which never mixes two samples; a
    tail quantile must not blend a cheap query kind with a dear one.

    >>> nearest_rank([1.0, 2.0, 3.0, 4.0, 9.0], 0.9)
    9.0
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine() -> dict[str, object]:
    with open("/proc/loadavg") as f:
        loadavg = f.read().split()[:3]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "loadavg": loadavg}


def end_to_end(passes: list[list[Proc]], ops: list[list[Op]], probes: list[Proc], scale: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics, with the operations' times multiplied by
    ``scale``.  Set-up time is not scaled: the time of an import follows
    page faults and file reads more than the CPU speed that the
    calibration slices measure, and scaling it made it less steady."""
    procs = [p for one in passes for p in one]
    latencies = [p.wall_s for p in procs]
    items = sum(op.items for one in ops for op in one)
    return {
        "wall_s": scale * statistics.median(sum(p.wall_s for p in one) for one in passes),
        "items_per_s": items / sum(latencies) / scale,
        "peak_rss_mb": max(p.rss_mb for p in procs),
        "setup_s": statistics.median(p.setup_s for p in probes + procs if p.setup_s is not None),
        "query_p50_s": scale * statistics.median(latencies),
        "query_p90_s": scale * nearest_rank(latencies, 0.9),
    }


def run_workload(
    make_pass: Callable[[random.Random, Path], list[Op]],
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path = ROOT,
) -> dict:
    """Measure one workload and check its outputs; returns the result object."""
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    info = machine()
    rng = random.Random(seed)
    spawn(root, "probe", (), deadline)  # compiles bytecode; not timed
    ops: list[list[Op]] = []
    passes: list[list[Proc]] = []
    probes: list[Proc] = []
    start = time.monotonic()
    if trace:
        one_pass = make_pass(rng, out_dir)
        passes = [[run_op(root, op, mode, deadline) for op in one_pass] for mode in ("run", "trace")]
    else:
        sampler = calibrate.Sampler()

        def probe() -> Proc:
            return spawn(root, "probe", (), deadline, sampler)

        probes += [probe() for _ in range(PROBES_FIRST)]
        # Start another pass only while it is expected to end within
        # ``seconds``, judged by the longest pass so far, so that a run
        # holds whole passes and does not overrun its time.
        longest = 0.0
        while not passes or time.monotonic() - start + longest <= seconds:
            begun = time.monotonic()
            ops.append(make_pass(rng, out_dir))
            passes.append([])
            for op in ops[-1]:
                passes[-1].append(run_op(root, op, "run", deadline, sampler))
                probes += [probe() for _ in range(PROBES_AFTER_OP)]
            longest = max(longest, time.monotonic() - begun)
        probes += [probe() for _ in range(PROBES_LAST)]

    procs = [p for one in passes for p in one]
    for proc in procs:
        proc.problems += check(proc.argv, proc.status, proc.output)
    failed = [p for p in procs if p.problems]
    for proc in failed:
        print(f"wrong output of hesscomb {' '.join(proc.argv)}: {'; '.join(proc.problems)}", file=sys.stderr)

    if trace:
        traced = [dict(p.trace, wall_s=p.wall_s) for p in passes[1] if p.trace is not None]
        overhead = sum(p.wall_s for p in passes[1]) - sum(p.wall_s for p in passes[0])
        values, absent = layer_metrics(traced, overhead)
        units = metric_units()
        record = {"workload": name, "seed": seed, "machine": info, "absent": absent,
                  "processes": [{"request": i, "argv": p.argv, "wall_s": p.wall_s, **p.trace} for i, p in enumerate(passes[1]) if p.trace]}
        (out_dir / f"trace-{name}-seed{seed}.json").write_text(json.dumps(record))
        if absent:
            print(f"absent from the package, reported as 0: {', '.join(absent)}")
    else:
        info["scale"] = sampler.scale()
        values = end_to_end(passes, ops, probes, info["scale"])
        units = END_TO_END_UNITS
        record = {"workload": name, "seed": seed, "seconds": seconds, "machine": info,
                  "measured": end_to_end(passes, ops, probes),
                  "probes_setup_s": [p.setup_s for p in probes],
                  "calibration_slices_s": sampler.slices,
                  "operations": [{"argv": p.argv, "status": p.status, "wall_s": p.wall_s, "setup_s": p.setup_s,
                                  "rss_mb": p.rss_mb, "problems": p.problems} for p in procs]}
        (out_dir / f"{name}-seed{seed}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}  seed {seed}  trace {int(trace)}  operations {len(procs)}  "
          f"passes {len(passes)}  run {time.monotonic() - began:.1f} s  "
          f"nproc {info['nproc']}  python {info['python']}  loadavg {' '.join(info['loadavg'])}")
    for metric, value in values.items():
        print(f"  {metric:<44} {value:>14.6g} {units[metric]}")
    if not trace:
        print(f"  times are scaled by {info['scale']:.4f} to the reference speed of calibrate.py; "
              f"as measured, wall_s {record['measured']['wall_s']:.6g} s")
    print(f"  {'error_rate':<44} {len(failed) / len(procs):>14.6g} ratio  ({len(failed)} of {len(procs)} operations failed)")
    return {
        "correct": not failed,
        "attempted": len(procs),
        "failed": len(failed),
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hesscomb" / "cli.py").is_file():
        print(f"error: no hesscomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the benchmark and its children, so that the calibration
    # slices time the CPU that the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run_workload(WORKLOADS[args.workload], args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
