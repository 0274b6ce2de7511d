"""Workloads of the hesscomb benchmark: the CLI calls that one pass makes.

Every operation is one fresh ``hesscomb`` process.  ``verify-7`` and
``census-cells-6`` sweep every shape and parabolic subset of their degree,
so their input is exhaustive and does not depend on the seed.
``cli-queries`` draws one pass of nine single queries from the seed: one
of each kind, a second ``components`` and a second and third ``springer``:

* ``poincare`` at the large degree for a parabolic J, and for a
  non-parabolic ``--hessenberg`` function from the pinned pool;
* ``poincare``, ``union``, ``components`` and ``springer --format csv`` at
  the small degree.

Every pass holds the same kinds, because the kinds' costs differ by up to
ten times; drawing the kinds at random would make that the main difference
between seeds.  A run repeats passes, so its median pass time is not one
pass's luck.  The extra queries put the median latency of any number of
passes in the middle of the ``springer`` queries (three cheaper and three
dearer queries per pass), not on the step between two kinds, and make it
the median of three or more draws.

Shapes are drawn so that no query takes more than about ten seconds:
``union`` and ``components`` use shapes with at most three rows (the
pairwise Bruhat filter of ``components`` is quadratic in the number of
candidates, and (1^8) with J empty does not finish), and ``springer`` uses
shapes whose fiber holds at most n!/16 flags (its output has one row per
flag).
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Callable
from pathlib import Path

from checks import PINNED, fiber_size


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, the work units it completes, and the
    file it writes with ``--out`` (its stdout is its output otherwise)."""

    argv: tuple[str, ...]
    items: int
    out: Path | None = None


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n with parts at most cap, largest parts first.

    Computed here, not imported, so that making the inputs does not run
    the program under test.
    """
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(part, *rest) for part in range(min(n, cap), 0, -1) for rest in partitions(n - part, part)]


def _text(values: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in values)


def verify_pass(n: int) -> list[Op]:
    """``verify --n n``; items are the (degree, shape, J) pairs it sweeps."""
    pairs = sum(len(partitions(k)) * 2 ** (k - 1) for k in range(1, n + 1))
    return [Op(("verify", "--n", str(n), "--format", "json"), pairs)]


def census_pass(n: int, out: Path) -> list[Op]:
    """``census --granularity cells`` written to a file; items are its rows."""
    argv = ("census", "--n", str(n), "--granularity", "cells", "--format", "csv", "--out", str(out))
    return [Op(argv, PINNED["census_cells"][str(n)]["rows"], out)]


def query_pass(rng: random.Random, small: int, large: int) -> list[Op]:
    """Nine single queries drawn from rng, in a random order."""

    def subset(n: int) -> str:
        return _text(tuple(i for i in range(1, n) if rng.random() < 0.5))

    few_rows = [s for s in partitions(small) if len(s) <= 3]
    small_fibers = [s for s in partitions(small) if fiber_size(s) <= math.factorial(small) // 16]
    pooled = rng.choice(PINNED["hessenberg_pool"][str(large)])
    queries = [
        ("poincare", "--partition", _text(rng.choice(partitions(large))), "--parabolic", subset(large), "--format", "json"),
        ("poincare", "--partition", pooled["partition"], "--hessenberg", pooled["hessenberg"], "--format", "json"),
        ("poincare", "--partition", _text(rng.choice(partitions(small))), "--parabolic", subset(small), "--format", "json"),
        ("union", "--partition", _text(rng.choice(few_rows)), "--parabolic", subset(small), "--format", "json"),
        ("components", "--partition", _text(rng.choice(few_rows)), "--parabolic", subset(small), "--format", "json"),
        ("components", "--partition", _text(rng.choice(few_rows)), "--parabolic", subset(small), "--format", "json"),
        ("springer", "--partition", _text(rng.choice(small_fibers)), "--format", "csv"),
        ("springer", "--partition", _text(rng.choice(small_fibers)), "--format", "csv"),
        ("springer", "--partition", _text(rng.choice(small_fibers)), "--format", "csv"),
    ]
    rng.shuffle(queries)
    return [Op(argv, 1) for argv in queries]


# name -> function(rng, output directory) that makes one pass.
# census-cells-6 runs by hand only and is not listed in BENCHMARK.json: one
# verify-7 operation takes about 45 s, and a third listed workload would
# leave runs too short to be steady within the time a full set of runs has.
WORKLOADS: dict[str, Callable[[random.Random, Path], list[Op]]] = {
    "verify-7": lambda rng, out_dir: verify_pass(7),
    "cli-queries": lambda rng, out_dir: query_pass(rng, 8, 9),
    "census-cells-6": lambda rng, out_dir: census_pass(6, out_dir / "census-cells-6.csv"),
}
