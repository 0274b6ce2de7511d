"""Output checks of the hesscomb benchmark.

Each check takes the CLI arguments of one operation and the bytes it wrote,
and returns a list of problems; an empty list means the output is right.
Query answers are checked against a second public route of the package,
not against the code path that produced them:

* a parabolic ``poincare`` against ``poincare_parabolic_formula``;
* ``springer`` rows: their count and the dimension polynomial at t = 1
  against n!/prod(lambda_i!), the polynomial against the formula with
  J empty, and each Schubert point's length against the row's dimension;
* ``union`` must report ``equal: true`` inside ``union_hypothesis``, with
  the Hessenberg side equal to the formula;
* the ``components`` count against ``len(springer_min_reps)``.

A non-parabolic ``--hessenberg`` query has no second route, and neither do
the census rows, so both are compared with values pinned in
``pinned.json`` (computed by the program at the commit that added this
benchmark).  The package is imported only when a check runs, after timing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections.abc import Sequence
from pathlib import Path

from tracer import CHECK_IDS

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())
_POOLED = {(e["partition"], e["hessenberg"]): e["poincare"] for pool in PINNED["hessenberg_pool"].values() for e in pool}


def fiber_size(shape: Sequence[int]) -> int:
    """Number of flags in the Springer fiber: n! / prod(lambda_i!)."""
    return math.factorial(sum(shape)) // math.prod(math.factorial(part) for part in shape)


def check(argv: Sequence[str], status: int, output: bytes) -> list[str]:
    """Problems with one operation's exit status and output."""
    if status != 0:
        return [f"exit status {status}"]
    try:
        return _CHECKS[argv[0]](argv, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _flag(argv: Sequence[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _space(argv: Sequence[str]):
    """The query's shape and, when it names one, its parabolic subset."""
    from hesscomb import ParabolicData, Partition

    shape = Partition.from_string(_flag(argv, "--partition"))
    j = _flag(argv, "--parabolic")
    return shape, None if j is None else ParabolicData.from_string(shape.n, j)


def _check_verify(argv: Sequence[str], output: bytes) -> list[str]:
    n = int(_flag(argv, "--n"))
    reports = json.loads(output)
    ran = {(r["check_id"], r["n"]) for r in reports}
    missing = sorted({(c, k) for c in CHECK_IDS for k in range(1, n + 1)} - ran)
    problems = [f"no report for {c} at n={k}" for c, k in missing]
    problems += [f"{r['check_id']} failed at n={r['n']}" for r in reports if r["failures"]]
    return problems


def _check_census(argv: Sequence[str], output: bytes) -> list[str]:
    pinned = PINNED["census_cells"][_flag(argv, "--n")]
    problems = []
    rows = output.count(b"\n") - 1
    if rows != pinned["rows"]:
        problems.append(f"{rows} census rows, pinned {pinned['rows']}")
    if hashlib.sha256(output).hexdigest() != pinned["sha256"]:
        problems.append("census sha256 differs from the pinned digest")
    return problems


def _check_poincare(argv: Sequence[str], output: bytes) -> list[str]:
    from hesscomb import poincare_parabolic_formula

    shape, p = _space(argv)
    answer = json.loads(output)
    if answer["lambda"] != list(shape.parts):
        return [f"answer is for lambda={answer['lambda']}"]
    if p is None:
        expected = _POOLED[(_flag(argv, "--partition"), _flag(argv, "--hessenberg"))]
    else:
        expected = list(poincare_parabolic_formula(shape, p).coeffs)
        if answer["J"] != list(p.sorted_j()):
            return [f"answer is for J={answer['J']}"]
    if answer["poincare"] != expected:
        return [f"poincare {answer['poincare']}, expected {expected}"]
    return []


def _check_springer(argv: Sequence[str], output: bytes) -> list[str]:
    from hesscomb import ParabolicData, Permutation, Poly, poincare_parabolic_formula

    shape, _ = _space(argv)
    rows = list(csv.reader(io.StringIO(output.decode())))
    if rows[0] != ["w", "dim", "schubert_point"]:
        return [f"springer header {rows[0]}"]
    rows = rows[1:]
    problems = []
    flags = fiber_size(shape.parts)
    poly = Poly.from_exponents(int(dim) for _, dim, _ in rows)
    if len(rows) != flags or len({w for w, _, _ in rows}) != flags or poly(1) != flags:
        problems.append(f"{len(rows)} springer rows, polynomial at 1 is {poly(1)}, expected {flags}")
    expected = poincare_parabolic_formula(shape, ParabolicData(shape.n, frozenset()))
    if poly != expected:
        problems.append(f"springer polynomial {poly}, expected {expected}")
    for w, dim, point in rows:
        if Permutation(tuple(int(v) for v in point.split(","))).length() != int(dim):
            problems.append(f"schubert point {point} of w={w} does not have length {dim}")
            break
    return problems


def _check_union(argv: Sequence[str], output: bytes) -> list[str]:
    from hesscomb import poincare_parabolic_formula, union_hypothesis

    shape, p = _space(argv)
    answer = json.loads(output)
    problems = []
    if union_hypothesis(shape) and not (answer["in_hypothesis"] and answer["equal"]):
        problems.append("union not reported equal inside the hypothesis")
    expected = list(poincare_parabolic_formula(shape, p).coeffs)
    if answer["hessenberg_poly"] != expected:
        problems.append(f"hessenberg_poly {answer['hessenberg_poly']}, expected {expected}")
    return problems


def _check_components(argv: Sequence[str], output: bytes) -> list[str]:
    from hesscomb import springer_min_reps

    shape, p = _space(argv)
    count, expected = len(json.loads(output)), len(springer_min_reps(shape, p))
    return [] if count == expected else [f"{count} component candidates, expected {expected}"]


_CHECKS = {
    "verify": _check_verify,
    "census": _check_census,
    "poincare": _check_poincare,
    "springer": _check_springer,
    "union": _check_union,
    "components": _check_components,
}
