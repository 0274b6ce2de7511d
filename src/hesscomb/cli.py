"""Command line surface for the package.

Subcommands expose the main computations with text, JSON, or CSV output:

    poincare       Poincare polynomial of a Hessenberg variety
    springer       Springer fiber cells of a nilpotent shape
    schubert-point Schubert point of a flag in a Springer fiber
    union          compare the variety with its Schubert union
    components     candidate irreducible components
    verify         run the exhaustive check harness
    census         dump ground truth rows for a degree

Exit statuses: 0 success, 1 domain error, a partition above MAX_DEGREE = 9
in poincare, springer, union or components, a cells census above degree
MAX_CELLS_DEGREE = 7, or an unwritable --out file,
2 usage error, 3 when verify finds a failing check, 4 internal error (two
routes of the package disagreed); 1 and 4 print one line on stderr.
census also prints its row count and elapsed time as one stderr line, and
verify its report count, total failures and elapsed time, in both formats.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from collections.abc import Sequence

from .components import component_candidates
from .harness import GRANULARITIES, _write_csv, census, rows_to_csv, rows_to_json, run_checks
from .hessvar import (
    HessenbergFunction,
    h_from_parabolic,
    is_parabolic_function,
    parabolic_from_h,
    poincare_hessenberg,
)
from .nilpotent import Partition, springer_tableau
from .schubert import _point_groups, compare_with_schubert_union, schubert_point
from .symgroup import (
    MAX_DEGREE,
    ParabolicData,
    Permutation,
    _parse_ints,
    _sn_image,
    _sn_lengths,
    perm_from_word,
    string_decompose,
)


def _bounded_partition(args: argparse.Namespace) -> Partition:
    """The --partition shape, rejected before any sweep above MAX_DEGREE."""
    shape = Partition.from_string(args.partition)
    if shape.n > MAX_DEGREE:
        raise ValueError(f"partition has degree {shape.n}, at most {MAX_DEGREE} is supported")
    return shape


def _hessenberg_space(
    args: argparse.Namespace, n: int
) -> tuple[ParabolicData | None, HessenbergFunction]:
    """The Hessenberg function named by the flags, with its J when parabolic."""
    if args.parabolic is not None:
        p = ParabolicData.from_string(n, args.parabolic)
        return p, h_from_parabolic(p)
    h = HessenbergFunction(_parse_ints(args.hessenberg))
    if h.n != n:
        raise ValueError(f"hessenberg function has degree {h.n}, partition has {n}")
    if is_parabolic_function(h):
        return parabolic_from_h(h), h
    return None, h


def _parabolic_space(args: argparse.Namespace, n: int) -> ParabolicData:
    """Like _hessenberg_space but the command only accepts parabolic spaces."""
    p, h = _hessenberg_space(args, n)
    return parabolic_from_h(h) if p is None else p


def _word_text(word: tuple[int, ...]) -> str:
    return " ".join(f"s{letter}" for letter in word) if word else "e"


def _cmd_poincare(args: argparse.Namespace) -> tuple[str, int]:
    shape = _bounded_partition(args)
    p, h = _hessenberg_space(args, shape.n)
    poly = poincare_hessenberg(shape, h)
    if args.format == "json":
        payload = {
            "lambda": list(shape.parts),
            "J": None if p is None else list(p.sorted_j()),
            "h": list(h.values),
            "poincare": list(poly.coeffs),
        }
        return json.dumps(payload, indent=2) + "\n", 0
    return str(poly) + "\n", 0


def _cmd_springer(args: argparse.Namespace) -> tuple[str, int]:
    shape = _bounded_partition(args)
    # the polynomial's sweep runs only for the formats that print it
    h = HessenbergFunction.identity(shape.n)
    if args.format == "text":
        return str(poincare_hessenberg(shape, h)) + "\n", 0
    image = _sn_image(shape.n)
    lengths = _sn_lengths(shape.n)
    rows = (row for _, flags, dims, points, _ in _point_groups(shape, 0) for row in zip(flags, dims, points))
    cells = []
    # the walk counts each flag's dimension by roots and, through the row
    # inversion masks, in its point's length by rows; no tableau is scanned,
    # and the rows go out in lexicographic order of w
    for idx, by_roots, point in sorted(rows):
        w, by_rows = ",".join(map(str, image(idx))), lengths[point]
        if by_rows != by_roots:
            raise RuntimeError(
                f"dimension formulas disagree for w={w}, shape={shape}: {by_rows} by rows, {by_roots} by roots"
            )
        cells.append({"w": w, "dim": by_rows, "schubert_point": ",".join(map(str, image(point)))})
    if args.format == "json":
        payload = {
            "lambda": list(shape.parts),
            "poincare": list(poincare_hessenberg(shape, h).coeffs),
            "cells": cells,
        }
        return json.dumps(payload, indent=2) + "\n", 0
    return _write_csv(("w", "dim", "schubert_point"), cells), 0


def _cmd_schubert_point(args: argparse.Namespace) -> tuple[str, int]:
    shape = Partition.from_string(args.partition)
    if args.perm is not None:
        w = Permutation(_parse_ints(args.perm))
        if w.n != shape.n:
            raise ValueError(f"permutation has degree {w.n}, partition has {shape.n}")
    else:
        w = perm_from_word(_parse_ints(args.word), shape.n)
    point = schubert_point(w, shape)
    strings = string_decompose(point)
    if args.format == "json":
        payload = {
            "lambda": list(shape.parts),
            "source": list(w.images),
            "tableau": [list(row) for row in springer_tableau(w, shape).rows],
            "string_lengths": list(strings.lengths()),
            "word": list(strings.word()),
            "point": list(point.images),
        }
        return json.dumps(payload, indent=2) + "\n", 0
    return f"{_word_text(strings.word())}\n{point.one_line()}\n", 0


def _cmd_union(args: argparse.Namespace) -> tuple[str, int]:
    shape = _bounded_partition(args)
    p = _parabolic_space(args, shape.n)
    report = compare_with_schubert_union(shape, p)
    if args.format == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n", 0
    lines = [
        f"hessenberg:     {report.hessenberg_poly}",
        f"schubert union: {report.schubert_union_poly}",
        f"equal:          {'true' if report.equal else 'false'}",
        f"in hypothesis:  {'true' if report.in_hypothesis else 'false'}",
        "tops:           " + "  ".join(t.one_line() for t in report.tops),
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_components(args: argparse.Namespace) -> tuple[str, int]:
    shape = _bounded_partition(args)
    p = _parabolic_space(args, shape.n)
    candidates = component_candidates(shape, p)
    if args.format == "json":
        return json.dumps([c.to_json_dict() for c in candidates], indent=2) + "\n", 0
    lines = []
    for c in candidates:
        lines.append(
            f"v={c.v.one_line()}  top={c.top_cell.one_line()}  "
            f"schubert_top={c.schubert_top.one_line()}  dim={c.cell_dim}  "
            f"full_cell={'true' if c.full_cell else 'false'}  "
            f"heuristic_maximal={'true' if c.bruhat_maximal else 'false'}"
        )
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    start = time.perf_counter()
    checks = None if args.checks is None else [c for c in args.checks.split(",") if c]
    reports = run_checks(args.n, checks)
    failures = sum(r.failures_total for r in reports)
    print(f"verify: {len(reports)} reports, {failures} failures in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    status = 3 if any(not r.passed for r in reports) else 0
    if args.format == "json":
        return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n", status
    lines = []
    for r in reports:
        mark = "ok  " if r.passed else "FAIL"
        line = f"{mark}  {r.check_id:<20}  n={r.n}  cases={r.cases_run}  {r.elapsed:.2f}s"
        if not r.passed:
            line += f"  failures={r.failures_total}"
        if r.out_of_regime is not None:
            line += "  out_of_regime_equal={}/{}".format(*r.out_of_regime)
        lines.append(line)
        for f in r.failures[:5]:
            shape = "-" if f.shape is None else ",".join(str(x) for x in f.shape)
            j = "-" if f.j is None else (",".join(str(x) for x in f.j) or "empty")
            lines.append(f"      lambda={shape}  J={j}  witness={f.witness or '-'}")
    return "\n".join(lines) + "\n", status


def _cmd_census(args: argparse.Namespace) -> tuple[str, int]:
    start = time.perf_counter()
    rows = census(args.n, args.granularity)
    output = rows_to_json(rows) if args.format == "json" else rows_to_csv(rows, args.granularity)
    print(f"census: {len(rows)} rows in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return output, 0


def _add_output_flags(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", default=None, help="write output to this file")


def _add_space_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--parabolic", help='subset J, e.g. "1,3" (empty string for J = {})')
    group.add_argument("--hessenberg", help='Hessenberg function values, e.g. "2,2,4,4"')


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesscomb",
        description="Cells, dimensions, and Betti numbers of nilpotent Hessenberg varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poincare = sub.add_parser("poincare", help="Poincare polynomial of a Hessenberg variety")
    poincare.add_argument("--partition", required=True, help='nilpotent shape, e.g. "2,2"')
    _add_space_flags(poincare)
    _add_output_flags(poincare, ("text", "json"))
    poincare.set_defaults(handler=_cmd_poincare)

    springer = sub.add_parser("springer", help="Springer fiber cells of a shape")
    springer.add_argument("--partition", required=True)
    _add_output_flags(springer, ("text", "json", "csv"))
    springer.set_defaults(handler=_cmd_springer)

    point = sub.add_parser("schubert-point", help="Schubert point of a Springer fiber flag")
    point.add_argument("--partition", required=True)
    flag = point.add_mutually_exclusive_group(required=True)
    flag.add_argument("--perm", help='one line form, e.g. "3,4,1,2"')
    flag.add_argument("--word", help='reduced word letters, e.g. "2,1,3,2"')
    _add_output_flags(point, ("text", "json"))
    point.set_defaults(handler=_cmd_schubert_point)

    union = sub.add_parser("union", help="compare the variety with its Schubert union")
    union.add_argument("--partition", required=True)
    _add_space_flags(union)
    _add_output_flags(union, ("text", "json"))
    union.set_defaults(handler=_cmd_union)

    components = sub.add_parser("components", help="candidate irreducible components")
    components.add_argument("--partition", required=True)
    _add_space_flags(components)
    _add_output_flags(components, ("text", "json"))
    components.set_defaults(handler=_cmd_components)

    verify = sub.add_parser("verify", help="run the exhaustive check harness")
    verify.add_argument("--n", type=int, required=True, help="largest degree to sweep")
    verify.add_argument("--checks", default=None, help="comma separated check ids (default: all)")
    _add_output_flags(verify, ("text", "json"))
    verify.set_defaults(handler=_cmd_verify)

    census_cmd = sub.add_parser("census", help="dump ground truth rows for one degree")
    census_cmd.add_argument("--n", type=int, required=True)
    census_cmd.add_argument("--granularity", choices=tuple(GRANULARITIES), default="summaries")
    _add_output_flags(census_cmd, ("csv", "json"))
    census_cmd.set_defaults(handler=_cmd_census)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a sweep can take minutes, so a missing directory stops it first
        if args.out is not None and not pathlib.Path(args.out).parent.is_dir():
            raise ValueError(f"cannot write {args.out}: no such directory")
        output, status = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if args.out is None:
        sys.stdout.write(output)
        return status
    try:
        pathlib.Path(args.out).write_text(output, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
