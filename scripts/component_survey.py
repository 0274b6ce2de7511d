#!/usr/bin/env python3
"""Survey candidate components of parabolic Hessenberg varieties.

For every (shape, J) pair at one degree, list how many candidate top
cells exist, how many survive the pairwise Bruhat maximality filter, how
many fill their ambient Schubert cell, and whether the surviving
candidates all share one dimension.  Varieties whose maximal candidates
disagree about dimension are the interesting rows: they cannot be
equidimensional unions of full cells.

Example:

    python3 scripts/component_survey.py --n 5 --only-mixed
"""

from __future__ import annotations

import argparse

from hesscomb import component_candidates, parabolics, partitions


def survey_pair(shape, p) -> dict[str, object]:
    candidates = component_candidates(shape, p)
    maximal = [c for c in candidates if c.bruhat_maximal]
    dims = sorted({c.cell_dim for c in maximal}, reverse=True)
    return {
        "shape": shape,
        "p": p,
        "candidates": len(candidates),
        "maximal": len(maximal),
        "full": sum(1 for c in maximal if c.full_cell),
        "dims": dims,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4, help="degree to survey (<= 7)")
    parser.add_argument(
        "--only-mixed",
        action="store_true",
        help="print only pairs whose maximal candidates span several dimensions",
    )
    args = parser.parse_args(argv)
    if not 1 <= args.n <= 7:
        parser.error("--n must be between 1 and 7")

    mixed = 0
    rows = 0
    for shape in partitions(args.n):
        for p in parabolics(args.n):
            row = survey_pair(shape, p)
            rows += 1
            is_mixed = len(row["dims"]) > 1
            mixed += is_mixed
            if args.only_mixed and not is_mixed:
                continue
            dims = ",".join(str(d) for d in row["dims"])
            print(
                f"lambda={shape!s:<12} J={{{p!s:<9}}} "
                f"candidates={row['candidates']:<3} maximal={row['maximal']:<3} "
                f"full={row['full']:<3} dims={dims}"
            )
    print(f"{rows} pairs surveyed, {mixed} with mixed top dimensions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
