#!/usr/bin/env python3
"""Sweep every (shape, J) pair and compare the two Poincare polynomials.

Inside the proved regime (at most three rows or at most two columns) the
Hessenberg polynomial must equal the Schubert union polynomial, and any
mismatch is reported as a failure.  Outside the regime the comparison is
informational: the sweep tallies how often equality happens to survive
and can print each surviving or failing pair for inspection.

Example:

    python3 scripts/main_theorem_sweep.py --n-max 6 --show-out-of-regime
"""

from __future__ import annotations

import argparse
import sys
import time

from hesscomb import compare_with_schubert_union, parabolics, partitions
from hesscomb.symgroup import MAX_SWEEP_DEGREE


def sweep(n: int, show_out_of_regime: bool) -> tuple[int, int, int, int]:
    """Return (pairs, in_regime_failures, out_equal, out_total) for degree n."""
    pairs = 0
    in_regime_failures = 0
    out_equal = 0
    out_total = 0
    for shape in partitions(n):
        for p in parabolics(n):
            report = compare_with_schubert_union(shape, p)
            pairs += 1
            if report.in_hypothesis:
                if not report.equal:
                    in_regime_failures += 1
                    print(
                        f"FAIL  n={n}  lambda={shape}  J={{{p}}}  "
                        f"hess={report.hessenberg_poly}  "
                        f"union={report.schubert_union_poly}"
                    )
            else:
                out_total += 1
                if report.equal:
                    out_equal += 1
                if show_out_of_regime:
                    verdict = "equal" if report.equal else "differs"
                    print(
                        f"      n={n}  lambda={shape}  J={{{p}}}  "
                        f"out of regime, {verdict}"
                    )
    return pairs, in_regime_failures, out_equal, out_total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n-max", type=int, default=6, help=f"largest degree (<= {MAX_SWEEP_DEGREE})"
    )
    parser.add_argument(
        "--show-out-of-regime",
        action="store_true",
        help="print each out of regime pair with its verdict",
    )
    args = parser.parse_args(argv)
    if not 1 <= args.n_max <= MAX_SWEEP_DEGREE:
        parser.error(f"--n-max must be between 1 and {MAX_SWEEP_DEGREE}")

    failures = 0
    for n in range(1, args.n_max + 1):
        start = time.perf_counter()
        pairs, failed, out_equal, out_total = sweep(n, args.show_out_of_regime)
        failures += failed
        elapsed = time.perf_counter() - start
        print(
            f"n={n}: {pairs} pairs, {failed} in-regime failures, "
            f"{out_equal}/{out_total} out-of-regime pairs equal anyway  "
            f"({elapsed:.1f}s)"
        )
    if failures:
        print(f"{failures} in-regime failures", file=sys.stderr)
        return 1
    print("all in-regime comparisons equal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
