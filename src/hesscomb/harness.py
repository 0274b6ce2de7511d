"""Exhaustive verification sweeps and census datasets.

Every theorem in the package has a named check that runs over all shapes
of a given degree and all parabolic subsets, comparing two independent
routes to the same answer.  The staircase side is the coset free sweep
hessvar._staircase_dims; the other side reads the cached coset and fiber
tables of symgroup and nilpotent.  A check counts every failure and keeps
the first 1000 witnesses.  The census functions dump the same ground
truth as flat rows for offline diffing.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import time
from collections.abc import Callable, Iterable, Iterator

from .hessvar import (
    _staircase_dims,
    h_from_parabolic,
    hess_cells,
    poincare_hessenberg,
    poincare_parabolic_formula,
    springer_min_reps,
)
from .nilpotent import (
    Partition,
    _fiber_bitmap,
    _springer_dim_table,
    dominance_ideal,
    dominance_ideal_from_filling,
    highest_form_roots,
    partitions,
    springer_cell_dim,
)
from .schubert import (
    _maximal_keys,
    compare_with_schubert_union,
    schubert_point,
    union_hypothesis,
)
from .symgroup import (
    ParabolicData,
    Permutation,
    _coset_table,
    _guard_mask,
    _key_leq,
    _sn_domkeys,
    _sn_images,
    _sn_index,
    _sn_inverse_images,
    _sn_lengths,
    is_min_coset_rep,
    is_min_coset_rep_strings,
    parabolics,
)

_MAX_RECORDED_FAILURES = 1000


@dataclasses.dataclass(frozen=True)
class Failure:
    """One counterexample: the shape and parabolic set where it happened
    plus a one line witness permutation, each omitted when irrelevant."""

    shape: tuple[int, ...] | None
    j: tuple[int, ...] | None
    witness: str | None


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check at one degree: failures holds the first
    witnesses, failures_total counts every failure."""

    check_id: str
    n: int
    cases_run: int
    failures: tuple[Failure, ...]
    failures_total: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures_total

    def to_json_dict(self) -> dict[str, object]:
        return {
            "check_id": self.check_id,
            "n": self.n,
            "cases_run": self.cases_run,
            "failures": [
                {"lambda": f.shape, "J": f.j, "witness": f.witness}
                for f in self.failures
            ],
            "failures_total": self.failures_total,
            "elapsed": round(self.elapsed, 3),
        }


@dataclasses.dataclass
class _FailureLog:
    """Counts every failure of a check and keeps the first witnesses."""

    witnesses: list[Failure] = dataclasses.field(default_factory=list)
    total: int = 0

    def record(
        self,
        shape: Partition | None,
        p: ParabolicData | None,
        images: tuple[int, ...] | None,
    ) -> None:
        self.total += 1
        # Cap the stored witnesses; a systematic failure would otherwise
        # flood memory without adding information.
        if len(self.witnesses) < _MAX_RECORDED_FAILURES:
            self.witnesses.append(
                Failure(
                    shape=None if shape is None else shape.parts,
                    j=None if p is None else p.sorted_j(),
                    witness=None if images is None else ",".join(str(i) for i in images),
                )
            )


def _fiber(shape: Partition) -> tuple[Permutation, ...]:
    """The Springer fiber flags: for J empty every flag is its own minimal representative."""
    return springer_min_reps(shape, ParabolicData(shape.n, frozenset()))


def _covers_down(images: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """One line arrays covered by images in Bruhat order (length drops by 1).

    Swapping positions i < j with images[i] > images[j] is a cover exactly
    when no position between them holds a value between the two.
    """
    n = len(images)
    for i in range(n - 1):
        for j in range(i + 1, n):
            hi, lo = images[i], images[j]
            if hi <= lo:
                continue
            if any(lo < images[k] < hi for k in range(i + 1, j)):
                continue
            swapped = list(images)
            swapped[i], swapped[j] = lo, hi
            yield tuple(swapped)


def _check_fixed_points(n: int) -> tuple[int, _FailureLog]:
    """A flag lies in the parabolic Hessenberg variety iff the minimal
    representative of its coset lies in the Springer fiber."""
    images_list = _sn_images(n)
    inverse_images = _sn_inverse_images(n)
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        member = _fiber_bitmap(shape)
        for p in parabolics(n):
            ctable = _coset_table(n, p.sorted_j())
            dims = _staircase_dims(shape, h_from_parabolic(p), inverse_images)
            for idx, dim in enumerate(dims):
                cases += 1
                if (dim >= 0) != member[ctable[idx]]:
                    failures.record(shape, p, images_list[idx])
    return cases, failures


def _check_parabolic_dimension(n: int) -> tuple[int, _FailureLog]:
    """The staircase inversion count of a nonempty cell equals the Springer
    dimension of its minimal representative plus the length of the tail."""
    images_list = _sn_images(n)
    inverse_images = _sn_inverse_images(n)
    lengths = _sn_lengths(n)
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        member = _fiber_bitmap(shape)
        springer_dims = _springer_dim_table(shape)
        for p in parabolics(n):
            ctable = _coset_table(n, p.sorted_j())
            # only the flags whose minimal representative is in the fiber
            flags = [idx for idx, vidx in enumerate(ctable) if member[vidx]]
            swept = (inverse_images[idx] for idx in flags)
            for idx, dim in zip(flags, _staircase_dims(shape, h_from_parabolic(p), swept)):
                vidx = ctable[idx]
                cases += 1
                if dim != springer_dims[vidx] + lengths[idx] - lengths[vidx]:
                    failures.record(shape, p, images_list[idx])
    return cases, failures


def _check_poincare_corollary(n: int) -> tuple[int, _FailureLog]:
    """The exhaustive cell sweep and the closed product formula produce the
    same Poincare polynomial for every shape and parabolic."""
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        for p in parabolics(n):
            cases += 1
            swept = poincare_hessenberg(shape, h_from_parabolic(p))
            if swept != poincare_parabolic_formula(shape, p):
                failures.record(shape, p, None)
    return cases, failures


def _check_strings_coset(n: int) -> tuple[int, _FailureLog]:
    """The sorted block test and the string length test agree about which
    permutations are minimal coset representatives."""
    perms = tuple(Permutation(images) for images in _sn_images(n))
    cases = 0
    failures = _FailureLog()
    for p in parabolics(n):
        for w in perms:
            cases += 1
            if is_min_coset_rep(w, p) != is_min_coset_rep_strings(w, p):
                failures.record(None, p, w.images)
    return cases, failures


def _check_schubert_coset(n: int) -> tuple[int, _FailureLog]:
    """A Springer fiber flag and its Schubert point agree about minimal
    coset membership for every parabolic."""
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        pairs = [(w, schubert_point(w, shape).point) for w in _fiber(shape)]
        for p in parabolics(n):
            for w, point in pairs:
                cases += 1
                if is_min_coset_rep(w, p) != is_min_coset_rep(point, p):
                    failures.record(shape, p, w.images)
    return cases, failures


def _check_schubert_ideal(n: int) -> tuple[int, _FailureLog]:
    """For shapes with at most three rows or two columns: the Schubert point
    map is injective, its image is closed downward in Bruhat order, and the
    image of the minimal representatives is closed downward within them."""
    images_list = _sn_images(n)
    index = _sn_index(n)
    keys = _sn_domkeys(n)
    lengths = _sn_lengths(n)
    guard = _guard_mask(n)
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        if not union_hypothesis(shape):
            continue
        image: set[int] = set()
        for w in _fiber(shape):
            pidx = index[schubert_point(w, shape).point.images]
            cases += 1
            if pidx in image:
                failures.record(shape, None, w.images)
            image.add(pidx)
        for pidx in image:
            for lower in _covers_down(images_list[pidx]):
                cases += 1
                if index[lower] not in image:
                    failures.record(shape, None, images_list[pidx])
        for p in parabolics(n):
            j = p.sorted_j()
            points = [schubert_point(v, shape).point for v in springer_min_reps(shape, p)]
            in_image = {index[point.images] for point in points}
            maximal = _maximal_keys(points, n)
            for idx, images in enumerate(images_list):
                if not all(images[i - 1] < images[i] for i in j):
                    continue
                cases += 1
                if idx in in_image:
                    continue
                if any(
                    lengths[idx] <= ml and _key_leq(keys[idx], mk, guard)
                    for ml, mk in maximal
                ):
                    failures.record(shape, p, images)
    return cases, failures


def _check_main_theorem(n: int) -> tuple[int, _FailureLog]:
    """Inside the proved regime the Hessenberg Poincare polynomial matches
    the Schubert union; outside it the comparison is only recorded."""
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        for p in parabolics(n):
            report = compare_with_schubert_union(shape, p)
            cases += 1
            if report.in_hypothesis and not report.equal:
                failures.record(shape, p, None)
    return cases, failures


def _check_phi_v_equivalence(n: int) -> tuple[int, _FailureLog]:
    """The dominance closure and the filling description of the orbit ideal
    coincide for every shape."""
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        cases += 1
        closure = dominance_ideal(highest_form_roots(shape), n)
        if closure != dominance_ideal_from_filling(shape):
            failures.record(shape, None, None)
    return cases, failures


def _check_dim_formulas(n: int) -> tuple[int, _FailureLog]:
    """The row inversion and root counting Springer dimension formulas agree
    on every fiber flag (the callee raises when they diverge)."""
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        for w in _fiber(shape):
            cases += 1
            try:
                springer_cell_dim(w, shape)
            except RuntimeError:
                failures.record(shape, None, w.images)
    return cases, failures


CHECKS: dict[str, Callable[[int], tuple[int, _FailureLog]]] = {
    "fixed-points": _check_fixed_points,
    "parabolic-dimension": _check_parabolic_dimension,
    "poincare-corollary": _check_poincare_corollary,
    "strings-coset": _check_strings_coset,
    "schubert-coset": _check_schubert_coset,
    "schubert-ideal": _check_schubert_ideal,
    "main-theorem": _check_main_theorem,
    "phi-V-equivalence": _check_phi_v_equivalence,
    "dim-formulas-agree": _check_dim_formulas,
}


def run_checks(n_max: int, checks: Iterable[str] | None = None) -> list[CheckReport]:
    """Run the named checks (all of them by default) for degrees 1..n_max.

    >>> reports = run_checks(1)
    >>> all(r.passed for r in reports)
    True
    """
    if not 1 <= n_max <= 8:
        raise ValueError(f"n_max must be between 1 and 8, got {n_max}")
    if checks is None:
        selected = list(CHECKS)
    else:
        requested = set(checks)
        unknown = sorted(requested - set(CHECKS))
        if unknown:
            raise ValueError(f"unknown check id: {', '.join(unknown)}")
        selected = [check_id for check_id in CHECKS if check_id in requested]
    reports = []
    for n in range(1, n_max + 1):
        for check_id in selected:
            start = time.perf_counter()
            cases, failures = CHECKS[check_id](n)
            reports.append(
                CheckReport(
                    check_id=check_id,
                    n=n,
                    cases_run=cases,
                    failures=tuple(failures.witnesses),
                    failures_total=failures.total,
                    elapsed=time.perf_counter() - start,
                )
            )
    return reports


CELL_FIELDS = ("lambda", "J", "w", "v", "y", "dim", "springer", "schubert_point")
SUMMARY_FIELDS = ("lambda", "J", "hessenberg_poly", "schubert_union_poly", "equal")


def census(n: int, granularity: str) -> list[dict[str, object]]:
    """Flat ground truth rows for one degree.

    cells: one row per nonempty cell of every (shape, J) pair.
    summaries: one row per (shape, J) pair with both polynomials.

    >>> census(1, "summaries")
    [{'lambda': (1,), 'J': (), 'hessenberg_poly': (1,), 'schubert_union_poly': (1,), 'equal': True}]
    """
    if not 1 <= n <= 8:
        raise ValueError(f"degree must be between 1 and 8, got {n}")
    if granularity == "cells":
        return _census_cells(n)
    if granularity == "summaries":
        return _census_summaries(n)
    raise ValueError(f"unknown granularity: {granularity!r}")


def _census_cells(n: int) -> list[dict[str, object]]:
    index = _sn_index(n)
    rows: list[dict[str, object]] = []
    for shape in partitions(n):
        member = _fiber_bitmap(shape)
        for p in parabolics(n):
            for cell in hess_cells(shape, p):
                rows.append(
                    {
                        "lambda": shape.parts,
                        "J": p.sorted_j(),
                        "w": cell.w.one_line(),
                        "v": cell.v.one_line(),
                        "y": cell.y.one_line(),
                        "dim": cell.dim,
                        "springer": member[index[cell.w.images]],
                        "schubert_point": schubert_point(cell.v, shape).point.one_line(),
                    }
                )
    return rows


def _census_summaries(n: int) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for shape in partitions(n):
        for p in parabolics(n):
            report = compare_with_schubert_union(shape, p)
            rows.append(
                {
                    "lambda": shape.parts,
                    "J": p.sorted_j(),
                    "hessenberg_poly": report.hessenberg_poly.coeffs,
                    "schubert_union_poly": report.schubert_union_poly.coeffs,
                    "equal": report.equal,
                }
            )
    return rows


def _csv_value(value: object) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    return value


def rows_to_csv(rows: list[dict[str, object]], granularity: str) -> str:
    """Render census rows as CSV; list valued fields are comma joined and
    the csv module quotes them."""
    if granularity == "cells":
        fields = CELL_FIELDS
    elif granularity == "summaries":
        fields = SUMMARY_FIELDS
    else:
        raise ValueError(f"unknown granularity: {granularity!r}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_csv_value(row[field]) for field in fields])
    return buffer.getvalue()


def rows_to_json(rows: list[dict[str, object]]) -> str:
    return json.dumps(rows, indent=2) + "\n"
