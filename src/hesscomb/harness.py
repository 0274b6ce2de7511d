"""Exhaustive verification sweeps and census datasets.

Every theorem in the package has a named check that runs over all shapes
of a given degree and all parabolic subsets, comparing two independent
routes to the same answer.  The staircase side is the coset free kernel
hessvar._staircase_planes, a set of permutations as one int over S_n,
compared as a set with the cached coset and fiber tables of symgroup and
nilpotent.  The two minimal coset checks compare one descent set per
flag, which decides them for every J at once.  The Schubert checks walk
the fiber by S_n index and read each flag's point, an S_n index with its
descents, from the memo schubert._point: schubert-ideal compares the
Bruhat lower ideal of the points, from the rank plane kernel
schubert._lower_ideal, with the points as a set, and main-theorem counts
the ideal of the index tops of schubert._poincare_pair.
dim-formulas-agree walks the fiber the same way and compares the tableau
scan, the root count table and the point's length.  A check counts
every failure and keeps the first 1000 witnesses.  The census functions
dump the same ground truth as flat rows for offline diffing.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import time
from collections.abc import Callable, Iterable

from .hessvar import (
    _min_rep_indices,
    _staircase_members,
    _staircase_planes,
    h_from_parabolic,
    hess_cells,
    poincare_hessenberg,
    poincare_parabolic_formula,
)
from .nilpotent import (
    Partition,
    _fiber_bitmap,
    _row_inversion_vector,
    _springer_dim_table,
    dominance_ideal,
    dominance_ideal_from_filling,
    highest_form_roots,
    partitions,
)
from .schubert import (
    _lower_ideal,
    _poincare_pair,
    _point,
    compare_with_schubert_union,
    schubert_point,
    union_hypothesis,
)
from .symgroup import (
    MAX_SWEEP_DEGREE,
    ParabolicData,
    Permutation,
    _bit_indices,
    _bitset,
    _coset_table,
    _descents,
    _gather,
    _sn_images,
    _sn_lengths,
    _split_index,
    _string_ascents,
    parabolics,
    string_decompose,
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

    def record_set(
        self,
        shape: Partition,
        p: ParabolicData,
        bits: int,
        images: tuple[tuple[int, ...], ...],
    ) -> None:
        """One failure per set bit of bits, bit i naming images[i], lowest first."""
        count = bits.bit_count()
        stored = min(count, max(0, _MAX_RECORDED_FAILURES - len(self.witnesses)))
        for idx in itertools.islice(_bit_indices(bits), stored):
            self.record(shape, p, images[idx])
        self.total += count - stored


def _records(columns: list[bytes]) -> list[bytes]:
    """Per shape tables of one byte per S_n index, interleaved into one
    record per index, so that one gather serves every shape."""
    width = len(columns)
    interleaved = bytearray(width * len(columns[0]))
    for k, column in enumerate(columns):
        interleaved[k::width] = column
    return [bytes(interleaved[v : v + width]) for v in range(0, len(interleaved), width)]


def _by_coset(records: list[bytes], n: int, p: ParabolicData) -> list[bytes]:
    """Each shape's byte at the minimal coset representative of every w,
    the highest w first, one byte string per shape."""
    width = len(records[0])
    gathered = b"".join(_gather(records, _coset_table(n, p.sorted_j())[::-1]))
    return [gathered[k::width] for k in range(width)]


def _check_fixed_points(n: int) -> tuple[int, _FailureLog]:
    """A flag lies in the parabolic Hessenberg variety iff the minimal
    representative of its coset lies in the Springer fiber."""
    images = _sn_images(n)
    shapes = list(partitions(n))
    fibers = _records([_fiber_bitmap(shape) for shape in shapes])
    cases = 0
    failures = _FailureLog()
    for p in parabolics(n):
        for shape, in_fiber in zip(shapes, _by_coset(fibers, n, p)):
            by_staircase = _staircase_members(shape, h_from_parabolic(p))
            cases += len(images)
            failures.record_set(shape, p, _bitset(in_fiber, range(1, 256)) ^ by_staircase, images)
    return cases, failures


def _check_parabolic_dimension(n: int) -> tuple[int, _FailureLog]:
    """The staircase inversion count of a nonempty cell equals the Springer
    dimension of its minimal representative plus the length of the tail."""
    images = _sn_images(n)
    lengths = _sn_lengths(n)
    # one base 256 digit per S_n index, digit i holding l(w_i) + 1
    length_digits = int.from_bytes(bytes(length + 1 for length in lengths), "little")
    levels = max(lengths).bit_length()
    # the byte values with bit `level` set, for each bit of a byte
    with_bit = [frozenset(value for value in range(256) if value >> level & 1) for level in range(8)]
    shapes = list(partitions(n))
    excess = _records([_excess(shape, lengths) for shape in shapes])
    cases = 0
    failures = _FailureLog()
    for p in parabolics(n):
        for shape, gathered in zip(shapes, _by_coset(excess, n, p)):
            # only the flags whose minimal representative is in the fiber
            cells = _bitset(gathered, range(1, 256))
            # there digit i becomes sdim(v) + l(y) = l(w) - (l(v) - sdim(v));
            # a digit never borrows, as l(w) + 1 >= l(v) + 1 >= the excess
            by_coset = length_digits - int.from_bytes(gathered, "big")
            digits = by_coset.to_bytes(len(images), "big")
            members, counter = _staircase_planes(shape, h_from_parabolic(p))
            counter += [0] * (levels - len(counter))
            wrong = cells & ~members
            for level, plane in enumerate(counter):
                wrong |= cells & (plane ^ _bitset(digits, with_bit[level]))
            cases += cells.bit_count()
            failures.record_set(shape, p, wrong, images)
    return cases, failures


def _excess(shape: Partition, lengths: tuple[int, ...]) -> bytes:
    """1 + l(v) - sdim(v) per S_n index v in the Springer fiber, 0 off it."""
    dims = _springer_dim_table(shape)
    return bytes(1 + lengths[v] - dim if dim >= 0 else 0 for v, dim in enumerate(dims))


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
    permutations are minimal coset representatives, for every J: each
    reads J against one set, the right descents and the string ascents."""
    # J only ever holds 1..n-1, so no other bit can tell the tests apart
    inside = (1 << n) - 2
    failures = _FailureLog()
    for images in _sn_images(n):
        diff = (_descents(images) ^ _string_ascents(string_decompose(Permutation(images)))) & inside
        if diff:
            failures.record(None, _least_member(n, diff), images)
    return len(_sn_images(n)), failures


def _check_schubert_coset(n: int) -> tuple[int, _FailureLog]:
    """A Springer fiber flag and its Schubert point agree about minimal
    coset membership for every J: they have the same right descents."""
    images = _sn_images(n)
    flags = ParabolicData(n, frozenset())
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        for idx in _min_rep_indices(shape, flags):
            cases += 1
            diff = _descents(images[idx]) ^ _point(shape, idx)[1]
            if diff:
                failures.record(shape, _least_member(n, diff), images[idx])
    return cases, failures


def _least_member(n: int, diff: int) -> ParabolicData:
    """J = {i} for the least i in diff, a J where two descent set tests differ."""
    return ParabolicData(n, frozenset({(diff & -diff).bit_length() - 1}))


def _check_schubert_ideal(n: int) -> tuple[int, _FailureLog]:
    """For shapes with at most three rows or two columns: the Schubert point
    map is injective, its image is closed downward in Bruhat order, and the
    image of the minimal representatives is closed downward within them.
    A failure of either closure names the missing element."""
    images = _sn_images(n)
    flags = ParabolicData(n, frozenset())
    full = (1 << len(images)) - 1
    # ascents[i - 1]: the w with w(i) < w(i + 1); W^J is their AND over i in J
    ascents = [
        _bitset(bytes(w[i - 1] < w[i] for w in reversed(images)), range(1, 256)) for i in range(1, n)
    ]
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        if not union_hypothesis(shape):
            continue
        points = []
        seen = bytearray(len(images))
        for idx in _min_rep_indices(shape, flags):
            point = _point(shape, idx)[0]
            if seen[point]:
                failures.record(shape, None, images[idx])
            seen[point] = 1
            points.append(point)
        ideal, _ = _lower_ideal(points, n)
        cases += len(points) + ideal.bit_count()
        failures.record_set(shape, None, ideal & ~_bitset(seen[::-1], range(1, 256)), images)
        for p in parabolics(n):
            points = [_point(shape, v)[0] for v in _min_rep_indices(shape, p)]
            seen = bytearray(len(images))
            for point in points:
                seen[point] = 1
            quotient = full
            for i in p.J:
                quotient &= ascents[i - 1]
            ideal, _ = _lower_ideal(points, n)
            cases += quotient.bit_count()
            failures.record_set(shape, p, ideal & quotient & ~_bitset(seen[::-1], range(1, 256)), images)
    return cases, failures


def _check_main_theorem(n: int) -> tuple[int, _FailureLog]:
    """Inside the proved regime the Hessenberg Poincare polynomial matches
    the Schubert union; outside it the comparison is only recorded."""
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        in_hypothesis = union_hypothesis(shape)
        for p in parabolics(n):
            swept, union, _ = _poincare_pair(shape, p)
            cases += 1
            if in_hypothesis and swept != union:
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
    on every fiber flag, and so does the length of the flag's Schubert
    point: the tableau scan, the per shape root count table that the
    parabolic formula reads, and the point."""
    images = _sn_images(n)
    flags = ParabolicData(n, frozenset())
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        dims = _springer_dim_table(shape)
        for idx in _min_rep_indices(shape, flags):
            w = Permutation(images[idx])
            vector = _row_inversion_vector(w, shape)
            cases += 1
            if vector is None or not sum(vector) == dims[idx] == schubert_point(w, shape).length():
                failures.record(shape, None, images[idx])
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
    if not 1 <= n_max <= MAX_SWEEP_DEGREE:
        raise ValueError(f"n_max must be between 1 and {MAX_SWEEP_DEGREE}, got {n_max}")
    if checks is None:
        selected = list(CHECKS)
    else:
        requested = set(checks)
        unknown = sorted(requested - set(CHECKS))
        if unknown:
            raise ValueError(f"unknown check id: {', '.join(unknown)}")
        selected = [check_id for check_id in CHECKS if check_id in requested]
        if not selected:
            raise ValueError("no check id given")
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
    if not 1 <= n <= MAX_SWEEP_DEGREE:
        raise ValueError(f"degree must be between 1 and {MAX_SWEEP_DEGREE}, got {n}")
    if granularity == "cells":
        return _census_cells(n)
    if granularity == "summaries":
        return _census_summaries(n)
    raise ValueError(f"unknown granularity: {granularity!r}")


def _census_cells(n: int) -> list[dict[str, object]]:
    index = _split_index(n)
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
                        "springer": bool(member[index(cell.w.images)]),
                        "schubert_point": schubert_point(cell.v, shape).one_line(),
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
