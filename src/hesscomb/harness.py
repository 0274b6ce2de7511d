"""Exhaustive verification sweeps and census datasets.

Every theorem in the package has a named check that runs over all shapes
of a given degree and all parabolic subsets, comparing two independent
routes to the same answer.  The staircase side is the coset free kernel
hessvar._staircase_planes, a set of permutations as one int over S_n,
compared as a set with the coset side, one byte per S_n index and shape
gathered through symgroup's coset tables: the excess 1 + l(v) - sdim(v)
of _excess, 0 exactly off the fiber.  fixed-points reads its nonzero
bytes; parabolic-dimension bit slices it and adds it to the staircase
dimension counter, plane by plane, to meet the bit planes of l(w) + 1.
The two minimal coset checks compare one descent set per flag, which
decides them for every J at once.  The
Schubert checks walk the fiber by descent group, each group's points
aligned with its flags (schubert._point_groups): schubert-ideal builds,
once per shape, each group's points and their Bruhat lower ideal (the
rank plane kernel schubert._lower_ideal over the group's maximal
points), and for each J compares the union of the ideals of the groups
that miss J with the union of their points; main-theorem counts the
ideal that the same kernel builds from the maximal points of each
descent group in W^J and the blocks of J (schubert._poincare_pair),
ranking only the maximal tops.
dim-formulas-agree compares the tableau scan of each flag's one line
array, the walk's root count and the point's length.  A check counts
every failure and keeps the first 1000 witnesses.  The census functions
dump the same ground truth as flat rows for offline diffing.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import time
from collections.abc import Callable, Iterable

from .hessvar import (
    _staircase_members,
    _staircase_planes,
    h_from_parabolic,
    hess_cells,
    poincare_hessenberg,
    poincare_parabolic_formula,
)
from .nilpotent import (
    Partition,
    _fiber_by_descents,
    _row_inversion_vector,
    dominance_ideal,
    dominance_ideal_from_filling,
    highest_form_roots,
    partitions,
    springer_contains,
)
from .schubert import (
    _group_maxima,
    _lower_ideal,
    _poincare_pair,
    _point_groups,
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
    fibers = _records([_excess(shape) for shape in shapes])
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
    # the byte values with bit `level` set, for each bit of a byte
    with_bit = [frozenset(value for value in range(256) if value >> level & 1) for level in range(8)]
    # the bit planes of l(w) + 1 over S_n, lowest first
    data = bytes(length + 1 for length in reversed(lengths))
    targets = [_bitset(data, with_bit[level]) for level in range((max(lengths) + 1).bit_length())]
    shapes = list(partitions(n))
    columns = [_excess(shape) for shape in shapes]
    depths = [max(column).bit_length() for column in columns]
    excess = _records(columns)
    cases = 0
    failures = _FailureLog()
    for p in parabolics(n):
        for shape, gathered, depth in zip(shapes, _by_coset(excess, n, p), depths):
            # the excess 1 + l(v) - sdim(v) of each w's minimal representative
            # v, bit sliced; it is 0 exactly off the fiber
            addend = [_bitset(gathered, with_bit[level]) for level in range(depth)]
            cells = functools.reduce(int.__or__, addend, 0)
            members, counter = _staircase_planes(shape, h_from_parabolic(p))
            # dim + excess = sdim(v) + l(y) + 1 + l(v) - sdim(v) = l(w) + 1 on
            # every cell: a ripple carry add, compared level by level
            wrong = ~members
            carry = 0
            for a, b, target in itertools.zip_longest(counter, addend, targets, fillvalue=0):
                wrong |= a ^ b ^ carry ^ target
                carry = a & b | carry & (a ^ b)
            cases += cells.bit_count()
            failures.record_set(shape, p, cells & (wrong | carry), images)
    return cases, failures


@functools.lru_cache(maxsize=None)
def _excess(shape: Partition) -> bytes:
    """1 + l(v) - sdim(v) per S_n index v in the Springer fiber, 0 off it,
    from the walk's dimensions; fixed-points and parabolic-dimension share it."""
    lengths = _sn_lengths(shape.n)
    out = bytearray(len(lengths))
    for flags, dims in _fiber_by_descents(shape).values():
        for v, dim in zip(flags, dims):
            out[v] = 1 + lengths[v] - dim
    return bytes(out)


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
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        for _, flags, _, _, point_descents in _point_groups(shape, 0):
            cases += len(flags)
            for idx, descents in zip(flags, point_descents):
                diff = _descents(images[idx]) ^ descents
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
    A failure of either closure names the missing element.

    The image of the flags in W^J is the union of the images of the descent
    groups that miss J, and the ideal of a union is the union of the
    ideals, so each group's points and ideal are built once per shape."""
    images = _sn_images(n)
    full = (1 << len(images)) - 1
    # ascents[i - 1]: the w with w(i) < w(i + 1); W^J is their AND over i in J
    ascents = [
        _bitset(bytes(w[i - 1] < w[i] for w in reversed(images)), range(1, 256)) for i in range(1, n)
    ]
    size = (len(images) + 7) // 8
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        if not union_hypothesis(shape):
            continue
        # per descent group: its descents, its points and their ideal, as ints over S_n
        groups = []
        seen = bytearray(len(images))
        for descents, flags, _, group_points, _ in _point_groups(shape, 0):
            # bit point of the group's points is bit point & 7 of byte point >> 3
            marks = bytearray(size)
            for idx, point in zip(flags, group_points):
                if seen[point]:
                    failures.record(shape, None, images[idx])
                seen[point] = 1
                marks[point >> 3] |= 1 << (point & 7)
            cases += len(group_points)
            ideal, _ = _lower_ideal(_group_maxima(shape, descents), n)
            groups.append((descents, int.from_bytes(marks, "little"), ideal))
        for p in parabolics(n):
            points = ideal = 0
            for descents, group_points, group_ideal in groups:
                if not descents & p.mask:
                    points |= group_points
                    ideal |= group_ideal
            if not p.J:
                # every group misses the empty J: the closure of the whole image
                cases += ideal.bit_count()
                failures.record_set(shape, None, ideal & ~points, images)
            quotient = full
            for i in p.J:
                quotient &= ascents[i - 1]
            cases += quotient.bit_count()
            failures.record_set(shape, p, ideal & quotient & ~points, images)
    return cases, failures


def _check_main_theorem(n: int) -> tuple[int, _FailureLog]:
    """Inside the proved regime the Hessenberg Poincare polynomial matches
    the Schubert union; outside it the comparison is only recorded."""
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        in_hypothesis = union_hypothesis(shape)
        for p in parabolics(n):
            swept, union = _poincare_pair(shape, p)
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
    point: the tableau scan, the root count that the fiber walk carries
    for the parabolic formula, and the point."""
    images = _sn_images(n)
    lengths = _sn_lengths(n)
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        for _, flags, dims, points, _ in _point_groups(shape, 0):
            cases += len(flags)
            for idx, dim, point in zip(flags, dims, points):
                vector = _row_inversion_vector(images[idx], shape)
                if vector is None or not sum(vector) == dim == lengths[point]:
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
    rows: list[dict[str, object]] = []
    for shape in partitions(n):
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
                        "springer": springer_contains(cell.w, shape),
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
    fields = {"cells": CELL_FIELDS, "summaries": SUMMARY_FIELDS}.get(granularity)
    if fields is None:
        raise ValueError(f"unknown granularity: {granularity!r}")
    return _write_csv(fields, rows)


def _write_csv(fields: tuple[str, ...], rows: Iterable[dict[str, object]]) -> str:
    """The header of fields, then one line per row of its fields' values."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_csv_value(row[field]) for field in fields] for row in rows)
    return buffer.getvalue()


def rows_to_json(rows: list[dict[str, object]]) -> str:
    return json.dumps(rows, indent=2) + "\n"
