"""Exhaustive verification sweeps and census datasets.

Every theorem in the package has a named check that runs over all shapes
of a given degree and all parabolic subsets, comparing two independent
routes to the same answer; each degree's shapes and subsets are built
once (nilpotent.partitions, symgroup.parabolics), so every check reads
the same objects.  fixed-points and parabolic-dimension read one pass per
degree (_coset_pass) that walks a tree of each J's blocks per shape
(_compositions), a child adding one block to its parent: the coset side
gathers its parent's excess planes through that block's sorting swaps
(_by_coset), the staircase side adds the block, a run of h_J, to its
parent's fold (hessvar._staircase_step), and the two meet at the leaves
(_leaf), which keep each pair's Poincare polynomial for
poincare-corollary and main-theorem, so each (shape, J) is swept once.
The two minimal coset checks compare one descent set per flag, which
decides them for every J at once: strings-coset from each one line
array's string lengths as plain ints (symgroup._string_lengths), and
schubert-coset per shape as planes.  The Schubert checks walk the fiber by descent group, each
group's points aligned with its flags (schubert._point_groups), and read
one Bruhat lower ideal per group (schubert._group_ideal): schubert-ideal
compares, for each J, the union of the ideals of the groups that miss J
with the union of their points, and main-theorem counts that union within
W^J times the polynomial of W_J (schubert._poincare_pair), and keeps,
outside the proved regime, the tally of pairs whose two polynomials are
equal anyway.  dim-formulas-agree
compares the tableau scan of each flag's one line array, the walk's root
count and the point's length, which is the walk's row inversion count:
the column rule of nilpotent._row_inversion_masks, carried in the
point's key, K = index(w0 p w0).  The scan is the only one in a sweep.
A check counts every failure and keeps the first 1000 witnesses.  census
dumps the same ground truth as flat rows for offline diffing, one sweep
over the (shape, J) pairs whatever the granularity (GRANULARITIES).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import operator
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TypeVar

from .components import component_candidates
from .hessvar import (
    _free_counter,
    _planes_poincare,
    _sliced_sum,
    _staircase_step,
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
from .record import Record
from .schubert import (
    _group_ideal,
    _poincare_pair,
    _point_groups,
    _quotient,
    schubert_point,
    union_hypothesis,
)
from .symgroup import (
    MAX_CELLS_DEGREE,
    MAX_SWEEP_DEGREE,
    ParabolicData,
    _bit_indices,
    _bitset,
    _descents,
    _sn_ascent_plane,
    _sn_image,
    _sn_lengths,
    _sn_sorting_masks,
    _string_ascents,
    _string_lengths,
    parabolics,
)

_MAX_RECORDED_FAILURES = 1000
T = TypeVar("T")
# the byte values with bit `level` set, for each bit of a byte
_WITH_BIT = tuple(frozenset(value for value in range(256) if value >> level & 1) for level in range(8))


class Failure(Record):
    """One counterexample: the shape and parabolic set where it happened
    plus a one line witness permutation, each omitted when irrelevant."""

    shape: tuple[int, ...] | None
    j: tuple[int, ...] | None
    witness: str | None


class CheckReport(Record):
    """Outcome of one named check at one degree: failures holds the first
    witnesses, failures_total counts every failure.  out_of_regime is
    (equal, total) over the pairs a check compares but asserts nothing
    about, None for a check that has none.  fixed-points and
    parabolic-dimension share one coset pass per degree, one walk of the
    compositions of n per shape: the first to run has it in elapsed, the
    other only the time to read its result."""

    check_id: str
    n: int
    cases_run: int
    failures: tuple[Failure, ...]
    failures_total: int
    elapsed: float
    out_of_regime: tuple[int, int] | None

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
            "out_of_regime": None if self.out_of_regime is None else dict(zip(("equal", "total"), self.out_of_regime)),
        }


class _FailureLog:
    """Counts every failure of a check and keeps the first witnesses."""

    def __init__(self) -> None:
        self.witnesses: list[Failure] = []
        self.total = 0
        self.out_of_regime: tuple[int, int] | None = None

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
        image: Callable[[int], tuple[int, ...]],
    ) -> None:
        """One failure per set bit of bits, bit i naming image(i), lowest first."""
        count = bits.bit_count()
        stored = min(count, max(0, _MAX_RECORDED_FAILURES - len(self.witnesses)))
        for idx in itertools.islice(_bit_indices(bits), stored):
            self.record(shape, p, image(idx))
        self.total += count - stored


def _compositions(n: int, root: T, extend: Callable[[T, int, int], T]) -> Iterator[tuple[int, T]]:
    """(J as a bitmask, state) per J, depth first over the blocks of J: a
    node's children append one block s..e, e = s..n, to its blocks, each
    with the state extend(the node's state, s, e).  Holds one path.

    >>> [bin(mask) for mask, _ in _compositions(3, None, lambda *_: None)]
    ['0b0', '0b100', '0b10', '0b110']
    """

    def walk(s: int, mask: int, state: T) -> Iterator[tuple[int, T]]:
        if s > n:
            yield mask, state
        for e in range(s, n + 1):
            # the block s..e glues s..e-1
            yield from walk(e + 1, mask | (1 << e) - (1 << s), extend(state, s, e))

    return walk(1, 0, root)


def _by_coset(n: int) -> Iterator[tuple[ParabolicData, Partition, list[int]]]:
    """Per shape, then per J in the order of _compositions: the bit planes
    of the shape's _excess bytes, 0 exactly off the fiber, one per bit of
    its largest excess, lowest first, gathered so that bit w reads the
    plane at the minimal coset representative of w.

    w goes to its representative by sorting each block of J, one sorting
    swap at a time, and a plane is gathered through a swap by a few masked
    shifts (symgroup._sn_sorting_masks).  The gathers apply the swaps to w
    last one first, which turns the insertion sort below into a bubble
    sort.  Sorting one block leaves the others as they are, so a child in
    the tree gathers its parent's planes through its own block's swaps."""
    table = _sn_sorting_masks(n)
    # position q + 1 moves down the block s..e through swaps q, ..., s
    swaps = {
        (s, e): [table[k - 1] for q in range(s, e) for k in range(q, s - 1, -1)]
        for s, e in itertools.combinations_with_replacement(range(1, n + 1), 2)
    }
    by_mask = {p.mask: p for p in parabolics(n)}

    def gather(planes: list[int], s: int, e: int) -> list[int]:
        gathered = []
        for plane in planes:
            for ascents, moves in swaps[s, e]:
                sorted_plane = plane & ascents
                for shift, sources in moves:
                    sorted_plane |= (plane & sources) << shift
                plane = sorted_plane
            gathered.append(plane)
        return gathered

    for shape in partitions(n):
        excess = _excess(shape)
        planes = [_bitset(excess[::-1], values) for values in _WITH_BIT[: max(excess).bit_length()]]
        for mask, gathered in _compositions(n, planes, gather):
            yield by_mask[mask], shape, gathered


def _leaf(
    shape: Partition, p: ParabolicData, addend: list[int], counter: Sequence[int], outside: int, targets: list[int]
) -> tuple[int, int, int]:
    """fixed-points' failures, and parabolic-dimension's cell count and
    failures, for one (shape, J) from its gathered planes and staircase
    fold; keeps the pair's polynomial (hessvar._planes_poincare).  Both
    readers of counter read member bits only, so it is not cut down."""
    members = ((1 << math.factorial(shape.n)) - 1) ^ outside
    _planes_poincare(shape, h_from_parabolic(p), members, counter)
    in_fiber = functools.reduce(int.__or__, addend)
    # the cells of either side: a staircase cell whose representative
    # misses the fiber adds 0 to dim <= l(w), and a coset cell that the
    # staircase lacks, in cells ^ members, is wrong outright
    cells = in_fiber | members
    # dim + excess = sdim(v) + l(y) + 1 + l(v) - sdim(v) = l(w) + 1 on
    # every cell, compared level by level, the carry out included
    mismatch = 0
    for level, target in itertools.zip_longest(_sliced_sum(counter, addend), targets, fillvalue=0):
        mismatch |= level ^ target
    return in_fiber ^ members, cells.bit_count(), cells ^ members | cells & mismatch


@functools.lru_cache(maxsize=1)
def _coset_pass(n: int) -> tuple[tuple[int, _FailureLog], tuple[int, _FailureLog]]:
    """fixed-points and parabolic-dimension at degree n.  Per shape, the
    coset side (_by_coset) and the staircase side walk the tree of
    _compositions apart, a child adding its block, a run of h_J, to its
    parent's fold (hessvar._staircase_step); the leaves are finished
    (_leaf), then recorded in parabolics(n) order."""
    image = _sn_image(n)
    # the bit planes of l(w) + 1 over S_n, lowest first
    data = bytes(length + 1 for length in reversed(_sn_lengths(n)))
    targets = [_bitset(data, values) for values in _WITH_BIT[: max(data).bit_length()]]
    dimension_cases = 0
    fixed, dimension = _FailureLog(), _FailureLog()
    for shape, leaves in itertools.groupby(_by_coset(n), key=operator.itemgetter(1)):
        stairs = _compositions(n, (_free_counter(shape), 0), lambda fold, s, e: _staircase_step(shape, *fold, s, e, e))
        found = {p: _leaf(shape, p, addend, *fold, targets) for (p, _, addend), (_, fold) in zip(leaves, stairs)}
        for p in parabolics(n):
            fixed_bits, cells, dimension_bits = found[p]
            fixed.record_set(shape, p, fixed_bits, image)
            dimension_cases += cells
            dimension.record_set(shape, p, dimension_bits, image)
    # fixed-points compares all of S_n for each pair
    return (math.factorial(n) * len(partitions(n)) * len(parabolics(n)), fixed), (dimension_cases, dimension)


def _check_fixed_points(n: int) -> tuple[int, _FailureLog]:
    """A flag lies in the parabolic Hessenberg variety iff the minimal
    representative of its coset lies in the Springer fiber."""
    return _coset_pass(n)[0]


def _check_parabolic_dimension(n: int) -> tuple[int, _FailureLog]:
    """The staircase inversion count of a nonempty cell equals the Springer
    dimension of its minimal representative plus the length of the tail."""
    return _coset_pass(n)[1]


def _excess(shape: Partition) -> bytes:
    """1 + l(v) - sdim(v) per S_n index v in the Springer fiber, 0 off it,
    from the walk's dimensions; the coset pass gathers its bit planes."""
    lengths = _sn_lengths(shape.n)
    out = bytearray(len(lengths))
    for flags, dims, *_ in _fiber_by_descents(shape).values():
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
    for images in itertools.permutations(range(1, n + 1)):
        diff = (_descents(images) ^ _string_ascents(_string_lengths(images))) & inside
        if diff:
            failures.record(None, _least_member(n, diff), images)
    return math.factorial(n), failures


def _check_schubert_coset(n: int) -> tuple[int, _FailureLog]:
    """A Springer fiber flag and its Schubert point agree about minimal
    coset membership for every J: they have the same right descents.  Per
    shape and i, the flags off the ascent plane of i are compared as a set
    with those whose point has a descent at i; only a shape where they
    differ is walked flag by flag for its witnesses."""
    image = _sn_image(n)
    order = math.factorial(n)
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        groups = list(_point_groups(shape, 0))
        # per S_n index: 1 on a flag, and its point's descent i as bit i - 1
        fiber, descent_bytes = bytearray(order), bytearray(order)
        for _, flags, _, _, point_descents in groups:
            cases += len(flags)
            for idx, descents in zip(flags, point_descents):
                fiber[idx], descent_bytes[idx] = 1, descents >> 1
        # _bitset reads the highest index first
        flags_set, descent_bytes = _bitset(fiber[::-1], (1,)), descent_bytes[::-1]
        if all(flags_set & ~_sn_ascent_plane(n, i) == _bitset(descent_bytes, _WITH_BIT[i - 1]) for i in range(1, n)):
            continue
        for _, flags, _, _, point_descents in groups:
            for idx, descents in zip(flags, point_descents):
                w = image(idx)
                diff = _descents(w) ^ descents
                if diff:
                    failures.record(shape, _least_member(n, diff), w)
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
    image = _sn_image(n)
    order = math.factorial(n)
    size = (order + 7) // 8
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        if not union_hypothesis(shape):
            continue
        # per descent group: its descents, its points and their ideal, as ints over S_n
        groups = []
        seen = bytearray(order)
        for descents, flags, _, group_points, _ in _point_groups(shape, 0):
            # bit point of the group's points is bit point & 7 of byte point >> 3
            marks = bytearray(size)
            for idx, point in zip(flags, group_points):
                if seen[point]:
                    failures.record(shape, None, image(idx))
                seen[point] = 1
                marks[point >> 3] |= 1 << (point & 7)
            cases += len(group_points)
            groups.append((descents, int.from_bytes(marks, "little"), _group_ideal(shape, descents)[0]))
        for p in parabolics(n):
            points = ideal = 0
            for descents, group_points, group_ideal in groups:
                if not descents & p.mask:
                    points |= group_points
                    ideal |= group_ideal
            if not p.J:
                # every group misses the empty J: the closure of the whole image
                cases += ideal.bit_count()
                failures.record_set(shape, None, ideal & ~points, image)
            quotient = _quotient(p)
            cases += quotient.bit_count()
            failures.record_set(shape, p, ideal & quotient & ~points, image)
    return cases, failures


def _check_main_theorem(n: int) -> tuple[int, _FailureLog]:
    """Inside the proved regime the Hessenberg Poincare polynomial matches
    the Schubert union.  Outside it nothing is asserted: the pair is counted
    in cases_run and kept in the out_of_regime tally, (equal, total)."""
    cases = equal = total = 0
    failures = _FailureLog()
    for shape in partitions(n):
        in_hypothesis = union_hypothesis(shape)
        for p in parabolics(n):
            swept, union = _poincare_pair(shape, p)
            cases += 1
            if in_hypothesis:
                if swept != union:
                    failures.record(shape, p, None)
            else:
                total += 1
                equal += swept == union
    failures.out_of_regime = (equal, total)
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
    for the parabolic formula, and the point, which the walk builds from
    its own row inversion counts."""
    image = _sn_image(n)
    lengths = _sn_lengths(n)
    cases = 0
    failures = _FailureLog()
    for shape in partitions(n):
        for _, flags, dims, points, _ in _point_groups(shape, 0):
            cases += len(flags)
            for idx, dim, point in zip(flags, dims, points):
                w = image(idx)
                vector = _row_inversion_vector(w, shape)
                if vector is None or not sum(vector) == dim == lengths[point]:
                    failures.record(shape, None, w)
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
                    out_of_regime=failures.out_of_regime,
                )
            )
    return reports


def _cell_rows(shape: Partition, p: ParabolicData) -> Iterator[tuple[object, ...]]:
    for cell in hess_cells(shape, p):
        yield (
            cell.w.one_line(),
            cell.v.one_line(),
            cell.y.one_line(),
            cell.dim,
            springer_contains(cell.w, shape),
            schubert_point(cell.v, shape).one_line(),
        )


def _summary_rows(shape: Partition, p: ParabolicData) -> list[tuple[object, ...]]:
    hess, union = _poincare_pair(shape, p)
    return [(hess.coeffs, union.coeffs, hess == union)]


def _component_rows(shape: Partition, p: ParabolicData) -> list[tuple[object, ...]]:
    candidates = component_candidates(shape, p)
    maximal = [c for c in candidates if c.bruhat_maximal]
    dims = tuple(sorted({c.cell_dim for c in maximal}, reverse=True))
    return [(len(candidates), len(maximal), sum(c.full_cell for c in maximal), dims)]


CELL_FIELDS = ("lambda", "J", "w", "v", "y", "dim", "springer", "schubert_point")
SUMMARY_FIELDS = ("lambda", "J", "hessenberg_poly", "schubert_union_poly", "equal")
COMPONENT_FIELDS = ("lambda", "J", "candidates", "maximal", "full", "dims")

# granularity -> (fields, the rows of one (shape, J) pair after lambda and J, largest degree)
GRANULARITIES = {
    "cells": (CELL_FIELDS, _cell_rows, MAX_CELLS_DEGREE),
    "summaries": (SUMMARY_FIELDS, _summary_rows, MAX_SWEEP_DEGREE),
    # the pairwise Bruhat filter of components takes about 5 minutes at n = 9
    "components": (COMPONENT_FIELDS, _component_rows, 8),
}


def census(n: int, granularity: str) -> list[dict[str, object]]:
    """Flat ground truth rows for one degree, from one sweep over every
    (shape, J) pair.

    cells: one row per nonempty cell of every pair, for degrees up to
    MAX_CELLS_DEGREE = 7 (the rows of degree 8 outgrow memory).
    summaries: one row per pair with both polynomials.
    components: one row per pair with its number of candidate components,
    how many are Bruhat maximal, how many of those fill their Schubert
    cell, and the distinct cell dimensions of the maximal ones, largest
    first; two or more rule out an equidimensional union of full cells.

    >>> census(1, "summaries")
    [{'lambda': (1,), 'J': (), 'hessenberg_poly': (1,), 'schubert_union_poly': (1,), 'equal': True}]
    >>> census(3, "components")[-1]
    {'lambda': (1, 1, 1), 'J': (1, 2), 'candidates': 1, 'maximal': 1, 'full': 1, 'dims': (3,)}
    """
    if not 1 <= n <= MAX_SWEEP_DEGREE:
        raise ValueError(f"degree must be between 1 and {MAX_SWEEP_DEGREE}, got {n}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity: {granularity!r}")
    fields, pair_rows, max_degree = GRANULARITIES[granularity]
    if n > max_degree:
        raise ValueError(f"{granularity} granularity supports degree at most {max_degree}, got {n}")
    rows: list[dict[str, object]] = []
    for shape in partitions(n):
        for p in parabolics(n):
            head = (shape.parts, p.sorted_j())
            rows.extend(dict(zip(fields, head + rest)) for rest in pair_rows(shape, p))
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
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity: {granularity!r}")
    return _write_csv(GRANULARITIES[granularity][0], rows)


def _write_csv(fields: tuple[str, ...], rows: Iterable[dict[str, object]]) -> str:
    """The header of fields, then one line per row of its fields' values."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_csv_value(row[field]) for field in fields] for row in rows)
    return buffer.getvalue()


def rows_to_json(rows: list[dict[str, object]]) -> str:
    return json.dumps(rows, indent=2) + "\n"
