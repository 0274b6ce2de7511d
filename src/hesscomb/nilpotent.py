"""Nilpotent matrices in highest form, base fillings, and Springer fibers.

A partition of n fixes a nilpotent Jordan type.  Its base filling labels
the Young diagram with 1..n going up each column, columns left to right,
and the nilpotent matrix X with a 1 in entry (k, r_k) for every label k
with a right neighbor r_k is the highest form representative of the orbit:
its pivot columns move as far right as possible.

The unipotent orbit through X sweeps out an affine space X + V whose root
support is the set of positive roots strictly dominating a root of X.  The
permutation flags wB lying in the Springer fiber of X are detected by a
row strict tableau, and the dimension of the Schubert cell section through
wB is computed two independent ways, by tableau row inversions and by
counting inversions of the inverse permutation outside that root support.
_row_inversion_vector reads a flag's tableau in one scan of w's one line
array; the per shape tables _fiber_bitmap and _springer_dim_table rest on
_fiber_by_descents, a walk over the row strict fillings, and never read
the scan, so the harness can compare the two.
"""

from __future__ import annotations

import array
import collections
import dataclasses
import functools
import itertools
import math
from collections.abc import Iterator, Sequence

from .rootsys import RootSet, is_positive, positive_roots, root_dominates
from .symgroup import (
    Permutation,
    _inversions,
    _sn_images,
    _sn_lengths,
)


@dataclasses.dataclass(frozen=True)
class Partition:
    """A partition written largest part first, e.g. Partition((3, 2))."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("empty partition")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be nonincreasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_rows(self) -> int:
        return len(self.parts)

    @property
    def num_cols(self) -> int:
        return self.parts[0]

    def column_heights(self) -> tuple[int, ...]:
        """Conjugate partition: height of each column of the diagram."""
        return tuple(
            sum(1 for p in self.parts if p >= c) for c in range(1, self.num_cols + 1)
        )

    @staticmethod
    def from_string(text: str) -> Partition:
        return Partition(tuple(int(part) for part in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, largest first lexicographically (reverse lex)."""
    if n < 1:
        raise ValueError("degree must be at least 1")

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


@dataclasses.dataclass(frozen=True)
class BaseFilling:
    """The canonical labeling of a Young diagram, rows listed top to bottom.

    >>> base_filling(Partition((3, 2))).rows
    ((2, 4, 5), (1, 3))
    >>> base_filling(Partition((2, 1, 1))).rows
    ((3, 4), (2,), (1,))
    """

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def boxes(self) -> dict[int, tuple[int, int]]:
        """label -> (row, column), both 1-based, row 1 on top."""
        return {label: (r, c) for r, row in enumerate(self.rows, 1) for c, label in enumerate(row, 1)}

    def box_of(self, label: int) -> tuple[int, int]:
        """(row, column) of a label, both 1-based, row 1 on top."""
        if label not in self.boxes:
            raise ValueError(f"label {label} not in filling")
        return self.boxes[label]

    def right_of(self, label: int) -> int:
        """Label directly to the right, or 0 at the end of a row."""
        r, c = self.box_of(label)
        row = self.rows[r - 1]
        return row[c] if c < len(row) else 0


@functools.lru_cache(maxsize=None)
def base_filling(shape: Partition) -> BaseFilling:
    """Fill columns left to right, each column bottom to top, with 1..n."""
    rows: list[list[int]] = [[] for _ in shape.parts]
    label = 1
    for col, height in enumerate(shape.column_heights(), start=1):
        for r in range(height, 0, -1):
            rows[r - 1].append(label)
            label += 1
    # each row was appended in column order, so rows are already in place
    return BaseFilling(shape, tuple(tuple(row) for row in rows))


@functools.lru_cache(maxsize=None)
def highest_form_roots(shape: Partition) -> RootSet:
    """Roots (k, r_k) of the highest form nilpotent X for this shape.

    >>> highest_form_roots(Partition((3, 2))).sorted_roots()
    ((1, 3), (2, 4), (4, 5))
    >>> highest_form_roots(Partition((1, 1, 1, 1))).sorted_roots()
    ()
    """
    rows = base_filling(shape).rows
    return RootSet(shape.n, frozenset((a, b) for row in rows for a, b in zip(row, row[1:])))


def is_highest_form(phi_x: RootSet) -> bool:
    """Whether a single pivot upper triangular matrix is in highest form.

    The root set lists the pivots, root (k, j) meaning a 1 in row k of
    column j.  Highest form asks the column indexed pivot row function,
    zero on pivotless columns, to be increasing across 1..n.

    >>> is_highest_form(RootSet(5, frozenset({(1, 3), (2, 4), (4, 5)})))
    True
    >>> is_highest_form(RootSet(4, frozenset({(1, 2), (3, 4)})))
    False
    """
    piv: dict[int, int] = {}
    seen_rows: set[int] = set()
    for k, j in phi_x.roots:
        if not is_positive((k, j)):
            raise ValueError(f"matrix is not upper triangular: pivot {(k, j)}")
        if j in piv:
            raise ValueError(f"duplicate pivot column {j}")
        if k in seen_rows:
            raise ValueError(f"duplicate pivot row {k}")
        piv[j] = k
        seen_rows.add(k)
    seq = [piv.get(c, 0) for c in range(1, phi_x.n + 1)]
    return all(a <= b for a, b in zip(seq, seq[1:]))


def dominance_ideal(phi_x: RootSet, n: int) -> RootSet:
    """Positive roots strictly dominating some member of phi_x.

    This is the root support of the nilpotent ideal V with U.X = X + V,
    where U is the unipotent group of upper triangular matrices and X has
    root set phi_x.

    >>> dominance_ideal(highest_form_roots(Partition((2, 2))), 4).sorted_roots()
    ((1, 4),)
    """
    if phi_x.n != n:
        raise ValueError("degree mismatch")
    base = phi_x.sorted_roots()
    if any(not is_positive(r) for r in base):
        raise ValueError("members must be positive roots")
    roots = frozenset(
        g for g in positive_roots(n) if any(root_dominates(g, a) for a in base)
    )
    return RootSet(n, roots)


@functools.lru_cache(maxsize=None)
def dominance_ideal_from_filling(shape: Partition) -> RootSet:
    """The same root support read directly off the base filling.

    (i, j) qualifies when j labels a box in a column strictly right of the
    box of i and j exceeds the label r_i directly right of i; boxes with no
    right neighbor impose no lower bound.  Agreement with dominance_ideal
    of highest_form_roots is a theorem, enforced by the check harness.

    >>> dominance_ideal_from_filling(Partition((2, 1, 1))).sorted_roots()
    ((1, 4), (2, 4))
    """
    filling = base_filling(shape)
    n = shape.n
    boxes = filling.boxes
    roots = set()
    for i in range(1, n + 1):
        bound = filling.right_of(i)
        for j in range(i + 1, n + 1):
            if boxes[j][1] > boxes[i][1] and j > bound:
                roots.add((i, j))
    return RootSet(n, frozenset(roots))


# ---------------------------------------------------------------------------
# Tableaux and the Springer fiber.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Tableau:
    """A bijective filling of a Young diagram, rows top to bottom.

    Row strictness (each row increasing left to right) is a predicate on
    the tableau, not an invariant of the type.
    """

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        if tuple(len(row) for row in self.rows) != self.shape.parts:
            raise ValueError("row lengths do not match the shape")
        entries = [e for row in self.rows for e in row]
        if sorted(entries) != list(range(1, self.shape.n + 1)):
            raise ValueError(f"entries must be a bijection with 1..{self.shape.n}")

    def row_of(self, value: int) -> int:
        for r, row in enumerate(self.rows, start=1):
            if value in row:
                return r
        raise ValueError(f"value {value} not in tableau")

    def is_row_strict(self) -> bool:
        return all(a < b for row in self.rows for a, b in zip(row, row[1:]))


def springer_tableau(w: Permutation, shape: Partition) -> Tableau:
    """The tableau of the flag wB: the box of label i receives w^(-1)(i).

    >>> springer_tableau(Permutation((3, 4, 1, 2)), Partition((2, 1, 1))).rows
    ((1, 2), (4,), (3,))
    """
    if w.n != shape.n:
        raise ValueError("degree mismatch")
    winv = w.inverse()
    filling = base_filling(shape)
    return Tableau(
        shape, tuple(tuple(winv(label) for label in row) for row in filling.rows)
    )


def springer_contains(w: Permutation, shape: Partition) -> bool:
    """Whether the flag wB lies in the Springer fiber of the shape's nilpotent.

    Membership is equivalent to the Springer tableau being row strict, and
    also to w^(-1) keeping every root of the nilpotent positive; the test
    suite checks the two readings against each other.
    """
    return _row_inversion_vector(w.images, shape) is not None


def row_inversions(tableau: Tableau, q: int) -> int:
    """Row inversions of entry q: rows that q's row must pass in T[q].

    T[q] restricts the tableau to entries 1..q.  The count adds the rows
    above q's row of equal T[q] length and the rows anywhere of strictly
    greater T[q] length; empty rows of T[q] never contribute.

    >>> t = Tableau(Partition((2, 1, 1)), ((2, 4), (1,), (3,)))
    >>> [row_inversions(t, q) for q in (2, 3, 4)]
    [0, 2, 0]
    """
    n = tableau.shape.n
    if not 1 <= q <= n:
        raise ValueError(f"entry {q} out of range 1..{n}")
    if not tableau.is_row_strict():
        raise ValueError("tableau is not row strict")
    lengths = [sum(1 for e in row if e <= q) for row in tableau.rows]
    home = tableau.row_of(q)
    mine = lengths[home - 1]
    same_above = sum(1 for r in range(1, home) if lengths[r - 1] == mine)
    longer = sum(1 for length in lengths if length > mine)
    return same_above + longer


def _row_inversion_vector(images: Sequence[int], shape: Partition) -> tuple[int, ...] | None:
    """(l_1, ..., l_(n-1)) where l_(q-1) = row_inversions(T, q), T the
    Springer tableau of the permutation w with one line array images, or
    None when T is not row strict.

    Value q sits in the box of label w(q), so T is row strict exactly when
    each row fills left to right as q goes up: one scan of w's one line
    array reads membership and the vector together.
    """
    if len(images) != shape.n:
        raise ValueError("degree mismatch")
    boxes = base_filling(shape).boxes
    lens = [0] * (shape.num_rows + 1)
    # at_least[k]: the rows of length k or more so far
    at_least = [0] * (shape.num_cols + 2)
    out = []
    for label in images:
        home, mine = boxes[label]
        if mine != lens[home] + 1:
            return None
        lens[home] = mine
        at_least[mine] += 1
        # rows above of equal length, and rows anywhere that are longer
        out.append(lens[1:home].count(mine) + at_least[mine + 1])
    return tuple(out[1:])


def springer_cell_dim(w: Permutation, shape: Partition) -> int:
    """Dimension of the Schubert cell section C_w of the Springer fiber.

    Computed two ways, which must agree: the sum of the tableau row
    inversion numbers, and the number of inversions of w^(-1) avoiding the
    root support of the orbit ideal V.

    >>> springer_cell_dim(Permutation((2, 4, 1, 3)), Partition((2, 2)))
    2
    """
    vector = _row_inversion_vector(w.images, shape)
    if vector is None:
        raise ValueError("flag is not in the Springer fiber")
    by_rows = sum(vector)
    ideal = dominance_ideal_from_filling(shape).roots
    by_roots = sum(1 for root in _inversions(w.inverse().images) if root not in ideal)
    if by_rows != by_roots:
        raise RuntimeError(
            f"dimension formulas disagree for w={w.one_line()}, shape={shape}: "
            f"{by_rows} by rows, {by_roots} by roots"
        )
    return by_rows


# ---------------------------------------------------------------------------
# Per shape tables for exhaustive sweeps, aligned with symgroup._sn_images.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _fiber_by_descents(shape: Partition) -> dict[int, array.array]:
    """The Springer fiber flags as ascending S_n indices, grouped by their
    right descents as a bitmask (bit i when w(i) > w(i + 1)).

    The flags are the row strict fillings: value q goes into the leftmost
    empty box of some row, and w(q) is that box's label.  Trying the free
    labels in increasing order walks the fiber in lexicographic order of
    w, and the index adds up the Lehmer code, (unused labels below w(q))
    times (n - q)!.  Labels travel as one bit each, bit label of an int.
    """
    n = shape.n
    # a label is free once the label to its left is placed
    left = {1 << b: 1 << a for row in base_filling(shape).rows for a, b in zip(row, row[1:])}
    weights = [math.factorial(n - 1 - q) for q in range(n)]
    groups: dict[int, array.array] = collections.defaultdict(functools.partial(array.array, "I"))

    def walk(q: int, unused: int, prev: int, idx: int, descents: int) -> None:
        if q == n - 1:
            # one label is left, and the label to its left is placed
            groups[descents | (prev > unused) << q].append(idx)
            return
        rank = 0
        bits = unused
        while bits:
            low = bits & -bits
            if not unused & left.get(low, 0):
                walk(q + 1, unused ^ low, low, idx + rank * weights[q], descents | (prev > low) << q)
            rank += 1
            bits ^= low

    walk(0, (1 << n + 1) - 2, 0, 0, 0)
    return groups


@functools.lru_cache(maxsize=None)
def _fiber_bitmap(shape: Partition) -> bytes:
    """springer_contains per S_n index, one byte 1 or 0."""
    out = bytearray(math.factorial(shape.n))
    for idx in itertools.chain.from_iterable(_fiber_by_descents(shape).values()):
        out[idx] = 1
    return bytes(out)


@functools.lru_cache(maxsize=None)
def _springer_dim_table(shape: Partition) -> tuple[int, ...]:
    """springer_cell_dim per S_n index, -1 outside the fiber (root formula)."""
    n = shape.n
    ideal = tuple((i - 1, j - 1) for i, j in dominance_ideal_from_filling(shape).sorted_roots())
    images = _sn_images(n)
    lengths = _sn_lengths(n)
    out = [-1] * len(images)
    winv = [0] * n
    for idx in itertools.chain.from_iterable(_fiber_by_descents(shape).values()):
        for pos, value in enumerate(images[idx]):
            winv[value - 1] = pos
        # the ideal roots that w^(-1) inverts are the ones the count skips
        out[idx] = lengths[idx] - sum(1 for i, j in ideal if winv[i] > winv[j])
    return tuple(out)
