"""Hessenberg varieties for a nilpotent in highest form.

A Hessenberg function h on n letters (nondecreasing, h(i) >= i) carves the
matrix staircase that Schubert cells are intersected with.  Parabolic
Hessenberg spaces are those whose staircase is a block pattern: they come
from a subset J via h(i) = top of i's block, and for them every cell
dimension splits along the coset factorization w = v y into a Springer
part for v and the full length of y.

One coset free kernel, _staircase_planes, reads membership and dimension
off the value planes of w^(-1) for all of S_n at once, as integer bitsets
(symgroup._sn_planes); poincare_hessenberg, hess_cells and the harness
checks take their staircase side from it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections.abc import Iterable

from .nilpotent import (
    Partition,
    _fiber_by_descents,
    _springer_dim_table,
    dominance_ideal_from_filling,
    highest_form_roots,
    springer_cell_dim,
)
from .poly import Poly
from .rootsys import root_act
from .symgroup import (
    ParabolicData,
    Permutation,
    _bit_indices,
    _sn_images,
    _sn_planes,
    coset_factor,
    inversion_set,
    poincare_subgroup,
)


@dataclasses.dataclass(frozen=True)
class HessenbergFunction:
    """h: {1..n} -> {1..n} nondecreasing with h(i) >= i.

    >>> h = HessenbergFunction((2, 2, 4, 4))
    >>> h(1), h(3)
    (2, 4)
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        n = len(self.values)
        if n < 1:
            raise ValueError("empty Hessenberg function")
        for i, v in enumerate(self.values, start=1):
            if not i <= v <= n:
                raise ValueError(f"h({i}) = {v} violates i <= h(i) <= {n}")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"values must be nondecreasing: {self.values}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range")
        return self.values[i - 1]

    @staticmethod
    def from_string(text: str) -> HessenbergFunction:
        return HessenbergFunction(tuple(int(part) for part in text.split(",")))

    @staticmethod
    def identity(n: int) -> HessenbergFunction:
        """h(i) = i, the Springer case."""
        return HessenbergFunction(tuple(range(1, n + 1)))

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


@functools.lru_cache(maxsize=None)
def h_from_parabolic(p: ParabolicData) -> HessenbergFunction:
    """The block staircase: h(i) = last position of the block containing i.

    >>> h_from_parabolic(ParabolicData(4, frozenset({1, 3}))).values
    (2, 2, 4, 4)
    """
    values = [0] * p.n
    for block in p.blocks:
        for pos in block:
            values[pos - 1] = block[-1]
    return HessenbergFunction(tuple(values))


def is_parabolic_function(h: HessenbergFunction) -> bool:
    """Whether h is a block staircase: its image equals its fixed point set.

    >>> is_parabolic_function(HessenbergFunction((2, 2, 4, 5, 5)))
    False
    >>> is_parabolic_function(HessenbergFunction((2, 2, 4, 4)))
    True
    """
    image = set(h.values)
    fixed = {i for i in range(1, h.n + 1) if h(i) == i}
    return image == fixed


def parabolic_from_h(h: HessenbergFunction) -> ParabolicData:
    """Recover J = {i : h(i) != i} from a parabolic staircase."""
    if not is_parabolic_function(h):
        raise ValueError(f"is_parabolic_function fails for h = {h}")
    j = frozenset(i for i in range(1, h.n) if h(i) != i)
    return ParabolicData(h.n, j)


def hess_contains(w: Permutation, shape: Partition, h: HessenbergFunction) -> bool:
    """Whether the Schubert cell of w meets the Hessenberg variety.

    The criterion moves each root of the highest form nilpotent by w^(-1)
    and asks for landing inside the staircase root set, i.e. at a matrix
    position allowed by h.
    """
    if not (w.n == shape.n == h.n):
        raise ValueError("degree mismatch")
    winv = w.inverse()
    for root in highest_form_roots(shape):
        i, j = root_act(winv, root)
        if i > j and i > h(j):
            return False
    return True


def cell_dim(w: Permutation, shape: Partition, h: HessenbergFunction) -> int:
    """Dimension of the (nonempty) intersection of w's Schubert cell.

    Counts N(w^(-1)) in two zones: inversions outside the orbit ideal root
    support are free, and inversions inside it survive only when they also
    lie in w applied to the negative staircase roots.

    >>> cell_dim(Permutation((2, 4, 1, 3)), Partition((2, 2)), HessenbergFunction((2, 2, 4, 4)))
    2
    """
    if not hess_contains(w, shape, h):
        raise ValueError("cell is empty: flag not in the Hessenberg variety")
    ideal = dominance_ideal_from_filling(shape).roots
    moved_neg = frozenset(root_act(w, r) for r in _staircase_negatives(h))
    free = 0
    pinned = 0
    for root in inversion_set(w.inverse()):
        if root not in ideal:
            free += 1
        elif root in moved_neg:
            pinned += 1
    return free + pinned


def parabolic_cell_dim(w: Permutation, shape: Partition, p: ParabolicData) -> int:
    """Cell dimension in the parabolic case via w = v y: Springer part plus l(y).

    Agreement with cell_dim under h_from_parabolic(p) is the parabolic
    dimension theorem, enforced by the check harness.
    """
    if w.n != shape.n or p.n != shape.n:
        raise ValueError("degree mismatch")
    if not hess_contains(w, shape, h_from_parabolic(p)):
        raise ValueError("cell is empty: flag not in the Hessenberg variety")
    v, y = coset_factor(w, p)
    return springer_cell_dim(v, shape) + y.length()


def springer_min_reps(shape: Partition, p: ParabolicData) -> tuple[Permutation, ...]:
    """Minimal coset representatives whose flags lie in the Springer fiber.

    These index the pieces of the parabolic Hessenberg variety: one cell
    per (v, y) with v in this set and y in W_J.  Lexicographic one line
    order.

    >>> [v.one_line() for v in springer_min_reps(Partition((2, 2)), ParabolicData(4, frozenset({1, 3})))]
    ['1,2,3,4', '1,3,2,4', '2,4,1,3']
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    images = _sn_images(shape.n)
    return tuple(Permutation(images[idx]) for idx in sorted(_min_rep_indices(shape, p)))


def _min_rep_indices(shape: Partition, p: ParabolicData) -> list[int]:
    """S_n indices of the Springer fiber flags in W^J: the descent groups
    of the fiber walk that miss J, in walk order, so the identity first."""
    groups = _fiber_by_descents(shape).items()
    return list(itertools.chain.from_iterable(group for descents, group in groups if not descents & p.mask))


def _staircase_negatives(h: HessenbergFunction) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for j in range(1, h.n + 1) for i in range(j + 1, h(j) + 1))


@functools.lru_cache(maxsize=None)
def _position_pairs(shape: Partition) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per 0 based position j, the positions i < j whose pair (i, j) lies
    outside the orbit ideal, and those whose pair lies inside it."""
    ideal = dominance_ideal_from_filling(shape).roots
    inside = [[i for i in range(j) if (i + 1, j + 1) in ideal] for j in range(shape.n)]
    return tuple((tuple(i for i in range(j) if i not in row), tuple(row)) for j, row in enumerate(inside))


def _staircase_members(shape: Partition, h: HessenbergFunction) -> int:
    """The w whose cell is nonempty, as a set over S_n: w^(-1) moves every
    root (a, b) of X into the staircase, w^(-1)(a) <= h(w^(-1)(b)).

    It reads only the value planes of w^(-1) and h, never a coset: it is
    the side that the harness compares with the coset route.
    """
    n = shape.n
    ge = _sn_planes(n)
    outside = 0
    for a, b in highest_form_roots(shape).sorted_roots():
        for x, top in enumerate(h.values):
            if top < n:
                # w^(-1)(b) = x + 1 and w^(-1)(a) > h(x + 1)
                outside |= (ge[b - 1][x] ^ ge[b - 1][x + 1]) & ge[a - 1][top]
    return ((1 << math.factorial(n)) - 1) ^ outside


def _add_plane(counter: list[int], plane: int) -> None:
    """Add a 0/1 plane to a bit sliced counter, lowest bit plane first."""
    for level, bits in enumerate(counter):
        if not plane:
            return
        counter[level], plane = bits ^ plane, bits & plane
    if plane:
        counter.append(plane)


def _staircase_planes(shape: Partition, h: HessenbergFunction) -> tuple[int, list[int]]:
    """The nonempty cells and their dimensions over all of S_n at once.

    Returns (members, counter): members as in _staircase_members, and the
    cell dimension of each member w bit sliced, bit k of the dimension in
    counter[k], zero outside members.  The dimension counts the inverted
    pairs of w^(-1) outside the orbit ideal, and the inverted pairs inside
    it whose values land in the staircase, w^(-1)(j) < w^(-1)(i) <=
    h(w^(-1)(j)); each pair adds its indicator plane to the counter.  The
    pairs outside the ideal do not depend on h, so _free_counter counts
    them once per shape and the pairs inside are added to a copy.
    """
    n = shape.n
    ge = _sn_planes(n)
    tops = [(x, top) for x, top in enumerate(h.values) if top > x + 1]
    counter = list(_free_counter(shape))
    for j, (_, pinned) in enumerate(_position_pairs(shape)):
        # at[x] holds w^(-1)(j + 1) = x + 1, and ge[i][x + 1] ^ ge[i][top]
        # holds x + 1 < w^(-1)(i + 1) <= top = h(x + 1)
        at = [ge[j][x] ^ ge[j][x + 1] for x in range(n - 1)]
        for i in pinned:
            landed = (at[x] & (ge[i][x + 1] ^ ge[i][top]) for x, top in tops)
            _add_plane(counter, _or(landed))
    members = _staircase_members(shape, h)
    return members, [plane & members for plane in counter]


@functools.lru_cache(maxsize=None)
def _free_counter(shape: Partition) -> tuple[int, ...]:
    """The bit sliced count of the inverted pairs of w^(-1) outside the
    orbit ideal, over all of S_n: the part of the cell dimension that does
    not depend on h."""
    n = shape.n
    ge = _sn_planes(n)
    counter: list[int] = []
    for j, (free, _) in enumerate(_position_pairs(shape)):
        at = [ge[j][x] ^ ge[j][x + 1] for x in range(n - 1)]
        for i in free:
            _add_plane(counter, _or(at[x] & ge[i][x + 1] for x in range(n - 1)))
    return tuple(counter)


def _or(planes: Iterable[int]) -> int:
    return functools.reduce(int.__or__, planes, 0)


def _dimension_sets(members: int, counter: list[int]) -> list[int]:
    """cells[d]: the members whose bit sliced counter spells d."""
    cells = [members]
    for plane in reversed(counter):
        cells = [part for whole in cells for part in (whole & ~plane, whole & plane)]
    return cells


@functools.lru_cache(maxsize=None)
def poincare_hessenberg(shape: Partition, h: HessenbergFunction) -> Poly:
    """Poincare polynomial of the Hessenberg variety, graded by complex cell dimension.

    Coefficient of t^k counts the permutations w whose cell is nonempty of
    dimension k; the count is exhaustive over S_n, as popcounts of the
    staircase planes, and builds no per degree table besides _sn_planes.

    >>> str(poincare_hessenberg(Partition((2, 2)), HessenbergFunction((2, 2, 4, 4))))
    '1 + 3t + 4t^2 + 3t^3 + t^4'
    """
    if shape.n != h.n:
        raise ValueError("degree mismatch")
    return Poly(tuple(cells.bit_count() for cells in _dimension_sets(*_staircase_planes(shape, h))))


@functools.lru_cache(maxsize=None)
def poincare_parabolic_formula(shape: Partition, p: ParabolicData) -> Poly:
    """Closed formula for the parabolic case: sum over springer_min_reps of
    t^(Springer cell dimension) times the Poincare polynomial of W_J.

    >>> str(poincare_parabolic_formula(Partition((2, 2)), ParabolicData(4, frozenset({1, 3}))))
    '1 + 3t + 4t^2 + 3t^3 + t^4'
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    dims = _springer_dim_table(shape)
    exponents = (dims[idx] for idx in _min_rep_indices(shape, p))
    return Poly.from_exponents(exponents) * poincare_subgroup(p)


@dataclasses.dataclass(frozen=True)
class HessCell:
    """One nonempty cell of a parabolic Hessenberg variety."""

    w: Permutation
    dim: int
    v: Permutation
    y: Permutation


def hess_cells(shape: Partition, p: ParabolicData) -> tuple[HessCell, ...]:
    """All nonempty cells for the block staircase of p, in w lex order."""
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    sets = _dimension_sets(*_staircase_planes(shape, h_from_parabolic(p)))
    dims = {idx: dim for dim, cells in enumerate(sets) for idx in _bit_indices(cells)}
    images = _sn_images(shape.n)
    out = []
    for idx in sorted(dims):
        w = Permutation(images[idx])
        v, y = coset_factor(w, p)
        out.append(HessCell(w=w, dim=dims[idx], v=v, y=y))
    return tuple(out)
