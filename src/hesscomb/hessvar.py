"""Hessenberg varieties for a nilpotent in highest form.

A Hessenberg function h on n letters (nondecreasing, h(i) >= i) carves the
matrix staircase that Schubert cells are intersected with.  Parabolic
Hessenberg spaces are those whose staircase is a block pattern: they come
from a subset J via h(i) = top of i's block, and for them every cell
dimension splits along the coset factorization w = v y into a Springer
part for v and the full length of y.

One coset free sweep, _staircase_dims, reads membership and dimension off
w^(-1) for poincare_hessenberg, hess_cells and the harness checks.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections.abc import Iterable, Iterator

from .nilpotent import (
    Partition,
    _fiber_bitmap,
    _springer_dim_table,
    dominance_ideal_from_filling,
    highest_form_roots,
    springer_cell_dim,
)
from .poly import Poly
from .rootsys import positive_roots, root_act
from .symgroup import (
    ParabolicData,
    Permutation,
    _sn_images,
    _sn_inverse_images,
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


@functools.lru_cache(maxsize=None)
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
    return tuple(Permutation(images[idx]) for idx in _min_rep_indices(shape, p))


def _min_rep_indices(shape: Partition, p: ParabolicData) -> list[int]:
    """S_n indices of the Springer fiber flags increasing across every i in J."""
    member = _fiber_bitmap(shape)
    j = p.sorted_j()
    return [
        idx
        for idx, images in enumerate(_sn_images(shape.n))
        if member[idx] and all(images[i - 1] < images[i] for i in j)
    ]


def _staircase_negatives(h: HessenbergFunction) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for j in range(1, h.n + 1) for i in range(j + 1, h(j) + 1))


@functools.lru_cache(maxsize=None)
def _position_pairs(shape: Partition) -> tuple[tuple[tuple[int, int], ...], ...]:
    """0 based position pairs i < j outside and inside the orbit ideal."""
    ideal = dominance_ideal_from_filling(shape).roots
    pairs = [((i - 1, j - 1), (i, j) in ideal) for i, j in positive_roots(shape.n)]
    return tuple(ij for ij, inside in pairs if not inside), tuple(ij for ij, inside in pairs if inside)


def _staircase_dims(
    shape: Partition, h: HessenbergFunction, winvs: Iterable[tuple[int, ...]]
) -> Iterator[int]:
    """Cell dimension for each one line w^(-1) in winvs, -1 where the cell is empty.

    The cell is nonempty when w^(-1) moves every root of X into the
    staircase; its dimension counts the inverted pairs outside the orbit
    ideal, and the inverted pairs inside it that land in the staircase.
    It must never factor w through a coset: it is the side that the
    harness compares with the coset route.
    """
    # values a > b of w^(-1) land in the staircase exactly when a is at most top[b]
    top = (0,) + h.values
    phi_x = tuple((a - 1, b - 1) for a, b in highest_form_roots(shape).sorted_roots())
    free, pinned = _position_pairs(shape)
    for winv in winvs:
        for a, b in phi_x:
            if winv[a] > top[winv[b]]:
                yield -1
                break
        else:
            dim = 0
            for i, j in free:
                if winv[i] > winv[j]:
                    dim += 1
            for i, j in pinned:
                if winv[j] < winv[i] <= top[winv[j]]:
                    dim += 1
            yield dim


@functools.lru_cache(maxsize=None)
def poincare_hessenberg(shape: Partition, h: HessenbergFunction) -> Poly:
    """Poincare polynomial of the Hessenberg variety, graded by complex cell dimension.

    Coefficient of t^k counts the permutations w whose cell is nonempty of
    dimension k; the sweep is exhaustive over S_n.  It streams the one line
    arrays of w^(-1) and builds no per degree table.

    >>> str(poincare_hessenberg(Partition((2, 2)), HessenbergFunction((2, 2, 4, 4))))
    '1 + 3t + 4t^2 + 3t^3 + t^4'
    """
    if shape.n != h.n:
        raise ValueError("degree mismatch")
    dims = _staircase_dims(shape, h, itertools.permutations(range(1, shape.n + 1)))
    return Poly.from_exponents(dim for dim in dims if dim >= 0)


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
    dims = _staircase_dims(shape, h_from_parabolic(p), _sn_inverse_images(shape.n))
    out = []
    for images, dim in zip(_sn_images(shape.n), dims):
        if dim >= 0:
            w = Permutation(images)
            v, y = coset_factor(w, p)
            out.append(HessCell(w=w, dim=dim, v=v, y=y))
    return tuple(out)
