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
checks take their staircase side from it.  The kernel adds up per shape
pieces: the pairs outside the orbit ideal, which do not depend on h
(_free_counter), and one piece per run of h, a maximal interval of
positions on which h is constant (_run_pieces), one run per step
(_staircase_step).  The runs of a block staircase are the blocks of J,
so the 2^(n-1) subsets J of a degree draw on C(n + 1, 2) pieces per
shape.  A piece is fixed by the run's positions and value alone; it
reads no coset, sorting mask or W^J set, so the kernel stays
independent of the coset route.  poincare_hessenberg
keeps its answers, and a caller that sweeps the planes anyway keeps the
polynomial there too (_planes_poincare), so each (shape, h) is swept
once.  springer_min_reps and poincare_parabolic_formula read the fiber
flags in W^J and their dimensions from nilpotent._fiber_groups, no table
over S_n; the formula adds one cached polynomial per descent group that
misses J (_group_polys).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence

from .nilpotent import (
    Partition,
    _fiber_groups,
    dominance_ideal_from_filling,
    highest_form_roots,
    springer_cell_dim,
)
from .poly import Poly
from .record import Record
from .rootsys import root_act
from .symgroup import (
    MAX_DEGREE,
    ParabolicData,
    Permutation,
    _bit_indices,
    _sn_image,
    _sn_planes,
    coset_factor,
    inversion_set,
    poincare_subgroup,
)


class HessenbergFunction(Record):
    """h: {1..n} -> {1..n} nondecreasing with h(i) >= i.

    >>> h = HessenbergFunction((2, 2, 4, 4))
    >>> h(1), h(3)
    (2, 4)
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]) -> None:
        values = tuple(values)
        n = len(values)
        if n < 1:
            raise ValueError("empty Hessenberg function")
        for i, v in enumerate(values, start=1):
            if not i <= v <= n:
                raise ValueError(f"h({i}) = {v} violates i <= h(i) <= {n}")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError(f"values must be nondecreasing: {values}")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range")
        return self.values[i - 1]

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

    A reference route of the test suite: it works one permutation at a
    time and reads no per degree table, so the tests can hold the fast
    routes against it; keep it off the fast path.
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

    A reference route of the test suite: it works one permutation at a
    time and reads no per degree table, so the tests can hold the fast
    routes against it; keep it off the fast path.

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

    A reference route of the test suite: it works one permutation at a
    time and reads no per degree table, so the tests can hold the fast
    routes against it; keep it off the fast path.
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
    image = _sn_image(shape.n)
    flags = itertools.chain.from_iterable(flags for _, flags, _ in _fiber_groups(shape, p.mask))
    return tuple(Permutation(image(idx)) for idx in sorted(flags))


def _staircase_negatives(h: HessenbergFunction) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for j in range(1, h.n + 1) for i in range(j + 1, h(j) + 1))


@functools.lru_cache(maxsize=None)
def _position_pairs(shape: Partition) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per 0 based position j, the positions i < j whose pair (i, j) lies
    outside the orbit ideal, and those whose pair lies inside it."""
    ideal = dominance_ideal_from_filling(shape).roots
    inside = [[i for i in range(j) if (i + 1, j + 1) in ideal] for j in range(shape.n)]
    return tuple((tuple(i for i in range(j) if i not in row), tuple(row)) for j, row in enumerate(inside))


def _runs(h: HessenbergFunction) -> Iterator[tuple[int, int, int]]:
    """The runs of h, as (s, e, top): the maximal intervals s..e of
    positions on which h takes one value, top.  For h_from_parabolic(p)
    they are the blocks of p.

    >>> list(_runs(HessenbergFunction((2, 2, 4, 4, 5))))
    [(1, 2, 2), (3, 4, 4), (5, 5, 5)]
    """
    s = 1
    for top, run in itertools.groupby(h.values):
        e = s + len(list(run)) - 1
        yield s, e, top
        s = e + 1


@functools.lru_cache(maxsize=math.comb(MAX_DEGREE + 1, 2))
def _run_pieces(shape: Partition, s: int, e: int, top: int) -> tuple[tuple[int, ...], int]:
    """What one run s..e of h with value top adds to the staircase planes
    of shape, over all of S_n: the bit sliced count of the inverted pairs
    inside the orbit ideal that land in the staircase from the run,
    s <= w^(-1)(j) <= e and w^(-1)(j) < w^(-1)(i) <= top, and the set of w
    that move some root (a, b) of X out of it, s <= w^(-1)(b) <= e and
    w^(-1)(a) > top.

    Every h whose runs include s..e with value top shares these pieces,
    and every J whose blocks include s..e; they read the value planes only.
    One shape's runs at the largest degree, C(MAX_DEGREE + 1, 2) of them,
    fit in the cache, so a sweep that goes shape by shape builds each once.
    """
    n = shape.n
    ge = _sn_planes(n)
    counter = _landed_count(n, [pinned for _, pinned in _position_pairs(shape)], s, e, top)
    outside = 0
    if top < n:
        for a, b in highest_form_roots(shape).sorted_roots():
            outside |= (ge[b - 1][s - 1] ^ ge[b - 1][e]) & ge[a - 1][top]
    return counter, outside


def _landed_count(n: int, rows: Iterable[tuple[int, ...]], s: int, e: int, top: int) -> tuple[int, ...]:
    """The bit sliced count, over all of S_n, of the pairs of 0 based
    positions (i, j), i in rows[j], with s <= w^(-1)(j + 1) <= e and
    w^(-1)(j + 1) < w^(-1)(i + 1) <= top: each pair adds its indicator
    plane.  _free_counter and _run_pieces count their pairs with it."""
    ge = _sn_planes(n)
    counter: list[int] = []
    for j, row in enumerate(rows):
        # w^(-1)(j + 1) = x + 1, at the positions x + 1 that some value above still fits
        at = [(ge[j][x] ^ ge[j][x + 1], x + 1) for x in range(s - 1, min(e, top - 1))]
        for i in row:
            _add_plane(counter, functools.reduce(int.__or__, (plane & (ge[i][above] ^ ge[i][top]) for plane, above in at), 0))
    return tuple(counter)


def _add_plane(counter: list[int], plane: int) -> None:
    """Add a 0/1 plane to a bit sliced counter, lowest bit plane first."""
    for level, bits in enumerate(counter):
        if not plane:
            return
        counter[level], plane = bits ^ plane, bits & plane
    if plane:
        counter.append(plane)


def _sliced_sum(a: Iterable[int], b: Iterable[int]) -> list[int]:
    """The sum of two bit sliced counters, lowest bit plane first, by
    ripple carry; the last plane is the carry out when it is not 0.

    >>> _sliced_sum([0b0110, 0b1010], [0b0101])
    [3, 14]
    """
    total = []
    carry = 0
    for x, y in itertools.zip_longest(a, b, fillvalue=0):
        total.append(x ^ y ^ carry)
        carry = x & y | carry & (x ^ y)
    if carry:
        total.append(carry)
    return total


def _staircase_step(
    shape: Partition, counter: Sequence[int], outside: int, s: int, e: int, top: int
) -> tuple[Sequence[int], int]:
    """The kernel's one step: the fold (counter, outside) of some runs of h
    extended by the run s..e with value top, its _run_pieces added to
    counter and ORed into outside.  An empty count leaves counter as is."""
    piece, moved = _run_pieces(shape, s, e, top)
    return (_sliced_sum(counter, piece) if piece else counter), outside | moved


def _staircase_planes(shape: Partition, h: HessenbergFunction) -> tuple[int, list[int]]:
    """The nonempty cells and their dimensions over all of S_n at once.

    Returns (members, counter): members, the w whose cell is nonempty,
    w^(-1) moves every root (a, b) of X into the staircase, w^(-1)(a) <=
    h(w^(-1)(b)), as a set over S_n, and the cell dimension of each member
    w bit sliced, bit k in counter[k], zero outside members.  The
    dimension counts the inverted pairs of w^(-1) outside the orbit ideal,
    which _free_counter counts once per shape, and the inverted pairs
    inside it whose values land in the staircase, w^(-1)(j) < w^(-1)(i) <=
    h(w^(-1)(j)), split by the run of h that holds w^(-1)(j), one
    _staircase_step per run.

    One kernel for every h, parabolic or not: it reads the value planes of
    w^(-1), h and the orbit ideal, and no coset, sorting mask or W^J plane.
    """
    counter, outside = _free_counter(shape), 0
    for run in _runs(h):
        counter, outside = _staircase_step(shape, counter, outside, *run)
    members = ((1 << math.factorial(shape.n)) - 1) ^ outside
    return members, [plane & members for plane in counter]


@functools.lru_cache(maxsize=None)
def _free_counter(shape: Partition) -> tuple[int, ...]:
    """The bit sliced count of the inverted pairs of w^(-1) outside the
    orbit ideal, over all of S_n: the part of the cell dimension that does
    not depend on h."""
    return _landed_count(shape.n, [free for free, _ in _position_pairs(shape)], 1, shape.n, shape.n)


def _dimension_sets(members: int, counter: Sequence[int]) -> list[int]:
    """cells[d]: the members whose bit sliced counter spells d, bits of
    counter off the members unread.  Each set splits by a plane into the
    part on it and the rest, its XOR with that part."""
    cells = [members]
    for plane in reversed(counter):
        cells = [part for whole in cells for high in (whole & plane,) for part in (whole ^ high, high)]
    return cells


# poincare_hessenberg's answers by (shape, h), filled by _planes_poincare
_poincare_memo: dict[tuple[Partition, HessenbergFunction], Poly] = {}


def _planes_poincare(shape: Partition, h: HessenbergFunction, members: int, counter: Sequence[int]) -> Poly:
    """The Poincare polynomial of (shape, h) from its _staircase_planes,
    kept as poincare_hessenberg's answer: a caller that sweeps the planes
    for its own use spares the later call a second sweep."""
    poly = _poincare_memo[shape, h] = Poly(map(int.bit_count, _dimension_sets(members, counter)))
    return poly


def poincare_hessenberg(shape: Partition, h: HessenbergFunction) -> Poly:
    """Poincare polynomial of the Hessenberg variety, graded by complex cell dimension.

    Coefficient of t^k counts the permutations w whose cell is nonempty of
    dimension k; the count is exhaustive over S_n, as popcounts of the
    staircase planes, and builds no per degree table besides _sn_planes.
    The answer is kept; a caller that swept the same planes may have kept
    it first (_planes_poincare).  Either way it comes from the staircase
    planes, never from cosets.

    >>> str(poincare_hessenberg(Partition((2, 2)), HessenbergFunction((2, 2, 4, 4))))
    '1 + 3t + 4t^2 + 3t^3 + t^4'
    """
    if shape.n != h.n:
        raise ValueError("degree mismatch")
    poly = _poincare_memo.get((shape, h))
    return _planes_poincare(shape, h, *_staircase_planes(shape, h)) if poly is None else poly


# whoever clears the package's functools caches empties the memo too
poincare_hessenberg.cache_clear = _poincare_memo.clear


def poincare_parabolic_formula(shape: Partition, p: ParabolicData) -> Poly:
    """Closed formula for the parabolic case: sum over springer_min_reps of
    t^(Springer cell dimension) times the Poincare polynomial of W_J.

    The flags in W^J are the descent groups that miss J, so the sum adds
    the groups' polynomials (_group_polys); it reads no staircase plane
    and no table over S_n.

    >>> str(poincare_parabolic_formula(Partition((2, 2)), ParabolicData(4, frozenset({1, 3}))))
    '1 + 3t + 4t^2 + 3t^3 + t^4'
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    width, groups = _group_polys(shape)
    packed = sum(poly for descents, poly in groups if not descents & p.mask)
    item = (1 << width) - 1
    coeffs = (packed >> shift & item for shift in range(0, packed.bit_length(), width))
    return Poly(coeffs) * poincare_subgroup(p)


@functools.lru_cache(maxsize=None)
def _group_polys(shape: Partition) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A width in bits, and per descent group of the fiber walk its
    descents and the polynomial of its flags' Springer dimensions packed
    into one int, the coefficient of t^d in bits d * width onwards.  The
    width holds n!, more flags than the groups of a shape have together,
    so adding the ints adds the polynomials."""
    width = math.factorial(shape.n).bit_length()
    return width, tuple(
        (descents, sum(1 << width * dim for dim in dims))
        for descents, _, dims in _fiber_groups(shape, 0)
    )


class HessCell(Record):
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
    image = _sn_image(shape.n)
    out = []
    for idx in sorted(dims):
        w = Permutation(image(idx))
        v, y = coset_factor(w, p)
        out.append(HessCell(w=w, dim=dims[idx], v=v, y=y))
    return tuple(out)
