"""Schubert points and unions of Schubert varieties.

Every flag wB in a Springer fiber determines a Schubert point: the row
inversion numbers of its tableau become string lengths, string q-1 being
the run s_(q-l) ... s_(q-1), and the product of the strings from the top
down is a permutation whose length equals the cell dimension at wB.  For
shapes with at most three rows or at most two columns, the parabolic
Hessenberg variety has the same Poincare polynomial as the union of the
Schubert varieties indexed by these points times the longest element of
W_J; that comparison is packaged as a report here.

schubert_point serves one flag of any degree: it scans the flag's
tableau and multiplies out the strings.  _points holds, per descent group
of the fiber walk, each flag's point as an S_n index (symgroup's
lexicographic tables) and its right descents, both carried by the walk
(nilpotent._fiber_by_descents), which adds c_q (q - 1)! over the row
inversion numbers c_q into a key K = index(w0 p w0) and reads a descent
of p at q - 1 where c_q > c_(q-1); it scans no tableau.
_point_groups joins the points to nilpotent._fiber_groups, checking that
they stay in W^J.  A top point * w_J is the point with each J-block of
positions reversed.  A Bruhat lower ideal is one int over S_n (symgroup's
bitsets): the OR of the intervals [e, w] of its maximal elements, each an
AND of the rank count planes at its essential cells.  For v in W^J,
[e, v w_J] = ([e, v] & W^J) W_J with lengths adding (projection to W^J
preserves Bruhat order, and the ideal below the longest element of a
coset is a union of cosets), so _poincare_pair, which main-theorem runs
for every (shape, J), forms no top: it ORs the ideals of the descent
groups that miss J (_group_ideal, built once per group with the OR of its
points' descents, which schubert-ideal reads too), ANDs W^J (_quotient),
counts by length and multiplies by the polynomial of W_J.  The tops are
one line arrays, formed only where they are listed (schubert_union_tops)
or printed (components).  The functions that take or return Permutations
convert at the edge.
"""

from __future__ import annotations

import array
import functools
import operator
from collections.abc import Callable, Iterable, Iterator

from .hessvar import h_from_parabolic, poincare_hessenberg
from .nilpotent import Partition, _fiber_by_descents, _fiber_groups, _row_inversion_vector
from .poly import Poly
from .record import Record
from .symgroup import (
    MAX_DEGREE,
    ParabolicData,
    Permutation,
    _bit_indices,
    _essential_counts,
    _sn_ascent_plane,
    _sn_image,
    _sn_length_planes,
    _sn_lengths,
    _sn_rank_planes,
    _split_index,
    perm_from_word,
    poincare_subgroup,
)


@functools.lru_cache(maxsize=None)
def schubert_point(w: Permutation, shape: Partition) -> Permutation:
    """The Schubert point of a flag in the Springer fiber: the permutation
    whose string_decompose lengths are the row inversion numbers of the
    flag's tableau, so its length is the Springer cell dimension at w.
    The point is the product of the strings, the highest first.

    >>> schubert_point(Permutation((3, 4, 1, 2)), Partition((2, 1, 1))).images
    (1, 4, 2, 3)
    """
    lengths = _row_inversion_vector(w.images, shape)
    if lengths is None:
        raise ValueError("flag is not in the Springer fiber")
    images = list(range(1, shape.n + 1))
    # right multiplying by the string s_(q-l) ... s_(q-1) moves the entry
    # at position q - l to position q
    for q in range(shape.n, 1, -1):
        images.insert(q - 1, images.pop(q - 1 - lengths[q - 2]))
    return Permutation(images)


@functools.lru_cache(maxsize=None)
def _points(shape: Partition, descents: int) -> tuple[array.array, array.array]:
    """The Schubert points of the fiber flags with right descents
    `descents`, aligned with that group of _fiber_by_descents: each as an
    S_n index, and each point's right descents as a bitmask, both from the
    walk.  The walk's key K is the index of w0 p w0, so p reverses and
    complements the permutation of K."""
    n = shape.n
    image, index = _sn_image(n), _split_index(n)
    _, _, keys, point_descents = _fiber_by_descents(shape)[descents]
    complement = (n + 1).__sub__
    return array.array("I", [index(tuple(map(complement, reversed(image(key))))) for key in keys]), point_descents


def _point_groups(
    shape: Partition, j_mask: int
) -> Iterator[tuple[int, array.array, array.array, array.array, array.array]]:
    """Per descent group of the fiber that misses j_mask, the flags in W^J:
    (descents, flags, dims, points, point_descents), flags and points as
    aligned S_n indices.  Each v_T w_J is length additive because the
    Schubert point of a minimal coset representative is again one; a point
    with a descent in J is an internal error."""
    for descents, flags, dims in _fiber_groups(shape, j_mask):
        points, point_descents = _points(shape, descents)
        # l(point w_J) = l(point) + l(w_J) exactly when point lies in W^J
        if any(map(j_mask.__and__, point_descents)):
            image = _sn_image(shape.n)
            v, point = next((v, pt) for v, pt, d in zip(flags, points, point_descents) if d & j_mask)
            raise RuntimeError(f"product not reduced for v={Permutation(image(v))}: point {Permutation(image(point))}")
        yield descents, flags, dims, points, point_descents


def _times_w_j(blocks: Iterable[tuple[int, ...]]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Right multiplication by w_J on one line arrays, J given by its blocks:
    (x w_J)(i) = x(w_J(i)), each block of positions reversed.  `tuple` when
    every block is one position, so w_J = e."""
    order = [pos - 1 for block in blocks for pos in reversed(block)]
    return tuple if order == sorted(order) else operator.itemgetter(*order)


def _lower_ideal(points: Iterable[int], n: int) -> tuple[int, list[int]]:
    """The Bruhat lower ideal of the permutations `points`, by S_n index,
    as one int over S_n, and its maximal points, longest first.

    A point whose bit is already set lies below a longer point, and
    distinct points of equal length are incomparable, so only the interval
    of every other distinct point is built, and the byte view of the ideal
    it is tested against needs making again only when the length drops.
    Each interval ANDs the rank planes of its essential counts alone.
    """
    image = _sn_image(n)
    lengths = _sn_lengths(n)
    planes = _sn_rank_planes(n)
    full = (1 << len(lengths)) - 1
    size = (len(lengths) + 7) // 8
    ideal = 0
    length = -1
    maximal: list[int] = []
    for idx in sorted(set(points), key=lengths.__getitem__, reverse=True):
        if lengths[idx] != length:
            length = lengths[idx]
            # bit idx of the ideal is bit idx & 7 of byte idx >> 3; a shift would copy the int
            view = ideal.to_bytes(size, "little")
        if view[idx >> 3] >> (idx & 7) & 1:
            continue
        below = full
        for row, count in _essential_counts(image(idx)):
            below &= planes[row][count]
        ideal |= below
        maximal.append(idx)
    return ideal, maximal


def _indices(perms: Iterable[Permutation], n: int) -> list[int]:
    """The S_n indices of permutations of degree n."""
    index = _split_index(n)
    out = []
    for w in perms:
        if w.n != n:
            raise ValueError("degree mismatch")
        out.append(index(w.images))
    return out


def bruhat_lower_ideal(tops: Iterable[Permutation], n: int) -> set[Permutation]:
    """All u in S_n below some element of tops in Bruhat order.

    A reference route of the test suite: the tests hold it against
    brute force Bruhat comparisons, and no harness check calls it.  Keep
    it a plain entry to _lower_ideal, off the fast path.

    >>> sorted(u.length() for u in bruhat_lower_ideal([perm_from_word([1, 2], 3)], 3))
    [0, 1, 1, 2]
    """
    image = _sn_image(n)
    ideal, _ = _lower_ideal(_indices(tops, n), n)
    return {Permutation(image(idx)) for idx in _bit_indices(ideal)}


def poincare_schubert_union(tops: Iterable[Permutation], n: int) -> Poly:
    """Poincare polynomial of a union of Schubert varieties, graded by length.

    Coefficient of t^k counts the Bruhat lower ideal elements of length k.

    A reference route of the test suite: the tests hold it against
    brute force Bruhat comparisons, and no harness check calls it.  Keep
    it a plain entry to _lower_ideal, off the fast path.

    >>> str(poincare_schubert_union([perm_from_word([1, 2, 3, 1], 4)], 4))
    '1 + 3t + 4t^2 + 3t^3 + t^4'
    """
    return _union_poly(_indices(tops, n), n)


def _union_poly(points: Iterable[int], n: int) -> Poly:
    """poincare_schubert_union of the permutations `points`, by S_n index."""
    ideal, _ = _lower_ideal(points, n)
    return Poly(tuple((ideal & plane).bit_count() for plane in _sn_length_planes(n)))


@functools.lru_cache(maxsize=2 ** (MAX_DEGREE - 1))
def _group_ideal(shape: Partition, descents: int) -> tuple[int, int]:
    """The Bruhat lower ideal of one descent group's points (_points), and
    the OR of their descents.  A shape has at most 2^(n - 1) groups, so
    the cache holds one shape's groups at the largest degree."""
    points, point_descents = _points(shape, descents)
    return _lower_ideal(points, shape.n)[0], functools.reduce(operator.or_, point_descents, 0)


def _quotient(p: ParabolicData) -> int:
    """W^J as one int over S_n: the AND of the ascent planes of the i in J."""
    full = (1 << len(_sn_lengths(p.n))) - 1
    return functools.reduce(operator.and_, (_sn_ascent_plane(p.n, i) for i in p.J), full)


def schubert_union_tops(shape: Partition, p: ParabolicData) -> tuple[Permutation, ...]:
    """The permutations v_T w_J over v in springer_min_reps, deduplicated, sorted.

    A reference route of the test suite and the tops that `union` lists;
    no harness check calls it.  Each distinct point of _point_groups has
    its J-blocks reversed, and the one line arrays sort in S_n index order.

    >>> [t.one_line() for t in schubert_union_tops(Partition((2, 2)), ParabolicData(4, frozenset({1, 3})))]
    ['2,1,4,3', '3,1,4,2', '4,1,3,2']
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    image, times_w_j = _sn_image(shape.n), _times_w_j(p.blocks)
    points = {point for _, _, _, group, _ in _point_groups(shape, p.mask) for point in group}
    return tuple(map(Permutation, sorted(times_w_j(image(point)) for point in points)))


def union_hypothesis(shape: Partition) -> bool:
    """Whether the Schubert union comparison is in its proved regime:
    at most three rows or at most two columns."""
    return shape.num_rows <= 3 or shape.num_cols <= 2


class UnionComparison(Record):
    """Comparison of the Hessenberg Poincare polynomial with the Schubert union."""

    shape: Partition
    parabolic: ParabolicData
    hessenberg_poly: Poly
    schubert_union_poly: Poly
    equal: bool
    in_hypothesis: bool
    tops: tuple[Permutation, ...]

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.shape.parts),
            "J": list(self.parabolic.sorted_j()),
            "hessenberg_poly": list(self.hessenberg_poly.coeffs),
            "schubert_union_poly": list(self.schubert_union_poly.coeffs),
            "equal": self.equal,
            "in_hypothesis": self.in_hypothesis,
            "tops": [list(t.images) for t in self.tops],
        }


def _poincare_pair(shape: Partition, p: ParabolicData) -> tuple[Poly, Poly]:
    """The Hessenberg Poincare polynomial of (shape, J) and that of its
    Schubert union: the points' ideal within W^J by length, times W_J's."""
    # the sweep first, so that its planes are freed before the ideals are built
    hess = poincare_hessenberg(shape, h_from_parabolic(p))
    ideal = reached = 0
    for descents in _fiber_by_descents(shape):
        if not descents & p.mask:
            group_ideal, reaches = _group_ideal(shape, descents)
            ideal |= group_ideal
            reached |= reaches
    if reached & p.mask:
        # a point outside W^J: _point_groups raises, naming the first one
        for _ in _point_groups(shape, p.mask):
            pass
    ideal &= _quotient(p)
    union = Poly(tuple((ideal & plane).bit_count() for plane in _sn_length_planes(shape.n)))
    return hess, union * poincare_subgroup(p)


def compare_with_schubert_union(shape: Partition, p: ParabolicData) -> UnionComparison:
    """Compare both Poincare polynomials for one (shape, J) pair.

    Equality is a theorem inside the hypothesis regime; outside it the
    report is informational and nothing is asserted.
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    hess, union = _poincare_pair(shape, p)
    return UnionComparison(
        shape=shape,
        parabolic=p,
        hessenberg_poly=hess,
        schubert_union_poly=union,
        equal=hess == union,
        in_hypothesis=union_hypothesis(shape),
        tops=schubert_union_tops(shape, p),
    )
