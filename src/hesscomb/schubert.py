"""Schubert points and unions of Schubert varieties.

Every flag wB in a Springer fiber determines a Schubert point: the row
inversion numbers of its tableau become string lengths, string q-1 being
the run s_(q-l) ... s_(q-1), and the product of the strings from the top
down is a permutation whose length equals the cell dimension at wB.  For
shapes with at most three rows or at most two columns, the parabolic
Hessenberg variety has the same Poincare polynomial as the union of the
Schubert varieties indexed by these points times the longest element of
W_J; that comparison is packaged as a report here.

_string_product builds every point.  schubert_point serves one flag of
any degree; _points holds, per descent group of the fiber walk, each
flag's point as an S_n index (symgroup's lexicographic tables) and its
right descents, so a query for J computes only the groups in W^J.  A top
point * w_J is the point with each J-block of positions reversed.  A
Bruhat lower ideal is one int over S_n (symgroup's bitsets): the OR of the
intervals [e, w] of its maximal tops, each an AND of the rank count
planes at the top's essential cells.
The union's ideal is built from its points in W^J, which order their
tops as the tops order themselves, so it reads only the maximal points of
each descent group and forms only the maximal tops; every top is ranked
only where it is listed (_union_tops).  The functions that take or return
Permutations convert at the edge.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import itertools
import operator
from collections.abc import Callable, Iterable

from .hessvar import h_from_parabolic, poincare_hessenberg
from .nilpotent import Partition, _fiber_by_descents, _row_inversion_vector
from .poly import Poly
from .symgroup import (
    ParabolicData,
    Permutation,
    _bit_indices,
    _descents,
    _essential_counts,
    _sn_images,
    _sn_length_planes,
    _sn_lengths,
    _sn_rank_planes,
    _split_index,
    perm_from_word,
)


def _string_product(lengths: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The one line array of the product of the strings s_(q-l) ... s_(q-1),
    l = lengths[q - 2], for q = n down to 2: right multiplying by a string
    moves the entry at position q - l to position q."""
    images = list(range(1, n + 1))
    for q in range(n, 1, -1):
        images.insert(q - 1, images.pop(q - 1 - lengths[q - 2]))
    return tuple(images)


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
    return Permutation(_string_product(lengths, shape.n))


@functools.lru_cache(maxsize=None)
def _points(shape: Partition, descents: int) -> tuple[array.array, array.array]:
    """The Schubert points of the fiber flags with right descents
    `descents`, aligned with that group of _fiber_by_descents: each as an
    S_n index, and each point's right descents as a bitmask."""
    images = _sn_images(shape.n)
    group = _fiber_by_descents(shape)[descents]
    points = [_string_product(_row_inversion_vector(images[idx], shape), shape.n) for idx in group]
    return array.array("I", map(_split_index(shape.n), points)), array.array("I", map(_descents, points))


def _point_groups(shape: Partition, j_mask: int) -> list[tuple[array.array, array.array, array.array]]:
    """Per descent group of the fiber that misses j_mask, the flags in W^J:
    the flags as S_n indices, their points and the points' descents."""
    groups = _fiber_by_descents(shape).items()
    return [(flags, *_points(shape, descents)) for descents, flags in groups if not descents & j_mask]


def _times_w_j(blocks: Iterable[tuple[int, ...]]) -> Callable[[tuple[int, ...]], tuple[int, ...]] | None:
    """Right multiplication by w_J on one line arrays, J given by its blocks:
    (x w_J)(i) = x(w_J(i)), each block of positions reversed.  None when
    every block is one position, so w_J = e."""
    order = [pos - 1 for block in blocks for pos in reversed(block)]
    return None if order == sorted(order) else operator.itemgetter(*order)


def _lower_ideal(points: Iterable[int], n: int, blocks: Iterable[tuple[int, ...]] = ()) -> tuple[int, list[int]]:
    """The Bruhat lower ideal of the tops point * w_J (the points themselves
    without blocks), J given by its blocks and the points, in W^J, by S_n
    index, as one int over S_n, and the points of the maximal tops, longest
    first.

    For u, v in W^J, u <= v w_J exactly when u <= v (projection to W^J
    preserves Bruhat order, and v <= v w_J), so a top lies in the ideal
    exactly when its point does.  A point whose bit is already set has its
    top below a longer top, and distinct tops of equal length are
    incomparable, so only the top of every other distinct point is built,
    and the byte view of the ideal it is tested against needs making again
    only when the length drops.  Each top ANDs the rank planes of its
    essential counts alone.
    """
    images = _sn_images(n)
    lengths = _sn_lengths(n)
    planes = _sn_rank_planes(n)
    full = (1 << len(images)) - 1
    size = (len(images) + 7) // 8
    times_w_j = _times_w_j(blocks)
    ideal = 0
    length = -1
    maximal: list[int] = []
    # l(point w_J) = l(point) + l(w_J)
    for idx in sorted(set(points), key=lengths.__getitem__, reverse=True):
        if lengths[idx] != length:
            length = lengths[idx]
            # bit idx of the ideal is bit idx & 7 of byte idx >> 3; a shift would copy the int
            view = ideal.to_bytes(size, "little")
        if view[idx >> 3] >> (idx & 7) & 1:
            continue
        top = images[idx] if times_w_j is None else times_w_j(images[idx])
        below = full
        for row, count in _essential_counts(top):
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

    >>> sorted(u.length() for u in bruhat_lower_ideal([perm_from_word([1, 2], 3)], 3))
    [0, 1, 1, 2]
    """
    images = _sn_images(n)
    ideal, _ = _lower_ideal(_indices(tops, n), n)
    return {Permutation(images[idx]) for idx in _bit_indices(ideal)}


def poincare_schubert_union(tops: Iterable[Permutation], n: int) -> Poly:
    """Poincare polynomial of a union of Schubert varieties, graded by length.

    Coefficient of t^k counts the Bruhat lower ideal elements of length k.

    >>> str(poincare_schubert_union([perm_from_word([1, 2, 3, 1], 4)], 4))
    '1 + 3t + 4t^2 + 3t^3 + t^4'
    """
    return _union_poly(_indices(tops, n), n)


def _union_poly(points: Iterable[int], n: int, blocks: Iterable[tuple[int, ...]] = ()) -> Poly:
    """poincare_schubert_union of the tops of _lower_ideal(points, n, blocks)."""
    ideal, _ = _lower_ideal(points, n, blocks)
    return Poly(tuple((ideal & plane).bit_count() for plane in _sn_length_planes(n)))


def _quotient_points(shape: Partition, p: ParabolicData) -> dict[int, tuple[array.array, array.array]]:
    """Per descent set of the fiber walk that misses J, the flags v in
    springer_min_reps with those descents and their points, as S_n indices.
    Each v_T w_J is length additive because the Schubert point of a minimal
    coset representative is again one; a point with a descent in J is an
    internal error."""
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    j_mask = p.mask
    out = {}
    for descents, flags in _fiber_by_descents(shape).items():
        if descents & j_mask:
            continue
        points, point_descents = _points(shape, descents)
        # l(point w_J) = l(point) + l(w_J) exactly when point lies in W^J
        if any(map(j_mask.__and__, point_descents)):
            images = _sn_images(shape.n)
            v, point = next((v, pt) for v, pt, d in zip(flags, points, point_descents) if d & j_mask)
            raise RuntimeError(f"product not reduced for v={Permutation(images[v])}: point {Permutation(images[point])}")
        out[descents] = flags, points
    return out


@functools.lru_cache(maxsize=None)
def _group_maxima(shape: Partition, descents: int) -> list[int]:
    """The points of one descent group of _points that lie below no other
    point of the group in Bruhat order."""
    return _lower_ideal(_points(shape, descents)[0], shape.n)[1]


def _union_tops(shape: Partition, p: ParabolicData) -> dict[int, int]:
    """Per v in springer_min_reps, by S_n index, the S_n index of v_T w_J."""
    images = _sn_images(shape.n)
    pairs = ((v, point) for flags, points in _quotient_points(shape, p).values() for v, point in zip(flags, points))
    times_w_j = _times_w_j(p.blocks)
    if times_w_j is None:
        return dict(pairs)
    index = _split_index(shape.n)
    return {v: index(times_w_j(images[point])) for v, point in pairs}


def schubert_union_tops(shape: Partition, p: ParabolicData) -> tuple[Permutation, ...]:
    """The permutations v_T w_J over v in springer_min_reps, deduplicated, sorted.

    >>> [t.one_line() for t in schubert_union_tops(Partition((2, 2)), ParabolicData(4, frozenset({1, 3})))]
    ['2,1,4,3', '3,1,4,2', '4,1,3,2']
    """
    images = _sn_images(shape.n)
    return tuple(Permutation(images[idx]) for idx in sorted(set(_union_tops(shape, p).values())))


def union_hypothesis(shape: Partition) -> bool:
    """Whether the Schubert union comparison is in its proved regime:
    at most three rows or at most two columns."""
    return shape.num_rows <= 3 or shape.num_cols <= 2


@dataclasses.dataclass(frozen=True)
class UnionComparison:
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
    Schubert union.  A point below another of its descent group stays below
    it times w_J, both in W^J, so the groups' maximal points bound the union."""
    groups = _quotient_points(shape, p)
    points = itertools.chain.from_iterable(_group_maxima(shape, descents) for descents in groups)
    return poincare_hessenberg(shape, h_from_parabolic(p)), _union_poly(points, shape.n, p.blocks)


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
