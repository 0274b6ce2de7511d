"""Schubert points and unions of Schubert varieties.

Every flag wB in a Springer fiber determines a Schubert point: the row
inversion numbers of its tableau become string lengths, string q-1 being
the run s_(q-l) ... s_(q-1), and the product of the strings from the top
down is a permutation whose length equals the cell dimension at wB.  For
shapes with at most three rows or at most two columns, the parabolic
Hessenberg variety has the same Poincare polynomial as the union of the
Schubert varieties indexed by these points times the longest element of
W_J; that comparison is packaged as a report here.

Points and tops travel as S_n indices (symgroup's lexicographic tables).
schubert_point computes one point, builds no S_n table and serves flags
of any degree; _point keeps, per flag asked for, the point's index and
right descents, so a query computes only the points it needs.  A top
point * w_J is the point with each J-block of positions reversed.  A
Bruhat lower ideal is one int over S_n (symgroup's bitsets): the OR of the
intervals [e, w] of its maximal tops, each an AND of rank count planes.
The functions that take or return Permutations convert at the edge.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from collections.abc import Iterable

from .hessvar import _min_rep_indices, h_from_parabolic, poincare_hessenberg
from .nilpotent import Partition, _row_inversion_vector
from .poly import Poly
from .symgroup import (
    ParabolicData,
    Permutation,
    _bit_indices,
    _descents,
    _rank_counts,
    _sn_images,
    _sn_length_planes,
    _sn_lengths,
    _sn_rank_planes,
    _split_index,
    perm_from_word,
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
    lengths = _row_inversion_vector(w, shape)
    if lengths is None:
        raise ValueError("flag is not in the Springer fiber")
    n = shape.n
    return perm_from_word([k for q in range(n, 1, -1) for k in range(q - lengths[q - 2], q)], n)


@functools.lru_cache(maxsize=None)
def _point(shape: Partition, idx: int) -> tuple[int, int]:
    """The Schubert point of the Springer fiber flag of S_n index idx, as
    an S_n index, and the point's right descents as a bitmask."""
    images = schubert_point(Permutation(_sn_images(shape.n)[idx]), shape).images
    return _split_index(shape.n)(images), _descents(images)


def _lower_ideal(tops: Iterable[int], n: int) -> tuple[int, list[int]]:
    """The Bruhat lower ideal of tops, given as S_n indices, as one int over
    S_n, and the maximal tops, longest first.

    A top whose bit is already set lies below a longer top, and distinct
    tops of equal length are incomparable, so every other top is maximal.
    """
    images = _sn_images(n)
    planes = _sn_rank_planes(n)
    full = (1 << len(images)) - 1
    ideal = 0
    maximal: list[int] = []
    for idx in sorted(set(tops), key=_sn_lengths(n).__getitem__, reverse=True):
        if ideal >> idx & 1:
            continue
        below = full
        for row, count in zip(planes, _rank_counts(images[idx])):
            if count < len(row):
                below &= row[count]
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


def _union_poly(tops: Iterable[int], n: int) -> Poly:
    """poincare_schubert_union of tops given as S_n indices."""
    ideal, _ = _lower_ideal(tops, n)
    return Poly(tuple((ideal & plane).bit_count() for plane in _sn_length_planes(n)))


def _union_tops(shape: Partition, p: ParabolicData) -> dict[int, int]:
    """Per v in springer_min_reps, by S_n index, the S_n index of v_T w_J.

    Each product is length additive because the Schubert point of a
    minimal coset representative is again one; a point with a descent in J
    is an internal error.
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    images = _sn_images(shape.n)
    j_mask = sum(1 << i for i in p.J)
    points = {}
    for v in _min_rep_indices(shape, p):
        point, descents = _point(shape, v)
        # l(point w_J) = l(point) + l(w_J) exactly when point lies in W^J
        if descents & j_mask:
            raise RuntimeError(
                f"product not reduced for v={Permutation(images[v])}: point {Permutation(images[point])}"
            )
        points[v] = point
    if not p.J:
        return points
    # (point w_J)(x) = point(w_J(x)): the point with each block of positions reversed
    reverse = operator.itemgetter(*(pos - 1 for block in p.blocks for pos in reversed(block)))
    index = _split_index(shape.n)
    return {v: index(reverse(images[point])) for v, point in points.items()}


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


def _poincare_pair(shape: Partition, p: ParabolicData) -> tuple[Poly, Poly, list[int]]:
    """The Hessenberg Poincare polynomial of (shape, J), that of its
    Schubert union, and the union's distinct tops as sorted S_n indices."""
    tops = sorted(set(_union_tops(shape, p).values()))
    return poincare_hessenberg(shape, h_from_parabolic(p)), _union_poly(tops, shape.n), tops


def compare_with_schubert_union(shape: Partition, p: ParabolicData) -> UnionComparison:
    """Compare both Poincare polynomials for one (shape, J) pair.

    Equality is a theorem inside the hypothesis regime; outside it the
    report is informational and nothing is asserted.
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    hess, union, tops = _poincare_pair(shape, p)
    images = _sn_images(shape.n)
    return UnionComparison(
        shape=shape,
        parabolic=p,
        hessenberg_poly=hess,
        schubert_union_poly=union,
        equal=hess == union,
        in_hypothesis=union_hypothesis(shape),
        tops=tuple(Permutation(images[idx]) for idx in tops),
    )
