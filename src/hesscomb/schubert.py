"""Schubert points and unions of Schubert varieties.

Every flag wB in a Springer fiber determines a Schubert point: the row
inversion numbers of its tableau become string lengths, string q-1 being
the run s_(q-l) ... s_(q-1), and the product of the strings from the top
down is a permutation whose length equals the cell dimension at wB.  For
shapes with at most three rows or at most two columns, the parabolic
Hessenberg variety has the same Poincare polynomial as the union of the
Schubert varieties indexed by these points times the longest element of
W_J; that comparison is packaged as a report here.

A Bruhat lower ideal is one int over S_n (symgroup's bitsets): the OR of
the intervals [e, w] of its maximal tops, each an AND of rank count planes.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from collections.abc import Iterable

from .hessvar import poincare_hessenberg, h_from_parabolic, springer_min_reps
from .nilpotent import Partition, _row_inversion_vector, springer_contains
from .poly import Poly
from .symgroup import (
    ParabolicData,
    Permutation,
    _bit_indices,
    _rank_counts,
    _sn_images,
    _sn_length_planes,
    _sn_lengths,
    _sn_rank_planes,
    is_min_coset_rep,
    longest_element,
    perm_from_word,
)


@functools.lru_cache(maxsize=None)
def schubert_point(w: Permutation, shape: Partition) -> Permutation:
    """The Schubert point of a flag in the Springer fiber: the permutation
    whose string_decompose lengths are the row inversion numbers of the
    flag's tableau, so its length is the Springer cell dimension at w.

    >>> schubert_point(Permutation((3, 4, 1, 2)), Partition((2, 1, 1))).images
    (1, 4, 2, 3)
    """
    if not springer_contains(w, shape):
        raise ValueError("flag is not in the Springer fiber")
    lengths = _row_inversion_vector(w, shape)
    word: list[int] = []
    for q in range(shape.n, 1, -1):
        length = lengths[q - 2]
        word.extend(range(q - length, q))
    return perm_from_word(word, shape.n)


def _lower_ideal(tops: Iterable[Permutation], n: int) -> tuple[int, list[Permutation]]:
    """The Bruhat lower ideal of tops as one int over S_n, and the maximal
    tops, longest first.

    A top whose bit is already set lies below a longer top, and distinct
    tops of equal length are incomparable, so every other top is maximal.
    """
    images = _sn_images(n)
    lengths = _sn_lengths(n)
    by_index: dict[int, Permutation] = {}
    for top in tops:
        if top.n != n:
            raise ValueError("degree mismatch")
        by_index[bisect.bisect_left(images, top.images)] = top
    planes = _sn_rank_planes(n)
    full = (1 << len(images)) - 1
    ideal = 0
    maximal: list[Permutation] = []
    for idx in sorted(by_index, key=lengths.__getitem__, reverse=True):
        if ideal >> idx & 1:
            continue
        top = by_index[idx]
        below = full
        for row, count in zip(planes, _rank_counts(top.images)):
            if count < len(row):
                below &= row[count]
        ideal |= below
        maximal.append(top)
    return ideal, maximal


def bruhat_lower_ideal(tops: Iterable[Permutation], n: int) -> set[Permutation]:
    """All u in S_n below some element of tops in Bruhat order.

    >>> sorted(u.length() for u in bruhat_lower_ideal([perm_from_word([1, 2], 3)], 3))
    [0, 1, 1, 2]
    """
    images = _sn_images(n)
    ideal, _ = _lower_ideal(tops, n)
    return {Permutation(images[idx]) for idx in _bit_indices(ideal)}


def poincare_schubert_union(tops: Iterable[Permutation], n: int) -> Poly:
    """Poincare polynomial of a union of Schubert varieties, graded by length.

    Coefficient of t^k counts the Bruhat lower ideal elements of length k.

    >>> str(poincare_schubert_union([perm_from_word([1, 2, 3, 1], 4)], 4))
    '1 + 3t + 4t^2 + 3t^3 + t^4'
    """
    ideal, _ = _lower_ideal(tops, n)
    return Poly(tuple((ideal & plane).bit_count() for plane in _sn_length_planes(n)))


def schubert_union_tops(shape: Partition, p: ParabolicData) -> tuple[Permutation, ...]:
    """The permutations v_T w_J over v in springer_min_reps, deduplicated, sorted.

    Each product is length additive because the Schubert point of a
    minimal coset representative is again one.

    >>> [t.one_line() for t in schubert_union_tops(Partition((2, 2)), ParabolicData(4, frozenset({1, 3})))]
    ['2,1,4,3', '3,1,4,2', '4,1,3,2']
    """
    w_j = longest_element(p)
    tops = set()
    for v in springer_min_reps(shape, p):
        point = schubert_point(v, shape)
        # l(point w_J) = l(point) + l(w_J) exactly when point lies in W^J
        if not is_min_coset_rep(point, p):
            raise RuntimeError(
                f"product not reduced for v={v.one_line()}: point {point.one_line()}"
            )
        tops.add(point * w_j)
    return tuple(sorted(tops))


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


def compare_with_schubert_union(shape: Partition, p: ParabolicData) -> UnionComparison:
    """Compare both Poincare polynomials for one (shape, J) pair.

    Equality is a theorem inside the hypothesis regime; outside it the
    report is informational and nothing is asserted.
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    tops = schubert_union_tops(shape, p)
    hess = poincare_hessenberg(shape, h_from_parabolic(p))
    union = poincare_schubert_union(tops, shape.n)
    return UnionComparison(
        shape=shape,
        parabolic=p,
        hessenberg_poly=hess,
        schubert_union_poly=union,
        equal=hess == union,
        in_hypothesis=union_hypothesis(shape),
        tops=tops,
    )
