"""Candidate irreducible components of parabolic Hessenberg varieties.

A parabolic Hessenberg variety is paved by cells indexed by products v*y
with v a minimal coset representative inside the Springer fiber and y in
the parabolic subgroup.  Closures of the top cells v*w_J are the natural
candidates for irreducible components.  Comparing their Schubert points
in Bruhat order gives a cheap necessary filter: a candidate whose
Schubert top sits strictly below another candidate's top cannot be a
component on its own.  The filter is heuristic evidence, not a proof, so
JSON output labels it heuristic_maximal.
"""

from __future__ import annotations

from typing import Any

from .nilpotent import Partition
from .record import Record
from .schubert import _lower_ideal, _point_groups, _times_w_j
from .symgroup import ParabolicData, Permutation, _sn_image, _sn_lengths, longest_element


class ComponentCandidate(Record):
    """One top cell v*w_J of a parabolic Hessenberg variety.

    cell_dim is the dimension of the cell indexed by v*w_J, which equals
    the Springer cell dimension of v plus the length of w_J.  full_cell
    records whether that cell exhausts the ambient Schubert cell, and
    bruhat_maximal whether schubert_top is maximal among the Schubert
    tops of all candidates for the same shape and parabolic.
    """

    v: Permutation
    top_cell: Permutation
    schubert_top: Permutation
    cell_dim: int
    full_cell: bool
    bruhat_maximal: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "v": list(self.v.images),
            "top_cell": list(self.top_cell.images),
            "schubert_top": list(self.schubert_top.images),
            "cell_dim": self.cell_dim,
            "full_cell": self.full_cell,
            "heuristic_maximal": self.bruhat_maximal,
        }


def component_candidates(shape: Partition, p: ParabolicData) -> list[ComponentCandidate]:
    """All component candidates, sorted by descending cell_dim then v.

    Candidates can realize distinct cell dimensions, so the variety need
    not be equidimensional; the sort surfaces the largest cells first.

    >>> one = component_candidates(Partition((1,)), ParabolicData.from_iterable(1, ()))
    >>> (str(one[0].v), one[0].cell_dim, one[0].full_cell, one[0].bruhat_maximal)
    ('1', 0, True, True)
    >>> cands = component_candidates(Partition((2, 1, 1)), ParabolicData.from_iterable(4, (1, 3)))
    >>> for c in cands:
    ...     print(str(c.v), str(c.schubert_top), c.cell_dim, c.full_cell, c.bruhat_maximal)
    2,3,1,4 3,2,4,1 4 True True
    3,4,1,2 4,1,3,2 4 False True
    1,3,2,4 3,1,4,2 3 True False
    1,2,3,4 2,1,4,3 2 True False
    """
    if p.n != shape.n:
        raise ValueError("degree mismatch")
    w_j = longest_element(p)
    len_wj = w_j.length()
    image = _sn_image(shape.n)
    lengths = _sn_lengths(shape.n)
    times_w_j = _times_w_j(p.blocks)
    rows = [row for _, flags, dims, points, _ in _point_groups(shape, p.mask) for row in zip(flags, dims, points)]
    # for u, v in W^J, u w_J <= v w_J exactly when u <= v
    maximal = set(_lower_ideal((point for _, _, point in rows), shape.n)[1])
    out = [
        ComponentCandidate(
            v=v,
            top_cell=v * w_j,
            schubert_top=Permutation(times_w_j(image(point))),
            cell_dim=sdim + len_wj,
            # v lies in W^J, so l(v w_J) = l(v) + l(w_J)
            full_cell=sdim == lengths[v_idx],
            bruhat_maximal=point in maximal,
        )
        for v_idx, sdim, point in rows
        for v in [Permutation(image(v_idx))]
    ]
    out.sort(key=lambda c: (-c.cell_dim, c.v.images))
    return out
