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

import dataclasses
from typing import Any

from .nilpotent import Partition, springer_cell_dim
from .schubert import _lower_ideal, _union_tops
from .symgroup import ParabolicData, Permutation, _sn_images, longest_element


@dataclasses.dataclass(frozen=True)
class ComponentCandidate:
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
    images = _sn_images(shape.n)
    rows: list[tuple[Permutation, Permutation, int, int]] = []
    for v_idx, s_top in _union_tops(shape, p).items():
        v = Permutation(images[v_idx])
        rows.append((v, v * w_j, s_top, springer_cell_dim(v, shape) + len_wj))
    maximal = set(_lower_ideal((row[2] for row in rows), shape.n)[1])
    out = [
        ComponentCandidate(
            v=v,
            top_cell=top,
            schubert_top=Permutation(images[s_top]),
            cell_dim=dim,
            full_cell=dim == top.length(),
            bruhat_maximal=s_top in maximal,
        )
        for v, top, s_top, dim in rows
    ]
    out.sort(key=lambda c: (-c.cell_dim, c.v.images))
    return out
