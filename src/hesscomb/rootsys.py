"""Type A root system on index pairs.

A root is an ordered pair (i, j) with i != j, standing for e_i - e_j in
the usual coordinates; (i, j) with i < j corresponds to the positive root
a_i + a_(i+1) + ... + a_(j-1) where a_k = e_k - e_(k+1) is simple.  Working
with the pairs directly keeps the Weyl action and the matrix picture
(root (i, j) sits at matrix entry (i, j)) free of basis bookkeeping.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .symgroup import Permutation

Root = tuple[int, int]


def is_positive(root: Root) -> bool:
    return root[0] < root[1]


def _check_root(root: Root, n: int) -> None:
    i, j = root
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"not a root of degree {n}: {root}")


@dataclasses.dataclass(frozen=True)
class RootSet:
    """A set of roots together with the degree n they live in.

    Carrying n explicitly makes complements well defined; a bare set of
    pairs does not know which ambient root system it sits in.
    """

    n: int
    roots: frozenset[Root]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roots", frozenset(self.roots))
        for r in self.roots:
            _check_root(r, self.n)

    def __contains__(self, root: Root) -> bool:
        return root in self.roots

    def __iter__(self) -> Iterator[Root]:
        return iter(self.sorted_roots())

    def __len__(self) -> int:
        return len(self.roots)

    def sorted_roots(self) -> tuple[Root, ...]:
        return tuple(sorted(self.roots))


def positive_roots(n: int) -> tuple[Root, ...]:
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def root_act(w: Permutation, root: Root) -> Root:
    """Weyl action w.(e_i - e_j) = e_w(i) - e_w(j), i.e. (i, j) -> (w(i), w(j))."""
    _check_root(root, w.n)
    return (w(root[0]), w(root[1]))


def root_dominates(g: Root, h: Root) -> bool:
    """Strict dominance of positive roots: g > h in the root order.

    For positive (i, j) and (k, l) this says g - h is a nonzero sum of
    positive roots, which happens exactly when i <= k and l <= j with
    (i, j) != (k, l): the interval [k, l] nests strictly inside [i, j].
    """
    if not is_positive(g) or not is_positive(h):
        raise ValueError("dominance compares positive roots only")
    return g != h and g[0] <= h[0] and h[1] <= g[1]
