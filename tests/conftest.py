"""Shared oracles and strategies.

The oracles here recompute package answers by deliberately different
algorithms: Bruhat order by subword enumeration instead of dominance
counting, parabolic subgroups by brute filtering instead of block
products, the staircase kernel by a per permutation sweep, root sets by
listing pairs.  Tests compare the two routes exhaustively at small degrees.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator

import pytest
from hypothesis import strategies as st

from hesscomb import (
    CHECKS,
    HessenbergFunction,
    ParabolicData,
    Partition,
    Permutation,
    Poly,
    RootSet,
    harness,
    highest_form_roots,
    perm_from_word,
)
from hesscomb.hessvar import _position_pairs
from hesscomb.rootsys import Root


def reduced_word_of(w: Permutation) -> tuple[int, ...]:
    """A reduced word for w, peeled descent by descent from the right."""
    images = list(w.images)
    out: list[int] = []
    while True:
        descent = next(
            (i for i in range(1, len(images)) if images[i - 1] > images[i]), None
        )
        if descent is None:
            break
        images[descent - 1], images[descent] = images[descent], images[descent - 1]
        out.append(descent)
    return tuple(reversed(out))


@functools.lru_cache(maxsize=None)
def subword_ideal(images: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All one line arrays reachable as subwords of one reduced word of w.

    By the subword property of Coxeter groups this is exactly the Bruhat
    lower ideal of w, independent of the chosen reduced word.
    """
    n = len(images)
    word = reduced_word_of(Permutation(images))
    out = set()
    for mask in range(1 << len(word)):
        subword = [letter for k, letter in enumerate(word) if mask >> k & 1]
        out.add(perm_from_word(subword, n).images)
    return frozenset(out)


def bruhat_leq_subword(u: Permutation, w: Permutation) -> bool:
    """Subword oracle for Bruhat order."""
    return u.images in subword_ideal(w.images)


def brute_subgroup(p: ParabolicData) -> list[Permutation]:
    """W_J by brute filtering: permutations preserving every block setwise."""
    members = []
    for images in itertools.permutations(range(1, p.n + 1)):
        w = Permutation(images)
        if all(set(w(i) for i in block) == set(block) for block in p.blocks):
            members.append(w)
    return members


def brute_poincare_subgroup(p: ParabolicData) -> Poly:
    """Length histogram of the brute forced W_J."""
    return Poly.from_exponents(w.length() for w in brute_subgroup(p))


def all_roots(n: int) -> RootSet:
    roots = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    return RootSet(n, roots)


def root_set(n: int, roots: Iterable[Root]) -> RootSet:
    return RootSet(n, frozenset(roots))


def parabolic_roots(p: ParabolicData) -> RootSet:
    """Roots of the parabolic subsystem: both endpoints in one block of p."""
    return root_set(p.n, ((i, j) for block in p.blocks for i in block for j in block if i != j))


def hessenberg_roots(h: HessenbergFunction) -> RootSet:
    """Roots (i, j) with i <= h(j): the matrix positions allowed by h.

    Column j of the Hessenberg space holds nonzero entries in rows 1..h(j).
    Every positive root is a member; the negative members form the
    staircase below the diagonal.
    """
    return root_set(h.n, ((i, j) for j in range(1, h.n + 1) for i in range(1, h(j) + 1) if i != j))


def staircase_dims(
    shape: Partition, h: HessenbergFunction, winvs: Iterable[tuple[int, ...]]
) -> Iterator[int]:
    """Cell dimension for each one line w^(-1) in winvs, -1 where the cell
    is empty: the staircase kernel tested one permutation at a time.

    The cell is nonempty when w^(-1) moves every root of X into the
    staircase; its dimension counts the inverted pairs outside the orbit
    ideal, and the inverted pairs inside it that land in the staircase.
    """
    # values a > b of w^(-1) land in the staircase exactly when a is at most top[b]
    top = (0,) + h.values
    phi_x = tuple((a - 1, b - 1) for a, b in highest_form_roots(shape).sorted_roots())
    by_j = list(enumerate(_position_pairs(shape)))
    free = [(i, j) for j, (outside, _) in by_j for i in outside]
    pinned = [(i, j) for j, (_, inside) in by_j for i in inside]
    for winv in winvs:
        if any(winv[a] > top[winv[b]] for a, b in phi_x):
            yield -1
            continue
        yield sum(winv[i] > winv[j] for i, j in free) + sum(
            winv[j] < winv[i] <= top[winv[j]] for i, j in pinned
        )


def hessenberg_functions(n: int) -> list[HessenbergFunction]:
    """Every nondecreasing h with i <= h(i) <= n."""

    def gen(i: int, low: int):
        if i > n:
            yield ()
            return
        for value in range(max(low, i), n + 1):
            for rest in gen(i + 1, value):
                yield (value,) + rest

    return [HessenbergFunction(values) for values in gen(1, 1)]


@pytest.fixture
def fifteen_hundred_failures(monkeypatch):
    """Replace the phi-V-equivalence check by one recording 1500 failures,
    witnesses "0" to "1499"."""

    def check(n):
        failures = harness._FailureLog()
        for k in range(1500):
            failures.record(None, None, (k,))
        return 1500, failures

    monkeypatch.setitem(CHECKS, "phi-V-equivalence", check)


def permutations_of(n: int) -> st.SearchStrategy[Permutation]:
    return st.permutations(tuple(range(1, n + 1))).map(tuple).map(Permutation)


def small_permutations(max_n: int = 6) -> st.SearchStrategy[Permutation]:
    return st.integers(min_value=1, max_value=max_n).flatmap(permutations_of)


def small_partitions(max_n: int = 6) -> st.SearchStrategy[tuple[int, ...]]:
    """Partition part tuples of total size up to max_n."""

    def build(total: int) -> st.SearchStrategy[tuple[int, ...]]:
        def partitions_list(n: int) -> list[tuple[int, ...]]:
            def gen(remaining: int, cap: int):
                if remaining == 0:
                    yield ()
                    return
                for part in range(min(remaining, cap), 0, -1):
                    for rest in gen(remaining - part, part):
                        yield (part,) + rest

            return list(gen(n, n))

        return st.sampled_from(partitions_list(total))

    return st.integers(min_value=1, max_value=max_n).flatmap(build)
