"""Shared oracles and strategies.

The oracles here recompute package answers by deliberately different
algorithms: Bruhat order by subword enumeration instead of dominance
counting, parabolic subgroups by brute filtering instead of block
products.  Tests compare the two routes exhaustively at small degrees.
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import strategies as st

from hesscomb import CHECKS, ParabolicData, Permutation, Poly, harness, perm_from_word


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
