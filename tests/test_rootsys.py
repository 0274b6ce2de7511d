"""Type A root bookkeeping."""

from __future__ import annotations

import pytest

from hesscomb import (
    HessenbergFunction,
    ParabolicData,
    Permutation,
    all_roots,
    hessenberg_roots,
    parabolic_roots,
    positive_roots,
    root_act,
    root_dominates,
    root_set,
)
from hesscomb.rootsys import is_positive


def test_positive_root_count():
    for n in range(1, 7):
        assert len(positive_roots(n)) == n * (n - 1) // 2
        assert len(all_roots(n)) == n * (n - 1)


def test_is_positive():
    assert is_positive((1, 3))
    assert not is_positive((3, 1))


def test_root_act():
    w = Permutation((3, 1, 2))
    assert root_act(w, (1, 2)) == (3, 1)
    assert root_act(w, (2, 3)) == (1, 2)


def test_root_act_inverse_cancels():
    w = Permutation((2, 4, 1, 3))
    for root in all_roots(4):
        assert root_act(w.inverse(), root_act(w, root)) == root


def test_root_set_membership_and_parts():
    s = root_set(3, [(1, 2), (3, 1)])
    assert (1, 2) in s
    assert (3, 1) in s
    assert (2, 3) not in s
    assert [r for r in s if is_positive(r)] == [(1, 2)]
    assert [r for r in s if not is_positive(r)] == [(3, 1)]
    assert len(s) == 2


def test_complement_positive():
    s = root_set(3, [(1, 2)])
    assert set(positive_roots(3)) - s.roots == {(1, 3), (2, 3)}


def test_root_dominates():
    # e_1 - e_4 strictly dominates e_2 - e_3: interval containment.
    assert root_dominates((1, 4), (2, 3))
    assert root_dominates((1, 4), (1, 3))
    assert root_dominates((1, 4), (2, 4))
    assert not root_dominates((1, 4), (1, 4))
    assert not root_dominates((2, 3), (1, 4))
    assert not root_dominates((1, 2), (2, 3))


def test_root_dominates_requires_positive():
    with pytest.raises(ValueError):
        root_dominates((2, 1), (1, 2))
    with pytest.raises(ValueError):
        root_dominates((1, 2), (3, 2))


def test_parabolic_roots():
    p = ParabolicData.from_iterable(4, (1, 3))
    assert parabolic_roots(p).sorted_roots() == ((1, 2), (2, 1), (3, 4), (4, 3))
    empty = ParabolicData.from_iterable(3, ())
    assert parabolic_roots(empty).sorted_roots() == ()


def test_hessenberg_roots():
    h = HessenbergFunction((2, 2, 4, 4))
    got = hessenberg_roots(h)
    # negatives e_i - e_j with j < i <= h(j), plus every positive root
    assert [r for r in got if not is_positive(r)] == [(2, 1), (4, 3)]
    assert tuple(r for r in got if is_positive(r)) == positive_roots(4)


def test_hessenberg_roots_identity_is_borel():
    h = HessenbergFunction.identity(4)
    got = hessenberg_roots(h)
    assert [r for r in got if not is_positive(r)] == []
    assert tuple(r for r in got if is_positive(r)) == positive_roots(4)


def test_hessenberg_roots_full_function_is_everything():
    h = HessenbergFunction((4, 4, 4, 4))
    assert set(hessenberg_roots(h)) == set(all_roots(4))
