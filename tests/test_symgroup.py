"""Symmetric group core: words, Bruhat order, cosets, strings."""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscomb import (
    ParabolicData,
    Partition,
    Permutation,
    bruhat_leq,
    coset_factor,
    enumerate_sn,
    identity,
    inversion_set,
    is_min_coset_rep,
    is_min_coset_rep_strings,
    longest_element,
    parabolics,
    partitions,
    perm_from_word,
    poincare_subgroup,
    string_decompose,
)
from hesscomb import harness
from hesscomb.nilpotent import _fiber_groups
from hesscomb.symgroup import (
    StringDecomposition,
    _bit_indices,
    _descents,
    _essential_counts,
    _length,
    _rank_counts,
    _sn_ascent_plane,
    _sn_image,
    _sn_length_planes,
    _sn_lengths,
    _sn_planes,
    _sn_rank_planes,
    _sn_sorting_masks,
    _split_index,
    _string_ascents,
    _string_lengths,
)

from conftest import (
    brute_poincare_subgroup,
    brute_subgroup,
    bruhat_leq_subword,
    built_tables,
    clear_caches,
    one_line_arrays,
    permutations_of,
    reduced_word_of,
    small_permutations,
)


# --- Permutation basics ----------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((2, 3))


def test_call_and_out_of_range():
    w = Permutation((3, 1, 2))
    assert [w(i) for i in (1, 2, 3)] == [3, 1, 2]
    with pytest.raises(ValueError):
        w(0)
    with pytest.raises(ValueError):
        w(4)


def test_composition_order():
    # (u * v)(x) = u(v(x))
    u = Permutation((2, 1, 3))
    v = Permutation((1, 3, 2))
    assert (u * v).images == (2, 3, 1)
    assert (v * u).images == (3, 1, 2)


def test_composition_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation((2, 1)) * Permutation((1, 2, 3))


def test_permutation_has_slots_not_a_dict():
    # the Schubert point memo holds two Permutations per fiber flag
    w = Permutation((2, 1))
    assert not hasattr(w, "__dict__")
    with pytest.raises(AttributeError):
        w.images = (1, 2)


def test_one_line_round_trip():
    w = Permutation((4, 1, 3, 2))
    assert w.one_line() == "4,1,3,2"
    assert Permutation(tuple(int(v) for v in "4,1,3,2".split(","))) == w
    assert str(w) == "4,1,3,2"


@given(small_permutations())
def test_inverse_is_inverse(w):
    assert w * w.inverse() == identity(w.n)
    assert w.inverse() * w == identity(w.n)


@given(small_permutations())
def test_length_of_inverse(w):
    assert w.length() == w.inverse().length()


def test_inversion_set_matches_length():
    for w in enumerate_sn(4):
        inv = inversion_set(w)
        assert len(inv) == w.length()
        for (i, j) in inv:
            assert i < j and w(i) > w(j)


# --- Words -----------------------------------------------------------------


def test_perm_from_word_examples():
    assert perm_from_word([], 3).images == (1, 2, 3)
    assert perm_from_word([1, 2], 3).images == (2, 3, 1)
    assert perm_from_word([1, 3, 2], 4).images == (2, 4, 1, 3)
    assert perm_from_word([2, 1, 3, 2], 4).images == (3, 4, 1, 2)
    assert perm_from_word([3, 2], 4).images == (1, 4, 2, 3)
    assert perm_from_word([1, 2, 3, 1], 4).images == (3, 2, 4, 1)


def test_perm_from_word_bad_letter():
    with pytest.raises(ValueError):
        perm_from_word([3], 3)
    with pytest.raises(ValueError):
        perm_from_word([0], 3)


def test_perm_from_word_is_right_multiplication():
    # appending a letter multiplies on the right
    for word in ([1], [2, 1], [1, 2, 1], [3, 1, 2]):
        w = perm_from_word(word, 4)
        head = perm_from_word(word[:-1], 4)
        s = perm_from_word(word[-1:], 4)
        assert w == head * s


@given(small_permutations(5))
def test_reduced_word_oracle_round_trip(w):
    word = reduced_word_of(w)
    assert len(word) == w.length()
    assert perm_from_word(word, w.n) == w


def test_enumerate_sn():
    perms = list(enumerate_sn(3))
    assert [p.images for p in perms] == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]
    assert len(list(enumerate_sn(5))) == math.factorial(5)
    with pytest.raises(ValueError):
        list(enumerate_sn(0))


# --- Bruhat order ----------------------------------------------------------


def test_bruhat_leq_pinned():
    e = identity(3)
    s1 = perm_from_word([1], 3)
    s1s2 = perm_from_word([1, 2], 3)
    w0 = Permutation((3, 2, 1))
    assert bruhat_leq(e, s1)
    assert bruhat_leq(s1, s1s2)
    assert not bruhat_leq(s1s2, s1)
    assert bruhat_leq(s1s2, w0)
    assert bruhat_leq(w0, w0)
    # s_1 and s_2 are incomparable
    s2 = perm_from_word([2], 3)
    assert not bruhat_leq(s1, s2)
    assert not bruhat_leq(s2, s1)


def test_bruhat_leq_matches_subword_oracle_exhaustive():
    for n in (1, 2, 3, 4):
        for u in enumerate_sn(n):
            for w in enumerate_sn(n):
                assert bruhat_leq(u, w) == bruhat_leq_subword(u, w), (u, w)


@given(permutations_of(5), permutations_of(5))
@settings(max_examples=200)
def test_bruhat_leq_matches_subword_oracle_s5(u, w):
    assert bruhat_leq(u, w) == bruhat_leq_subword(u, w)


def dominance_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order by comparing the dominance counts one by one."""
    n = u.n
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            below_u = sum(1 for j in range(i) if u.images[j] >= k)
            below_w = sum(1 for j in range(i) if w.images[j] >= k)
            if below_u > below_w:
                return False
    return True


@pytest.mark.parametrize("n", [31, 32, 40])
def test_bruhat_leq_large_degree_extremes(n):
    e = identity(n)
    w0 = Permutation(tuple(range(n, 0, -1)))
    assert bruhat_leq(e, w0)
    assert not bruhat_leq(w0, e)
    assert bruhat_leq(perm_from_word([n - 1], n), w0)


def _sort_at(images: list[int], positions: Iterable[int]) -> list[int]:
    """Sort the values at the given positions: a run of swaps that each undo
    an inversion, so the result lies below the input in Bruhat order."""
    positions = sorted(set(positions))
    out = list(images)
    for pos, val in zip(positions, sorted(images[pos] for pos in positions)):
        out[pos] = val
    return out


@st.composite
def bruhat_pairs(draw, max_n: int = 40):
    """(u, w) with u below w, or an unrelated u.

    w is random or close to the longest element, and u sorts a window or a
    scattered set of w's positions; a wide window under a high w makes the
    dominance counts of u and w differ by up to n / 2.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        w = list(draw(permutations_of(n)).images)
    else:
        w = _sort_at(list(range(n, 0, -1)), draw(st.sets(st.integers(0, n - 1), max_size=4)))
    kind = draw(st.sampled_from(("unrelated", "window", "scattered")))
    if kind == "unrelated":
        return draw(permutations_of(n)), Permutation(tuple(w))
    if kind == "window":
        lo, hi = sorted((draw(st.integers(0, n)), draw(st.integers(0, n))))
        positions: Iterable[int] = range(lo, hi)
    else:
        positions = draw(st.sets(st.integers(0, n - 1)))
    return Permutation(tuple(_sort_at(w, positions))), Permutation(tuple(w))


@given(bruhat_pairs())
@settings(max_examples=150, deadline=None)
def test_bruhat_leq_matches_direct_dominance_to_degree_40(pair):
    u, w = pair
    assert bruhat_leq(u, w) == dominance_leq(u, w)
    assert bruhat_leq(w, u) == dominance_leq(w, u)


@given(small_permutations(5), small_permutations(5))
def test_bruhat_leq_degree_mismatch_or_consistent(u, w):
    if u.n != w.n:
        with pytest.raises(ValueError):
            bruhat_leq(u, w)
    elif bruhat_leq(u, w) and bruhat_leq(w, u):
        assert u == w


# --- Parabolic data ---------------------------------------------------------


def test_parabolic_blocks_and_mu():
    p = ParabolicData.from_iterable(6, (1, 2, 5))
    assert p.blocks == ((1, 2, 3), (4,), (5, 6))
    assert p.mu == (3, 1, 2)


def test_parabolic_from_string():
    assert ParabolicData.from_string(4, "1,3").J == frozenset({1, 3})
    assert ParabolicData.from_string(4, "").J == frozenset()


def test_parabolic_validation():
    with pytest.raises(ValueError):
        ParabolicData.from_iterable(4, (4,))
    with pytest.raises(ValueError):
        ParabolicData.from_iterable(4, (0,))
    with pytest.raises(ValueError):
        ParabolicData.from_iterable(0, ())


def test_parabolic_str():
    assert str(ParabolicData.from_iterable(4, (3, 1))) == "1,3"
    assert str(ParabolicData.from_iterable(4, ())) == ""


def test_each_degree_enumerates_its_shapes_and_parabolics_once():
    clear_caches()
    shapes, subsets = partitions(4), parabolics(4)
    assert type(shapes) is tuple and type(subsets) is tuple
    assert partitions(4) is shapes and parabolics(4) is subsets
    assert [shape.parts for shape in shapes] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [str(p) for p in subsets] == ["", "1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"]
    clear_caches()
    assert partitions.cache_info().currsize == parabolics.cache_info().currsize == 0
    assert partitions(4) is not shapes and partitions(4) == shapes
    assert parabolics(4) is not subsets and parabolics(4) == subsets
    with pytest.raises(ValueError, match="degree must be at least 1"):
        partitions(0)


def test_brute_subgroup_matches_blocks():
    p = ParabolicData.from_iterable(4, (1, 3))
    members = {w.images for w in brute_subgroup(p)}
    assert members == {
        (1, 2, 3, 4),
        (2, 1, 3, 4),
        (1, 2, 4, 3),
        (2, 1, 4, 3),
    }


# --- Coset factorization ----------------------------------------------------


def test_coset_factor_example():
    v, y = coset_factor(Permutation((4, 3, 2, 1)), ParabolicData.from_iterable(4, (1, 3)))
    assert v.images == (3, 4, 1, 2)
    assert y.images == (2, 1, 4, 3)


def test_coset_factor_degree_mismatch():
    with pytest.raises(ValueError):
        coset_factor(Permutation((2, 1)), ParabolicData.from_iterable(3, ()))


@pytest.mark.parametrize("j", [(), (1,), (2,), (3,), (1, 3), (1, 2), (1, 2, 3)])
def test_coset_factor_properties_s4(j):
    p = ParabolicData.from_iterable(4, j)
    subgroup = {w.images for w in brute_subgroup(p)}
    for w in enumerate_sn(4):
        v, y = coset_factor(w, p)
        assert v * y == w
        assert y.images in subgroup
        assert is_min_coset_rep(v, p)
        assert v.length() + y.length() == w.length()


def test_is_min_coset_rep_is_shortest_in_coset():
    for n in (2, 3, 4):
        for p in parabolics(n):
            subgroup = brute_subgroup(p)
            for w in enumerate_sn(n):
                shortest = min((w * y).length() for y in subgroup)
                assert is_min_coset_rep(w, p) == (w.length() == shortest)


@pytest.mark.parametrize("n", range(1, 7))
def test_quotient_indices_are_the_min_coset_reps(n):
    # the fiber of (1^n) is all of S_n, so its flags in W^J are W^J
    perms = list(enumerate_sn(n))
    for p in parabolics(n):
        got = [idx for _, flags, _ in _fiber_groups(Partition((1,) * n), p.mask) for idx in flags]
        assert sorted(got) == [idx for idx, w in enumerate(perms) if is_min_coset_rep(w, p)]
        assert len(got) == math.factorial(n) // math.prod(math.factorial(m) for m in p.mu)


@pytest.mark.parametrize("n", range(1, 7))
def test_coset_table_is_the_coset_factor(n):
    # the coset sweep gathers each bit plane of each shape's excess at the
    # minimal representative v of w = v y, one plane per bit of the largest
    # excess, and their OR is the fiber's plane: both against planes read
    # off coset_factor one w at a time
    index = _split_index(n)
    perms = list(enumerate_sn(n))
    reps = {p: [index(coset_factor(w, p)[0].images) for w in perms] for p in parabolics(n)}
    seen = []
    for p, shape, gathered in harness._by_coset(n):
        excess = harness._excess(shape)
        levels = range(max(excess).bit_length())
        expected = [sum(1 << w for w, v in enumerate(reps[p]) if excess[v] >> level & 1) for level in levels]
        assert gathered == expected, (p, shape)
        in_fiber = sum(1 << w for w, v in enumerate(reps[p]) if excess[v])
        assert functools.reduce(int.__or__, gathered) == in_fiber, (p, shape)
        seen.append((p, shape))
    # shape by shape, so the sweep holds one shape's planes at a time, and
    # each shape's J depth first in the tree of block sizes, the first
    # block shortest first: every (shape, J) once
    assert len(set(seen)) == len(seen)
    assert seen == [(p, shape) for shape in partitions(n) for p in sorted(parabolics(n), key=lambda p: p.mu)]


# --- Per degree tables ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_sn_planes_layout(n):
    images = one_line_arrays(n)
    ge = _sn_planes(n)
    assert len(ge) == n
    full = (1 << math.factorial(n)) - 1
    for pos in range(n):
        assert len(ge[pos]) == n + 1
        assert ge[pos][0] == full and ge[pos][n] == 0
        for k in range(n + 1):
            assert list(_bit_indices(ge[pos][k])) == [
                idx for idx, w in enumerate(images) if w.index(pos + 1) >= k
            ]
        for val in range(n):
            # w^(-1)(pos + 1) = val + 1 exactly when w(val + 1) = pos + 1
            assert list(_bit_indices(ge[pos][val] ^ ge[pos][val + 1])) == [
                idx for idx, w in enumerate(images) if w[val] == pos + 1
            ]


@pytest.mark.parametrize("n", range(1, 7))
def test_sn_rank_planes_are_the_brute_counts(n):
    images = one_line_arrays(n)
    # (i, k) in the order of _rank_counts: i = 1..n-1 outer, k = 2..n inner
    pairs = [(i, k) for i in range(1, n) for k in range(2, n + 1)]
    rows = _sn_rank_planes(n)
    assert len(rows) == len(pairs)
    for w in images:
        assert _rank_counts(w) == tuple(sum(v >= k for v in w[:i]) for i, k in pairs)
    for (i, k), row in zip(pairs, rows):
        assert len(row) == min(i, n - k + 1)
        for c, plane in enumerate(row):
            assert list(_bit_indices(plane)) == [
                idx for idx, w in enumerate(images) if sum(v >= k for v in w[:i]) <= c
            ]


@pytest.mark.parametrize("n", range(1, 7))
def test_essential_counts_cut_the_interval_of_every_count(n):
    rows = _sn_rank_planes(n)
    full = (1 << math.factorial(n)) - 1
    for w in one_line_arrays(n):
        counts = _rank_counts(w)
        every = full
        for row, count in zip(rows, counts):
            if count < len(row):
                every &= row[count]
        essential = full
        for row, count in _essential_counts(w):
            assert count == counts[row] < len(rows[row])
            essential &= rows[row][count]
        assert essential == every, w


@pytest.mark.parametrize("n", range(1, 8))
def test_sn_lengths_by_blocks_are_the_inversion_counts(n):
    assert tuple(_sn_lengths(n)) == tuple(_length(w) for w in one_line_arrays(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_sn_length_planes_hold_each_index_at_its_length(n):
    planes = _sn_length_planes(n)
    assert len(planes) == n * (n - 1) // 2 + 1
    expected = [0] * len(planes)
    for idx, w in enumerate(one_line_arrays(n)):
        expected[_length(w)] |= 1 << idx
    assert list(planes) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_sn_image_unranks_the_split_index(n):
    image, index = _sn_image(n), _split_index(n)
    for idx, w in enumerate(one_line_arrays(n)):
        assert image(idx) == w
        assert index(image(idx)) == idx


def test_union_planes_read_no_other_table():
    # the rank and length planes have their own block recursion: the
    # Schubert union side shares no table with the staircase sweep
    clear_caches()
    _sn_rank_planes(7)
    _sn_length_planes(7)
    assert built_tables() == {"_sn_rank_planes": 7, "_sn_length_planes": 7}


def _sort_gather(ascents, moves, plane):
    return sum(((plane & sources) << shift for shift, sources in moves), plane & ascents)


@pytest.mark.parametrize("n", range(2, 9))
def test_ascent_planes_build_no_sorting_shift(n):
    # W^J for the Schubert union needs the ascents alone, not the moves,
    # and the plane of position i only the planes of i - 1, i - 2, ... below
    clear_caches()
    perms = one_line_arrays(n)
    for i in range(1, n):
        expected = [idx for idx, w in enumerate(perms) if w[i - 1] < w[i]]
        assert list(_bit_indices(_sn_ascent_plane(n, i))) == expected, i
        assert built_tables() == {"_sn_ascent_plane": i * (i + 1) // 2}


@pytest.mark.parametrize("n", range(1, 9))
def test_sorting_swaps_by_blocks_are_the_per_permutation_swaps(n):
    # the block recursion reads no other table but its own ascent planes,
    # not even the rank route
    clear_caches()
    masks = _sn_sorting_masks(n)
    tables = {"_sn_sorting_masks": n, "_sn_ascent_plane": n * (n - 1) // 2}
    assert built_tables() == {name: size for name, size in tables.items() if size}
    perms = one_line_arrays(n)
    rank = {w: idx for idx, w in enumerate(perms)}
    rng = random.Random(n)
    assert len(masks) == n - 1
    for i, (ascents, moves) in enumerate(masks, start=1):
        # of w and w s_i, the one with positions i and i + 1 sorted comes first
        swap = [rank[min(w, (*w[: i - 1], w[i], w[i - 1], *w[i + 1 :]))] for w in perms]
        assert list(_bit_indices(ascents)) == [idx for idx, target in enumerate(swap) if target == idx], i
        # the shifts move every descent, each once, to its swap
        moved = [(idx + shift, idx) for shift, sources in moves for idx in _bit_indices(sources)]
        assert sorted(moved) == [(idx, target) for idx, target in enumerate(swap) if target != idx], i
        # gathering {target} keeps the w that swap to it
        sorted_from = [[] for _ in perms]
        for idx, target in enumerate(swap):
            sorted_from[target].append(idx)
        singletons = range(len(perms)) if n <= 7 else (0, 1, len(perms) - 2, len(perms) - 1)
        for target in singletons:
            assert list(_bit_indices(_sort_gather(ascents, moves, 1 << target))) == sorted_from[target], (i, target)
        # and gathering any X keeps the w whose swap lies in X
        for _ in range(8):
            plane = rng.getrandbits(len(perms))
            members = set(_bit_indices(plane))
            expected = [idx for idx, target in enumerate(swap) if target in members]
            assert list(_bit_indices(_sort_gather(ascents, moves, plane))) == expected, (i, plane)


@pytest.mark.parametrize("n", range(1, 8))
def test_split_index_is_the_lexicographic_index(n):
    index = _split_index(n)
    assert [index(w) for w in one_line_arrays(n)] == list(range(math.factorial(n)))


def test_bit_indices():
    assert list(_bit_indices(0)) == []
    assert list(_bit_indices(1)) == [0]
    assert list(_bit_indices(0b1011000)) == [3, 4, 6]
    assert list(_bit_indices(1 << 5000 | 2)) == [1, 5000]


def test_longest_element_examples():
    assert longest_element(ParabolicData.from_iterable(4, (1, 3))).images == (2, 1, 4, 3)
    assert longest_element(ParabolicData.from_iterable(4, ())).images == (1, 2, 3, 4)
    assert longest_element(ParabolicData.from_iterable(4, (1, 2, 3))).images == (4, 3, 2, 1)


def test_longest_element_is_longest_in_subgroup():
    for n in (2, 3, 4):
        for p in parabolics(n):
            w_j = longest_element(p)
            members = brute_subgroup(p)
            assert w_j.images in {m.images for m in members}
            assert w_j.length() == max(m.length() for m in members)


# --- String decompositions ---------------------------------------------------


def test_string_decompose_examples():
    assert string_decompose(Permutation((4, 3, 2, 1))).strings == ((1,), (1, 2), (1, 2, 3))
    assert string_decompose(Permutation((2, 3, 1, 4))).strings == ((), (1, 2), ())
    assert string_decompose(identity(4)).strings == ((), (), ())


def test_string_decomposition_word_order():
    d = string_decompose(Permutation((4, 3, 2, 1)))
    assert d.word() == (1, 2, 3, 1, 2, 1)
    assert d.lengths() == (1, 2, 3)


def test_string_decomposition_validation():
    with pytest.raises(ValueError):
        StringDecomposition(((2,), ()))  # factor 1 must end at s_1
    with pytest.raises(ValueError):
        StringDecomposition(((), (1,)))  # factor 2 must end at s_2
    # a legal one for comparison
    StringDecomposition(((1,), (2,)))


def test_string_decompose_round_trip_s5():
    for w in enumerate_sn(5):
        d = string_decompose(w)
        assert perm_from_word(d.word(), d.n) == w
        assert sum(d.lengths()) == w.length()


def test_strings_criterion_matches_direct_test():
    for n in (1, 2, 3, 4, 5):
        for p in parabolics(n):
            for w in enumerate_sn(n):
                strings = string_decompose(w)
                assert is_min_coset_rep_strings(strings, p) == is_min_coset_rep(w, p), (w, p)


def test_descent_sets_of_both_routes():
    # D_R(3,1,4,2) = {1, 3}; its string lengths (1, 0, 2) rise at 1 and 3
    w = Permutation((3, 1, 4, 2))
    assert _descents(w.images) == 0b1010
    assert string_decompose(w).lengths() == (1, 0, 2)
    assert _string_ascents(string_decompose(w).lengths()) == 0b1010
    for n in range(1, 6):
        for w in enumerate_sn(n):
            # i is a right descent of w exactly when w s_i is shorter than w
            for i in range(1, n):
                shorter = (w * perm_from_word([i], n)).length() < w.length()
                assert bool(_descents(w.images) >> i & 1) == shorter
            assert _string_ascents(string_decompose(w).lengths()) == _descents(w.images)


def test_string_lengths_peel_the_decomposition():
    for n in range(1, 8):
        for w in one_line_arrays(n):
            assert _string_lengths(w) == string_decompose(Permutation(w)).lengths(), w


def test_strings_criterion_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        is_min_coset_rep_strings(string_decompose(identity(3)), ParabolicData(4, frozenset()))


# --- Poincare polynomial of W_J ----------------------------------------------


def test_poincare_subgroup_example():
    p = ParabolicData.from_iterable(4, (1, 3))
    assert str(poincare_subgroup(p)) == "1 + 2t + t^2"


def test_poincare_subgroup_full_group():
    p = ParabolicData.from_iterable(4, (1, 2, 3))
    assert poincare_subgroup(p).coeffs == (1, 3, 5, 6, 5, 3, 1)


def test_poincare_subgroup_matches_brute_histogram():
    for n in (1, 2, 3, 4, 5):
        for p in parabolics(n):
            assert poincare_subgroup(p).coeffs == brute_poincare_subgroup(p).coeffs


def test_poincare_subgroup_order():
    for p in parabolics(5):
        assert poincare_subgroup(p)(1) == len(brute_subgroup(p))
