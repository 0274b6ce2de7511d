"""The symmetric group S_n: one line notation, Bruhat order, parabolic cosets.

Conventions, fixed once for the whole package:

* A permutation stores its one line notation, images (w(1), ..., w(n)),
  with values 1..n.
* Composition is right to left, (u * v)(x) = u(v(x)).  A word in the
  simple transpositions s_1, ..., s_(n-1) multiplies in the written
  order, so the word [2, 1, 3, 2] means s2 s1 s3 s2 and the rightmost
  letter acts first.
* The subset J of {1, ..., n-1} names simple transpositions generating a
  parabolic subgroup W_J; its blocks are the maximal runs of positions
  glued by J, and w lies in W^J when J meets no right descent of w.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import itertools
import math
import operator
from collections.abc import Callable, Container, Iterable, Iterator, Sequence

from .poly import Poly, t_factorial
from .rootsys import Root, RootSet

# Largest degree the single CLI queries accept.  They sweep all of S_n, and
# from degree 10 on the sweeps take ten times longer and the tables gigabytes.
MAX_DEGREE = 9
# Largest degree of the exhaustive harness sweeps (run_checks and census),
# which visit every shape and every J of a degree.
MAX_SWEEP_DEGREE = 8


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class Permutation:
    """A permutation of {1, ..., n} in one line notation.

    >>> w = Permutation((3, 1, 4, 2))
    >>> w(1), w(4)
    (3, 2)
    >>> w.inverse().images
    (2, 4, 1, 3)
    >>> w.length()
    3
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range for degree {self.n}")
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition (self * other)(x) = self(other(x))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[x - 1] for x in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for pos, val in enumerate(self.images, start=1):
            inv[val - 1] = pos
        return Permutation(tuple(inv))

    def length(self) -> int:
        """Coxeter length: the number of inversions."""
        return _length(self.images)

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)

    def __str__(self) -> str:
        return self.one_line()


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def perm_from_word(word: Sequence[int], n: int) -> Permutation:
    """Product of simple transpositions named by `word`, empty word giving e.

    >>> perm_from_word([1, 3, 2], 4).images
    (2, 4, 1, 3)
    >>> perm_from_word([2, 1, 3, 2], 4).images
    (3, 4, 1, 2)
    """
    images = list(range(1, n + 1))
    for k in word:
        if not 1 <= k <= n - 1:
            raise ValueError(f"generator index {k} out of range for degree {n}")
        # right multiplication by s_k swaps the entries at positions k, k+1,
        # so reading the word left to right applies the rightmost letter first
        images[k - 1], images[k] = images[k], images[k - 1]
    return Permutation(tuple(images))


def enumerate_sn(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one line order."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def inversion_set(w: Permutation) -> RootSet:
    """N(w): positive roots (i, j) with i < j and w(i) > w(j), i.e. those sent negative."""
    return RootSet(w.n, frozenset(_inversions(w.images)))


def _inversions(images: tuple[int, ...]) -> tuple[Root, ...]:
    n = len(images)
    return tuple(
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if images[i] > images[j]
    )


def _length(images: tuple[int, ...]) -> int:
    n = len(images)
    return sum(1 for i in range(n) for j in range(i + 1, n) if images[i] > images[j])


# ---------------------------------------------------------------------------
# Bruhat order via the dominance criterion (Bjorner-Brenti, Combinatorics
# of Coxeter Groups, Thm 2.1.5): u <= w exactly when for all i, k
#     #{j <= i : u(j) >= k}  <=  #{j <= i : w(j) >= k}.
# The counts for i = n or k = 1 are the same for every permutation, so only
# i = 1..n-1 and k = 2..n are kept.  The subword characterization of Bruhat
# order is kept in the test suite as an independent oracle.
# ---------------------------------------------------------------------------


def _rank_counts(images: Sequence[int]) -> tuple[int, ...]:
    """#{j <= i : w(j) >= k} for i = 1..n-1 (outer) and k = 2..n (inner)."""
    ranks = [0] * (len(images) + 1)
    counts: list[int] = []
    for value in images[:-1]:
        for k in range(2, value + 1):
            ranks[k] += 1
        counts.extend(ranks[2:])
    return tuple(counts)


def _essential_counts(images: Sequence[int]) -> list[tuple[int, int]]:
    """The counts of _rank_counts that already decide u <= w, as (row, count)
    pairs, row the count's place in _rank_counts: the essential cells
    (i, k) with w(i) < k <= w(i + 1) and w^(-1)(k - 1) <= i < w^(-1)(k)
    (Fulton's essential set, Duke Math. J. 65, 1992, in this count
    convention).  No such count is the largest value of its row.

    >>> _essential_counts((1, 3, 2))
    [(0, 0)]
    >>> _essential_counts((2, 4, 1, 3))
    [(1, 0), (7, 1)]
    """
    n = len(images)
    position = [0] * (n + 1)
    for pos, value in enumerate(images, start=1):
        position[value] = pos
    out = []
    for i in range(1, n):
        for k in range(images[i - 1] + 1, images[i] + 1):
            if position[k - 1] <= i < position[k]:
                out.append(((i - 1) * (n - 1) + k - 2, sum(value >= k for value in images[:i])))
    return out


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order on S_n by the dominance criterion.

    >>> u = perm_from_word([2, 3], 4)
    >>> w = perm_from_word([1, 2, 3, 1], 4)
    >>> bruhat_leq(u, w)
    True
    """
    if u.n != w.n:
        raise ValueError("degree mismatch")
    return all(a <= b for a, b in zip(_rank_counts(u.images), _rank_counts(w.images)))


# ---------------------------------------------------------------------------
# Parabolic subgroups and their cosets.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ParabolicData:
    """A subset J of {1, ..., n-1} with its block decomposition of positions.

    Positions i and i+1 share a block exactly when i lies in J, so the
    blocks are the maximal consecutive runs glued by J and W_J permutes
    each block separately.

    >>> p = ParabolicData(4, frozenset({1, 3}))
    >>> p.blocks
    ((1, 2), (3, 4))
    >>> p.mu
    (2, 2)
    """

    n: int
    J: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "J", frozenset(self.J))
        if self.n < 1:
            raise ValueError("degree must be at least 1")
        bad = [i for i in self.J if not 1 <= i <= self.n - 1]
        if bad:
            raise ValueError(f"J members out of range 1..{self.n - 1}: {sorted(bad)}")

    @staticmethod
    def from_iterable(n: int, j: Iterable[int]) -> ParabolicData:
        return ParabolicData(n, frozenset(j))

    @staticmethod
    def from_string(n: int, text: str) -> ParabolicData:
        """Parse "1,3"; the empty string names the empty set."""
        j = frozenset(int(part) for part in text.split(",")) if text else frozenset()
        return ParabolicData(n, j)

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        blocks: list[tuple[int, ...]] = []
        current = [1]
        for i in range(1, self.n):
            if i in self.J:
                current.append(i + 1)
            else:
                blocks.append(tuple(current))
                current = [i + 1]
        blocks.append(tuple(current))
        return tuple(blocks)

    @functools.cached_property
    def mu(self) -> tuple[int, ...]:
        """Block sizes, the composition of n determined by J."""
        return tuple(len(block) for block in self.blocks)

    @functools.cached_property
    def mask(self) -> int:
        """J as a bitmask, bit i for each i in J, as _descents writes sets."""
        return sum(1 << i for i in self.J)

    def sorted_j(self) -> tuple[int, ...]:
        return tuple(sorted(self.J))

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.sorted_j())


def parabolics(n: int) -> list[ParabolicData]:
    """Every subset J of {1, ..., n-1}, by size then lexicographically.

    >>> [str(p) for p in parabolics(3)]
    ['', '1', '2', '1,2']
    """
    return [
        ParabolicData.from_iterable(n, combo)
        for size in range(n)
        for combo in itertools.combinations(range(1, n), size)
    ]


def coset_factor(w: Permutation, p: ParabolicData) -> tuple[Permutation, Permutation]:
    """Factor w = v * y with v a minimal coset representative and y in W_J.

    Within each block, y arranges the positions so that v lists the block's
    w-values in increasing order; lengths add, l(w) = l(v) + l(y).

    >>> v, y = coset_factor(Permutation((4, 3, 2, 1)), ParabolicData(4, frozenset({1, 3})))
    >>> v.images, y.images
    ((3, 4, 1, 2), (2, 1, 4, 3))
    """
    if w.n != p.n:
        raise ValueError("degree mismatch")
    yinv = [0] * p.n
    for block in p.blocks:
        for pos, src in zip(block, sorted(block, key=lambda q: w.images[q - 1])):
            yinv[pos - 1] = src
    y_inverse = Permutation(tuple(yinv))
    v = w * y_inverse
    return v, y_inverse.inverse()


def is_min_coset_rep(w: Permutation, p: ParabolicData) -> bool:
    """True when w is the shortest element of its coset w W_J.

    Equivalent to w increasing across every pair glued by J, w(i) < w(i+1)
    for all i in J: J meets no right descent of w.
    """
    if w.n != p.n:
        raise ValueError("degree mismatch")
    return not _descents(w.images) & p.mask


def _descents(images: Sequence[int]) -> int:
    """The right descent set D_R(w) as a bitmask, bit i when w(i) > w(i+1)."""
    return sum(1 << i for i in range(1, len(images)) if images[i - 1] > images[i])


def longest_element(p: ParabolicData) -> Permutation:
    """The longest element w_J of W_J: each block reversed in place.

    >>> longest_element(ParabolicData(4, frozenset({1, 3}))).images
    (2, 1, 4, 3)
    """
    images = [0] * p.n
    for block in p.blocks:
        lo, hi = block[0], block[-1]
        for pos in block:
            images[pos - 1] = hi - (pos - lo)
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# String decompositions: w = w_(n-1) w_(n-2) ... w_1 where each factor is
# either empty or a consecutive run s_k s_(k+1) ... s_i ending at s_i.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StringDecomposition:
    """Factor strings (w_1, ..., w_(n-1)), each a run of generator indices.

    strings[i-1] holds the word of w_i, so it is either () or a tuple
    (k, k+1, ..., i); the concatenated product w_(n-1) ... w_1 is reduced.
    """

    strings: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strings", tuple(tuple(s) for s in self.strings))
        for i, string in enumerate(self.strings, start=1):
            if string and string != tuple(range(string[0], i + 1)):
                raise ValueError(f"factor {i} is not a run ending at s_{i}: {string}")

    @property
    def n(self) -> int:
        return len(self.strings) + 1

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strings)

    def word(self) -> tuple[int, ...]:
        """The reduced word of the product, factors written top index first."""
        out: list[int] = []
        for string in reversed(self.strings):
            out.extend(string)
        return tuple(out)


def string_decompose(w: Permutation) -> StringDecomposition:
    """Peel the unique string decomposition off the top of w.

    The highest factor must send n to w(n): it is empty when w(n) = n and
    otherwise is the run s_k ... s_(n-1) with k = w(n).  Stripping it off
    fixes n and the lower factors follow by recursion.

    >>> string_decompose(Permutation((4, 3, 2, 1))).strings
    ((1,), (1, 2), (1, 2, 3))
    >>> string_decompose(Permutation((2, 3, 1, 4))).strings
    ((), (1, 2), ())
    """
    vals = list(w.images)
    strings: list[tuple[int, ...]] = [()] * (w.n - 1)
    for m in range(w.n, 1, -1):
        k = vals[m - 1]
        if k == m:
            continue
        strings[m - 2] = tuple(range(k, m))
        # multiply by the factor's inverse: relabel value k to m and slide
        # the values in (k, m] down by one, which fixes position m
        vals = [m if val == k else (val - 1 if k < val <= m else val) for val in vals]
    return StringDecomposition(tuple(strings))


def is_min_coset_rep_strings(strings: StringDecomposition, p: ParabolicData) -> bool:
    """Minimal coset representative test read off the string lengths.

    w is shortest in w W_J exactly when l(w_i) <= l(w_(i-1)) for every
    i in J, with l(w_0) taken to be 0; strings is string_decompose(w).
    """
    if strings.n != p.n:
        raise ValueError("degree mismatch")
    return not _string_ascents(strings) & p.mask


def _string_ascents(strings: StringDecomposition) -> int:
    """Bit i set when l(w_i) > l(w_(i-1)), with l(w_0) = 0; for
    strings = string_decompose(w) it is the right descent set of w."""
    lengths = (0, *strings.lengths())
    return sum(1 << i for i in range(1, len(lengths)) if lengths[i] > lengths[i - 1])


@functools.lru_cache(maxsize=None)
def poincare_subgroup(p: ParabolicData) -> Poly:
    """Poincare polynomial of W_J by length: the product of block t-factorials.

    >>> str(poincare_subgroup(ParabolicData(4, frozenset({1, 3}))))
    '1 + 2t + t^2'
    """
    out = Poly.one()
    for size in p.mu:
        out = out * t_factorial(size)
    return out


# ---------------------------------------------------------------------------
# Cached per degree tables, aligned with the lexicographic order of S_n:
# one line arrays, their index, lengths, the adjacent sorting swaps and
# coset representatives.  They serve the harness sweeps and per shape
# tables.  A set of permutations can also be one int,
# bit i standing for the permutation of index i.  In that form _sn_planes
# holds the value planes of w^(-1), and a poincare_hessenberg query builds
# them and no other table; _sn_rank_planes and _sn_length_planes hold the
# rank count and length planes that Bruhat lower ideals are counted with.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _sn_images(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(1, n + 1)))


@functools.lru_cache(maxsize=None)
def _split_index(n: int) -> Callable[[tuple[int, ...]], int]:
    """The S_n index of a one line array as head[w[:h]] + tail[w[h:]], h =
    n // 2: two tables of 18,144 entries in all at n = 9, not one of 9!
    entries over S_n.  The arrays with one head are a run of (n - h)!
    indices, the heads in lexicographic order, and within the run the tail
    is ranked among the orderings of its values."""
    h = n // 2
    values = range(1, n + 1)
    size = math.factorial(n - h)
    head = {part: rank * size for rank, part in enumerate(itertools.permutations(values, h))}
    tail = {
        part: rank
        for rest in itertools.combinations(values, n - h)
        for rank, part in enumerate(itertools.permutations(rest))
    }
    return lambda images: head[images[:h]] + tail[images[h:]]


@functools.lru_cache(maxsize=None)
def _sn_lengths(n: int) -> tuple[int, ...]:
    """l(w) per S_n index.  Block b of S_n holds w(1) = b + 1, which is
    inverted with the b smaller values, and a relabelled S_(n-1) in its
    tail, so the block reads b + l for each l one degree lower."""
    if n <= 1:
        return (0,)
    below = _sn_lengths(n - 1)
    return tuple(b + length for b in range(n) for length in below)


@functools.lru_cache(maxsize=None)
def _sn_planes(n: int) -> tuple[tuple[int, ...], ...]:
    """Value planes of w^(-1) over S_n, positions 0 based.

    ge[pos][k] is the set of w with w^(-1)(pos + 1) >= k + 1, for k = 0..n:
    ge[pos][0] is all of S_n, ge[pos][n] is empty, and ge[pos][k] ^
    ge[pos][k + 1] is the set with w^(-1)(pos + 1) = k + 1, that is
    w(k + 1) = pos + 1.  In lexicographic order S_n is n blocks of (n-1)!
    permutations, block b holding w(1) = b + 1 and a relabelled S_(n-1) in
    its tail, so each plane of degree n is an OR of shifted planes of
    degree n - 1 and no permutation is visited.
    """
    below = _sn_planes(n - 1) if n > 1 else ()
    size = math.factorial(n - 1)
    full = (1 << n * size) - 1
    planes = []
    for pos in range(n):
        # block pos, where w(1) = pos + 1, lies in ge[pos][0] only; any other
        # block b holds S_(n-1) in its tail, values above b + 1 moved down by one
        tails = [(b * size, below[pos - (pos > b)]) for b in range(n) if b != pos]
        planes.append((full, *(sum(row[k] << shift for shift, row in tails) for k in range(n))))
    return tuple(planes)


@functools.lru_cache(maxsize=None)
def _byte_map(values: Container[int], to: bytes = b"01") -> bytes:
    """A bytes.translate table: each byte in values to to[1], any other to to[0]."""
    return bytes(to[value in values] for value in range(256))


def _bitset(data: bytes, values: Container[int]) -> int:
    """The indices whose byte lies in values, as one int; data holds one
    byte per S_n index, the highest index first."""
    return int(data.translate(_byte_map(values)), 2)


@functools.lru_cache(maxsize=None)
def _sn_length_planes(n: int) -> tuple[int, ...]:
    """planes[l]: the set of w in S_n with l(w) = l, for l = 0..n(n-1)/2."""
    data = bytes(reversed(_sn_lengths(n)))
    return tuple(_bitset(data, range(length, length + 1)) for length in range(n * (n - 1) // 2 + 1))


@functools.lru_cache(maxsize=None)
def _sn_rank_planes(n: int) -> tuple[tuple[int, ...], ...]:
    """Rank count planes over S_n, one row per count of _rank_counts and in
    its order: row[c] is the set of u whose count is at most c, for each c
    below the count's largest value min(i, n - k + 1).  So the interval
    [e, w] is the AND of row[count] over the counts of w below that value,
    and already over its essential counts (_essential_counts).

    The counts are summed one position at a time, one byte per permutation;
    a count is at most n - 1, so no byte carries into the next.  No count
    is below i - k + 1, so the planes below that are empty."""
    images = _sn_images(n)
    # the one line arrays back to back, the highest index first
    flat = bytes(itertools.chain.from_iterable(reversed(images)))
    counts = [0] * (n + 1)
    rows = []
    for i in range(1, n):
        column = flat[i - 1 :: n]
        for k in range(2, n + 1):
            counts[k] += int.from_bytes(column.translate(_byte_map(range(k, n + 1), b"\0\1")), "big")
            data = counts[k].to_bytes(len(images), "big")
            rows.append(
                tuple(_bitset(data, range(c + 1)) if c > i - k else 0 for c in range(min(i, n - k + 1)))
            )
    return tuple(rows)


def _bit_indices(bits: int) -> Iterator[int]:
    """The indices of the set bits of bits, lowest first."""
    text = bin(bits)[:1:-1]
    idx = text.find("1")
    while idx >= 0:
        yield idx
        idx = text.find("1", idx + 1)


@functools.lru_cache(maxsize=None)
def _sn_sorting_swaps(n: int) -> tuple[array.array, ...]:
    """swaps[i - 1][idx]: the index of w with the values at positions i and
    i + 1 put in increasing order, w itself or w s_i."""
    images = _sn_images(n)
    index = _split_index(n)
    return tuple(
        array.array(
            "I",
            (
                idx if w[i] < w[i + 1] else index(w[:i] + (w[i + 1], w[i]) + w[i + 2 :])
                for idx, w in enumerate(images)
            ),
        )
        for i in range(n - 1)
    )


@functools.lru_cache(maxsize=None)
def _coset_table(n: int, j: tuple[int, ...]) -> array.array:
    """Index of the minimal coset representative of w W_J, per S_n index:
    w with each block's values sorted.  j is sorted; the table for j grows
    from the one without its last member i, whose reps have sorted blocks
    except that position i + 1 must still be inserted into its block."""
    if not j:
        return array.array("I", range(math.factorial(n)))
    i = j[-1]
    out = _coset_table(n, j[:-1])
    lo = i
    while lo - 1 in j:
        lo -= 1
    swaps = _sn_sorting_swaps(n)
    for k in range(i, lo - 1, -1):
        out = array.array("I", _gather(swaps[k - 1], out))
    return out


def _gather(values: Sequence[int], indices: Sequence[int]) -> tuple[int, ...]:
    """values[i] for each i in indices, in one C level pass."""
    if len(indices) == 1:
        # itemgetter of one index returns the bare item
        return (values[indices[0]],)
    return operator.itemgetter(*indices)(values)
