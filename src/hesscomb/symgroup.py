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

import functools
import itertools
import math
from collections.abc import Callable, Container, Iterable, Iterator, Sequence

from .poly import Poly, t_factorial
from .record import Record
from .rootsys import Root, RootSet

# Largest degree the single CLI queries accept.  They sweep all of S_n, and
# from degree 10 on the sweeps take ten times longer and the tables gigabytes.
MAX_DEGREE = 9
# Largest degree of the exhaustive harness sweeps (run_checks and census),
# which visit every shape and every J of a degree: verify --n 9 takes
# about 30 s on a 2-vCPU VM, most of it in the coset pass.
MAX_SWEEP_DEGREE = 9
# Largest degree of census --granularity cells, one row per cell of every
# shape and J: 1,137,663 rows at degree 7, and 19,048,197 at 8 would hold
# about 15 GB of rows.
MAX_CELLS_DEGREE = 7


@functools.total_ordering
class Permutation(Record):
    """A permutation of {1, ..., n} in one line notation.

    >>> w = Permutation((3, 1, 4, 2))
    >>> w(1), w(4)
    (3, 2)
    >>> w.inverse().images
    (2, 4, 1, 3)
    >>> w.length()
    3
    """

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]) -> None:
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    def __lt__(self, other: Permutation) -> bool:
        """Permutations order by their one line arrays."""
        return self.images < other.images if type(other) is Permutation else NotImplemented

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

    A reference route of the test suite: it works one permutation at a
    time and reads no per degree table, so the tests can hold the fast
    routes against it; keep it off the fast path.

    >>> u = perm_from_word([2, 3], 4)
    >>> w = perm_from_word([1, 2, 3, 1], 4)
    >>> bruhat_leq(u, w)
    True
    """
    if u.n != w.n:
        raise ValueError("degree mismatch")
    return all(a <= b for a, b in zip(_rank_counts(u.images), _rank_counts(w.images)))


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma separated integers, e.g. "1,3"; blank text is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Parabolic subgroups and their cosets.
# ---------------------------------------------------------------------------


class ParabolicData(Record):
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

    def __init__(self, n: int, J: Iterable[int]) -> None:
        J = frozenset(J)
        if n < 1:
            raise ValueError("degree must be at least 1")
        bad = [i for i in J if not 1 <= i <= n - 1]
        if bad:
            raise ValueError(f"J members out of range 1..{n - 1}: {sorted(bad)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "J", J)

    @staticmethod
    def from_iterable(n: int, j: Iterable[int]) -> ParabolicData:
        return ParabolicData(n, frozenset(j))

    @staticmethod
    def from_string(n: int, text: str) -> ParabolicData:
        """Parse "1,3"; the empty string names the empty set."""
        return ParabolicData(n, frozenset(_parse_ints(text)))

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


@functools.lru_cache(maxsize=None)
def parabolics(n: int) -> tuple[ParabolicData, ...]:
    """Every subset J of {1, ..., n-1}, by size then lexicographically,
    built once per degree: every sweep reads the same objects, so their
    blocks and masks are worked out once and cache keys hit by identity.

    >>> [str(p) for p in parabolics(3)]
    ['', '1', '2', '1,2']
    """
    return tuple(
        ParabolicData.from_iterable(n, combo)
        for size in range(n)
        for combo in itertools.combinations(range(1, n), size)
    )


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


class StringDecomposition(Record):
    """Factor strings (w_1, ..., w_(n-1)), each a run of generator indices.

    strings[i-1] holds the word of w_i, so it is either () or a tuple
    (k, k+1, ..., i); the concatenated product w_(n-1) ... w_1 is reduced.
    """

    strings: tuple[tuple[int, ...], ...]

    def __init__(self, strings: Iterable[Iterable[int]]) -> None:
        strings = tuple(tuple(s) for s in strings)
        for i, string in enumerate(strings, start=1):
            if string and string != tuple(range(string[0], i + 1)):
                raise ValueError(f"factor {i} is not a run ending at s_{i}: {string}")
        object.__setattr__(self, "strings", strings)

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
    """The unique string decomposition of w: string i is the run of length
    l(w_i) that ends at s_i, the lengths peeled off the top of w
    (_string_lengths).

    >>> string_decompose(Permutation((4, 3, 2, 1))).strings
    ((1,), (1, 2), (1, 2, 3))
    >>> string_decompose(Permutation((2, 3, 1, 4))).strings
    ((), (1, 2), ())
    """
    return StringDecomposition(
        tuple(range(i + 1 - length, i + 1)) for i, length in enumerate(_string_lengths(w.images), start=1)
    )


def _string_lengths(images: Sequence[int]) -> tuple[int, ...]:
    """The string lengths l(w_1), ..., l(w_(n-1)) of the one line array
    images, peeled off the top: the highest factor of a permutation of
    1..m is s_k ... s_(m-1) with k = w(m), and multiplying by its inverse
    fixes position m and lowers each value above k by one, leaving a
    permutation of 1..m-1 at the positions below m.

    >>> _string_lengths((3, 1, 4, 2))
    (1, 0, 2)
    """
    vals = list(images)
    lengths = [0] * (len(vals) - 1)
    for m in range(len(vals), 1, -1):
        k = vals.pop()
        if k != m:
            lengths[m - 2] = m - k
            vals = [val - (val > k) for val in vals]
    return tuple(lengths)


def is_min_coset_rep_strings(strings: StringDecomposition, p: ParabolicData) -> bool:
    """Minimal coset representative test read off the string lengths.

    w is shortest in w W_J exactly when l(w_i) <= l(w_(i-1)) for every
    i in J, with l(w_0) taken to be 0; strings is string_decompose(w).

    A reference route of the test suite: it works one permutation at a
    time and reads no per degree table, so the tests can hold the fast
    routes against it; keep it off the fast path.
    """
    if strings.n != p.n:
        raise ValueError("degree mismatch")
    return not _string_ascents(strings.lengths()) & p.mask


def _string_ascents(lengths: Sequence[int]) -> int:
    """Bit i set when l(w_i) > l(w_(i-1)), with l(w_0) = 0; for the string
    lengths of w (_string_lengths) it is the right descent set of w."""
    return sum(1 << i for i, (low, high) in enumerate(zip((0, *lengths), lengths), start=1) if high > low)


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
# Cached per degree tables, aligned with the lexicographic order of S_n.  In
# that order S_n is n blocks of (n-1)! permutations, block b holding
# w(1) = b + 1 followed by a relabelled S_(n-1) in its tail, the values
# above b + 1 moved down by one.  So each table of degree n is put together
# block by block from the table of degree n - 1, and no permutation is
# visited.  A set of permutations is one int, bit i standing for the
# permutation of index i, and the sets of degree n are ORs of shifted sets
# of degree n - 1:
#
# * _sn_planes holds the value planes of w^(-1); a poincare_hessenberg
#   query builds them and no other table.
# * _sn_rank_planes and _sn_length_planes hold the rank count and length
#   planes that Bruhat lower ideals are built and counted with.  Each has
#   its own recursion and reads no other table, so the Schubert union
#   shares no code with the staircase sweep.
# * _sn_lengths adds b to each length of block b, one byte per index.
#
# _split_index ranks a one line array and _sn_image unranks an index, both
# through the tables of the head and tail halves of the array; no table
# holds the n! one line arrays.  The sorting masks serve only the harness
# sweeps, gathering sets block by block; the union reads their ascent planes alone.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _split_tables(n: int) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """The halves of the one line arrays of S_n, split after h = n // 2
    entries: every head in lexicographic order, and per set of tail values,
    sorted, its orderings in lexicographic order.  The arrays with one head
    are a run of (n - h)! indices, the heads in order, and within the run
    the tail keeps its place among the orderings of its values: two tables
    of 18,144 entries in all at n = 9, not one of 9! entries over S_n."""
    values = range(1, n + 1)
    heads = list(itertools.permutations(values, n // 2))
    tails = {rest: tuple(itertools.permutations(rest)) for rest in itertools.combinations(values, n - n // 2)}
    return heads, tails


@functools.lru_cache(maxsize=None)
def _split_index(n: int) -> Callable[[tuple[int, ...]], int]:
    """The S_n index of a one line array as head[w[:h]] + tail[w[h:]], h =
    n // 2, from _split_tables."""
    h = n // 2
    heads, tails = _split_tables(n)
    size = math.factorial(n - h)
    head = {part: rank * size for rank, part in enumerate(heads)}
    tail = {part: rank for parts in tails.values() for rank, part in enumerate(parts)}
    return lambda images: head[images[:h]] + tail[images[h:]]


@functools.lru_cache(maxsize=None)
def _sn_image(n: int) -> Callable[[int], tuple[int, ...]]:
    """The one line array of an S_n index, the inverse of _split_index:
    the index's run of (n - h)! names the head, and its place in the run
    the ordering of the other values, from _split_tables."""
    heads, tails = _split_tables(n)
    size = math.factorial(n - n // 2)
    runs = [(head, tails[tuple(v for v in range(1, n + 1) if v not in head)]) for head in heads]

    def image(idx: int) -> tuple[int, ...]:
        run, place = divmod(idx, size)
        head, orderings = runs[run]
        return head + orderings[place]

    return image


@functools.lru_cache(maxsize=None)
def _sn_lengths(n: int) -> bytes:
    """l(w) per S_n index, one byte each.  In block b, w(1) = b + 1 is
    inverted with the b smaller values, so the block reads b + l for each
    l one degree lower."""
    if n <= 1:
        return b"\0"
    below = _sn_lengths(n - 1)
    return b"".join(below.translate(bytes((value + b) % 256 for value in range(256))) for b in range(n))


@functools.lru_cache(maxsize=None)
def _sn_planes(n: int) -> tuple[tuple[int, ...], ...]:
    """Value planes of w^(-1) over S_n, positions 0 based.

    ge[pos][k] is the set of w with w^(-1)(pos + 1) >= k + 1, for k = 0..n:
    ge[pos][0] is all of S_n, ge[pos][n] is empty, and ge[pos][k] ^
    ge[pos][k + 1] is the set with w^(-1)(pos + 1) = k + 1, that is
    w(k + 1) = pos + 1.  Each plane of degree n is an OR of shifted planes
    of degree n - 1.
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
def _byte_map(values: Container[int]) -> bytes:
    """A bytes.translate table: each byte in values to b"1", any other to b"0"."""
    return bytes(b"01"[value in values] for value in range(256))


def _bitset(data: bytes, values: Container[int]) -> int:
    """The indices whose byte lies in values, as one int; data holds one
    byte per S_n index, the highest index first."""
    return int(data.translate(_byte_map(values)), 2)


@functools.lru_cache(maxsize=None)
def _sn_length_planes(n: int) -> tuple[int, ...]:
    """planes[l]: the set of w in S_n with l(w) = l, for l = 0..n(n-1)/2.
    Block b holds the lengths one degree lower raised by b, as _sn_lengths."""
    if n <= 1:
        return (1,)
    below = _sn_length_planes(n - 1)
    size = math.factorial(n - 1)
    planes = [0] * (n * (n - 1) // 2 + 1)
    for b in range(n):
        for length, plane in enumerate(below):
            planes[b + length] |= plane << b * size
    return tuple(planes)


@functools.lru_cache(maxsize=None)
def _sn_rank_planes(n: int) -> tuple[tuple[int, ...], ...]:
    """Rank count planes over S_n, one row per count of _rank_counts and in
    its order: row[c] is the set of u whose count is at most c, for each c
    below the count's largest value min(i, n - k + 1).  So the interval
    [e, w] is the AND of row[count] over the counts of w below that value,
    and already over its essential counts (_essential_counts).  No count
    is below i - k + 1, so the planes below that are empty.

    Block b holds u(1) = b + 1 and a relabelled t in S_(n-1) in its tail,
    whose values above b are those of u above b + 1, moved down by one.
    So the count (i, k) of u is [b + 1 >= k] plus the count
    (i - 1, k - [k > b + 1]) of t, and each plane is an OR of shifted
    planes one degree lower.  The counts (0, k), (i, 1) and (i, n) of t
    are the same for every t: 0, i and 0.
    """
    if n <= 1:
        return ()
    below = _sn_rank_planes(n - 1)
    size = math.factorial(n - 1)
    full = (1 << size) - 1

    def tail(i: int, k: int, c: int) -> int:
        # the t in S_(n-1) whose count (i, k) is at most c
        if c < 0:
            return 0
        if i == 0 or k == n:
            return full
        if k == 1:
            return full if c >= i else 0
        row = below[(i - 1) * (n - 2) + k - 2]
        return row[c] if c < len(row) else full

    return tuple(
        tuple(
            sum(tail(i - 1, k - (k > b + 1), c - (b + 1 >= k)) << b * size for b in range(n)) if c > i - k else 0
            for c in range(min(i, n - k + 1))
        )
        for i in range(1, n)
        for k in range(2, n + 1)
    )


def _bit_indices(bits: int) -> Iterator[int]:
    """The indices of the set bits of bits, lowest first."""
    text = bin(bits)[:1:-1]
    idx = text.find("1")
    while idx >= 0:
        yield idx
        idx = text.find("1", idx + 1)


@functools.lru_cache(maxsize=None)
def _sn_ascent_plane(n: int, i: int) -> int:
    """The set of w in S_n with w(i) < w(i + 1), 1 <= i < n; W^J is the
    AND over i in J.  At position 1 block a ascends at its last runs of
    (n - 2)! indices, c = a..n-2; past it block b holds the plane of i - 1
    one degree lower, a multiply by the sum of 2^(b (n - 1)!) over b."""
    size, run = math.factorial(n - 1), math.factorial(n - 2)
    if i > 1:
        return _sn_ascent_plane(n - 1, i - 1) * sum(1 << b * size for b in range(n))
    return sum(((1 << (n - 1 - a) * run) - 1) << a * size + a * run for a in range(n))


@functools.lru_cache(maxsize=None)
def _sn_sorting_masks(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Per position i = 1..n-1, the sort of the values at positions i and
    i + 1 as masked shifts of a set over S_n: (ascents, ((shift, sources),
    ...)).  ascents, _sn_ascent_plane(n, i), is the set that the sort
    keeps; it moves every other w to w s_i, which lies in one sources, shift
    indices below w.  So the set of w whose sorted w lies in X is

        X & ascents | OR over the pairs of (X & sources) << shift.

    At position 1 the descents w(1) = a + 1 > w(2) = c + 1 are the run of
    (n - 2)! indices a (n - 1)! + c (n - 2)! + r of block a, r the
    relabelled rest, and w s_1 is c (n - 1)! + (a - 1) (n - 2)! + r.  The
    shift d (n - 1)! - (d - 1) (n - 2)! depends on d = a - c alone, so
    there are n - 1 pairs, sources holding the runs read at distance d.
    Past position 1 the sort keeps w(1) and acts on the tail, so the
    sources follow the block rule of _sn_ascent_plane and the shifts stay."""
    if n <= 1:
        return ()
    size, run = math.factorial(n - 1), math.factorial(n - 2)
    every_block = sum(1 << b * size for b in range(n))
    # distance d reads run c + d - 1 of block c, for c = 0..n-1-d
    moves = tuple(
        (d * size - (d - 1) * run, sum(((1 << run) - 1) << c * size + (c + d - 1) * run for c in range(n - d)))
        for d in range(1, n)
    )
    below = (tuple((shift, sources * every_block) for shift, sources in pairs) for _, pairs in _sn_sorting_masks(n - 1))
    return tuple(zip((_sn_ascent_plane(n, i) for i in range(1, n)), (moves, *below)))
