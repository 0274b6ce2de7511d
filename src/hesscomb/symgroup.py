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
  glued by J.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections.abc import Iterable, Iterator, Sequence

from .poly import Poly, t_factorial
from .rootsys import Root, RootSet

# Largest degree the single CLI queries accept.  They sweep all of S_n, and
# from degree 10 on the sweeps take ten times longer and the tables gigabytes.
MAX_DEGREE = 9


@dataclasses.dataclass(frozen=True, order=True)
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
# Bruhat order via the dominance criterion.
#
# u <= w in Bruhat order iff for all i, k:
#     #{j <= i : u(j) >= k}  <=  #{j <= i : w(j) >= k}.
# The n*n table of these counts is packed into one integer, so the
# elementwise comparison becomes a single subtract and mask.  A digit holds
# a count 0..n below a guard bit G, the least power of two above n, so that
# G + b - a stays inside 0..2G-1 for all counts a, b and no digit borrows
# from its neighbour.  The subword characterization of Bruhat order is kept
# in the test suite as an independent oracle.
# ---------------------------------------------------------------------------


def _digit_bits(n: int) -> int:
    return n.bit_length() + 1


def _dominance_key(images: tuple[int, ...]) -> int:
    n = len(images)
    bits = _digit_bits(n)
    counts = [0] * (n + 1)
    key = 0
    shift = 0
    for val in images:
        for k in range(1, val + 1):
            counts[k] += 1
        for k in range(1, n + 1):
            key |= counts[k] << shift
            shift += bits
    return key


@functools.lru_cache(maxsize=None)
def _guard_mask(n: int) -> int:
    bits = _digit_bits(n)
    return sum(1 << (bits * d + bits - 1) for d in range(n * n))


def _key_leq(key_u: int, key_w: int, guard: int) -> bool:
    # every packed digit of key_w is >= the matching digit of key_u
    return (key_w + guard - key_u) & guard == guard


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order on S_n by the dominance criterion.

    >>> u = perm_from_word([2, 3], 4)
    >>> w = perm_from_word([1, 2, 3, 1], 4)
    >>> bruhat_leq(u, w)
    True
    """
    if u.n != w.n:
        raise ValueError("degree mismatch")
    lu, lw = u.length(), w.length()
    if lu > lw:
        return False
    if lu == lw:
        return u == w
    return _key_leq(_dominance_key(u.images), _dominance_key(w.images), _guard_mask(u.n))


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

    Equivalent to w increasing across every pair glued by J:
    w(i) < w(i+1) for all i in J.
    """
    if w.n != p.n:
        raise ValueError("degree mismatch")
    return all(w.images[i - 1] < w.images[i] for i in p.J)


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


def is_min_coset_rep_strings(w: Permutation, p: ParabolicData) -> bool:
    """Minimal coset representative test read off the string lengths.

    w is shortest in w W_J exactly when l(w_i) <= l(w_(i-1)) for every
    i in J, with l(w_0) taken to be 0.
    """
    if w.n != p.n:
        raise ValueError("degree mismatch")
    lengths = string_decompose(w).lengths()
    for i in p.J:
        above = lengths[i - 1]
        below = lengths[i - 2] if i >= 2 else 0
        if above > below:
            return False
    return True


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
# one line arrays, their index, inverses, lengths, dominance keys and coset
# representatives.  They serve the harness sweeps and per shape tables; a
# single poincare_hessenberg query streams S_n and builds none of them.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _sn_images(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(1, n + 1)))


@functools.lru_cache(maxsize=None)
def _sn_index(n: int) -> dict[tuple[int, ...], int]:
    return {images: idx for idx, images in enumerate(_sn_images(n))}


@functools.lru_cache(maxsize=None)
def _sn_inverse_images(n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for images in _sn_images(n):
        inv = [0] * n
        for pos, val in enumerate(images, start=1):
            inv[val - 1] = pos
        out.append(tuple(inv))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _sn_lengths(n: int) -> tuple[int, ...]:
    return tuple(_length(images) for images in _sn_images(n))


@functools.lru_cache(maxsize=None)
def _sn_domkeys(n: int) -> tuple[int, ...]:
    return tuple(_dominance_key(images) for images in _sn_images(n))


@functools.lru_cache(maxsize=None)
def _coset_table(n: int, j: tuple[int, ...]) -> tuple[int, ...]:
    """Index of the minimal coset representative of w W_J, per S_n index."""
    blocks = ParabolicData(n, frozenset(j)).blocks
    index = _sn_index(n)
    out = []
    for images in _sn_images(n):
        v = [0] * n
        for block in blocks:
            for pos, src in zip(block, sorted(block, key=lambda q: images[q - 1])):
                v[pos - 1] = images[src - 1]
        out.append(index[tuple(v)])
    return tuple(out)
