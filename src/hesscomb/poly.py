"""Polynomials in a single variable t with integer coefficients.

Poincare polynomials of cell complexes are the only use case, so the
arithmetic stays deliberately small: addition, multiplication, and the
t-analogues [m]_t and [m]_t! used for flag varieties.  Coefficients are
stored ascending, so Poly((1, 3, 4, 3, 1)) is 1 + 3t + 4t^2 + 3t^3 + t^4.
"""

from __future__ import annotations

from collections.abc import Iterable

from .record import Record


def _strip(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Poly(Record):
    """Dense integer polynomial, coefficients ascending in t."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        object.__setattr__(self, "coeffs", _strip(coeffs))

    @staticmethod
    def zero() -> Poly:
        return Poly(())

    @staticmethod
    def one() -> Poly:
        return Poly((1,))

    @staticmethod
    def from_exponents(exponents: Iterable[int]) -> Poly:
        """Sum of t^e over a multiset of exponents, i.e. a census by degree."""
        counts: dict[int, int] = {}
        for e in exponents:
            if e < 0:
                raise ValueError("negative exponent")
            counts[e] = counts.get(e, 0) + 1
        if not counts:
            return Poly.zero()
        top = max(counts)
        return Poly(tuple(counts.get(k, 0) for k in range(top + 1)))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __mul__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(tuple(out))

    def __call__(self, t: int) -> int:
        """Evaluate at an integer point; t=1 counts cells."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        """Render like "1 + 3t + 4t^2 + 3t^3 + t^4", skipping zero terms."""
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("t" if c == 1 else f"{c}t")
            else:
                parts.append(f"t^{k}" if c == 1 else f"{c}t^{k}")
        return " + ".join(parts)


def t_integer(m: int) -> Poly:
    """[m]_t = 1 + t + ... + t^(m-1)."""
    if m < 0:
        raise ValueError("negative t-integer")
    return Poly((1,) * m)


def t_factorial(m: int) -> Poly:
    """[m]_t! = [1]_t [2]_t ... [m]_t, the Poincare polynomial of S_m."""
    out = Poly.one()
    for k in range(1, m + 1):
        out = out * t_integer(k)
    return out
