"""Polynomial arithmetic and rendering."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

import pytest

from hesscomb import Poly, t_factorial, t_integer

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)


def test_trailing_zeros_stripped():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()


def test_zero_and_one():
    assert Poly.zero().coeffs == ()
    assert Poly.one().coeffs == (1,)
    assert Poly.zero().degree == -1
    assert Poly.one().degree == 0


def test_t_power():
    assert Poly.from_exponents([3]).coeffs == (0, 0, 0, 1)


def test_from_exponents():
    assert Poly.from_exponents([0, 2, 2, 1]).coeffs == (1, 1, 2)
    assert Poly.from_exponents([]).coeffs == ()


def test_coefficient_out_of_range():
    p = Poly((1, 3))
    assert p.coeffs[0] == 1
    assert p.coeffs[1] == 3
    assert p.coeffs[5:] == ()


def test_str_rendering():
    assert str(Poly(())) == "0"
    assert str(Poly((7,))) == "7"
    assert str(Poly((0, 1))) == "t"
    assert str(Poly((0, 2))) == "2t"
    assert str(Poly((0, 0, 1))) == "t^2"
    assert str(Poly((1, 3, 4, 3, 1))) == "1 + 3t + 4t^2 + 3t^3 + t^4"


def test_addition_example():
    assert (Poly((1, 2)) + Poly((0, 1, 5))).coeffs == (1, 3, 5)


def test_multiplication_example():
    # (1 + t + t^2)(1 + 2t + t^2), the S_4 example with J = {1, 3}
    assert (Poly((1, 1, 1)) * Poly((1, 2, 1))).coeffs == (1, 3, 4, 3, 1)


def test_t_integer():
    assert t_integer(1).coeffs == (1,)
    assert t_integer(4).coeffs == (1, 1, 1, 1)
    assert t_integer(0).coeffs == ()
    with pytest.raises(ValueError):
        t_integer(-1)


def test_t_factorial():
    assert t_factorial(1).coeffs == (1,)
    assert t_factorial(4).coeffs == (1, 3, 5, 6, 5, 3, 1)
    assert t_factorial(0).coeffs == (1,)


def test_t_factorial_counts_group():
    import math

    for n in range(1, 7):
        assert t_factorial(n)(1) == math.factorial(n)


@given(coeff_lists, coeff_lists)
def test_add_evaluates_pointwise(a, b):
    p, q = Poly(tuple(a)), Poly(tuple(b))
    for x in (-2, 0, 1, 3):
        assert (p + q)(x) == p(x) + q(x)


@given(coeff_lists, coeff_lists)
def test_mul_evaluates_pointwise(a, b):
    p, q = Poly(tuple(a)), Poly(tuple(b))
    for x in (-2, 0, 1, 3):
        assert (p * q)(x) == p(x) * q(x)


@given(coeff_lists)
def test_mul_by_one_is_identity(a):
    p = Poly(tuple(a))
    assert (p * Poly.one()).coeffs == p.coeffs
    assert (p + Poly.zero()).coeffs == p.coeffs
