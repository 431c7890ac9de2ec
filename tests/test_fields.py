import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as strat

from mulhopf.fields import GF, QQ, FieldError


def test_qq_parse_and_format():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert QQ.parse("0") == Fraction(0)
    assert QQ.format(Fraction(3, 4)) == "3/4"
    assert QQ.format(Fraction(-5)) == "-5"
    assert QQ.format(QQ.zero) == "0"


def test_qq_parse_rejects_garbage():
    with pytest.raises(FieldError):
        QQ.parse("two")
    with pytest.raises(FieldError):
        QQ.parse("1/0")


def test_qq_arithmetic():
    a, b = Fraction(2, 3), Fraction(-1, 6)
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, b) == Fraction(-1, 9)
    assert QQ.sub(a, b) == Fraction(5, 6)
    assert QQ.div(a, b) == Fraction(-4)
    assert QQ.inv(a) == Fraction(3, 2)
    assert QQ.neg(a) == Fraction(-2, 3)
    assert QQ.coerce(7) == Fraction(7)


def test_gf_construction_and_inverse():
    F = GF(7)
    assert F.p == 7
    for x in range(1, 7):
        assert F.mul(x, F.inv(x)) == F.one
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_gf_parse_reduces_mod_p():
    F = GF(5)
    assert F.parse("7") == 2
    assert F.parse("-1") == 4
    assert F.coerce(-3) == 2
    assert F.format(F.coerce(9)) == "4"


def test_gf_rejects_non_primes():
    for n in (1, 4, 6, 0, -3, 9):
        with pytest.raises(FieldError):
            GF(n)


def test_field_random_is_deterministic_per_seed():
    for field in (QQ, GF(11)):
        xs = [field.random(random.Random(3)) for _ in range(5)]
        ys = [field.random(random.Random(3)) for _ in range(5)]
        assert xs == ys


rationals = strat.fractions(min_value=-50, max_value=50, max_denominator=12)
fp_elems = strat.integers(min_value=0, max_value=6)


@given(rationals, rationals, rationals)
def test_qq_ring_laws(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    assert QQ.mul(a, QQ.one) == a


def canonical(x):
    """``x`` is a Q scalar in canonical form: an int exactly when integral,
    a Fraction otherwise, never a float or a bool."""
    integral = type(x) is int
    return (integral or type(x) is Fraction) and integral == (x == int(x))


@given(rationals, rationals, strat.integers(-10**20, 10**20))
def test_qq_results_are_canonical_and_equal_fraction_arithmetic(a, b, n):
    for x in (a, b, n):
        assert canonical(QQ.coerce(x)) and QQ.coerce(x) == x
        assert canonical(QQ.parse(str(x))) and QQ.parse(str(x)) == x
    a, b = QQ.coerce(a), QQ.coerce(b)
    Fa, Fb = Fraction(a), Fraction(b)
    results = [(QQ.add(a, b), Fa + Fb), (QQ.sub(a, b), Fa - Fb),
               (QQ.mul(a, b), Fa * Fb), (QQ.neg(a), -Fa)]
    if b:
        results += [(QQ.inv(b), 1 / Fb), (QQ.div(a, b), Fa / Fb)]
    for got, want in results:
        assert canonical(got) and got == want
        assert str(got) == str(want)


def test_qq_canonical_forms():
    assert QQ.zero == 0 and type(QQ.zero) is int and not QQ.zero
    assert QQ.one == 1 and type(QQ.one) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.div(1, 4) == Fraction(1, 4) and type(QQ.div(1, 4)) is Fraction
    assert QQ.div(6, 3) == 2 and type(QQ.div(6, 3)) is int
    assert QQ.coerce(True) == 1 and type(QQ.coerce(True)) is int
    assert type(QQ.coerce(False)) is int and str(QQ.coerce(True)) == "1"
    assert type(QQ.coerce(Fraction(4, 2))) is int and type(QQ.parse("6/3")) is int
    with pytest.raises(FieldError):
        QQ.coerce(0.5)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    rng = random.Random(5)
    assert all(canonical(QQ.random(rng)) for _ in range(50))


@given(fp_elems, fp_elems, fp_elems)
def test_gf7_ring_laws(a, b, c):
    F = GF(7)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if a != F.zero:
        assert F.mul(a, F.inv(a)) == F.one


def test_qq_adds_into_zero_without_fraction_work():
    three = QQ.add(0, Fraction(3, 1))
    assert three == 3 and type(three) is int
    for x in (0, 5, -2, Fraction(2, 3), Fraction(-7, 4)):
        assert QQ.add(0, x) == x and type(QQ.add(0, x)) is type(x)
        assert QQ.add(x, 0) == x
    one = QQ.add(Fraction(1, 3), Fraction(2, 3))
    assert one == 1 and type(one) is int


def test_fp_addition_is_unchanged():
    F = GF(5)
    assert [F.add(a, b) for a in range(5) for b in range(5)] == [
        (a + b) % 5 for a in range(5) for b in range(5)]
    assert F.add(0, 7) == 2
