"""Exact scalar arithmetic over Q and over prime fields F_p.

Scalars are plain Python values.  A scalar of Q has one canonical form:
an ``int`` when it is integral, a ``fractions.Fraction`` otherwise, so the
+-1 coefficients that dominate group-like tables cost no gcd.  Scalars of
F_p are ints in ``range(p)``.  A ``Field`` object interprets them;
containers (elements, matrices) carry the field, individual scalars do
not.  Both representations make zero falsy, which the sparse containers
rely on to keep themselves in canonical form.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class Field:
    """Common interface.  Subclasses fix the scalar representation and
    define coerce, add, sub, mul, neg, inv, parse and random."""

    name = "?"

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a):
        return str(a)

    def __repr__(self):
        return self.name


def _canonical(x):
    """The canonical Q scalar: an int when ``x`` is integral."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class RationalField(Field):
    name = "Q"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return int(value) if type(value) is bool else _canonical(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        # sparse accumulation mostly adds into an empty slot: no Fraction work
        return _canonical(b if not a else a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0 in Q")
        return _canonical(Fraction(1) / a)

    def parse(self, text):
        try:
            return _canonical(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def random(self, rng):
        return _canonical(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """F_p for prime p; scalars are ints reduced into range(p)."""

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        raise FieldError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        try:
            return int(text, 10) % self.p
        except ValueError as exc:
            raise FieldError(f"bad {self.name} literal {text!r}") from exc

    def random(self, rng):
        return rng.randint(0, self.p - 1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    field = _GF_CACHE.get(p)
    if field is None:
        field = _GF_CACHE[p] = PrimeField(p)
    return field
