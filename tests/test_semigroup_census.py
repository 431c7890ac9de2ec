"""K(S) for every labelled semigroup S of order 1-3, against the theory.

K(S) is the algebra of functions on a finite semigroup S with the
pointwise product and Delta(d_s) = sum over xy = s of d_x (x) d_y.  It is
unital and commutative, Delta is multiplicative and coassociative, and
Delta(1) = 1 (x) 1.  A multiplicative counit is evaluation at a point, and
the counit laws force that point to be a two-sided identity of S.  So K(S)
is a multiplier bialgebra iff S is a monoid, and a multiplier Hopf algebra
iff S is a group.  The generator and the expected answers below use plain
Python only; mulhopf only runs ``classify`` on the spec files they write.
"""

import json
from itertools import product

import pytest

from mulhopf.cli import main

# labelled semigroups of order 1, 2 and 3 (associative tables on {0, .., n-1})
COUNTS = {1: 1, 2: 8, 3: 113}


def semigroups(n):
    """Every associative table t on {0, .., n-1}, t[(x, y)] = xy."""
    pairs = list(product(range(n), repeat=2))
    for values in product(range(n), repeat=len(pairs)):
        t = dict(zip(pairs, values))
        if all(t[(t[(x, y)], z)] == t[(x, t[(y, z)])] for x, y, z in product(range(n), repeat=3)):
            yield t


def identity(t, n):
    """The two-sided identity of S, or None."""
    return next((e for e in range(n) if all(t[(e, x)] == x == t[(x, e)] for x in range(n))),
                None)


def is_group(t, n):
    e = identity(t, n)
    return e is not None and all(any(t[(x, y)] == e for y in range(n)) for x in range(n))


def kfun_spec(t, n):
    """K(S) in the spec format: d_s d_s = d_s, unit sum d_s, and the frame
    (d_x, d_y) of Delta(d_xy) is d_x (x) d_y."""
    lines = ["field Q", "basis " + " ".join(f"d{s}" for s in range(n))]
    lines += [f"mul d{s} d{s} = 1*d{s}" for s in range(n)]
    lines.append("unit = " + " + ".join(f"1*d{s}" for s in range(n)))
    lines += [f"delta d{t[(x, y)]} (d{x},d{y}) = 1*(d{x},d{y})"
              for x, y in product(range(n), repeat=2)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_kfun_of_every_small_semigroup_classifies_as_the_theory_says(n, tmp_path, capsys):
    tables = list(semigroups(n))
    assert len(tables) == COUNTS[n]
    path = tmp_path / "ks.spec"
    for t in tables:
        path.write_text(kfun_spec(t, n), encoding="utf-8")
        code = main(["classify", str(path), "--report", "json"])
        assert code != 2, t
        verdict = json.loads(capsys.readouterr().out)["classification"]
        monoid = identity(t, n) is not None
        assert verdict.startswith("multiplier Hopf algebra") == is_group(t, n), (t, verdict)
        assert verdict.startswith("multiplier bialgebra") == (monoid and not is_group(t, n)), \
            (t, verdict)
