"""Which route each command takes, over every golden spec and finite gallery entry.

A finite algebra with a unit, declared or solved, has M(A) = iota(A): its
slices are products in A (x) A (``Slicer._product``) and its antipode is
solved in iota(A), so no run builds a ``MultiplierSpace``.  Only a finite
input without a unit slices by iota solves (``Slicer._preimage``), and
``nonunital_path8_delta.spec`` is the one such input with a coproduct.
"""

from pathlib import Path

from mulhopf import bialgebra, cli, multiplier
from mulhopf.gallery import build_entry, gallery_names

GOLDEN = Path(__file__).parent / "golden"

FINITE_GALLERY = [f"gallery:{name}" + ("(3)" if name == "kfun_cyclic" else "")
                  for name in gallery_names()
                  if build_entry(name, (3,) if name == "kfun_cyclic" else ()).algebra.finite]


def test_every_command_on_every_input_takes_the_unital_route_where_a_unit_exists(
        capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    builds, solved, current = [], set(), []
    real_space = multiplier.MultiplierSpace.__init__
    monkeypatch.setattr(multiplier.MultiplierSpace, "__init__",
                        lambda self, alg: builds.append(current[0]) or real_space(self, alg))
    real_preimage = bialgebra.Slicer._preimage
    monkeypatch.setattr(bialgebra.Slicer, "_preimage", lambda self, *a, **k: (
        solved.add(current[0]) or real_preimage(self, *a, **k)))
    inputs = sorted(p.name for p in GOLDEN.glob("*.spec")) + FINITE_GALLERY
    finite, unital = set(), set()
    for text in inputs:
        alg = cli.resolve_input(text)[0].algebra
        if alg.finite:
            finite.add(text)
            if alg.verified_unit is not None:
                unital.add(text)
        current[:] = [text]
        for command in cli._COMMANDS:
            assert cli.main([command, text]) in (0, 1, 3), (command, text)
            capsys.readouterr()
    assert builds == []
    assert "rescaled_z6_no_unit.spec" in unital
    assert solved & finite == {"nonunital_path8_delta.spec"}
    assert not solved & unital
