"""Which route each command takes, over every golden spec and finite gallery entry.

A finite algebra with a unit, declared or solved, has M(A) = iota(A): its
slices are products in A (x) A (``Slicer._product``) and its antipode is
solved in iota(A), so no run builds a ``MultiplierSpace``.  Only a finite
input without a unit slices by iota solves (``Slicer._preimage``), and
``nonunital_path8_delta.spec`` is the one such input with a coproduct.
On a finite unital input the Hopf stage decides by element identities and
kernels, and sweeps or solves only where those cannot decide.  Every run
validates the extensions its Slicers bind to the run's window and expansion.
Every iota(a) records its a, so only ``specfile.derive_rho`` runs the
unital certificate, on a spec's left slice table.
"""

import json
import sys
from pathlib import Path

from mulhopf import bialgebra, cli, extension, hopf, linalg, multiplier, specfile
from mulhopf.gallery import build_entry, gallery_names

GOLDEN = Path(__file__).parent / "golden"

GALLERY = {f"gallery:{name}" + ("(3)" if name == "kfun_cyclic" else ""):
           build_entry(name, (3,) if name == "kfun_cyclic" else ()).algebra.finite
           for name in gallery_names()}
FINITE_GALLERY = [text for text, finite in GALLERY.items() if finite]


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


def test_every_validated_extension_is_bound_by_a_slicer_of_the_run(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    slicers, validated = [], []
    real_init, real_validate = bialgebra.Slicer.__init__, extension.Extension.validate
    monkeypatch.setattr(bialgebra.Slicer, "__init__", lambda self, *a, **k: (
        real_init(self, *a, **k), slicers.append(self))[0])
    monkeypatch.setattr(extension.Extension, "validate", lambda self: (
        validated.append(self) or real_validate(self)))
    # an oracle entry's Delta is built on its default window at expansion 2
    runs = [[text] for text in sorted(p.name for p in GOLDEN.glob("*.spec")) + FINITE_GALLERY]
    runs += [[text, "--window", "2", "--expansion", "3"]
             for text, finite in GALLERY.items() if not finite]
    seen = 0
    for args in runs:
        for command in cli._COMMANDS:
            slicers.clear(), validated.clear()
            code = cli.main([command, *args, "--report", "json"])
            out = capsys.readouterr().out
            assert code in (0, 1, 2, 3), (command, args)
            if code == 3:
                continue
            run = json.loads(out)["input"]
            assert all((sl.window, sl.expansion) == (run["window"], run["expansion"])
                       for sl in slicers), (command, args)
            assert all(any(sl.delta is ext for sl in slicers) for ext in validated), (command, args)
            seen += len(validated)
    assert seen > 0


def test_the_finite_hopf_stage_sweeps_and_solves_only_where_no_certificate_decides(
        capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    frames, compared, solves, inside = [], [], [], []
    real_convolve, real_eq = hopf.convolve, hopf.map_eq
    real_bijective, real_solve = hopf.check_bijective, linalg.GaussianSolver.solve

    def bijective(*args, **kwargs):
        inside.append(True)
        try:
            return real_bijective(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(hopf, "convolve", lambda side, f, g, frame, sl: (
        frames.append(frame) or real_convolve(side, f, g, frame, sl)))
    monkeypatch.setattr(hopf, "map_eq", lambda *a: compared.append(a) or real_eq(*a))
    monkeypatch.setattr(hopf, "check_bijective", bijective)
    monkeypatch.setattr(linalg.GaussianSolver, "solve", lambda self, *a, **k: (
        inside and solves.append(True)) or real_solve(self, *a, **k))

    def census(argv, code):
        frames.clear(), compared.clear(), solves.clear()
        assert cli.main(argv) == code
        capsys.readouterr()
        return list(frames), len(compared), len(solves)

    # both identities hold as elements and T1, T2 are square with no kernel
    assert census(["check-hopf", "rescaled_z6_antipode.spec"], 0) == ([], 0, 0)
    # frames e0-e3 are certified; the sweep starts and fails at e4's right identity
    assert census(["check-hopf", "rescaled_z6_damaged_antipode.spec"], 1) == (["e4"], 1, 0)
    # T1 and T2 of functions on the monoid ({0,1}, .) have kernels: the solves run
    assert census(["classify", "monoid01.spec"], 1)[2] > 0


def test_only_derive_rho_certifies_a_unital_multiplier(capsys, monkeypatch):
    # every iota(a) records its a where it is built, so no command re-derives
    # a preimage with a certificate pass: the one pass left checks a spec's
    # left slice table as it is completed to a multiplier
    monkeypatch.chdir(GOLDEN)
    callers = set()
    real = multiplier.unital_certificate

    def recorded(*args, **kwargs):
        callers.add(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    for mod in (multiplier, specfile):
        monkeypatch.setattr(mod, "unital_certificate", recorded)
    for text in sorted(p.name for p in GOLDEN.glob("*.spec")) + FINITE_GALLERY:
        for command in cli._COMMANDS:
            assert cli.main([command, text]) in (0, 1, 3), (command, text)
            capsys.readouterr()
    assert callers == {"derive_rho"}
