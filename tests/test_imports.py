"""Every name a package module imports is used somewhere in that module,
every function and method of the package is referenced from the package
or its tests, every top-level function and class is referenced from the
package itself and every stored attribute is read, bar a listed few."""

import ast
import importlib
import importlib.util
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mulhopf"
TESTS = pathlib.Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom .a import b, c\nprint(c)\n") == [(1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names(tree):
    """Every name ``tree`` uses: variables, attributes and imported names."""
    for sub in ast.walk(tree):
        name = (sub.id if isinstance(sub, ast.Name) else
                sub.attr if isinstance(sub, ast.Attribute) else
                sub.name if isinstance(sub, ast.alias) else None)
        if name is not None:
            yield name


def unreferenced_functions(sources: dict, users=()) -> list:
    """(module, line, name) of the functions and methods defined in
    ``sources`` (module name -> text), dunders exempt, whose name no text of
    ``sources`` or ``users`` uses outside the function's own body."""
    uses, defined = Counter(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        uses.update(names(tree))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                own = sum(name == node.name for name in names(node))
                defined.append((module, node.lineno, node.name, own))
    for source in users:
        uses.update(names(ast.parse(source)))
    return sorted((m, line, name) for m, line, name, own in defined if uses[name] <= own)


def test_the_scan_flags_an_unreferenced_function_or_method():
    sources = {
        "a": ("def _dead(n):\n    return _dead(n - 1)\n\ndef _used():\n    pass\n\n"
              "class C:\n    def __eq__(self, o):\n        pass\n\n"
              "    def stale(self):\n        pass\n\n    def fresh(self):\n        pass\n"),
        "b": "from .a import _used\n\ndef public():\n    return _used()\n",
    }
    users = ["from a import C\n\ndef test_c():\n    C().fresh()\n"]
    assert unreferenced_functions(sources, users) == [
        ("a", 1, "_dead"), ("a", 11, "stale"), ("b", 3, "public")]


def test_every_function_and_method_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    tests = [p.read_text(encoding="utf-8") for p in TESTS.glob("*.py")]
    assert unreferenced_functions(sources, tests) == []


# Top-level names that nothing in the package calls, and why each stays.
NO_CALLER_NEEDED = {
    "solve_linear": "linalg's verified solve: raises if substitution fails",
    "regular_module": "module category of the theorem: the regular module",
    "check_module": "module category: the module laws",
    "check_monoidal_instance": "module category: associator and unit constraints",
    "check_module_algebra": "module category: module algebras over Delta",
    "compose_extensions": "extension category: composition of morphisms",
    "restrict_module": "extension category: a module pulled back along a morphism",
    "MultiplierSpace": ("all of M(A) of a finite algebra; perfbench/layers.py traces "
                        "MultiplierSpace.__init__ as multiplier.space_build"),
}


def unreferenced_top_level(sources: dict) -> list:
    """(module, name) of the top-level functions and classes of ``sources``
    (module name -> text) whose name no text of ``sources`` uses outside
    the definition's own body."""
    uses, defined = Counter(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        uses.update(names(tree))
        defined += [(module, node.name, sum(name == node.name for name in names(node)))
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return sorted((m, name) for m, name, own in defined if uses[name] <= own)


def test_the_scan_flags_a_top_level_name_only_its_own_body_uses():
    sources = {"a": "class Used:\n    pass\n\ndef _loop(n):\n    return _loop(n)\n",
               "b": "from .a import Used\n\ndef helper():\n    return Used()\n"}
    assert unreferenced_top_level(sources) == [("a", "_loop"), ("b", "helper")]


def test_every_top_level_name_has_a_caller_in_the_package():
    # and every exception is still defined and still has no caller
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    unreferenced = {name for _m, name in unreferenced_top_level(sources)}
    assert unreferenced - set(NO_CALLER_NEEDED) == set()
    assert set(NO_CALLER_NEEDED) - unreferenced == set()


def callers(name: str) -> list:
    """(module, name) of the top-level functions and methods of the package
    whose body, nested functions included, calls ``name``."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        found += [(path.stem, qual) for qual, node in defs
                  if any(isinstance(sub, ast.Call) and name in names(sub.func)
                         for sub in ast.walk(node))]
    return sorted(found)


# One rule extends a module action along M = M.A: ``act_on_module``, over the
# memoised ``ModuleStructure.ma_form``.  A pull-back along a morphism and the
# tensor action through Delta (on ``tensor_module(M, N)``) are its only callers;
# only a tensor module's legs read forms besides it, so the associator and both
# unitors reach them through the tensor action, and no second M.A form or
# unit-constraint loop may grow back in ``bialgebra``.
def test_one_rule_extends_a_module_action_along_its_ma_forms():
    assert callers("act_on_module") == [("bialgebra", "tensor_module_action"),
                                        ("extension", "restrict_module")]
    assert callers("ma_form") == [("algebra", "TensorModule._solve_form"),
                                  ("multiplier", "act_on_module")]
    assert not hasattr(importlib.import_module("mulhopf.bialgebra"), "ma_form")


# ``multiplier.py`` builds every kind of ``Multiplier`` (a leaf, a product, a
# ``combine`` sum, a Psi leaf, iota(a)): no other module sets its private slots.
def private_slot_stores(source: str, slots) -> list:
    """(line, name) of the stores to ``<obj>.<name>`` in ``source``, obj not
    ``self`` and name one of ``slots`` that starts with an underscore."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and node.attr in slots and node.attr.startswith("_")
                  and not (isinstance(node.value, ast.Name) and node.value.id == "self"))


def test_the_scan_flags_a_private_slot_set_from_outside():
    source = ("m = f()\nm._iota = c\nm.name = 'x'\nself._memo = {}\n"
              "x, m._psi = 1, 2\nm._terms += []\nm._other = 0\n")
    assert private_slot_stores(source, ("_iota", "_psi", "_memo", "_terms", "name")) == [
        (2, "_iota"), (5, "_psi"), (6, "_terms")]


def test_only_the_multiplier_module_sets_a_multipliers_private_slots():
    slots = importlib.import_module("mulhopf.multiplier").Multiplier.__slots__
    assert [(p.name, *hit) for p in sorted(SRC.glob("*.py")) if p.name != "multiplier.py"
            for hit in private_slot_stores(p.read_text(encoding="utf-8"), slots)] == []


# Stored attributes that nothing reads, and why each stays.
NO_READER_NEEDED = {
    "line_no": "SpecError: public exception data, the line of the bad input",
}


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass" or
               isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def unread_attributes(sources: dict, users=()) -> list:
    """(module, line, name) of the ``self.<name> =`` stores and dataclass
    fields of ``sources`` (module name -> text) that no text of ``sources``
    or ``users`` reads as ``.<name>``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in list(trees.values()) + [ast.parse(u) for u in users]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    stored = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                stored.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                stored += [(module, f.lineno, f.target.id) for f in node.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return sorted((m, line, name) for m, line, name in stored if name not in read)


def test_the_scan_flags_a_stored_attribute_nothing_reads():
    sources = {"a": ("class C:\n    def __init__(self):\n        self.kept = 1\n"
                     "        self.lost = 2\n        self.kept += self.kept\n\n"
                     "@dataclass\nclass D:\n    shown: int\n    hidden: int = 0\n"
                     "    def show(self):\n        return self.shown\n")}
    users = ["def test_d(d):\n    d.hidden = 3\n"]
    assert unread_attributes(sources, users) == [("a", 4, "lost"), ("a", 10, "hidden")]


def test_every_stored_attribute_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    tests = [p.read_text(encoding="utf-8") for p in TESTS.glob("*.py")]
    unread = unread_attributes(sources, tests)
    assert [x for x in unread if x[2] not in NO_READER_NEEDED] == []
    assert set(NO_READER_NEEDED) <= {name for _m, _line, name in unread}


def imported_modules(source: str) -> set:
    """Top-level names of the modules ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_the_scan_finds_every_form_of_import():
    source = "import fractions\nfrom fractions import Fraction\nfrom .fields import QQ\n"
    assert imported_modules(source) == {"fractions"}
    assert imported_modules("import os.path as p\n") == {"os"}


# Q scalars are ints or Fractions by one rule, kept in ``fields.RationalField``.
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "fields.py"),
                         ids=lambda p: p.name)
def test_only_fields_imports_fractions(path):
    assert "fractions" not in imported_modules(path.read_text(encoding="utf-8"))


# ``perfbench/layers.py`` names the functions and methods a traced benchmark
# pass wraps; ``perfbench/tracer.py`` patches a function as an attribute of
# its module and a method in its class's own ``__dict__``.
def traced_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", SRC.parent.parent / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = list(layers.SPANS.values())
    for pairs in layers.COUNTERS.values():
        targets += pairs
    return targets


@pytest.mark.parametrize("module, attr", traced_targets(), ids=lambda x: x)
def test_every_traced_name_resolves_as_the_tracer_patches_it(module, attr):
    mod = importlib.import_module(f"mulhopf.{module}")
    if "." in attr:
        cls, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls)).get(meth))
    else:
        assert callable(vars(mod).get(attr))


# The standing rule of ROADMAP.md: ``wc -l src/mulhopf/*.py`` stays within
# 4,600 lines, so new code is paid for with deletions.
def test_the_package_stays_within_its_line_budget():
    lines = sum(p.read_text(encoding="utf-8").count("\n") for p in SRC.glob("*.py"))
    assert lines <= 4_600
