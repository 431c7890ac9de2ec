"""Which mulhopf functions the traced pass wraps, and the per-layer metrics.

Every entry names a public function or method.  Functions are patched in
every ``mulhopf.*`` module that imported them by name (``cli`` holds its
own references to the check functions), methods on their class.
"""

from __future__ import annotations

import sys

# span name -> (module, attribute); "Class.method" for methods
SPANS = {
    "linalg.factor": ("linalg", "GaussianSolver.__init__"),
    "linalg.solve": ("linalg", "GaussianSolver.solve"),
    "linalg.kernel": ("linalg", "GaussianSolver.kernel_basis"),
    "algebra.associativity": ("algebra", "check_associativity"),
    "algebra.idempotency": ("algebra", "check_idempotent"),
    "algebra.nondegeneracy": ("algebra", "check_nondegenerate"),
    "algebra.local_units": ("algebra", "check_local_units"),
    "multiplier.iota_preimage": ("multiplier", "iota_preimage"),
    "multiplier.space_build": ("multiplier", "MultiplierSpace.__init__"),
    "extension.validate": ("extension", "Extension.validate"),
    "bialgebra.slice": ("bialgebra", "Slicer.slice"),
    "bialgebra.fons": ("bialgebra", "check_fons"),
    "bialgebra.coassoc": ("bialgebra", "check_coassociative"),
    "bialgebra.counit_synth": ("bialgebra", "synthesize_counit"),
    "bialgebra.counit_check": ("bialgebra", "check_counit"),
    "hopf.bijective": ("hopf", "check_bijective"),
    "hopf.antipode_synth": ("hopf", "synthesize_antipode"),
    "hopf.antipode_check": ("hopf", "check_antipode"),
    "hopf.convolution": ("hopf", "check_convolution_inverse"),
    "comodule.coassoc": ("comodule", "check_comodule_coassoc"),
    "comodule.framed": ("comodule", "check_comodule_coassoc_framed"),
    "comodule.counit": ("comodule", "check_comodule_counit"),
    "specfile.parse": ("specfile", "parse_spec"),
    "specfile.build": ("specfile", "build_bundle"),
    "specfile.derive_rho": ("specfile", "derive_rho"),
    "gallery.build": ("gallery", "build"),
    "cli.build_parser": ("cli", "build_parser"),
    "report.emit": ("report", "Report.to_json"),
}

# counter key -> (module, attribute) list; counters record calls, no time
COUNTERS = {
    f"fields.{op}": [("fields", f"{cls}.{op}") for cls in ("RationalField", "PrimeField")]
    for op in ("mul", "add", "sub", "inv")
}
COUNTERS["bialgebra.slicers_built"] = [("bialgebra", "Slicer.__init__")]

# (metric, unit, better); every traced pass reports all of them
PER_LAYER = (
    ("fields.mul_calls", "count", "lower"),
    ("fields.add_calls", "count", "lower"),
    ("fields.sub_calls", "count", "lower"),
    ("fields.inv_calls", "count", "lower"),
    ("linalg.factor_calls", "count", "lower"),
    ("linalg.factor_s", "s", "lower"),
    ("linalg.factor_nnz", "count", "lower"),
    ("linalg.solve_calls", "count", "lower"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.kernel_calls", "count", "lower"),
    ("linalg.kernel_s", "s", "lower"),
    ("algebra.associativity_s", "s", "lower"),
    ("algebra.idempotency_s", "s", "lower"),
    ("algebra.nondegeneracy_s", "s", "lower"),
    ("algebra.local_units_s", "s", "lower"),
    ("multiplier.iota_preimage_calls", "count", "lower"),
    ("multiplier.iota_preimage_none", "count", "lower"),
    ("multiplier.iota_preimage_s", "s", "lower"),
    ("multiplier.space_builds", "count", "lower"),
    ("multiplier.space_build_s", "s", "lower"),
    ("extension.validate_calls", "count", "lower"),
    ("extension.validate_s", "s", "lower"),
    ("bialgebra.slicers_built", "count", "lower"),
    ("bialgebra.slice_requests", "count", "lower"),
    ("bialgebra.slice_misses", "count", "lower"),
    ("bialgebra.slice_hit_ratio", "ratio", "higher"),
    ("bialgebra.slice_s", "s", "lower"),
    ("bialgebra.fons_s", "s", "lower"),
    ("bialgebra.coassoc_s", "s", "lower"),
    ("bialgebra.counit_synth_s", "s", "lower"),
    ("bialgebra.counit_check_s", "s", "lower"),
    ("hopf.bijective_calls", "count", "lower"),
    ("hopf.bijective_s", "s", "lower"),
    ("hopf.antipode_synth_s", "s", "lower"),
    ("hopf.antipode_check_s", "s", "lower"),
    ("hopf.convolution_s", "s", "lower"),
    ("comodule.coassoc_s", "s", "lower"),
    ("comodule.framed_s", "s", "lower"),
    ("comodule.counit_s", "s", "lower"),
    ("specfile.parse_s", "s", "lower"),
    ("specfile.build_s", "s", "lower"),
    ("specfile.derive_rho_calls", "count", "lower"),
    ("specfile.derive_rho_s", "s", "lower"),
    ("gallery.build_s", "s", "lower"),
    ("report.emit_s", "s", "lower"),
    ("cli.build_parser_s", "s", "lower"),
    ("cli.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _resolve(module, attr):
    mod = sys.modules[f"mulhopf.{module}"]
    if "." in attr:
        cls, meth = attr.split(".")
        return mod, getattr(mod, cls), meth
    return mod, None, attr


def install(tracer):
    """Wrap the SPANS and COUNTERS of an imported mulhopf in ``tracer``."""
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "mulhopf" or name.startswith("mulhopf.")) and m is not None]
    notes = {
        "linalg.factor": lambda args, _r: tracer.add(
            "linalg.factor_nnz", len(args[1].entries)),
        "multiplier.iota_preimage": lambda _a, result: (
            result is None and tracer.add("multiplier.iota_preimage_none")),
    }
    for key, targets in COUNTERS.items():
        for module, attr in targets:
            _mod, cls, meth = _resolve(module, attr)
            tracer.patch_method(cls, meth, lambda fn, k=key: tracer.counted(fn, k))
    for name, (module, attr) in SPANS.items():
        mod, cls, meth = _resolve(module, attr)

        def make(fn, name=name):
            return tracer.spanned(fn, name, notes.get(name))

        if cls is not None:
            tracer.patch_method(cls, meth, make)
        else:
            tracer.patch_function(mod, meth, make, modules)


def metrics(tracer, wall_s) -> dict:
    """Per-layer metrics of one traced pass whose wall time was ``wall_s``."""
    spans = tracer.summary()
    counts = tracer.counts()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def secs(name):
        return spans.get(name, {}).get("total_s", 0.0)

    requests = calls("bialgebra.slice")
    misses = tracer.parents_with_child("bialgebra.slice", "multiplier.iota_preimage")
    out = {f"fields.{op}_calls": counts.get(f"fields.{op}", 0)
           for op in ("mul", "add", "sub", "inv")}
    out.update({
        "linalg.factor_calls": calls("linalg.factor"),
        "linalg.factor_s": secs("linalg.factor"),
        "linalg.factor_nnz": counts.get("linalg.factor_nnz", 0),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_s": secs("linalg.solve"),
        "linalg.kernel_calls": calls("linalg.kernel"),
        "linalg.kernel_s": secs("linalg.kernel"),
        "algebra.associativity_s": secs("algebra.associativity"),
        "algebra.idempotency_s": secs("algebra.idempotency"),
        "algebra.nondegeneracy_s": secs("algebra.nondegeneracy"),
        "algebra.local_units_s": secs("algebra.local_units"),
        "multiplier.iota_preimage_calls": calls("multiplier.iota_preimage"),
        "multiplier.iota_preimage_none": counts.get("multiplier.iota_preimage_none", 0),
        "multiplier.iota_preimage_s": secs("multiplier.iota_preimage"),
        "multiplier.space_builds": calls("multiplier.space_build"),
        "multiplier.space_build_s": secs("multiplier.space_build"),
        "extension.validate_calls": calls("extension.validate"),
        "extension.validate_s": secs("extension.validate"),
        "bialgebra.slicers_built": counts.get("bialgebra.slicers_built", 0),
        "bialgebra.slice_requests": requests,
        "bialgebra.slice_misses": misses,
        "bialgebra.slice_hit_ratio": (requests - misses) / requests if requests else 0.0,
        "bialgebra.slice_s": secs("bialgebra.slice"),
        "bialgebra.fons_s": secs("bialgebra.fons"),
        "bialgebra.coassoc_s": secs("bialgebra.coassoc"),
        "bialgebra.counit_synth_s": secs("bialgebra.counit_synth"),
        "bialgebra.counit_check_s": secs("bialgebra.counit_check"),
        "hopf.bijective_calls": calls("hopf.bijective"),
        "hopf.bijective_s": secs("hopf.bijective"),
        "hopf.antipode_synth_s": secs("hopf.antipode_synth"),
        "hopf.antipode_check_s": secs("hopf.antipode_check"),
        "hopf.convolution_s": secs("hopf.convolution"),
        "comodule.coassoc_s": secs("comodule.coassoc"),
        "comodule.framed_s": secs("comodule.framed"),
        "comodule.counit_s": secs("comodule.counit"),
        "specfile.parse_s": secs("specfile.parse"),
        "specfile.build_s": secs("specfile.build"),
        "specfile.derive_rho_calls": calls("specfile.derive_rho"),
        "specfile.derive_rho_s": secs("specfile.derive_rho"),
        "gallery.build_s": secs("gallery.build"),
        "report.emit_s": secs("report.emit"),
        "cli.build_parser_s": secs("cli.build_parser"),
        "cli.unattributed_s": wall_s - tracer.top_level_s(),
    })
    return out
