"""Exact symbolic checks for algebras with multiplier-valued coproducts.

The package works over exact fields (rationals, prime fields) and treats
two tiers of input the same way: finite algebras, where every verdict is
a proof, and infinite families with finitely supported elements, where
verdicts hold on an explicit basis window.  On top of the algebra layer
sit multipliers, morphisms into multiplier algebras, coproduct slicing,
counit and antipode synthesis, convolution, and comodule checks, plus a
small gallery of worked examples and a command line front end.
"""

from .fields import Field, FieldError, GF, PrimeField, QQ, RationalField
from .linalg import GaussianSolver, SparseMatrix, kernel_basis, solve_linear
from .algebra import (
    Algebra, Element, FiniteBasis, InputError, InvariantViolation,
    ModuleStructure, OracleBasis, Space, Verdict, WindowInsufficiency,
    check_associativity, check_idempotent, check_local_units, check_module,
    check_nondegenerate, finite_algebra, local_units_witness, oracle_algebra,
    reassociate_left, regular_module, resolve_window,
    scalar_algebra, sweedler_decompose, tensor_algebra, tensor_elem,
    tensor_module, tensor_space,
)
from .multiplier import (
    Multiplier, MultiplierSpace, act_on_module, iota, iota_preimage, multiplier_eq, one,
    psi_embed,
)
from .extension import (
    Extension, TensorExtension, compose_extensions, identity_extension, restrict_module,
)
from .bialgebra import (
    Counit, MultiplierBialgebra, SliceUndefined, Slicer,
    check_coassociative, check_counit, check_fons, check_monoidal_instance,
    epsilon_module, synthesize_counit, tensor_module_action,
)
from .hopf import (
    AntipodeSynthesis, check_antipode, check_bijective,
    check_convolution_inverse, check_hopf, conv_unit, convolve, map_eq,
    synthesize_antipode,
)
from .comodule import (
    check_comodule_coassoc, check_comodule_coassoc_element, check_comodule_coassoc_framed,
    check_comodule_counit, check_module_algebra,
)
from .specfile import SpecError, SpecFile, build_bundle, derive_rho, parse_spec
from .report import Report, TOOL_VERSION, digest
from . import gallery

__version__ = TOOL_VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
