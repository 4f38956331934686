"""Exact-arithmetic construction and verification of BiHom-associative
algebras, BiHom-Lie algebras, BiHom-(co/bi)algebras and their modules."""

from .algebra_core import (
    BiHomAlgebra,
    LeftModule,
    check_bihom_algebra,
    check_left_module,
    endomorphism_algebra,
    example_family,
    find_unit,
    fixed_subalgebra,
    tensor_product,
    untwist,
    yau_twist,
)
from .bialgebra import (
    BiHomBialgebra,
    ModuleAlgebraAction,
    check_antipode_general,
    check_antipode_properties,
    check_bihom_bialgebra,
    check_module_bihom_algebra,
    find_primitives,
    hopf_to_monoidal,
    is_monoidal,
    primitive_bracket,
    solve_antipode_monoidal,
    twist_left_module,
    twist_module_algebra,
    yau_twist_bialgebra,
)
from .coalgebra import (
    BiHomCoalgebra,
    Comodule,
    check_bihom_coalgebra,
    check_comodule,
    convolution_algebra,
    dual_algebra,
    dual_coalgebra,
    tensor_product_coalgebras,
    twist_comodule,
    underline_hom,
    yau_twist_coalgebra,
)
from .exactnum import QQ, QQ_Q, PrimeField, RationalFunction, q_integer
from .lie import (
    BiHomLieAlgebra,
    LieRepresentation,
    adjoint_rep,
    check_bihom_lie,
    check_representation,
    commutator_lie,
    module_to_lie_rep,
    semidirect_product,
    yau_twist_lie,
)
from .linalg import Matrix, Tensor3, kernel, mat_inverse, mat_mul
from .report import CheckReport
from .smash import (
    SmashData,
    dual_module_algebra,
    smash_comodule_structure,
    smash_product,
    smash_twisting_map,
)
from .twisting import (
    Pseudotwistor,
    TwistingMap,
    apply_pseudotwistor,
    canonical_pseudotwistor,
    check_pseudotwistor,
    check_twisting_map,
    flip_map,
    lift_twisting_map,
    twisted_tensor_product,
)

__version__ = "0.1.0"
