"""Stable module invariants over bound quiver algebras.

Exact computation of torsion and cotorsion invariants, stable Hom
functors, Auslander transposes, sub-stabilized tensor products, and the
finitely presented functor calculus that ties them together, over
finite-dimensional bound quiver algebras with coefficients in a prime
field or the rationals.
"""
from .exactla import Field, Matrix, Subspace
from .algebra import (
    LEFT,
    RIGHT,
    AlgebraError,
    Arrow,
    BoundQuiverAlgebra,
    ModuleMap,
    NotFiniteDimensional,
    Quiver,
    Relation,
    Representation,
    SubRep,
    direct_sum,
    dual_module,
    indec_injective,
    indec_projective,
    radical_top_socle,
    regular_module,
    simple,
    standard_probes,
    zero_module,
)
from .homology import (
    HomSpace,
    ShortExactSequence,
    TensorSpace,
    cokernel_map,
    cosyzygy,
    eval_double_dual,
    ext1,
    hom_basis,
    image_map,
    injective_envelope,
    is_injective_module,
    is_projective,
    is_self_injective,
    kernel_map,
    projective_cover,
    pullback,
    pushout,
    star_dual,
    star_dual_map,
    syzygy,
    tensor,
    tensor_map,
    transpose,
)
from .stable import (
    MODULO_INJECTIVES,
    MODULO_PROJECTIVES,
    Certificate,
    FourTermSequence,
    NotHereditary,
    StableHom,
    VanishingCheckFailed,
    bass_torsion,
    cotorsion_quotient,
    cotorsion_trace,
    extends_to_projectives,
    fp_certificate,
    hereditary_split,
    left_proj_approximation,
    lifts_from_injectives,
    right_inj_approximation,
    stable_hom,
    tensor_substab,
    torsion_radical,
    torsionless_quotient,
)
from .fpfun import (
    CONTRAVARIANT,
    COVARIANT,
    FpFunctor,
    FpMorphism,
    fp_cokernel,
    fp_defect,
    fp_eval,
    fp_kernel,
    fp_representable,
    fp_substab,
    present_overline_contra,
    present_overline_cov,
    present_tensor,
    present_tensor_substab,
    present_torsion_radical,
    present_underline_contra,
    present_underline_cov,
)

__version__ = "0.1.0"
