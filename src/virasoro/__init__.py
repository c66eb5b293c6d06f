"""Exact computations in highest-weight representation theory of the
Virasoro algebra: Verma modules and their Shapovalov forms, Kac
determinants, singular vectors by three routes, density-module
obstruction polynomials, Jantzen filtrations with the character sums
they produce, oscillator modules with determinantal singular vectors,
and a truncated fermionic Fock space with vertex-operator identity
checks.

Every computation is exact rational arithmetic; there is no floating
point anywhere in the package.
"""

from .combinat import (
    QSeries,
    num_partitions,
    partition_key,
    partitions_of,
    transpose,
)
from .density import (
    DensityVector,
    ad_direct,
    ad_symbolic,
    appc_determinant,
    density_apply,
    evaluate_ad,
    ff_product,
    primary_obstruction,
)
from .jantzen import (
    DegenerateFamilyError,
    Filtration,
    MatrixFamily,
    character_formula,
    det_order_identity,
    filtration_character_sum,
    gram_family,
    jantzen_filtration,
    norm_vanishing_order,
)
from .oscillator import (
    OscParams,
    PolyState,
    binom_det,
    c_coefficients,
    goldstone_vector,
    l1_power_pairing,
    rect_binom_product,
    singular_kernel_osc,
)
from .scalars import BiPoly, RatFunc, UniPoly, order_at_zero
from .singular import (
    SingularVector,
    SpinModule,
    bdiz_singular,
    check_singular,
    curve_singular,
    singular_chain,
    singular_kernel,
)
from .verma import (
    GramMatrix,
    PBWVector,
    VermaParams,
    apply_L,
    gram_matrices,
    gram_matrix,
    h_pq,
    h_pq_curve,
    irreducible_dims,
    kac_det_direct,
    kac_det_product,
    kac_det_ratio,
)

__version__ = "0.1.0"
