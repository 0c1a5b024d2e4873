"""Exact calculus for determinantal-factor ideals of free complexes,
Smith-form invariants, torsion-translated divisor supports, and the
hyperplane-locus arithmetic around them."""

from .arith import CycloElem, TorsionAngle, angle_roots, cyclotomic_poly
from .bsloci import (
    HyperplaneLocus,
    PolarModel,
    combine_bm,
    containment_check,
    exp_oblique_equal,
    oblique_part,
    ord_sum_check,
    polar_candidate_filter,
    propagate_polar,
    slope_set,
    specialize_slice,
)
from .complexes import (
    FreeComplex,
    base_change,
    cdf_ideal,
    euler_truncation,
    insert_trivial_summand,
    jump_ideal,
    minors_ideal,
)
from .poly import (
    IdealGens,
    LaurentPoly,
    Ring,
    ideal_valuation,
    valuation_along,
)
from .smith import (
    DeterminantalFactors,
    SmithForm,
    cohomology_presentation,
    determinantal_factors,
    fitting_generator,
    max_jordan_size,
    principal_generator,
    smith_normal_form,
)
from .support import (
    SupportReport,
    candidate_divisors,
    specialization_multiplicity,
    support_report,
)
from .torus import (
    AffineHyperplane,
    PrimeTorusDivisor,
    TorusDivisor,
    TranslatedSubtorus,
    exp_hyperplane,
    is_oblique,
    nondegeneracy_check,
    slope,
    tau_preimage,
)

__version__ = "0.1.0"
