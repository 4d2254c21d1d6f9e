"""Exact invariants of weighted-homogeneous isolated hypersurface singularities.

Everything runs in exact rational arithmetic.  The headline computations each
have two independent routes (spectrum from the weight product formula vs. from
the Milnor-algebra standard monomials; eigenvalue multisets in both monodromy
conventions; stratum sums vs. closed-form Euler counts) and `singspec check`
replays the whole cross-validation battery.
"""

from .errors import (
    ConsistencyError,
    HorizontalComponentError,
    InconsistentWeightsError,
    LengthMismatchError,
    MissingStratumWarning,
    ModelFormatError,
    NegativeMultiplicityError,
    NonExactDivisionError,
    NonIsolatedSingularityError,
    NotGaloisStableError,
    NotWeightedHomogeneousError,
    PolynomialSyntaxError,
    ResourceLimitError,
    SingspecError,
    UnderdeterminedWeightsError,
    UnknownVariableError,
    WeightOutOfRangeError,
)
from .fracpoly import FracPoly, iota
from .milnor import (
    GroebnerBasis,
    MilnorBasis,
    buchberger,
    is_isolated,
    milnor_basis,
    milnor_number,
    reduce_modulo,
)
from .motivic import (
    EquivClass,
    SncComponent,
    SncModel,
    Stratum,
    component_count_cstar,
    covering_degree,
    euler_specialization,
    load_model,
    model_from_json,
    model_to_json,
    nearby_fiber_class,
    reduce_class,
    sp_of_class,
    sp_prime_of_class,
    sp_prime_reduced,
)
from .parse import parse_polynomial
from .poly import (
    Polynomial,
    as_weights,
    infer_weights,
    is_weighted_homogeneous,
    jacobian_generators,
    weighted_degree,
)
from .spectrum import (
    EigenMultiset,
    char_poly,
    check_symmetry,
    eigenvalues_gamma_c,
    eigenvalues_geometric,
    sp_from_basis,
    sp_product_formula,
    sp_twist,
    spectral_residues,
)

__version__ = "0.1.0"
