"""Exact invariants of weighted-homogeneous isolated hypersurface singularities.

Everything runs in exact rational arithmetic.  The headline computations each
have two independent routes (spectrum from the weight product formula vs. from
the Milnor-algebra standard monomials; eigenvalue multisets in both monodromy
conventions; stratum sums vs. closed-form Euler counts) and `singspec check`
replays the whole cross-validation battery.

The namespace is lazy (PEP 562): ``import singspec`` loads no submodule, and
each public name below imports its defining module on first use, so a
command-line request loads only the modules its subcommand runs.  A name
outside the table raises AttributeError, which lets ``from singspec import
milnor`` fall back to importing the submodule.
"""

_EXPORTS = {
    "errors": (
        "ConsistencyError",
        "HorizontalComponentError",
        "InconsistentWeightsError",
        "LengthMismatchError",
        "MissingStratumWarning",
        "ModelFormatError",
        "NegativeMultiplicityError",
        "NonExactDivisionError",
        "NonIsolatedSingularityError",
        "NotGaloisStableError",
        "NotWeightedHomogeneousError",
        "PolynomialSyntaxError",
        "ResourceLimitError",
        "SingspecError",
        "UnderdeterminedWeightsError",
        "UnknownVariableError",
        "WeightOutOfRangeError",
    ),
    "fracpoly": ("FracPoly", "sp_twist"),
    "milnor": (
        "GroebnerBasis",
        "MilnorBasis",
        "buchberger",
        "is_isolated",
        "milnor_basis",
        "milnor_number",
        "reduce_modulo",
    ),
    "motivic": (
        "EquivClass",
        "SncComponent",
        "SncModel",
        "Stratum",
        "covering_degree",
        "euler_specialization",
        "load_model",
        "model_from_json",
        "model_to_json",
        "nearby_fiber_class",
        "sp_of_class",
        "sp_prime_of_class",
        "sp_prime_reduced",
    ),
    "parse": ("parse_polynomial",),
    "poly": (
        "Polynomial",
        "as_weights",
        "infer_weights",
        "is_weighted_homogeneous",
        "jacobian_generators",
        "weighted_degree",
    ),
    "spectrum": (
        "EigenMultiset",
        "char_poly",
        "eigenvalues_gamma_c",
        "eigenvalues_geometric",
        "sp_from_basis",
        "sp_product_formula",
        "spectral_residues",
    ),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
