"""Exception types shared across the package.

Everything raised on bad user input derives from ``SingspecError`` so the
command line can map it to a validation failure uniformly.  ``ConsistencyError``
is deliberately *not* a ``SingspecError``: it signals that two independent
internal routes disagreed, which is a bug or a broken invariant, never a user
mistake.
"""


class SingspecError(Exception):
    """Base class for input and validation errors."""


class PolynomialSyntaxError(SingspecError):
    """Malformed polynomial text.  ``offset`` is the byte offset of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(SingspecError):
    """Identifier not in the declared variable list."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class LengthMismatchError(SingspecError):
    """Exponent vector and weight vector have different lengths."""


class UnderdeterminedWeightsError(SingspecError):
    """The weighted-homogeneity system does not pin the weights down."""


class InconsistentWeightsError(SingspecError):
    """No weight vector makes every term have degree one."""


class WeightOutOfRangeError(SingspecError):
    """A weight fell outside the open interval (0, 1)."""


class NotWeightedHomogeneousError(SingspecError):
    """The polynomial is not weighted-homogeneous of degree one for the given weights."""


class NonIsolatedSingularityError(SingspecError):
    """The Jacobian ideal does not cut out a finite-dimensional quotient."""


class ResourceLimitError(SingspecError):
    """A closed-form size computed from the weights exceeds a fixed budget.

    Raised before anything of that size is enumerated or allocated.
    """


class NonExactDivisionError(SingspecError):
    """The weight product formula did not divide exactly over the integers."""


class NegativeMultiplicityError(SingspecError):
    """A spectrum handed to an eigenvalue extractor had a negative coefficient."""


class NotGaloisStableError(SingspecError):
    """Eigenvalue multiset is not closed under Galois conjugation.

    ``residue`` is one offending residue: some conjugate of it is missing or
    has a different multiplicity.
    """

    def __init__(self, residue):
        super().__init__(f"eigenvalue multiset not Galois-stable at residue {residue}")
        self.residue = residue


class HorizontalComponentError(SingspecError):
    """A covering-data formula was applied to a horizontal component."""


class ModelFormatError(SingspecError):
    """Structurally invalid degeneration-model file.

    ``location`` is a JSON-pointer-ish path such as ``/strata/1/cover_class/0``,
    relative to the object when a constructor raises it; ``message`` omits it.
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message} (at {location or '/'})")
        self.message = message
        self.location = location


class ConsistencyError(Exception):
    """Two independent computational routes disagreed.  Internal failure."""


class MissingStratumWarning(UserWarning, SingspecError):
    """A declared component appears in no stratum; sums over strata may be partial.

    A ``SingspecError`` too, as the model file is at fault: raised as an error
    (``python -W error``), it is an ``error:`` line (exit 2) or a check's FAIL."""
