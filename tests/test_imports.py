"""What each entry point imports, and the public names of the lazy package.

Each footprint is read in a fresh ``python -S`` interpreter, as a request
starts.  The file needs no pytest: ``PYTHONPATH=src python tests/test_imports.py``
runs every test in it.
"""

import os
import subprocess
import sys
from pathlib import Path

import singspec

ROOT = Path(__file__).resolve().parents[1]
CUSP = str(ROOT / "fixtures" / "cusp_resolution.json")

# every public name of ``singspec/__init__.py``
PUBLIC = (
    "ConsistencyError", "HorizontalComponentError", "InconsistentWeightsError",
    "LengthMismatchError", "MissingStratumWarning", "ModelFormatError",
    "NegativeMultiplicityError", "NonExactDivisionError", "NonIsolatedSingularityError",
    "NotGaloisStableError", "NotWeightedHomogeneousError", "PolynomialSyntaxError",
    "ResourceLimitError", "SingspecError", "UnderdeterminedWeightsError",
    "UnknownVariableError", "WeightOutOfRangeError",
    "FracPoly",
    "GroebnerBasis", "MilnorBasis", "buchberger", "is_isolated", "milnor_basis",
    "milnor_number", "reduce_modulo",
    "EquivClass", "SncComponent", "SncModel", "Stratum", "covering_degree",
    "euler_specialization", "load_model", "model_from_json",
    "model_to_json", "nearby_fiber_class", "sp_of_class",
    "sp_prime_of_class", "sp_prime_reduced",
    "parse_polynomial",
    "Polynomial", "as_weights", "infer_weights", "is_weighted_homogeneous",
    "jacobian_generators", "weighted_degree",
    "EigenMultiset", "char_poly", "eigenvalues_gamma_c",
    "eigenvalues_geometric", "sp_from_basis", "sp_product_formula", "sp_twist",
    "spectral_residues",
)

# statements run in a fresh interpreter -> the singspec submodules loaded after them
FOOTPRINTS = {
    "import singspec": set(),
    "import singspec; singspec.sp_twist": {"exact", "fracpoly"},
    "from singspec import kernel": {"kernel"},
    "import singspec.cli": {"cli", "errors", "exact"},
    f"from singspec.cli import main; assert main(['nearby', {CUSP!r}]) == 0": {
        "cli", "errors", "exact", "fracpoly", "motivic",
    },
    "from singspec.cli import main; assert main(['sp', 'x^2 + y^3', '--vars', 'x,y']) == 0": {
        "cli", "errors", "exact", "poly", "parse", "spectrum", "milnor", "fracpoly",
    },
}


def _footprint(statements: str) -> set[str]:
    script = (
        f"import sys\n{statements}\n"
        "print(*sorted(m[9:] for m in sys.modules if m.startswith('singspec.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(singspec.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_each_entry_point_loads_only_what_it_runs():
    for statements, expected in FOOTPRINTS.items():
        assert _footprint(statements) == expected, statements


def test_public_names_resolve_to_their_defining_objects():
    for name in PUBLIC:
        value = getattr(singspec, name)
        assert value.__module__.startswith("singspec."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    assert set(singspec.__all__) == set(PUBLIC)
    assert set(PUBLIC) <= set(dir(singspec))


def test_benchmark_entry_points_in_kernel():
    """``perfbench/`` finds the traced leaves through ``kernel.active()`` and
    reports ``kernel.backend_name()`` in its probe; FOOTPRINTS pins that
    ``from singspec import kernel`` loads nothing else."""
    from singspec import kernel, milnor

    assert kernel.backend_name() == "python"
    for leaf in ("normal_form", "s_polynomial"):
        assert getattr(kernel.active(), leaf) is getattr(milnor, leaf), leaf


def test_unknown_names_raise_attribute_error():
    assert not hasattr(singspec, "no_such_name")


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
