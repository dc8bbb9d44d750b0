"""Exact arithmetic for partial permutations and class convolution.

The names below are loaded from their home modules on first use, so
importing the package (or one of its modules) compiles and runs only
what the caller reaches.
"""

from importlib import import_module

_EXPORTS = {
    "class_algebra": ("BinomialPolynomial", "ClassVector", "convolve_C_classes",
                      "f_constant", "g_constant", "g_table", "multiply",
                      "product_expansion", "product_expansion_a", "psi_image",
                      "q_polynomial", "to_C_basis"),
    "characters": ("CharacterTable", "F_eval", "character", "p_sharp", "s_star", "x_mu"),
    "fillings": ("Filling", "canonical_filling", "convolve", "enumerate_F"),
    "filtrations": ("DegreeFunction", "check_filtration", "check_gamma_inequalities",
                    "limit_ratio"),
    "partial_perm": ("PartialPermutation", "canonical_rep", "enumerate_class", "product"),
    "partitions": ("Partition", "enumerate_partitions", "partitions_up_to"),
    "semigroup_algebra": ("GroupAlgebraElement", "SemigroupAlgebraElement",
                          "center_dimension", "class_element", "epsilon",
                          "forget_support", "phi_x", "truncate"),
    "verify": ("oracle_convolve",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of an exported name and bind the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
