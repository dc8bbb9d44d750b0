"""Exact arithmetic for partial permutations and class convolution."""

from .class_algebra import (BinomialPolynomial, ClassVector, convolve_C_classes,
                            f_constant, g_constant, g_table, multiply,
                            oracle_convolve, product_expansion,
                            product_expansion_a, psi_image, q_polynomial,
                            to_C_basis)
from .characters import (CharacterTable, F_eval, character, dimension, p_sharp,
                         s_star, skew_dimension, x_mu)
from .fillings import Filling, canonical_filling, convolve, enumerate_F
from .filtrations import (DegreeFunction, check_filtration,
                          check_gamma_inequalities, limit_ratio)
from .partial_perm import (PartialPermutation, canonical_rep, enumerate_class,
                           product)
from .partitions import Partition, enumerate_partitions, partitions_up_to
from .semigroup_algebra import (GroupAlgebraElement, SemigroupAlgebraElement,
                                center_dimension, class_element, epsilon,
                                forget_support, phi_x, truncate)

__version__ = "0.1.0"
