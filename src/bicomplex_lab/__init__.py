"""Exact cohomology and zigzag decomposition of bounded double complexes.

The package computes, in exact Gaussian-rational arithmetic, the five
classical cohomologies of a bounded double complex (de Rham, Dolbeault,
conjugate Dolbeault, Bott-Chern, Aeppli), decomposes the complex into
indecomposable squares and zigzags, and mechanically verifies the
quantitative statements relating the two views (Frolicher-type
inequalities, defect formulas, upper bounds, dualities, pairing
criteria).
"""

from .bicomplex import (Bicomplex, Violation, check_pairing_structure,
                        check_real_structure, ensure_valid, totalize,
                        validate)
from .checkers import (ALL_CHECK_NAMES, THEOREM_CHECK_NAMES, CheckReport,
                       char_minus_check, ddbar_lemma_check, duality_check,
                       frolicher_check, non_ddbar_degrees, run_all_checks,
                       schweitzer_pairing_check, upper_bound_check)
from .cohomology import (AllTables, CohomologyTable, FrolicherPages,
                         NaturalMapRanks, aeppli, all_tables, bott_chern,
                         conj_dolbeault, de_rham, dolbeault, frolicher_pages,
                         natural_maps)
from .exactla import ExactScalar, Matrix, Subspace
from .models import (from_structure_equations, iwasawa, kodaira_surface,
                     parse_structure_text, random_bicomplex, torus)
from .zigzag import (Decomposition, DecompositionError, Square, Zigzag,
                     count_cohomology_from_zigzags, decompose, mirror_part,
                     scramble_matrices, standard_conjugation, synthesize,
                     verify_decomposition)

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECK_NAMES", "AllTables", "Bicomplex", "CheckReport",
    "CohomologyTable", "Decomposition", "DecompositionError",
    "ExactScalar", "FrolicherPages", "Matrix", "NaturalMapRanks",
    "Square", "Subspace",
    "THEOREM_CHECK_NAMES", "Violation", "Zigzag", "aeppli", "all_tables",
    "bott_chern", "char_minus_check", "check_pairing_structure",
    "check_real_structure", "conj_dolbeault",
    "count_cohomology_from_zigzags", "ddbar_lemma_check",
    "de_rham", "decompose", "dolbeault", "duality_check", "ensure_valid",
    "frolicher_check", "frolicher_pages", "from_structure_equations",
    "iwasawa", "kodaira_surface", "mirror_part", "natural_maps",
    "non_ddbar_degrees", "parse_structure_text", "random_bicomplex",
    "run_all_checks", "schweitzer_pairing_check", "scramble_matrices",
    "standard_conjugation", "synthesize", "torus",
    "totalize", "upper_bound_check", "validate", "verify_decomposition",
]
