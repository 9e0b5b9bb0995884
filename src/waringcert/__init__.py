"""Exact certification of Waring decompositions of symmetric tensors.

The package takes a finite set of rational projective points (a candidate
decomposition of a degree-d form into d-th powers of linear forms) and
computes exact invariants: Hilbert function profiles, Cayley-Bacharach
properties, Kruskal ranks of Veronese images, and Terracini dimensions.
A cascade of sufficient criteria turns these invariants into certificates
of rank and uniqueness.  All arithmetic is exact: every rank is taken on
integer rows built from primitive integer representatives of the points.
"""

from .certify import (Certificate, Diagnostics, GenericInfo, Verdict, certify,
                      check_minimal, complementary_bound, generic_info)
from .geometry import (DuplicatePointError, PointSet, ProjectivePoint,
                       max_collinear_subset_size, monomial_basis,
                       monomial_values, random_point_set, union)
from .hilbert import (HilbertProfile, check_gkr_inequality, gup_cutoff,
                      hilbert_function, hilbert_profile, satisfies_cb,
                      separates_point, span_dim, span_intersection_dim,
                      union_profile_drop)
from .kruskal import (KruskalReport, ReshapingSearch, degree_partitions, is_gup,
                      is_lgp, kruskal_and_collinear, kruskal_rank,
                      reshaped_kruskal, veronese_kruskal_rank)
from .linalg import integer_rank
from .terracini import (TerraciniReport, generic_terracini_dimension,
                        terracini_dimension)

__version__ = "0.3.0"

__all__ = [
    "Certificate", "Diagnostics", "DuplicatePointError", "GenericInfo",
    "HilbertProfile", "KruskalReport", "PointSet", "ProjectivePoint",
    "ReshapingSearch", "TerraciniReport", "Verdict", "certify",
    "check_gkr_inequality", "check_minimal", "complementary_bound",
    "degree_partitions", "generic_info", "generic_terracini_dimension",
    "gup_cutoff", "hilbert_function", "hilbert_profile", "integer_rank",
    "is_gup", "is_lgp", "kruskal_and_collinear", "kruskal_rank",
    "max_collinear_subset_size", "monomial_basis", "monomial_values",
    "random_point_set", "reshaped_kruskal", "satisfies_cb", "separates_point",
    "span_dim", "span_intersection_dim", "terracini_dimension", "union",
    "union_profile_drop", "veronese_kruskal_rank",
]
