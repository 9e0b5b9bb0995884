"""Exact certification of Waring decompositions of symmetric tensors.

The package takes a finite set of rational projective points (a candidate
decomposition of a degree-d form into d-th powers of linear forms) and
computes exact invariants: Hilbert function profiles, Cayley-Bacharach
properties, Kruskal ranks of Veronese images, and Terracini dimensions.
A cascade of sufficient criteria turns these invariants into certificates
of rank and uniqueness.  All arithmetic is exact: every rank is taken on
integer rows built from primitive integer representatives of the points,
and no ``Fraction`` is built outside ``ProjectivePoint.coords``.

Importing the package runs none of its layers.  Each layer module is
registered in ``sys.modules`` through ``importlib.util.LazyLoader``, so its
body runs when one of its attributes is first read, and each public name
is read from its layer on first use (PEP 562).  A cold CLI run thus loads
only the layers its verb uses.  A module registered this way is never
bound onto the package, so ``waringcert.certify`` is always the function,
whatever was imported first; ``importlib.import_module("waringcert.certify")``
gives the module.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.3.0"

# The public names of each layer module.
_EXPORTS = {
    "linalg": ("integer_rank",),
    "geometry": ("DuplicatePointError", "PointSet", "ProjectivePoint",
                 "max_collinear_subset_size", "monomial_basis", "monomial_values",
                 "random_point_set", "union"),
    "hilbert": ("HilbertProfile", "check_gkr_inequality", "gup_cutoff",
                "hilbert_function", "hilbert_profile", "satisfies_cb",
                "separates_point", "span_dim", "span_intersection_dim",
                "union_profile_drop"),
    "kruskal": ("KruskalReport", "ReshapingSearch", "degree_partitions", "is_gup",
                "is_lgp", "kruskal_and_collinear", "kruskal_rank", "reshaped_kruskal",
                "veronese_kruskal_rank"),
    "terracini": ("TerraciniReport", "generic_terracini_dimension",
                  "terracini_dimension"),
    "certify": ("Certificate", "Diagnostics", "GenericInfo", "Verdict", "certify",
                "check_minimal", "complementary_bound", "generic_info"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)

for _layer in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_layer}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _layer, _spec, _module


def __getattr__(name: str) -> object:
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[f"{__name__}.{layer}"], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
